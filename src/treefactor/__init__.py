"""Factor-of-i.i.d. processes on regular trees: construction, measurement,
and information-decay bounds."""

from .bounds import (
    BoundVerdict,
    correlation_bound,
    fixed_process_mi_bound,
    fixed_process_verdict,
    normalized_mi_bound,
    sharpness_report,
    universal_verdict,
)
from .errors import (
    BudgetExceededError,
    InvariantError,
    LocalAlgorithmError,
    TreeFactorError,
    TruncationError,
    UndefinedQuantityError,
)
from .information import (
    JointDistribution,
    MeasuredQuantity,
    empirical_joint,
    maximal_correlation,
    symmetric_binary_joint,
)
from .processes import (
    BlockFactorRule,
    FiniteGraphInstance,
    GaussianSignSpec,
    ProcessMeasurement,
    exact_joint,
    gaussian_cov,
    gaussian_sign_closed_form,
    gaussian_sign_measure,
    listing_finite_N_mi,
    mc_joint,
    random_regular_graph,
    sign_corr,
    sparse_coloring,
    sparse_set_labeling,
)
from .tree import (
    BallRegion,
    ball,
    ball_intersection_size,
    ball_size,
    dist,
    listing_ratio,
    origin,
    vertex_at_distance,
)
from .words import (
    CertificateReport,
    FreeProductSignature,
    GeneratingSet,
    VerificationReport,
    Word,
    build_generators,
    certify_free_claim,
    expected_rank,
    inverse,
    is_palindrome,
    multiply,
    verify_coset_factorization,
    verify_free_claim,
    word_from_str,
    word_to_str,
)

__version__ = "0.1.0"
