import math
from fractions import Fraction

import numpy as np
import pytest

from treefactor.bounds import (
    correlation_bound,
    fixed_process_mi_bound,
    fixed_process_verdict,
    make_verdict,
    normalized_mi_bound,
    sharpness_report,
    universal_verdict,
)
from treefactor.information import (
    Estimates,
    JointDistribution,
    MeasuredQuantity,
    joint_from_counts,
    symmetric_binary_joint,
)

UNIFORM_PRODUCT = JointDistribution.from_array(np.full((2, 2), 0.25))
DIAGONAL = JointDistribution.from_array([[0.5, 0.0], [0.0, 0.5]])


class TestBoundFormulas:
    def test_distance_bound_values(self):
        assert normalized_mi_bound(3, 1) == Fraction(2, 3)
        assert normalized_mi_bound(3, 2) == Fraction(1, 2)
        assert normalized_mi_bound(4, 3) == Fraction(1, 6)

    def test_distance_bound_recursions(self):
        for d in (3, 4, 5, 6):
            for k in range(1, 8):
                assert normalized_mi_bound(d, k + 2) == normalized_mi_bound(d, k) / (d - 1)
            for l in range(1, 4):
                assert (
                    normalized_mi_bound(d, 2 * l + 1)
                    == normalized_mi_bound(d, 2 * l) * Fraction(2, d)
                )

    def test_distance_bound_validation(self):
        with pytest.raises(ValueError):
            normalized_mi_bound(3, 0)
        with pytest.raises(ValueError):
            normalized_mi_bound(2, 1)

    def test_fixed_process_bound(self):
        assert fixed_process_mi_bound(3, 2, 2) == pytest.approx(4.5)
        assert fixed_process_mi_bound(3, 1, 2) == pytest.approx(4.0)
        assert fixed_process_mi_bound(3, 2, 4) == pytest.approx(2 * fixed_process_mi_bound(3, 2, 2))

    def test_correlation_bound(self):
        assert correlation_bound(3, 1) == pytest.approx((4 / 3) / math.sqrt(2))
        assert correlation_bound(3, 2) == pytest.approx(5 / 6)


class TestVerdicts:
    def test_exact_measurements_use_zero_slack(self):
        v = make_verdict("demo", 0.5, MeasuredQuantity(0.499999, 0.0))
        assert v.passed and v.slack == 0.0
        v2 = make_verdict("demo", 0.5, MeasuredQuantity(0.500001, 0.0))
        assert not v2.passed

    def test_empirical_measurements_get_three_sigma(self):
        v = make_verdict("demo", 0.5, MeasuredQuantity(0.502, 0.001))
        assert v.slack == pytest.approx(0.003)
        assert v.passed

    def test_rendering(self):
        v = make_verdict("distance bound (d=3,k=2)", 0.5, MeasuredQuantity(0.41, 0.002))
        assert "PASS" in str(v)
        assert "0.41" in str(v)
        assert str(make_verdict("x", 0.1, MeasuredQuantity(0.2, 0.0))).endswith("FAIL")

    def test_universal_and_fixed_wrappers(self):
        assert universal_verdict(3, 2, MeasuredQuantity(0.3)).passed
        assert not universal_verdict(3, 2, MeasuredQuantity(0.6)).passed
        assert fixed_process_verdict(3, 4, 2, MeasuredQuantity(0.3)).passed


class TestEdgeBound:
    """The edge bound I/H <= 2/d is the universal bound at k = 1."""

    def test_universal_bound_at_distance_one_is_two_over_d(self):
        for d in range(3, 9):
            assert normalized_mi_bound(d, 1) == Fraction(2, d)

    def test_product_passes(self):
        verdict = universal_verdict(3, 1, Estimates(UNIFORM_PRODUCT).quantity("nmi_y"))
        assert verdict.passed
        assert verdict.measured.value == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling_fails(self):
        # I/H = 1 > 2/3: correctly flags a law no local rule can produce
        verdict = universal_verdict(3, 1, Estimates(DIAGONAL).quantity("nmi_y"))
        assert not verdict.passed
        assert verdict.bound == pytest.approx(2 / 3)

    def test_empirical_marginal_tolerance(self):
        # sampled marginals differ a little; the bootstrap slack absorbs it
        counts = np.array([[2505, 2495], [2490, 2510]])
        J = joint_from_counts(counts, seed=0)
        assert not np.allclose(J.as_array.sum(axis=0), J.as_array.sum(axis=1))
        verdict = universal_verdict(3, 1, Estimates(J).quantity("nmi_y"))
        assert verdict.passed
        assert verdict.slack > 0.0

    def test_unequal_marginals_verdict_follows_the_chosen_marginal(self):
        # Y uniform on 4 states, X = Y mod 2: I = H(X) = log 2, H(Y) = log 4
        J = JointDistribution.from_array([[0.25, 0.0, 0.25, 0.0], [0.0, 0.25, 0.0, 0.25]])
        by_y = universal_verdict(3, 1, Estimates(J).quantity("nmi_y"))
        by_x = universal_verdict(3, 1, Estimates(J).quantity("nmi_x"))
        assert by_y.measured.value == pytest.approx(0.5, abs=1e-12)
        assert by_y.passed
        assert by_x.measured.value == pytest.approx(1.0, abs=1e-12)
        assert not by_x.passed

    def test_invariant_under_independent_copies(self):
        J = symmetric_binary_joint(0.75)
        J2 = JointDistribution.from_array(np.kron(J.as_array, J.as_array))
        v1 = universal_verdict(3, 1, Estimates(J).quantity("nmi_y"))
        v2 = universal_verdict(3, 1, Estimates(J2).quantity("nmi_y"))
        assert v1.passed == v2.passed
        assert v1.measured.value == pytest.approx(v2.measured.value, abs=1e-10)


class TestSharpnessReport:
    def test_first_row_example(self):
        rows = sharpness_report(3, 1, 2)
        assert rows[0].ratio == pytest.approx(0.6)
        assert rows[0].bound == pytest.approx(2 / 3)
        assert rows[0].gap == pytest.approx(2 / 3 - 0.6)
        assert rows[0].gap_non_increasing

    def test_disjoint_balls_give_zero_ratio(self):
        rows = sharpness_report(3, 4, 1)
        assert rows[-1].ratio == pytest.approx(0.0)

    def test_gaps_shrink_on_grid(self):
        for row in sharpness_report(4, 4, 8):
            assert row.gap_non_increasing
            assert row.gap >= 0
