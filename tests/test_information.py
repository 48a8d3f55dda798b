import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefactor.errors import UndefinedQuantityError
from treefactor.information import (
    Estimates,
    JointDistribution,
    MeasuredQuantity,
    empirical_joint,
    maximal_correlation,
    symmetric_binary_joint,
)

LOG2 = math.log(2.0)
# frozen: -0.75*log(0.75) - 0.25*log(0.25)
H_3QUARTERS = 0.5623351446188083
# frozen: log(2) - H_3QUARTERS
MI_3QUARTERS = 0.1308120359411370


def random_joint(rng, m=None, n=None):
    m = m if m is not None else int(rng.integers(2, 6))
    n = n if n is not None else int(rng.integers(2, 6))
    matrix = rng.random((m, n)) ** 2 + 1e-12
    return JointDistribution.from_array(matrix / matrix.sum())


def exchangeable_joint(rng, m=None):
    m = m if m is not None else int(rng.integers(2, 6))
    matrix = rng.random((m, m)) ** 2 + 1e-12
    matrix = matrix + matrix.T
    return JointDistribution.from_array(matrix / matrix.sum())


def entropy(p) -> float:
    """H(X) of a law p, read from the joint of X with a constant."""
    return Estimates(JointDistribution.from_array(np.asarray(p)[:, None])).quantity("h_x").value


def corr(J: JointDistribution, f, g) -> float:
    return Estimates(J, f, g).quantity("corr").value


def copies(J: JointDistribution, n: int) -> JointDistribution:
    """The joint law of n independent copies of (X, Y)."""
    return JointDistribution.from_array(reduce(np.kron, [J.as_array] * n))


class TestValidation:
    def test_joint_validation(self):
        with pytest.raises(ValueError):
            JointDistribution.from_array([[0.7, 0.7]])
        with pytest.raises(ValueError):
            JointDistribution.from_array([[1.2, -0.2]])

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            JointDistribution.from_array([[0.5], [0.6]])
        with pytest.raises(ValueError, match="negative"):
            JointDistribution.from_array([[1.5], [-0.5]])
        assert JointDistribution.from_array([[0.25], [0.75]]).shape == (2, 1)

    def test_measured_quantity_formatting(self):
        q = MeasuredQuantity(0.130812, 0.0021)
        assert "0.130812" in str(q) and "nats" in str(q)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy((0.5, 0.5)) == pytest.approx(LOG2, abs=1e-12)

    def test_point_mass(self):
        assert entropy((1.0, 0.0)) == 0.0

    def test_biased_binary(self):
        assert entropy((0.75, 0.25)) == pytest.approx(
            H_3QUARTERS, abs=1e-12
        )

    def test_bounded_by_log_m(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.random(4)
            p /= p.sum()
            h = entropy(p)
            assert -1e-12 <= h <= math.log(4) + 1e-12


class TestJointQuantities:
    def test_product_of_uniform_binaries(self):
        est = Estimates(JointDistribution.from_array(np.full((2, 2), 0.25)))
        assert est.quantity("h_xy").value == pytest.approx(2 * LOG2, abs=1e-12)
        assert est.quantity("mi").value == pytest.approx(0.0, abs=1e-12)
        assert est.quantity("h_x_given_y").value == pytest.approx(LOG2, abs=1e-12)
        assert est.quantity("nmi_y").value == pytest.approx(0.0, abs=1e-12)

    def test_equal_variables(self):
        est = Estimates(JointDistribution.from_array([[0.5, 0.0], [0.0, 0.5]]))
        assert est.quantity("h_xy").value == pytest.approx(LOG2, abs=1e-12)
        assert est.quantity("mi").value == pytest.approx(LOG2, abs=1e-12)
        assert est.quantity("h_x_given_y").value == pytest.approx(0.0, abs=1e-12)
        assert est.quantity("nmi_y").value == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_binary_agreement_three_quarters(self):
        est = Estimates(symmetric_binary_joint(0.75))
        assert est.quantity("h_xy").value == pytest.approx(LOG2 + H_3QUARTERS, abs=1e-12)
        assert est.quantity("mi").value == pytest.approx(MI_3QUARTERS, abs=1e-12)
        assert est.quantity("h_x_given_y").value == pytest.approx(H_3QUARTERS, abs=1e-12)
        assert est.quantity("nmi_y").value == pytest.approx(MI_3QUARTERS / LOG2, abs=1e-12)

    def test_conditional_entropy_expectation_form(self):
        # oracle: sum over y of P(y) * H(X | Y=y)
        rng = np.random.default_rng(7)
        for _ in range(25):
            J = random_joint(rng)
            m = J.as_array
            py = m.sum(axis=0)
            expected = 0.0
            for j, pyj in enumerate(py):
                cond = m[:, j] / pyj
                expected += pyj * float(-(cond[cond > 0] * np.log(cond[cond > 0])).sum())
            assert Estimates(J).quantity("h_x_given_y").value == pytest.approx(expected, abs=1e-10)

    def test_zero_entropy_marginal_signals_undefined(self):
        J = JointDistribution.from_array([[0.5], [0.5]])
        with pytest.raises(UndefinedQuantityError):
            Estimates(J).quantity("nmi_y")

    def test_zero_entropy_x_marginal_signals_undefined(self):
        est = Estimates(JointDistribution.from_array([[0.5, 0.5]]))
        with pytest.raises(UndefinedQuantityError):
            est.quantity("nmi_x")
        assert est.quantity("nmi_y").value == pytest.approx(0.0, abs=1e-12)

    def test_conditioning_on_x_on_random_joints(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            J = random_joint(rng)
            hx = entropy(J.as_array.sum(axis=1))
            hy = entropy(J.as_array.sum(axis=0))
            est = Estimates(J)
            i_xy = est.quantity("mi").value
            assert est.quantity("h_xy").value == pytest.approx(
                hx + est.quantity("h_y_given_x").value, abs=1e-10
            )
            assert est.quantity("nmi_x").value == pytest.approx(i_xy / hx, abs=1e-10)
            assert est.quantity("nmi_y").value == pytest.approx(i_xy / hy, abs=1e-10)

    def test_information_identities_on_random_joints(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            J = random_joint(rng)
            est = Estimates(J)
            i_xy = est.quantity("mi").value
            i_yx = Estimates(JointDistribution.from_array(J.as_array.T)).quantity("mi").value
            assert i_xy == pytest.approx(i_yx, abs=1e-12)
            hx = entropy(J.as_array.sum(axis=1))
            hy = entropy(J.as_array.sum(axis=0))
            assert i_xy >= -1e-10
            assert i_xy <= min(hx, hy) + 1e-10
            # chain identity
            assert est.quantity("h_xy").value == pytest.approx(
                hy + est.quantity("h_x_given_y").value, abs=1e-10
            )


class TestEmpirical:
    def test_tiny_examples(self):
        J = empirical_joint([(0, 0), (1, 1)], seed=0)
        assert J.as_array.tolist() == [[0.5, 0.0], [0.0, 0.5]]
        J2 = empirical_joint([(0, 1)] * 5, seed=0)
        assert J2.as_array[0, 1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_joint([], seed=0)

    @pytest.mark.parametrize(
        "samples, shape, match",
        [
            # numpy indexing would count (-1, 0) in the last row
            ([(-1, 0), (0, 1)], (2, 2), "negative"),
            # the inferred shape would be 1x1 and hold both samples
            ([(-1, 0), (0, 0)], None, "negative"),
            ([(2, 0), (0, 1)], (2, 2), "outside the shape"),
            ([(0, 2), (1, 1)], (2, 2), "outside the shape"),
        ],
    )
    def test_index_outside_the_alphabet_rejected(self, samples, shape, match):
        with pytest.raises(ValueError, match=match):
            empirical_joint(samples, seed=1, shape=shape)

    def test_independent_pairs_mi_near_zero(self):
        rng = np.random.default_rng(2024)
        samples = list(zip(rng.integers(0, 2, 10_000), rng.integers(0, 2, 10_000)))
        J = empirical_joint(samples, seed=2024)
        mi = Estimates(J).quantity("mi")
        assert mi.stderr > 0
        assert abs(mi.value) <= 3 * mi.stderr + 1e-9

    def test_seeded_samples_recover_known_mi(self):
        rng = np.random.default_rng(77)
        n = 100_000
        x = rng.integers(0, 2, n)
        agree = rng.random(n) < 0.75
        y = np.where(agree, x, 1 - x)
        J = empirical_joint(list(zip(x, y)), seed=77)
        mi = Estimates(J).quantity("mi")
        assert abs(mi.value - MI_3QUARTERS) <= 3 * mi.stderr

    def test_bootstrap_deterministic(self):
        samples = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0)]
        a = Estimates(empirical_joint(samples, seed=5)).quantity("mi")
        b = Estimates(empirical_joint(samples, seed=5)).quantity("mi")
        assert a == b

    def test_bootstrap_skips_degenerate_resamples(self):
        # with 3 samples, many resamples collapse a marginal; the ratio's
        # stderr must still come out finite
        J = empirical_joint([(0, 0), (1, 1), (0, 1)], seed=9)
        q = Estimates(J).quantity("nmi_y")
        assert math.isfinite(q.stderr)


class TestMaximalCorrelation:
    def test_product_is_zero(self):
        J = JointDistribution.from_array(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
        assert maximal_correlation(J) <= 1e-10

    def test_equal_variables_is_one(self):
        J = JointDistribution.from_array(np.diag([0.2, 0.3, 0.5]))
        assert maximal_correlation(J) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_binary_closed_form(self):
        for q in (0.0, 0.1, 0.25, 0.5, 0.62, 0.75, 0.9, 1.0):
            J = symmetric_binary_joint(q)
            assert maximal_correlation(J) == pytest.approx(abs(2 * q - 1), abs=1e-8)
            # on binary alphabets every non-constant function is affine in
            # the identity, so the functional search collapses to one value
            if 0 < q < 1:
                c = corr(J, (1.0, -1.0), (1.0, -1.0))
                assert maximal_correlation(J) == pytest.approx(abs(c), abs=1e-8)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            J = random_joint(rng)
            m = J.as_array
            px = m.sum(axis=1)
            py = m.sum(axis=0)
            q = m / np.sqrt(np.outer(px, py))
            sv = np.linalg.svd(q, compute_uv=False)
            assert maximal_correlation(J) == pytest.approx(sv[1], abs=1e-8)

    def test_zero_probability_states_dropped(self):
        J = JointDistribution.from_array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        assert maximal_correlation(J) == pytest.approx(1.0, abs=1e-10)

    def test_mi_bounded_by_functional_correlation(self):
        # I <= (m-1) * alpha^2 for every finite joint
        rng = np.random.default_rng(3)
        for _ in range(200):
            J = random_joint(rng)
            alpha = maximal_correlation(J)
            m = J.shape[0]
            assert Estimates(J).quantity("mi").value <= (m - 1) * alpha**2 + 1e-8


class TestCorrelationOfFunctions:
    def test_identity_on_diagonal(self):
        J = JointDistribution.from_array([[0.5, 0.0], [0.0, 0.5]])
        assert corr(J, (0.0, 1.0), (0.0, 1.0)) == pytest.approx(1.0)

    def test_sign_flip(self):
        J = JointDistribution.from_array([[0.5, 0.0], [0.0, 0.5]])
        assert corr(J, (1.0, -1.0), (-1.0, 1.0)) == pytest.approx(-1.0)

    def test_product_gives_zero(self):
        J = JointDistribution.from_array(np.outer([0.4, 0.6], [0.5, 0.5]))
        assert corr(J, (0.0, 1.0), (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_constant_function_undefined(self):
        J = symmetric_binary_joint(0.75)
        with pytest.raises(UndefinedQuantityError):
            corr(J, (1.0, 1.0), (0.0, 1.0))


class TestTensorPower:
    def test_n1_is_same_law(self):
        J = symmetric_binary_joint(0.7)
        assert np.allclose(copies(J, 1).as_array, J.as_array)
        # a Y coordinate that is always 0 adds zero columns and no information
        padded = JointDistribution.from_array(np.kron(J.as_array, [[1.0, 0.0]]))
        for name in ("h_x", "h_y", "h_xy", "mi", "nmi_x", "nmi_y"):
            assert Estimates(padded).quantity(name).value == pytest.approx(
                Estimates(J).quantity(name).value, abs=1e-12
            )

    def test_product_stays_product(self):
        J = JointDistribution.from_array(np.outer([0.4, 0.6], [0.5, 0.5]))
        assert Estimates(copies(J, 3)).quantity("mi").value == pytest.approx(0.0, abs=1e-10)

    def test_quantities_scale_linearly(self):
        J = symmetric_binary_joint(0.75)
        one, two = Estimates(J), Estimates(copies(J, 2))
        assert two.quantity("mi").value == pytest.approx(2 * MI_3QUARTERS, abs=1e-10)
        assert two.quantity("h_xy").value == pytest.approx(
            2 * one.quantity("h_xy").value, abs=1e-10
        )
        assert two.quantity("nmi_y").value == pytest.approx(
            one.quantity("nmi_y").value, abs=1e-10
        )

    def test_maximal_correlation_does_not_drop(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            J = random_joint(rng, 2, 2)
            assert maximal_correlation(copies(J, 2)) >= maximal_correlation(J) - 1e-8


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_exchangeable_pair_functional_correlation_identity(seed):
    # for exchangeable pairs, allowing two different functions does not
    # beat the best single function; derandomized so the examples are
    # the same on every run
    rng = np.random.default_rng(seed)
    J = exchangeable_joint(rng)
    two_sided = maximal_correlation(J)
    m = J.as_array
    px = m.sum(axis=1)
    q = m / np.sqrt(np.outer(px, px))
    s = np.sqrt(px)
    proj = np.eye(len(px)) - np.outer(s, s)
    eigs = np.linalg.eigvalsh(proj @ q @ proj)
    one_sided = float(np.max(np.abs(eigs)))
    assert two_sided - one_sided <= 1e-6
