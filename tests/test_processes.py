import math
import re
import tracemalloc
from dataclasses import fields
from itertools import product as iproduct

import numpy as np
import pytest

from treefactor.errors import BudgetExceededError, TruncationError
from treefactor.information import Estimates, symmetric_binary_joint
from treefactor.processes import (
    DEFAULT_REGION_VERTEX_BUDGET,
    GaussianSignSpec,
    _pair_factor,
    _sign_pair_weights,
    _two_balls,
    canonical_ball_code,
    check_sparse_coloring,
    check_sparse_set,
    exact_joint,
    gaussian_cov,
    gaussian_cov_tail_bound,
    gaussian_sign_closed_form,
    gaussian_sign_measure,
    identity_rule,
    listing_finite_N_mi,
    majority_rule,
    mc_joint,
    measurement_from_joint,
    parity_rule,
    random_regular_graph,
    short_cycle_count,
    sign_corr,
    sparse_coloring,
    sparse_set_labeling,
    tree_ball_graph,
)
from treefactor.tree import ball_size, listing_ratio, origin, vertex_at_distance
from treefactor.words import _ball_words

# frozen: independent nested-loop enumeration over the 2^|region| binary
# configurations around a distance-k pair in the 3-regular tree
MAJORITY_D3_JOINTS = {
    1: [[0.34375, 0.15625], [0.15625, 0.34375]],
    2: [[0.265625, 0.234375], [0.234375, 0.265625]],
    3: [[0.25, 0.25], [0.25, 0.25]],
}
MAJORITY_D3_MI = {
    1: 0.072060806005,
    2: 0.001954398557,
    3: 0.0,
}


def binary_symmetric_mi(q: float) -> float:
    """MI in nats of a +-1 symmetric pair with uniform marginals and
    agreement probability q: the Gaussian closed form's MI, computed
    without the statistics kernel."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    hb = 0.0
    for p in (q, 1.0 - q):
        if p > 0:
            hb -= p * math.log(p)
    return math.log(2.0) - hb


def is_regular(G):
    """Every vertex of the finite graph has degree G.d."""
    return all(len(nbrs) == G.d for nbrs in G.adjacency)


def exchangeability_gap(pm):
    """Largest entry of |J - Jᵀ| for the measured joint."""
    m = pm.joint.as_array
    return float(abs(m - m.T).max())


def nested_loop_majority_joint(k):
    """Oracle: adjacency built by hand, no canonicalization machinery."""
    path = list(range(k + 1))
    adj = {p: [] for p in path}
    for a, b in zip(path, path[1:]):
        adj[a].append(b)
        adj[b].append(a)
    nxt = k + 1
    for p in list(adj):
        while len(adj[p]) < 3:
            adj[nxt] = [p]
            adj[p].append(nxt)
            nxt += 1
    region = sorted(set([0] + adj[0] + [k] + adj[k]))
    joint = np.zeros((2, 2))
    for bits in iproduct((0, 1), repeat=len(region)):
        lab = dict(zip(region, bits))

        def maj(v):
            ones = lab[v] + sum(lab[w] for w in adj[v])
            total = 1 + len(adj[v])
            if 2 * ones > total:
                return 1
            if 2 * ones < total:
                return 0
            return lab[v]

        joint[maj(0), maj(k)] += 0.5 ** len(region)
    return joint


class TestCanonicalization:
    def test_equivariance_under_child_permutation(self):
        children = ((1, 2, 3), (), (), ())
        code_a = canonical_ball_code([1, 0, 1, 0], 0, children)
        code_b = canonical_ball_code([1, 1, 0, 0], 0, children)
        code_c = canonical_ball_code([1, 0, 0, 1], 0, children)
        assert code_a == code_b == code_c

    def test_root_label_distinguished(self):
        children = ((1, 2, 3), (), (), ())
        assert canonical_ball_code([1, 0, 0, 0], 0, children) != canonical_ball_code(
            [0, 1, 0, 0], 0, children
        )

    def test_depth_two_structure(self):
        children = ((1, 2), (3,), (4,), (), ())
        swapped = canonical_ball_code([0, 1, 0, 0, 1], 0, children)
        direct = canonical_ball_code([0, 0, 1, 1, 0], 0, children)
        assert swapped == direct


class TestExactJoint:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_majority_matches_nested_loop_oracle(self, k):
        pm = exact_joint(majority_rule(3), 3, k)
        oracle = nested_loop_majority_joint(k)
        assert np.allclose(pm.joint.as_array, oracle, atol=1e-14)
        assert np.allclose(pm.joint.as_array, MAJORITY_D3_JOINTS[k], atol=1e-12)
        assert pm.mi.value == pytest.approx(MAJORITY_D3_MI[k], abs=1e-9)
        assert pm.mi.stderr == 0.0
        assert pm.method == "exact-enumeration"

    def test_identity_rule_independent(self):
        pm = exact_joint(identity_rule(3), 3, 4)
        assert pm.mi.value == pytest.approx(0.0, abs=1e-12)
        assert pm.nmi.value == pytest.approx(0.0, abs=1e-12)

    def test_parity_rule_pairwise_independent(self):
        # each ball contains a private uniform bit, so the two parities
        # are independent even though the balls overlap
        for k in (1, 2):
            pm = exact_joint(parity_rule(3), 3, k)
            assert pm.mi.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_parity_information_and_correlation_are_exactly_zero(self, d, k):
        # Fair labels on the vertices of B_u outside B_v make parity(B_u)
        # independent of parity(B_v): the joint is uniform, and the sums are exact.
        pm = exact_joint(parity_rule(d), d, k)
        assert pm.joint.as_array.tolist() == [[0.25, 0.25], [0.25, 0.25]]
        assert pm.mi.value == 0.0
        assert pm.corr.value == 0.0

    def test_exchangeable(self):
        for k in (1, 2):
            pm = exact_joint(majority_rule(4), 4, k)
            assert exchangeability_gap(pm) <= 1e-12

    def test_budget_error_names_fallback(self):
        with pytest.raises(BudgetExceededError, match="mc_joint"):
            exact_joint(majority_rule(3), 3, 1, budget=10)

    def test_correlation_value(self):
        pm = exact_joint(majority_rule(3), 3, 1)
        # 2x2 symmetric binary: corr equals P(equal) - P(different)
        j = pm.joint.as_array
        assert pm.corr.value == pytest.approx(float(j.trace() - j[0, 1] - j[1, 0]), abs=1e-12)


class TestMcJoint:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_exact(self, k):
        exact = exact_joint(majority_rule(3), 3, k)
        mc = mc_joint(majority_rule(3), 3, k, 100_000, seed=99)
        assert abs(mc.mi.value - exact.mi.value) <= 3 * mc.mi.stderr
        assert abs(mc.corr.value - exact.corr.value) <= 3 * mc.corr.stderr

    def test_empirical_joint_exchangeable_within_noise(self):
        mc = mc_joint(majority_rule(3), 3, 1, 50_000, seed=4)
        # entry-level sampling noise is ~sqrt(p/n); allow three of those
        assert exchangeability_gap(mc) <= 3 * math.sqrt(0.35 / 50_000)

    def test_identity_rule_mi_near_zero(self):
        mc = mc_joint(identity_rule(3), 3, 2, 10_000, seed=7)
        assert abs(mc.mi.value) <= 3 * mc.mi.stderr + 1e-9

    def test_deterministic_given_seed(self):
        a = mc_joint(majority_rule(3), 3, 2, 5_000, seed=123)
        b = mc_joint(majority_rule(3), 3, 2, 5_000, seed=123)
        assert a.to_json() == b.to_json()

    def test_seed_changes_output(self):
        a = mc_joint(majority_rule(3), 3, 2, 5_000, seed=1)
        b = mc_joint(majority_rule(3), 3, 2, 5_000, seed=2)
        assert a.joint.as_array.tolist() != b.joint.as_array.tolist()

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            mc_joint(majority_rule(3), 3, 1, 0, seed=0)

    @pytest.mark.parametrize(
        "factory, d, k, seed, counts",
        [
            (majority_rule, 3, 2, 101, ((6628, 5811), (5839, 6722))),
            (parity_rule, 4, 3, 202, ((6280, 6267), (6185, 6268))),
        ],
    )
    def test_seeded_counts_are_pinned(self, factory, d, k, seed, counts):
        # Recorded before the region was built from letter tuples: the order
        # of the region's vertices decides which uniform labels which vertex,
        # so a reordered region changes these counts.
        pm = mc_joint(factory(d), d, k, 25_000, seed)
        assert pm.joint.counts == counts


class TestRandomRegularGraph:
    def test_k4_is_forced(self):
        G = random_regular_graph(4, 3, seed=0)
        assert sorted(G.adjacency[0]) == [1, 2, 3]
        assert is_regular(G)

    def test_degrees(self):
        G = random_regular_graph(1000, 3, seed=42)
        assert is_regular(G)
        assert G.n == 1000

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3, seed=0)
        with pytest.raises(ValueError):
            random_regular_graph(3, 3, seed=0)

    def test_few_short_cycles(self):
        G = random_regular_graph(1000, 3, seed=42)
        assert short_cycle_count(G, 6) < 50

    def test_deterministic(self):
        a = random_regular_graph(60, 3, seed=5)
        b = random_regular_graph(60, 3, seed=5)
        assert a.adjacency == b.adjacency

    def test_tree_ball_graph(self):
        G = tree_ball_graph(3, 3)
        assert G.n == ball_size(3, 3)
        assert sum(len(ns) for ns in G.adjacency) == 2 * (G.n - 1)


class TestSparseSet:
    def test_complete_graph_single_one(self):
        G = random_regular_graph(4, 3, seed=1)
        res = sparse_set_labeling(G, 1, seed=3)
        assert len(res.ones) == 1

    def test_properties_on_random_graph(self):
        G = random_regular_graph(500, 3, seed=8)
        res = sparse_set_labeling(G, 2, seed=9)
        sep, dom = check_sparse_set(G, res.labels, 2)
        assert sep and dom
        assert res.rounds >= 1

    def test_tree_ball_interior(self):
        G = tree_ball_graph(3, 6)
        res = sparse_set_labeling(G, 3, seed=4)
        sep, dom = check_sparse_set(G, res.labels, 3)
        assert sep and dom

    def test_deterministic(self):
        G = random_regular_graph(200, 3, seed=2)
        a = sparse_set_labeling(G, 2, seed=11)
        b = sparse_set_labeling(G, 2, seed=11)
        assert a.labels == b.labels

    def test_separation_validation(self):
        G = random_regular_graph(10, 3, seed=0)
        with pytest.raises(ValueError):
            sparse_set_labeling(G, 0, seed=0)


class TestSparseColoring:
    def test_distance_one_is_proper_coloring(self):
        G = random_regular_graph(200, 3, seed=21)
        res = sparse_coloring(G, 1, seed=22)
        for u, nbrs in enumerate(G.adjacency):
            for v in nbrs:
                assert res.colors[u] != res.colors[v]
        assert res.color_count <= 4  # ball_size(3, 1)

    def test_color_cap_and_separation(self):
        G = random_regular_graph(500, 3, seed=31)
        res = sparse_coloring(G, 2, seed=32)
        assert res.color_count <= ball_size(3, 2) == 10
        assert check_sparse_coloring(G, res.colors, 2)

    def test_single_phase_when_graph_tiny(self):
        G = random_regular_graph(4, 3, seed=1)
        res = sparse_coloring(G, 1, seed=2)
        assert res.color_count <= 4
        assert check_sparse_coloring(G, res.colors, 1)

    def test_all_vertices_colored(self):
        G = random_regular_graph(300, 3, seed=41)
        res = sparse_coloring(G, 2, seed=42)
        assert min(res.colors) >= 1


class TestListing:
    def test_closed_form_examples(self):
        assert float(listing_ratio(3, 2, 1)) == pytest.approx(0.6)
        assert float(listing_ratio(3, 2, 5)) == 0.0
        assert float(listing_ratio(3, 12, 2)) == pytest.approx(0.5, abs=1e-3)

    def test_finite_label_count_approaches_ratio(self):
        G = random_regular_graph(200, 3, seed=11)
        coloring = sparse_coloring(G, 3, seed=12)  # L = 2R+k for R=1, k=1
        target = float(listing_ratio(3, 1, 1))
        gaps = []
        for n_labels in (2, 16, 256):
            pm = listing_finite_N_mi(3, 1, 1, n_labels, coloring)
            gaps.append(abs(pm.nmi.value - target))
            assert pm.joint is None
            assert pm.nmi.stderr > 0
        assert gaps[2] < gaps[0]
        assert gaps[2] < 0.06

    def test_coloring_separation_precondition(self):
        G = random_regular_graph(100, 3, seed=13)
        coloring = sparse_coloring(G, 2, seed=14)
        with pytest.raises(ValueError):
            listing_finite_N_mi(3, 1, 1, 16, coloring)  # needs L >= 3

    @pytest.mark.parametrize("d, radius, k, message", [
        (3, -1, 1, "radius must be >= 0"),
        (3, 0, 0, "k must be >= 1"),  # k=0 would pair each vertex with itself
        (4, 0, 1, "does not match the colored graph's degree 3"),
    ], ids=["radius", "k", "d"])
    def test_rejects_inputs_it_cannot_measure(self, d, radius, k, message):
        G = random_regular_graph(100, 3, seed=13)
        coloring = sparse_coloring(G, 3, seed=14)
        with pytest.raises(ValueError, match=message):
            listing_finite_N_mi(d, radius, k, 16, coloring)

    def test_memory_stays_flat_at_ten_thousand_vertices(self):
        # 1.25 x the 14.8 MiB of the per-pair bootstrap that the shared
        # resampler replaced; one draw of all 200 resamples over the
        # distinct pattern pairs would take about 377 MiB.
        G = random_regular_graph(10_000, 3, seed=3)
        coloring = sparse_coloring(G, 4, seed=4)  # L = 2R+k for R=1, k=2
        tracemalloc.start()
        try:
            pm = listing_finite_N_mi(3, 1, 2, 16, coloring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 14.8 * 2**20
        assert min(pm.entropy_v.stderr, pm.mi.stderr, pm.nmi.stderr) > 0


class TestGaussianCov:
    def test_variance_matches_sphere_sum(self):
        spec = GaussianSignSpec(3, 0.25, 50, tail_tol=None)
        direct = sum(
            3 * 2 ** (j - 1) * spec.alpha(j) ** 2 for j in range(1, 51)
        )
        assert gaussian_cov(spec, 0) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_matches_ball_enumeration_oracle(self, k):
        # oracle: walk every vertex of the two truncation balls
        spec = GaussianSignSpec(3, 0.25, 9, tail_tol=None)
        u = origin(3)
        v = vertex_at_distance(u, k)
        sig = u.sig
        ball_u = set(_ball_words(sig, 9, u.letters))
        ball_v = set(_ball_words(sig, 9, v.letters))
        total = 0.0
        for w in ball_u & ball_v:
            du = len(w)
            dv = len(v.letters) + len(w) - 2 * _common_prefix(v.letters, w)
            total += spec.alpha(du) * spec.alpha(dv)
        assert gaussian_cov(spec, k) == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("D", [8, 1000, 300_000])
    @pytest.mark.parametrize("eps", [0.25, 0.1])
    @pytest.mark.parametrize("d", [3, 5])
    def test_power_table_is_bit_identical_to_one_pow_per_sum(self, d, D, eps):
        # oracle: every class sum raises its own distances to -1/2-eps
        spec = GaussianSignSpec(d, eps, D, tail_tol=None)
        for k in range(1, 9):
            scale = (d - 1) ** (-k / 2)
            total = 0.0
            for j in range(1, k):
                total += scale * (j * (k - j)) ** (-0.5 - eps)
            for j in range(1, k):
                n = np.arange(1, D - max(j, k - j) + 1, dtype=float)
                if len(n):
                    total += (d - 2) / (d - 1) * scale * float(
                        np.sum((j + n) ** (-0.5 - eps) * (k - j + n) ** (-0.5 - eps)))
            n = np.arange(1, D - k + 1, dtype=float)
            if len(n):
                total += 2 * scale * float(np.sum(n ** (-0.5 - eps) * (n + k) ** (-0.5 - eps)))
            assert gaussian_cov(spec, k) == total, k

    def test_nonnegative_and_decreasing(self):
        spec = GaussianSignSpec(3, 0.25, 60, tail_tol=None)
        values = [gaussian_cov(spec, k) for k in range(0, 10)]
        assert all(v >= 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_tail_bound_dominates_tail_increments(self):
        for k in (0, 2, 5):
            for D in (12, 25):
                a = gaussian_cov(GaussianSignSpec(3, 0.25, D, tail_tol=None), k)
                b = gaussian_cov(GaussianSignSpec(3, 0.25, D + 10, tail_tol=None), k)
                bound = gaussian_cov_tail_bound(GaussianSignSpec(3, 0.25, D, tail_tol=None), k)
                assert bound >= abs(b - a)

    def test_truncation_error_names_required_radius(self):
        spec = GaussianSignSpec(3, 0.25, 10, tail_tol=1e-4)
        with pytest.raises(TruncationError, match="raise the truncation radius"):
            gaussian_cov(spec, 0)

    def test_reachable_advice_names_the_radius(self):
        spec = GaussianSignSpec(3, 0.25, 8, tail_tol=0.5)
        with pytest.raises(TruncationError, match="raise the truncation radius to about 11$"):
            gaussian_cov(spec, 1)

    def test_advice_is_capped_at_the_region_budget(self):
        # The region budget builds the two balls up to D = 13 at d = 3, not 14.
        _two_balls(3, 13, 1)
        with pytest.raises(BudgetExceededError):
            _two_balls(3, 14, 1)
        with pytest.raises(BudgetExceededError, match="radius of at most 13, .* got 14$"):
            gaussian_sign_measure(GaussianSignSpec(3, 0.25, 14, tail_tol=None), 1, 100, seed=1)
        spec = GaussianSignSpec(3, 0.25, 8, tail_tol=1e-30)
        with pytest.raises(TruncationError) as exc:
            gaussian_cov(spec, 1)
        message = str(exc.value)
        assert "raise the truncation radius to at most 13 and loosen tail_tol" in message
        assert "about 2.35e+60, past 13" in message
        assert "region budget of 60000 vertices" in message
        assert not re.search(r"\d{8}", message.replace("60000", ""))

    def test_advice_past_the_cap_from_a_larger_radius(self):
        spec = GaussianSignSpec(3, 0.25, 20, tail_tol=1e-3)
        with pytest.raises(TruncationError, match="; loosen tail_tol: it needs a truncation"):
            gaussian_cov(spec, 1)

    def test_radius_must_cover_distance(self):
        spec = GaussianSignSpec(3, 0.25, 5, tail_tol=None)
        with pytest.raises(ValueError):
            gaussian_cov(spec, 6)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0])
    def test_tail_tol_must_be_positive_and_finite(self, tol):
        # nan used to skip the truncation check; a negative value blamed D.
        with pytest.raises(ValueError, match="tail_tol must be a positive finite number"):
            GaussianSignSpec(3, 0.25, 8, tail_tol=tol)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.25, 0.0])
    def test_eps_must_be_positive_and_finite(self, eps):
        # nan used to pass and give corr 1 and I = log 2 at every distance.
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            GaussianSignSpec(3, eps, 8)


def _common_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class TestSignCorr:
    def test_endpoints(self):
        assert sign_corr(0.0) == 0.0
        assert sign_corr(1.0) == pytest.approx(1.0)
        assert sign_corr(-1.0) == pytest.approx(-1.0)

    def test_odd_and_monotone(self):
        xs = np.linspace(-1, 1, 41)
        ys = [sign_corr(float(x)) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))
        assert all(sign_corr(float(-x)) == pytest.approx(-sign_corr(float(x))) for x in xs)

    def test_half_is_one_third_via_simulation(self):
        # oracle: a million seeded correlated normal pairs
        rng = np.random.default_rng(314)
        z1 = rng.standard_normal(1_000_000)
        z2 = 0.5 * z1 + math.sqrt(1 - 0.25) * rng.standard_normal(1_000_000)
        est = float(np.mean(np.sign(z1) * np.sign(z2)))
        sigma = math.sqrt((1 - (1 / 3) ** 2) / 1_000_000)
        assert abs(sign_corr(0.5) - 1 / 3) < 1e-12
        assert abs(est - 1 / 3) <= 3 * sigma

    def test_sandwich_constants(self):
        # (2/pi) rho <= sign correlation <= rho on [0, 1]
        for rho in np.linspace(0, 1, 21):
            val = sign_corr(float(rho))
            assert 2 / math.pi * rho - 1e-12 <= val <= rho + 1e-12

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sign_corr(1.1)


# (d, D) pairs whose two truncation balls fit the region budget at every k <= D
PAIR_RADII = [(3, 1), (3, 4), (3, 10), (4, 2), (4, 6), (5, 3), (5, 5)]


class TestSignPairCovariance:
    """The Monte Carlo path takes Sigma from the region's dot products; the
    closed form sums over distance classes.  They must agree."""

    @pytest.mark.parametrize("d, D", PAIR_RADII)
    def test_region_sums_match_class_sums_and_the_factor(self, d, D):
        assert 2 * ball_size(d, D) <= DEFAULT_REGION_VERTEX_BUDGET
        spec = GaussianSignSpec(d, 0.25, D, tail_tol=None)
        var = gaussian_cov(spec, 0)
        for k in range(D + 1):
            _, w_u, w_v = _sign_pair_weights(spec, k)
            assert w_u @ w_v == pytest.approx(gaussian_cov(spec, k), rel=1e-12), k
            assert w_u @ w_u == pytest.approx(var, rel=1e-12), k
            assert w_v @ w_v == pytest.approx(var, rel=1e-12), k
            # and the sampler's factor reproduces Sigma
            L = _pair_factor(w_u, w_v)
            sigma = np.array([[w_u @ w_u, w_u @ w_v], [w_v @ w_u, w_v @ w_v]])
            assert L[0, 1] == 0.0
            np.testing.assert_allclose(L @ L.T, sigma, rtol=1e-12, atol=0)

    def test_rank_one_factor_at_distance_zero(self):
        spec = GaussianSignSpec(4, 0.25, 3, tail_tol=None)
        _, w_u, w_v = _sign_pair_weights(spec, 0)
        sigma = np.array([[w_u @ w_u, w_u @ w_v], [w_v @ w_u, w_v @ w_v]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
        L = _pair_factor(w_u, w_v)
        assert L[1, 1] == 0.0 and L[1, 0] == pytest.approx(L[0, 0], rel=1e-15)
        np.testing.assert_allclose(L @ L.T, sigma, rtol=1e-12, atol=0)


class TestGaussianClosedFormTables:
    def test_one_spec_for_every_k_gives_the_fresh_spec_values(self):
        # The power table and the variance are built once per spec; reusing
        # them across k must not change a bit of the closed form.
        shared = GaussianSignSpec(3, 0.25, 300_000, tail_tol=None)
        for k in range(1, 9):
            fresh = GaussianSignSpec(3, 0.25, 300_000, tail_tol=None)
            assert gaussian_sign_closed_form(shared, k) == gaussian_sign_closed_form(fresh, k)

    def test_tail_check_runs_on_every_call(self):
        spec = GaussianSignSpec(3, 0.25, 10, tail_tol=1e-4)
        for _ in range(2):
            with pytest.raises(TruncationError):
                gaussian_cov(spec, 0)


class TestBinarySymmetricMi:
    # frozen: log(2) + 0.75*log(0.75) + 0.25*log(0.25)
    MI_3QUARTERS = 0.1308120359411370

    def test_endpoints(self):
        assert binary_symmetric_mi(0.5) == pytest.approx(0.0, abs=1e-15)
        assert binary_symmetric_mi(1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert binary_symmetric_mi(0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_three_quarters(self):
        assert binary_symmetric_mi(0.75) == pytest.approx(self.MI_3QUARTERS, abs=1e-12)

    def test_matches_joint_route(self):
        for q in np.linspace(0, 1, 21):
            assert binary_symmetric_mi(float(q)) == pytest.approx(
                Estimates(symmetric_binary_joint(float(q))).quantity("mi").value, abs=1e-12
            )

    def test_quadratic_sandwich_near_half(self):
        # gamma1 (q-1/2)^2 <= MI <= gamma2 (q-1/2)^2 close to q = 1/2,
        # with the exact curvature constant 2 (in nats)
        for delta in (1e-2, 1e-3, 1e-4):
            mi = binary_symmetric_mi(0.5 + delta)
            assert 1.9 * delta**2 <= mi <= 2.1 * delta**2

    def test_range_checked(self):
        with pytest.raises(ValueError):
            binary_symmetric_mi(1.2)


class TestGaussianSignMeasure:
    def test_seeded_counts_are_pinned(self):
        # Recorded before the region was built from letter tuples.
        spec = GaussianSignSpec(3, 0.25, 8, tail_tol=None)
        pm = gaussian_sign_measure(spec, 4, 25_000, 303)
        assert pm.joint.counts == ((7525, 5107), (5022, 7346))
        assert len(pm.region.vertices) == 1342

    def test_closed_form_measurement(self):
        spec = GaussianSignSpec(3, 0.25, 200, tail_tol=None)
        pm = gaussian_sign_measure(spec, 3, 0)
        cf = gaussian_sign_closed_form(spec, 3)
        assert pm.method == "closed-form"
        assert pm.mi.value == pytest.approx(cf["mi"], abs=1e-15)
        assert pm.corr.value == pytest.approx(cf["corr"], abs=1e-15)
        assert pm.joint.as_array[0, 0] == pytest.approx(cf["q"] / 2, abs=1e-15)

    def test_closed_form_is_the_kernel_measurement(self):
        spec = GaussianSignSpec(3, 0.25, 200, tail_tol=None)
        for k in (0, 1, 3, 7):
            pm = gaussian_sign_measure(spec, k, 0)
            cf = gaussian_sign_closed_form(spec, k)
            want = measurement_from_joint(3, k, symmetric_binary_joint(cf["q"]), (1.0, -1.0),
                                          (1.0, -1.0), "closed-form", extra=pm.extra)
            for f in fields(pm):
                assert getattr(pm, f.name) == getattr(want, f.name), (k, f.name)
            assert dict(pm.extra)["closed_form_mi"] == pm.mi.value == cf["mi"]
            assert cf["mi"] == pytest.approx(binary_symmetric_mi(cf["q"]), abs=1e-15)

    def test_closed_form_measurement_runs_the_kernel_once(self, monkeypatch):
        calls = []
        real = Estimates._estimate
        monkeypatch.setattr(Estimates, "_estimate",
                            lambda self, *a: calls.append(1) or real(self, *a))
        gaussian_sign_measure(GaussianSignSpec(3, 0.25, 200, tail_tol=None), 2, 0)
        assert len(calls) == 1

    def test_negative_distance_rejected(self):
        # k=-1 must not fall back to the k=0 law (I = log 2, I/H = 1)
        spec = GaussianSignSpec(3, 0.25, 6, tail_tol=None)
        with pytest.raises(ValueError, match="k must be >= 0"):
            gaussian_sign_closed_form(spec, -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            gaussian_sign_measure(spec, -1, 0)

    def test_vanishing_correlation_gives_vanishing_mi(self):
        spec = GaussianSignSpec(3, 2.0, 120, tail_tol=None)
        mi_far = gaussian_sign_closed_form(spec, 12)["mi"]
        assert mi_far < 1e-6

    def test_monte_carlo_agrees_with_closed_form(self):
        # Both use truncation radius D, so the remainder (the distance to
        # D = infinity) has no place in the tolerance.
        spec = GaussianSignSpec(3, 0.25, 7, tail_tol=None)
        cf = gaussian_sign_closed_form(spec, 2)
        mc = gaussian_sign_measure(spec, 2, 50_000, seed=2718)
        assert abs(mc.corr.value - cf["corr"]) <= 4 * mc.corr.stderr
        assert abs(mc.mi.value - cf["mi"]) <= 4 * mc.mi.stderr

    def test_monte_carlo_corr_z_scores_are_calibrated(self):
        # 200 seeded runs: the corr z-scores against the closed form at the
        # same D must look standard normal, or the stderr misstates the noise.
        spec = GaussianSignSpec(3, 0.25, 8, tail_tol=None)
        want = gaussian_sign_closed_form(spec, 2)["corr"]
        z = []
        for seed in range(4200, 4400):
            mc = gaussian_sign_measure(spec, 2, 10_000, seed=seed)
            z.append((mc.corr.value - want) / mc.corr.stderr)
        assert abs(np.mean(z)) <= 0.25
        assert 0.8 <= np.std(z, ddof=1) <= 1.2

    def test_monte_carlo_at_distance_zero_is_one_sign(self):
        # Sigma has rank 1 at k = 0; a plain Cholesky factor raises there.
        spec = GaussianSignSpec(3, 0.25, 6, tail_tol=None)
        mc = gaussian_sign_measure(spec, 0, 10_000, seed=11)
        table = mc.joint.as_array
        assert table[0, 1] == table[1, 0] == 0.0
        assert mc.corr.value == 1.0

    def test_monte_carlo_builds_no_sample_by_region_buffer(self):
        spec = GaussianSignSpec(3, 0.25, 8, tail_tol=None)
        gaussian_sign_measure(spec, 4, 20_000, seed=3)  # one-time allocations happen here
        tracemalloc.start()
        try:
            gaussian_sign_measure(spec, 4, 20_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A 10,000-sample normal buffer over the 1,342-vertex region would be 107 MB.
        assert peak < 8 * 2**20

    def test_deterministic(self):
        spec = GaussianSignSpec(3, 0.25, 6, tail_tol=None)
        a = gaussian_sign_measure(spec, 1, 20_000, seed=5)
        b = gaussian_sign_measure(spec, 1, 20_000, seed=5)
        assert a.to_json() == b.to_json()

    def test_requires_seed_for_sampling(self):
        spec = GaussianSignSpec(3, 0.25, 6, tail_tol=None)
        with pytest.raises(ValueError):
            gaussian_sign_measure(spec, 1, 100)

    def test_scaled_correlation_stays_positive(self):
        # the correlation keeps a positive fitted constant against
        # k^(1-2eps)/sqrt(d-1)^k on the desk-scale range (reported form,
        # not asserted as a universal bound)
        spec = GaussianSignSpec(3, 0.25, 300_000, tail_tol=None)
        gammas = []
        for k in range(2, 9):
            cf = gaussian_sign_closed_form(spec, k)
            gammas.append(cf["corr"] * 2 ** (k / 2) / k**0.5)
        assert min(gammas) > 0.3


class TestGlobalBoundCompliance:
    def test_every_measured_process_obeys_both_bounds(self):
        from treefactor.bounds import fixed_process_verdict, universal_verdict
        from treefactor.processes import RULES

        measurements = []
        for d in (3, 4):
            for name, factory in RULES.items():
                for k in (1, 2, 3):
                    measurements.append((2, exact_joint(factory(d), d, k)))
        spec = GaussianSignSpec(3, 0.25, 5000, tail_tol=None)
        for k in (1, 2, 4, 6):
            measurements.append((2, gaussian_sign_measure(spec, k, 0)))
        measurements.append((2, mc_joint(majority_rule(3), 3, 2, 30_000, seed=13)))
        for m, pm in measurements:
            assert universal_verdict(pm.d, pm.k, pm.nmi).passed, (pm.d, pm.k, pm.method)
            assert fixed_process_verdict(pm.d, pm.k, m, pm.mi).passed, (pm.d, pm.k, pm.method)
