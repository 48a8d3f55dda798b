import json
from fractions import Fraction

import numpy as np
import pytest

from treefactor.bounds import normalized_mi_bound
from treefactor.errors import BudgetExceededError
from treefactor.processes import (
    GaussianSignSpec,
    _two_balls,
    exact_joint,
    gaussian_sign_measure,
    majority_rule,
    mc_joint,
)
from treefactor.tree import (
    ball,
    ball_intersection_size,
    ball_size,
    dist,
    listing_ratio,
    origin,
    region_from_balls,
    sphere_size,
    vertex_at_distance,
)
from treefactor.words import (
    FreeProductSignature,
    Word,
    _ball_words,
    _letters_sort_key,
    _sorted_letters,
    word_from_str,
)


def _addresses(vertex, radius):
    return set(_ball_words(vertex.sig, radius, vertex.letters))


class TestDistance:
    def test_examples(self):
        u = origin(3)
        assert dist(u, u) == 0
        sig = u.sig
        a12 = word_from_str("a1a2", sig)
        assert dist(u, a12) == 2
        a1 = word_from_str("a1", sig)
        a2 = word_from_str("a2", sig)
        assert dist(a1, a2) == 2

    def test_signature_mismatch(self):
        u3 = origin(3)
        u4 = origin(4)
        with pytest.raises(ValueError):
            dist(u3, u4)

    @pytest.mark.parametrize("d", [3, 4])
    def test_metric_on_enumerated_ball(self, d):
        vertices = ball(origin(d), 3).vertices
        n = len(vertices)
        dm = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i, n):
                dm[i, j] = dm[j, i] = dist(vertices[i], vertices[j])
        assert np.all(np.diag(dm) == 0)
        assert np.all((dm > 0) | np.eye(n, dtype=bool))
        # triangle inequality, exhaustively
        assert np.all(dm[:, :, None] + dm[None, :, :] >= dm[:, None, :])

    def test_vertex_at_distance(self):
        for d in (3, 4):
            u = origin(d)
            for k in range(6):
                assert dist(u, vertex_at_distance(u, k)) == k
        # also from a non-identity start, either group form
        sig = FreeProductSignature(2, 0)
        start = word_from_str("A1", sig)
        assert dist(start, vertex_at_distance(start, 5)) == 5

    @pytest.mark.parametrize("k", [-1, -2])
    def test_negative_distance_rejected(self, k):
        # no vertex lies at a negative distance, so no measurement may run there
        with pytest.raises(ValueError, match="distance must be >= 0"):
            vertex_at_distance(origin(3), k)
        with pytest.raises(ValueError, match="distance must be >= 0"):
            mc_joint(majority_rule(3), 3, k, 2000, seed=1)


class TestBalls:
    def test_sizes(self):
        assert ball_size(3, 0) == 1
        assert ball_size(3, 2) == 10
        assert ball_size(4, 3) == 53

    def test_sphere(self):
        assert sphere_size(3, 0) == 1
        assert sphere_size(3, 2) == 6

    @pytest.mark.parametrize("size", [ball_size, sphere_size])
    def test_degree_and_radius_are_validated(self, size):
        with pytest.raises(ValueError, match="radius must be >= 0, got -1"):
            size(3, -1)
        with pytest.raises(ValueError, match="d must be >= 3, got 2"):
            size(2, 3)

    def test_spheres_partition_the_ball(self):
        for d in (3, 4, 7):
            for radius in range(6):
                assert sum(sphere_size(d, j) for j in range(radius + 1)) == ball_size(d, radius)

    def test_membership_compares_the_signature(self):
        region = ball(origin(3), 1)
        same_letters = Word((1,), FreeProductSignature(2, 0))  # a vertex of T_4
        assert Word((1,), region.vertices[0].sig) in region
        assert same_letters not in region
        assert region.vertices.index(Word((1,), region.vertices[0].sig)) == 1

    def test_ball_r0_and_r1(self):
        assert len(ball(origin(3), 0).vertices) == 1
        assert len(ball(origin(3), 1).vertices) == 4

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_closed_form_matches_enumeration(self, d):
        for radius in range(7):
            assert len(_addresses(origin(d), radius)) == ball_size(d, radius)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_region_is_a_tree(self, d):
        for radius in range(6):
            region = ball(origin(d), radius)
            assert len(region.adjacency) == len(region.vertices) - 1
            # connectivity: union-find over edges
            parent = list(range(len(region.vertices)))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in region.adjacency:
                parent[find(a)] = find(b)
            assert len({find(i) for i in range(len(region.vertices))}) == 1

    def test_all_vertices_within_radius(self):
        region = ball(origin(3), 3)
        center, radius = region.centers[0]
        assert all(dist(Word(center, region.sig), v) <= radius for v in region.vertices)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            ball(origin(3), 25, budget=1000)
        # The message names the budget, not |B_5000|, which has about 1,500 digits.
        with pytest.raises(BudgetExceededError) as info:
            ball(origin(3), 5000)
        assert str(info.value) == (
            "balls of radius 5000 at d=3 could exceed the region budget of 1000000 vertices"
        )

    def test_json_dump(self):
        payload = json.loads(ball(origin(3), 1).to_json())
        assert payload["schema"] == 1
        assert set(payload["vertices"]) == {"e", "a1", "a2", "a3"}
        assert len(payload["edges"]) == 3


class TestIntersections:
    def test_coincident_centers(self):
        for d, radius in ((3, 2), (4, 3)):
            assert ball_intersection_size(d, radius, 0) == ball_size(d, radius)

    def test_examples(self):
        assert ball_intersection_size(3, 2, 2) == 4
        assert ball_intersection_size(3, 2, 1) == 6

    def test_disjoint_when_far(self):
        assert ball_intersection_size(3, 2, 5) == 0

    def test_formula_matches_enumeration(self):
        cases = {(d, radius, k) for d in (3, 4, 5, 6) for radius in range(6) for k in range(2 * radius + 3)}
        # every (d, R, k) that the sharpness grids and the listing tests reach
        cases |= {(3, radius, k) for radius in range(1, 11) for k in range(1, 5)}
        cases |= {(4, radius, k) for radius in range(1, 9) for k in range(1, 7)}
        cases.add((3, 12, 1))
        for d, radius, k in sorted(cases):
            u = origin(d)
            both = _addresses(u, radius) & _addresses(vertex_at_distance(u, k), radius)
            assert ball_intersection_size(d, radius, k) == len(both), (d, radius, k)


class TestListingRatio:
    def test_rational_examples(self):
        assert listing_ratio(3, 2, 1) == Fraction(3, 5)
        assert listing_ratio(3, 2, 0) == 1
        assert listing_ratio(3, 1, 3) == 0

    def test_converges_to_bound(self):
        # gap to the distance-k bound shrinks in R and is small by R=8
        for d in (3, 4):
            for k in (1, 2, 3, 4):
                bound = Fraction(normalized_mi_bound(d, k))
                gaps = [bound - listing_ratio(d, radius, k) for radius in range(k, 9)]
                assert all(g >= 0 for g in gaps)
                assert all(b <= a for a, b in zip(gaps, gaps[1:]))
                if d == 4:
                    assert gaps[-1] < Fraction(2, 100)

    def test_approaches_two_thirds_for_neighbors(self):
        assert abs(float(listing_ratio(3, 12, 1)) - 2 / 3) < 1e-3


def test_region_union_of_two_balls():
    u = origin(3)
    v = vertex_at_distance(u, 2)
    region = region_from_balls(u.sig, [(u.letters, 1), (v.letters, 1)])
    # two radius-1 balls at distance 2 share the midpoint: 4 + 4 - 1
    assert len(region.vertices) == 7
    assert len(region.adjacency) == 6
    assert u in region and v in region


@pytest.mark.parametrize(
    "center, radius, k",
    [
        (origin(3), 1, 4),
        (origin(4), 2, 1),
        (origin(3), 2, 0),
        (word_from_str("A1", FreeProductSignature(2, 0)), 2, 1),
    ],
    ids=["disconnected", "overlapping", "coincident", "inverse-letter-center"],
)
def test_region_edges_are_the_distance_one_pairs(center, radius, k):
    v = vertex_at_distance(center, k)
    region = region_from_balls(center.sig, [(center.letters, radius), (v.letters, radius)])
    vs = region.vertices
    pairs = [(i, j) for i in range(len(vs)) for j in range(i + 1, len(vs)) if dist(vs[i], vs[j]) == 1]
    assert region.adjacency == tuple(pairs)


def oracle_sort_key(letters):
    """Shorter words first, then letter by letter: a1 < a1^-1 < a2 < a2^-1 < ..."""
    return (len(letters), [(abs(x), x < 0) for x in letters])


@pytest.mark.parametrize(
    "sig, center, radius, k",
    [
        (FreeProductSignature(0, 3), (), 3, 2),
        (FreeProductSignature(0, 5), (2, 4), 2, 3),
        (FreeProductSignature(1, 1), (), 3, 1),
        (FreeProductSignature(1, 1), (-1,), 3, 2),
        (FreeProductSignature(2, 0), (-1,), 2, 1),
        (FreeProductSignature(2, 0), (2, -1), 2, 4),
        (FreeProductSignature(1, 2), (3, -1), 2, 3),
    ],
    ids=["t3", "t5-off-origin", "r1", "r1-A1", "r2-A1", "r2-a2A1", "r1t2"],
)
def test_region_order_is_the_sort_key_order(sig, center, radius, k):
    v = vertex_at_distance(Word(center, sig), k).letters
    region = region_from_balls(sig, [(center, radius), (v, radius)])
    union = set(_ball_words(sig, radius, center)) | set(_ball_words(sig, radius, v))
    assert list(region.letters) == sorted(union, key=oracle_sort_key)
    assert list(region.letters) == sorted(union, key=_letters_sort_key)
    for c, ball_c in zip((center, v), region.balls):
        assert [region.letters[i] for i in ball_c] == _ball_words(sig, radius, c)


@pytest.mark.parametrize("r, t", [(0, 3), (0, 4), (1, 1), (2, 0), (1, 2), (3, 1)])
def test_sorted_letters_is_the_sort_key_order(r, t):
    sig = FreeProductSignature(r, t)
    rng = np.random.default_rng([r, t])
    words = _ball_words(sig, 4)
    for _ in range(5):
        chosen = [words[i] for i in rng.choice(len(words), size=40, replace=False)]
        assert _sorted_letters(chosen, r) == sorted(chosen, key=oracle_sort_key)
        assert sorted(chosen, key=_letters_sort_key) == sorted(chosen, key=oracle_sort_key)


class TestWordsBuiltOnDemand:
    @pytest.fixture
    def built(self, monkeypatch):
        """Records the letters of every Word validated while the test runs."""
        letters = []
        real = Word.__post_init__

        def counting(self):
            letters.append(self.letters)
            real(self)

        monkeypatch.setattr(Word, "__post_init__", counting)
        return letters

    def test_length_builds_no_word(self, built):
        region = _two_balls(3, 8, 4)[0]
        assert len(region.vertices) == 1342
        assert built == []
        # Reading one vertex builds them all, once.
        assert region.vertices[5] == Word(region.letters[5], region.sig)
        assert len(built) == 1342 + 1
        assert list(region.vertices)[-1].letters == region.letters[-1]
        assert len(built) == 1342 + 1

    def test_measurements_build_no_word(self, built):
        mc_joint(majority_rule(3), 3, 2, 1_000, 1)
        exact_joint(majority_rule(3), 3, 2)
        spec = GaussianSignSpec(3, 0.25, 8, tail_tol=None)
        gaussian_sign_measure(spec, 4, 1_000, 3)
        gaussian_sign_measure(spec, 4, 0)
        assert built == []

    def test_json_and_membership_build_no_vertex(self, built):
        region = _two_balls(3, 2, 1)[0]
        payload = json.loads(region.to_json())
        assert payload["centers"] == [["e", 2], ["a1", 2]]
        assert len(payload["vertices"]) == len(region.letters)
        assert built == []
        assert Word((2, 1), region.sig) in region
        assert len(built) == 1
