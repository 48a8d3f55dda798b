"""Block rules evaluated once per distinct ball labeling, against the loops
they replaced.

The reference orders the union of the two balls by its own sort key, takes
the edges from the group multiplication, derives the rooted children of
both balls from that edge list, builds the canonical code of both balls
and calls the rule once per enumerated configuration or per sample, as
``exact_joint`` and ``mc_joint`` did before.  Monte Carlo reads the same
Philox draws, the reference through ``Generator.choice`` and ``mc_joint``
by thresholding the uniforms that ``choice`` draws, so the counts must be
identical.  With uniform inputs every configuration weight is a power of
two and every partial sum is exact, so the exact joints must agree bit for
bit; other input laws sum the same weights in blocks, which moves only the
last bits.
"""

from dataclasses import replace
from itertools import product as iproduct

import numpy as np
import pytest

from treefactor import processes
from treefactor.errors import BudgetExceededError
from treefactor.information import JointDistribution, joint_from_counts
from treefactor.processes import (
    DEFAULT_ENUM_BUDGET,
    MC_CHUNK,
    BlockFactorRule,
    _ball_outputs,
    _numeric_values,
    _row_keys,
    _two_balls,
    canonical_ball_code,
    exact_joint,
    identity_rule,
    majority_rule,
    mc_joint,
    measurement_from_joint,
    parity_rule,
)
from treefactor.tree import ball_size, origin, vertex_at_distance
from treefactor.words import Word, _ball_words, multiply

UNIFORM_RULES = [identity_rule, majority_rule, parity_rule]


def rooted_children(adjacency, n_vertices, root, radius):
    """Children of each vertex in the radius-``radius`` ball hung from
    ``root``, found level by level from the edge list; () elsewhere."""
    neighbors = [[] for _ in range(n_vertices)]
    for a, b in adjacency:
        neighbors[a].append(b)
        neighbors[b].append(a)
    children = [() for _ in range(n_vertices)]
    depth = {root: 0}
    frontier = [root]
    for level in range(radius):
        nxt = []
        for x in frontier:
            kids = tuple(nb for nb in sorted(neighbors[x]) if nb not in depth)
            children[x] = kids
            for nb in kids:
                depth[nb] = level + 1
                nxt.append(nb)
        frontier = nxt
    return tuple(children)


def oracle_sort_key(letters):
    """Shorter words first, then letter by letter: a1 < a1^-1 < a2 < a2^-1 < ..."""
    return (len(letters), [(abs(x), x < 0) for x in letters])


class RefSetup:
    """The union of the two balls, built without ``region_from_balls``: its
    vertices in ``oracle_sort_key`` order, its edges joining each vertex w
    to w·x for every letter x, and each ball's rooted children."""

    def __init__(self, d, radius, k):
        u = origin(d)
        v = vertex_at_distance(u, k)
        sig = u.sig
        union = set(_ball_words(sig, radius, u.letters)) | set(_ball_words(sig, radius, v.letters))
        self.vertices = [Word(w, sig) for w in sorted(union, key=oracle_sort_key)]
        index = {w.letters: i for i, w in enumerate(self.vertices)}
        steps = [Word((x,), sig) for x in sig.alphabet()]
        self.adjacency = tuple(sorted({
            tuple(sorted((i, index[nb.letters])))
            for i, w in enumerate(self.vertices)
            for nb in (multiply(w, step) for step in steps)
            if nb.letters in index
        }))
        n = len(self.vertices)
        self.root_u = self.vertices.index(u)
        self.root_v = self.vertices.index(v)
        self.children_u = rooted_children(self.adjacency, n, self.root_u, radius)
        self.children_v = rooted_children(self.adjacency, n, self.root_v, radius)


def ref_ball(root, children):
    """The ball breadth-first from the root, and its shape as positions."""
    ball = [root]
    for x in ball:
        ball.extend(children[x])
    position = {x: i for i, x in enumerate(ball)}
    return ball, tuple(tuple(position[c] for c in children[x]) for x in ball)


def ref_exact_joint(rule, d, k):
    """The per-configuration loop: product weight, two canonical codes."""
    setup = RefSetup(d, rule.radius, k)
    n_vertices = len(setup.vertices)
    out_index = {val: i for i, val in enumerate(rule.output_values)}
    m = len(rule.output_values)
    joint = np.zeros((m, m), dtype=float)
    probs = rule.input_probs
    for assignment in iproduct(range(len(rule.input_values)), repeat=n_vertices):
        weight = 1.0
        for idx in assignment:
            weight *= probs[idx]
        if weight == 0.0:
            continue
        labels = [rule.input_values[i] for i in assignment]
        xu = rule.fn(canonical_ball_code(labels, setup.root_u, setup.children_u))
        xv = rule.fn(canonical_ball_code(labels, setup.root_v, setup.children_v))
        joint[out_index[xu], out_index[xv]] += weight
    joint /= joint.sum()
    values = _numeric_values(rule.output_values)
    J = JointDistribution.from_array(joint)
    return measurement_from_joint(d, k, J, values, values, "exact-enumeration")


def ref_mc_joint(rule, d, k, samples, seed):
    """The per-sample loop over the same Philox draws as ``mc_joint``."""
    setup = RefSetup(d, rule.radius, k)
    n_vertices = len(setup.vertices)
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = len(rule.output_values)
    out_index = {val: i for i, val in enumerate(rule.output_values)}
    counts = np.zeros((m, m), dtype=np.int64)
    remaining = samples
    while remaining > 0:
        chunk = min(MC_CHUNK, remaining)
        draws = rng.choice(len(rule.input_values), size=(chunk, n_vertices), p=rule.input_probs)
        for row in draws:
            labels = [rule.input_values[i] for i in row]
            xu = rule.fn(canonical_ball_code(labels, setup.root_u, setup.children_u))
            xv = rule.fn(canonical_ball_code(labels, setup.root_v, setup.children_v))
            counts[out_index[xu], out_index[xv]] += 1
        remaining -= chunk
    J = joint_from_counts(counts, seed)
    values = _numeric_values(rule.output_values)
    return measurement_from_joint(
        d, k, J, values, values, "monte-carlo", samples=samples, seed=seed
    )


def _count(code, letter):
    label, kids = code
    return (label == letter) + sum(_count(c, letter) for c in kids)


def letters_rule():
    """Four letters, one of probability zero, and three string outputs that
    depend on the root and on the multiset of its neighbours' letters."""
    outputs = ("low", "mid", "high")

    def fn(code):
        return outputs[(_count(code, "b") + 2 * (code[0] == "c")) % 3]

    return BlockFactorRule(
        name="letters",
        radius=1,
        input_values=("a", "b", "c", "z"),
        input_probs=(0.2, 0.3, 0.5, 0.0),
        output_values=outputs,
        fn=fn,
    )


def three_letter_rule(d):
    """Three letters with a skewed law whose cumulative sum ends at
    0.9999999999999999, not 1, as ``Generator.choice`` meets it before it
    normalises."""

    def fn(code):
        root, kids = code
        return (2 * root + sum(label for label, _ in kids)) % 3

    return BlockFactorRule("three-letter", 1, (0, 1, 2), (0.7, 0.2, 0.1), (0, 1, 2), fn)


def depth_two_rule():
    """A radius-2 rule that weighs each child's label by its own subtree,
    so the table must cover the second level of the ball."""

    def fn(code):
        root, kids = code
        return (root + sum(label * (1 + sum(g for g, _ in grand)) for label, grand in kids)) % 2

    return BlockFactorRule("depth-two", 2, (0, 1), (0.5, 0.5), (0, 1), fn)


def assert_same_measurement(new, ref):
    assert new.to_json() == ref.to_json()
    assert new.joint.counts == ref.joint.counts


class TestMonteCarlo:
    @pytest.mark.parametrize("factory", UNIFORM_RULES)
    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    @pytest.mark.parametrize("seed", [1, 2024])
    def test_counts_identical(self, factory, d, k, seed):
        rule = factory(d)
        new = mc_joint(rule, d, k, 1_500, seed)
        assert_same_measurement(new, ref_mc_joint(rule, d, k, 1_500, seed))

    @pytest.mark.parametrize(
        "factory, d, k",
        [(majority_rule, 3, 2), (parity_rule, 5, 1), (three_letter_rule, 3, 0), (three_letter_rule, 4, 2)],
    )
    def test_counts_identical_over_a_partial_chunk(self, factory, d, k):
        samples = 12_345
        assert samples % MC_CHUNK != 0
        rule = factory(d)
        new = mc_joint(rule, d, k, samples, 77)
        assert_same_measurement(new, ref_mc_joint(rule, d, k, samples, 77))

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_letters_rule_counts_identical(self, k):
        rule = letters_rule()
        new = mc_joint(rule, 3, k, 4_000, 5)
        assert_same_measurement(new, ref_mc_joint(rule, 3, k, 4_000, 5))

    def test_thresholds_are_normalised_as_choice_normalises(self):
        # The law sums to 1 + 1e-13.  Its first cumulative value lies just above
        # the first uniform of seed 0, and divided by that sum just below it, so
        # only normalised thresholds give that vertex the label choice gives it.
        first = np.random.Generator(np.random.Philox(key=0)).random()
        p0 = first * (1 + 5e-14)
        rule = BlockFactorRule("crafted", 0, (0, 1), (p0, 1 - p0 + 1e-13), (0, 1), lambda code: code[0])
        cdf = np.cumsum(rule.input_probs)
        assert cdf[0] > first >= cdf[0] / cdf[-1]
        new = mc_joint(rule, 3, 0, 200, 0)
        assert_same_measurement(new, ref_mc_joint(rule, 3, 0, 200, 0))

    def test_depth_two_rule_counts_identical(self):
        rule = depth_two_rule()
        new = mc_joint(rule, 3, 1, 3_000, 9)
        assert_same_measurement(new, ref_mc_joint(rule, 3, 1, 3_000, 9))


class TestExact:
    @pytest.mark.parametrize("factory", UNIFORM_RULES)
    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_uniform_rules_bit_identical(self, factory, d, k):
        rule = factory(d)
        assert_same_measurement(exact_joint(rule, d, k), ref_exact_joint(rule, d, k))

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_letters_rule_agrees(self, k):
        # From k=3 the two balls are disjoint: the oracle sums 4^8 configurations.
        rule = letters_rule()
        new = exact_joint(rule, 3, k)
        ref = ref_exact_joint(rule, 3, k)
        assert np.allclose(new.joint.as_array, ref.joint.as_array, rtol=0, atol=1e-12)
        assert new.mi.value == pytest.approx(ref.mi.value, abs=1e-12)
        assert new.entropy_v.value == pytest.approx(ref.entropy_v.value, abs=1e-12)

    def test_depth_two_rule_bit_identical(self):
        rule = depth_two_rule()
        assert_same_measurement(exact_joint(rule, 3, 1), ref_exact_joint(rule, 3, 1))

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_depth_two_rule_bit_identical_at_every_overlap(self, k):
        # The shared vertices run from the whole 10-vertex ball (k=0) to 2 (k=3).
        rule = depth_two_rule()
        assert_same_measurement(exact_joint(rule, 3, k), ref_exact_joint(rule, 3, k))

    @pytest.mark.parametrize("factory", UNIFORM_RULES)
    @pytest.mark.parametrize("d", [3, 4, 7])
    @pytest.mark.parametrize("gap", [1, 2, 5])
    def test_disjoint_balls_give_exactly_zero_information(self, factory, d, gap):
        # Past k = 2R the balls share no vertex and the joint is an outer product.
        rule = factory(d)
        pm = exact_joint(rule, d, 2 * rule.radius + gap)
        assert pm.mi.value == 0.0
        assert pm.nmi.value == 0.0

    def test_majority_past_the_whole_union_agrees_with_monte_carlo(self):
        # d=13, k=1: 2^26 configurations on the union of the balls, 2^14 on one ball.
        rule = majority_rule(13)
        exact = exact_joint(rule, 13, 1)
        mc = mc_joint(rule, 13, 1, 20_000, 13)
        for name in ("mi", "corr", "entropy_v"):
            est, ref = getattr(mc, name), getattr(exact, name)
            assert abs(est.value - ref.value) <= 4 * est.stderr, name

    def test_budget_counts_the_labelings_of_one_ball(self):
        # Majority at d=3: 2^4 labelings of a ball, 2^6 configurations on the union at k=1.
        assert exact_joint(majority_rule(3), 3, 1, budget=2**4).method == "exact-enumeration"
        with pytest.raises(BudgetExceededError, match="16 label configurations exceed"):
            exact_joint(majority_rule(3), 3, 1, budget=2**4 - 1)


class TestOutputTable:
    """Balls with at most ``_KNOWN_LABELINGS`` labelings look their outputs
    up in a dense table indexed by code, larger ones in a store of unique
    keys; both must give every code the output of its own labeling."""

    def expected(self, rule, shape, codes):
        """The rule's output index for each code, one labeling at a time."""
        n_values = len(rule.input_values)
        out = []
        for code in codes.tolist():
            digits = [code // n_values ** (len(shape) - 1 - p) % n_values for p in range(len(shape))]
            labels = [rule.input_values[i] for i in digits]
            out.append(rule.output_values.index(rule.fn(canonical_ball_code(labels, 0, shape))))
        return out

    @pytest.mark.parametrize("factory, d", [(three_letter_rule, 3), (lambda d: letters_rule(), 3),
                                            (majority_rule, 4)])
    def test_table_and_store_agree_on_either_side_of_the_limit(self, monkeypatch, factory, d):
        rule = factory(d)
        shape = _two_balls(d, rule.radius, 0)[3]
        n_labelings = len(rule.input_values) ** len(shape)
        rng = np.random.default_rng(n_labelings)
        codes = rng.integers(0, n_labelings, size=3 * n_labelings)
        distinct = len(np.unique(codes))
        assert n_labelings // 2 < distinct < n_labelings
        want = self.expected(rule, shape, codes)
        assert len(set(want)) > 1
        real_unique = np.unique
        uniques = []

        def counting_unique(*args, **kwargs):
            uniques.append(len(args[0]))
            return real_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        runs = {}
        # At the limit the table holds every labeling, and a call whose codes
        # are all known makes none unique.  Below it the store makes every
        # call's keys unique, and past its limit it starts afresh.
        for limit in (n_labelings, n_labelings - 1, distinct - 1):
            monkeypatch.setattr(processes, "_KNOWN_LABELINGS", limit)
            counted, calls = counting(rule)
            outputs = _ball_outputs(counted, shape)
            first = outputs(codes)
            del uniques[:]
            second = outputs(codes)
            assert first.tolist() == second.tolist() == want, limit
            runs[limit] = (len(calls), uniques[:])
        assert runs[n_labelings] == (distinct, [])
        assert runs[n_labelings - 1] == (distinct, [len(codes)])
        assert runs[distinct - 1] == (2 * distinct, [len(codes)])

    def test_table_and_store_give_the_same_counts(self, monkeypatch):
        rule = three_letter_rule(4)
        table = mc_joint(rule, 4, 2, 12_345, 77)
        monkeypatch.setattr(processes, "_KNOWN_LABELINGS", 3**5 - 1)
        store = mc_joint(rule, 4, 2, 12_345, 77)
        assert_same_measurement(table, store)
        assert_same_measurement(table, ref_mc_joint(rule, 4, 2, 12_345, 77))


class TestLargeBalls:
    """Balls with more labelings than any table could hold: the rule runs
    only on the labelings that the draws contain."""

    def wide_rule(self):
        # d=7, R=3: a 302-vertex ball, 2^302 labelings, keys as raw bytes.
        return BlockFactorRule("wide", 3, (0, 1), (0.5, 0.5), (0, 1), lambda code: code[0])

    @pytest.mark.parametrize("factory", [majority_rule, parity_rule])
    def test_radius_one_at_d_24(self, factory):
        # A 25-vertex ball: 2^25 labelings, more than DEFAULT_ENUM_BUDGET.
        rule = factory(24)
        assert 2**25 > DEFAULT_ENUM_BUDGET
        new = mc_joint(rule, 24, 1, 300, 3)
        assert_same_measurement(new, ref_mc_joint(rule, 24, 1, 300, 3))

    def test_radius_two_at_d_5(self):
        rule = depth_two_rule()
        new = mc_joint(rule, 5, 2, 300, 4)
        assert_same_measurement(new, ref_mc_joint(rule, 5, 2, 300, 4))

    def test_keys_wider_than_int64(self):
        rule = self.wide_rule()
        new = mc_joint(rule, 7, 1, 40, 0)
        assert_same_measurement(new, ref_mc_joint(rule, 7, 1, 40, 0))

    def test_raw_byte_keys_seen_again_are_not_evaluated_again(self):
        rule, calls = counting(self.wide_rule())
        shape = _two_balls(7, 3, 0)[3]
        labels = np.random.default_rng(0).integers(0, 2, size=(6, len(shape)))
        outputs = _ball_outputs(rule, shape)
        keys = _row_keys(labels)
        first, second = outputs(keys), outputs(keys)
        assert first.tolist() == second.tolist() == labels[:, 0].tolist()
        assert len(calls) == 6

    def test_exact_still_refuses_an_enumeration_over_budget(self):
        with pytest.raises(BudgetExceededError, match="label configurations exceed"):
            exact_joint(majority_rule(24), 24, 1)


def counting(rule):
    """The rule with a list that records every labeling it is called on."""
    calls = []

    def fn(code):
        calls.append(code)
        return rule.fn(code)

    return replace(rule, fn=fn), calls


class TestEvaluationCount:
    def test_mc_calls_the_rule_once_per_distinct_labeling(self):
        rule, calls = counting(majority_rule(3))
        mc_joint(rule, 3, 2, 25_000, 8)
        assert len(calls) <= 2**4

    def test_exact_calls_the_rule_once_per_labeling_of_the_ball(self):
        rule, calls = counting(parity_rule(3))
        exact_joint(rule, 3, 3)
        assert len(calls) == 2**4

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_exact_calls_a_radius_two_rule_once_per_labeling_of_the_ball(self, k):
        rule, calls = counting(depth_two_rule())
        exact_joint(rule, 3, k)
        assert len(calls) == 2**10

    @pytest.mark.parametrize("d, radius, k", [(3, 1, 0), (3, 2, 1), (4, 2, 3), (5, 1, 6)])
    def test_balls_at_u_and_v_have_one_shape(self, d, radius, k):
        region, ball_u, ball_v, shape = _two_balls(d, radius, k)
        ref = RefSetup(d, radius, k)
        assert list(region.vertices) == ref.vertices
        assert region.adjacency == ref.adjacency
        rng = np.random.default_rng([d, radius, k])
        for ball, root, children in [
            (ball_u, ref.root_u, ref.children_u),
            (ball_v, ref.root_v, ref.children_v),
        ]:
            assert ball[0] == root
            assert len(set(ball)) == len(ball) == ball_size(d, radius)
            for position, kids in enumerate(shape):
                for kid in kids:
                    assert ball[kid] in region.neighbors[ball[position]]
            ref_order, ref_shape = ref_ball(root, children)
            for _ in range(20):
                labels = rng.integers(0, 3, size=len(region.vertices))
                assert canonical_ball_code(labels[ball], 0, shape) == canonical_ball_code(
                    labels[ref_order], 0, ref_shape
                )
