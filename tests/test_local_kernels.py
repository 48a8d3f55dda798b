"""The local-algorithm kernels against the slow oracles they replaced.

``short_cycle_count`` is checked against networkx's bounded
``simple_cycles``.  The sparse phase, which runs each round as array
operations on precomputed balls, is checked against a per-vertex
breadth-first search over the same rank draws: labels, colors and round
counts must be identical, because both consume the same draws.  The ball
table's depths are checked against networkx's shortest-path lengths, and
the contract checks, counts on that table, against the per-vertex
searches they replaced, on valid and on corrupted outputs.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from treefactor.errors import InvariantError
from treefactor.processes import (
    FiniteGraphInstance,
    _balls,
    _sparse_phase,
    check_sparse_coloring,
    check_sparse_set,
    random_regular_graph,
    short_cycle_count,
    sparse_coloring,
    sparse_set_labeling,
    tree_ball_graph,
)

MAX_BOUND = 7


def _within_distance(adjacency, sources, radius):
    """Vertices within ``radius`` of any source, by breadth-first search."""
    seen = set(sources)
    frontier = list(sources)
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for nb in adjacency[x]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# short_cycle_count against networkx
# ---------------------------------------------------------------------------


def nx_graph(G):
    nx = pytest.importorskip("networkx")
    graph = nx.Graph(G.edges())
    graph.add_nodes_from(range(G.n))
    return graph


def nx_count(G, bound):
    nx = pytest.importorskip("networkx")
    return sum(1 for _ in nx.simple_cycles(nx_graph(G), length_bound=bound))


def nx_counts_up_to(G, top):
    """networkx's count at every bound 0..top from one enumeration: a
    bounded ``simple_cycles`` yields exactly the cycles no longer than its
    bound, so the count at b is the number of those of length <= b."""
    nx = pytest.importorskip("networkx")
    lengths = Counter(len(c) for c in nx.simple_cycles(nx_graph(G), length_bound=top))
    return [sum(n for length, n in lengths.items() if length <= b) for b in range(top + 1)]


CYCLE_GRAPHS = (
    [(n, 3, seed) for n in (4, 10, 50, 200) for seed in (0, 1, 2)]
    + [(n, 4, seed) for n in (5, 10, 50) for seed in (0, 1, 2)]
    + [(200, 4, 0), (200, 4, 1), (1000, 3, 0)]
)


class TestGraphValidation:
    def test_triangle_with_a_doubled_edge_is_rejected(self):
        with pytest.raises(ValueError, match="repeats a neighbour"):
            FiniteGraphInstance(3, 2, ((1, 1, 2), (0, 0, 2), (0, 1)))

    def test_one_sided_edge_is_rejected(self):
        with pytest.raises(ValueError, match="one-sided edge"):
            FiniteGraphInstance(3, 2, ((1, 2), (0, 2), (1,)))

    def test_self_loop_is_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FiniteGraphInstance(3, 2, ((0, 1, 2), (0, 2), (0, 1)))

    def test_vertex_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FiniteGraphInstance(3, 2, ((1, 3), (0, 2), (1,)))

    def test_simple_graphs_pass(self):
        assert short_cycle_count(FiniteGraphInstance(3, 2, ((1, 2), (0, 2), (0, 1))), 3) == 1
        assert FiniteGraphInstance(0, 3, ()).n == 0
        G = random_regular_graph(200, 3, 1)
        assert all(len(nbrs) == G.d for nbrs in G.adjacency)


class TestShortCycleCount:
    @pytest.mark.parametrize("n,d,seed", CYCLE_GRAPHS)
    def test_matches_networkx_at_every_bound(self, n, d, seed):
        G = random_regular_graph(n, d, seed)
        expected = nx_counts_up_to(G, MAX_BOUND)
        assert [short_cycle_count(G, b) for b in range(MAX_BOUND + 1)] == expected

    @pytest.mark.parametrize("n,d,seed", [(4, 3, 0), (10, 3, 1), (5, 4, 2), (10, 4, 0)])
    def test_matches_networkx_call_per_bound(self, n, d, seed):
        G = random_regular_graph(n, d, seed)
        for b in range(MAX_BOUND + 1):
            assert short_cycle_count(G, b) == nx_count(G, b)

    def test_complete_graph_on_four_vertices(self):
        K4 = random_regular_graph(4, 3, seed=0)
        assert sorted(K4.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert short_cycle_count(K4, 3) == 4
        assert short_cycle_count(K4, 4) == 7
        assert nx_count(K4, 3) == 4
        assert nx_count(K4, 4) == 7

    def test_tree_ball_has_no_cycles(self):
        G = tree_ball_graph(3, 4)
        for b in range(MAX_BOUND + 1):
            assert short_cycle_count(G, b) == 0
        assert nx_counts_up_to(G, MAX_BOUND) == [0] * (MAX_BOUND + 1)

    def test_bounds_below_three_count_nothing(self):
        G = random_regular_graph(10, 3, seed=3)
        for b in (0, 1, 2):
            assert short_cycle_count(G, b) == 0 == nx_count(G, b)

    def test_negative_bound_rejected_like_networkx(self):
        nx = pytest.importorskip("networkx")
        G = random_regular_graph(10, 3, seed=3)
        with pytest.raises(ValueError, match="non-negative"):
            short_cycle_count(G, -1)
        with pytest.raises(ValueError, match="non-negative"):
            next(iter(nx.simple_cycles(nx_graph(G), length_bound=-1)))


# ---------------------------------------------------------------------------
# The sparse phase against the per-vertex search
# ---------------------------------------------------------------------------


def reference_phase(G, undecided, separation, rng, balls):
    """The per-vertex loop: every undecided vertex takes its rank from the
    same permutation draw and is fixed iff no undecided vertex in its
    breadth-first ball has a lower rank.  ``balls`` memoizes each vertex's
    search so that the reference runs in test time; the check made with it
    is unchanged."""

    def ball(p):
        if p not in balls:
            balls[p] = _within_distance(G.adjacency, [p], separation)
        return balls[p]

    undecided = undecided.copy()
    fixed_all = []
    rounds = 0
    while np.any(undecided):
        rounds += 1
        candidates = np.flatnonzero(undecided).tolist()
        rank = dict(zip(candidates, rng.permutation(len(candidates)).tolist()))
        fixed = [p for p in candidates if rank[p] == min(rank.get(w, rank[p]) for w in ball(p))]
        undecided[list(_within_distance(G.adjacency, fixed, separation))] = False
        fixed_all.extend(fixed)
    return fixed_all, rounds


def reference_sparse_set(G, separation, seed):
    rng = np.random.default_rng(seed)
    fixed, rounds = reference_phase(G, np.ones(G.n, dtype=bool), separation, rng, {})
    labels = np.zeros(G.n, dtype=np.int64)
    labels[fixed] = 1
    return tuple(labels.tolist()), rounds


def reference_coloring(G, separation, seed):
    rng = np.random.default_rng(seed)
    balls = {}
    colors = np.zeros(G.n, dtype=np.int64)
    rounds_total = 0
    color = 0
    while np.any(colors == 0):
        color += 1
        fixed, rounds = reference_phase(G, colors == 0, separation, rng, balls)
        colors[fixed] = color
        rounds_total += rounds
    return tuple(colors.tolist()), rounds_total


GRAPHS = {
    "K4": lambda: random_regular_graph(4, 3, seed=0),
    "rrg200": lambda: random_regular_graph(200, 3, seed=5),
    "rrg1000": lambda: random_regular_graph(1000, 3, seed=6),
    "tree_ball_3_6": lambda: tree_ball_graph(3, 6),
}
PHASE_CASES = (
    [(g, L, 20) for g in ("K4", "tree_ball_3_6") for L in (1, 2, 3)]
    + [(g, L, 20) for g in ("rrg200", "rrg1000") for L in (1, 2)]
    + [("rrg200", 3, 2), ("rrg1000", 3, 20), ("rrg1000", 4, 20)]
)


class RoundLimitedRng:
    """A generator that stops a phase running on past ``rounds`` rounds."""

    def __init__(self, seed, rounds):
        self.rng = np.random.default_rng(seed)
        self.rounds_left = rounds

    def permutation(self, n):
        if self.rounds_left == 0:
            raise RuntimeError("the phase ran on after a round that fixed nothing")
        self.rounds_left -= 1
        return self.rng.permutation(n)


class TestSparsePhase:
    @pytest.mark.parametrize("graph,L,n_seeds", PHASE_CASES)
    def test_matches_per_proposer_search(self, graph, L, n_seeds):
        G = GRAPHS[graph]()
        for seed in range(n_seeds):
            labeling = sparse_set_labeling(G, L, seed)
            assert (labeling.labels, labeling.rounds) == reference_sparse_set(G, L, seed)
            coloring = sparse_coloring(G, L, seed)
            assert (coloring.colors, coloring.rounds) == reference_coloring(G, L, seed)

    def test_round_that_fixes_nothing_is_an_invariant_error(self):
        # Balls that leave out their own centre: no rank is the minimum of
        # its ball, so the first round fixes nothing.
        G = GRAPHS["K4"]()
        indptr = np.arange(0, 3 * G.n + 1, 3)
        indices = np.array([w for nbrs in G.adjacency for w in nbrs])
        with pytest.raises(InvariantError, match="fixed no vertex"):
            _sparse_phase((indptr, indices), np.ones(G.n, dtype=bool), RoundLimitedRng(0, 3))

    @pytest.mark.parametrize("graph,L", [("rrg1000", 4), ("tree_ball_3_6", 3)])
    def test_phase_ends_within_the_undecided_count(self, graph, L):
        G = GRAPHS[graph]()
        undecided = np.arange(G.n) % 3 > 0
        rng, reference_rng = np.random.default_rng(7), np.random.default_rng(7)
        fixed, rounds = _sparse_phase(_balls(G, L), undecided, rng)
        assert (fixed, rounds) == reference_phase(G, undecided, L, reference_rng, {})
        assert 1 <= rounds <= len(fixed) <= np.count_nonzero(undecided)
        # the same draws were consumed, one permutation per round
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_balls_are_closed_and_symmetric(self):
        G = GRAPHS["tree_ball_3_6"]()
        indptr, indices, _ = _balls(G, 2)
        balls = [set(indices[indptr[v]:indptr[v + 1]].tolist()) for v in range(G.n)]
        for v, ball in enumerate(balls):
            assert ball == _within_distance(G.adjacency, [v], 2)
            assert all(v in balls[w] for w in ball)


# ---------------------------------------------------------------------------
# The ball table and the contract checks against the per-vertex searches
# ---------------------------------------------------------------------------


def reference_level_order(G, v, radius):
    """Breadth-first search from v in adjacency order, one level at a time."""
    order, frontier, seen = [v], [v], {v}
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for w in G.adjacency[x]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        order += nxt
        frontier = nxt
    return order


def reference_check_sparse_set(G, labels, separation):
    ones = [i for i, lab in enumerate(labels) if lab == 1]
    sep_ok = all(
        not any(w != v and labels[w] == 1 for w in _within_distance(G.adjacency, [v], separation))
        for v in ones
    )
    dom_ok = len(_within_distance(G.adjacency, ones, separation)) == G.n if ones else G.n == 0
    return sep_ok, dom_ok


def reference_check_sparse_coloring(G, colors, separation):
    return all(
        not any(w != v and colors[w] == colors[v]
                for w in _within_distance(G.adjacency, [v], separation))
        for v in range(G.n)
    )


TABLE_GRAPHS = {
    **{f"rrg200-{seed}": (lambda seed=seed: random_regular_graph(200, 3, seed)) for seed in range(4)},
    "tree_ball_3_4": lambda: tree_ball_graph(3, 4),
}


class TestBallTable:
    @pytest.mark.parametrize("graph", sorted(TABLE_GRAPHS))
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
    def test_depths_are_networkx_distances(self, graph, radius):
        nx = pytest.importorskip("networkx")
        G = TABLE_GRAPHS[graph]()
        indptr, indices, depth = _balls(G, radius)
        graph_nx = nx_graph(G)
        for v in range(G.n):
            ball = indices[indptr[v]:indptr[v + 1]].tolist()
            depths = depth[indptr[v]:indptr[v + 1]].tolist()
            assert dict(zip(ball, depths)) == nx.single_source_shortest_path_length(
                graph_nx, v, cutoff=radius
            )
            assert len(set(ball)) == len(ball)
            assert ball == reference_level_order(G, v, radius)

    @pytest.mark.parametrize("graph", sorted(TABLE_GRAPHS))
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_checks_match_the_searches_on_valid_and_corrupted_outputs(self, graph, L):
        G = TABLE_GRAPHS[graph]()
        rng = np.random.default_rng(L)
        labels = list(sparse_set_labeling(G, L, seed=L).labels)
        colors = list(sparse_coloring(G, L, seed=L).colors)
        assert check_sparse_set(G, labels, L) == (True, True)
        assert check_sparse_coloring(G, colors, L)
        for v in rng.choice(G.n, size=10, replace=False).tolist():
            flipped = list(labels)
            flipped[v] = 1 - flipped[v]
            got = check_sparse_set(G, flipped, L)
            # A new 1 sees the 1 that dominated it; a removed 1 leaves itself undominated.
            assert got == ((False, True) if flipped[v] == 1 else (True, False))
            assert got == reference_check_sparse_set(G, flipped, L)
            copied = list(colors)
            copied[v] = colors[G.adjacency[v][0]]
            assert check_sparse_coloring(G, copied, L) is False
            assert reference_check_sparse_coloring(G, copied, L) is False

    @pytest.mark.parametrize("graph", sorted(TABLE_GRAPHS))
    def test_checks_match_the_searches_on_random_inputs(self, graph):
        G = TABLE_GRAPHS[graph]()
        rng = np.random.default_rng(3)
        for L in (1, 2):
            for density in (0.02, 0.1, 0.5):
                labels = (rng.random(G.n) < density).astype(int).tolist()
                assert check_sparse_set(G, labels, L) == reference_check_sparse_set(G, labels, L)
            for palette in (10, 40, 400):
                colors = rng.integers(1, palette + 1, size=G.n).tolist()
                assert check_sparse_coloring(G, colors, L) == reference_check_sparse_coloring(
                    G, colors, L
                )

    def test_empty_graph_passes_both_checks(self):
        G = FiniteGraphInstance(0, 3, ())
        assert check_sparse_set(G, [], 2) == (True, True)
        assert check_sparse_coloring(G, [], 2) is True


def test_sparse_cli_does_not_load_networkx():
    script = (
        "import json, sys\n"
        "from treefactor.cli import main\n"
        "code = main(['sparse', '--n', '200', '--d', '3', '--L', '2', '--seed', '1'])\n"
        "print(json.dumps([code, 'networkx' in sys.modules]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, networkx_loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert code == 0
    assert not networkx_loaded
