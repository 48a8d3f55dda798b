"""The statistics kernel against the per-statistic reference it replaced.

The reference evaluates each statistic in its own closure and bootstraps
each one with its own multinomial redraw of the same resamples; the
kernel draws the resamples once and evaluates every statistic on the
whole stack.  On 2x2 joints every sum has fewer than eight terms, so the
two agree bit for bit.  On larger joints the zero entries take part in
numpy's pairwise sums, which moves the last bits.
"""

import math

import numpy as np
import pytest

from treefactor import information
from treefactor.errors import UndefinedQuantityError
from treefactor.information import (
    DEFAULT_BOOTSTRAP_RESAMPLES,
    _BOOTSTRAP_SALT,
    Estimates,
    joint_from_counts,
)
from treefactor.bounds import normalized_mi_bound
from treefactor.processes import (
    SparseColoringResult,
    listing_finite_N_mi,
    measurement_from_joint,
    random_regular_graph,
)


def ref_entropy(p):
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def ref_stderr(J, statistic):
    prov = J.provenance
    if prov.kind != "empirical" or prov.n_samples <= 0:
        return 0.0
    flat = J.as_array.ravel()
    flat = flat / flat.sum()
    rng = np.random.default_rng([_BOOTSTRAP_SALT, prov.seed if prov.seed is not None else 0])
    draws = rng.multinomial(prov.n_samples, flat, size=DEFAULT_BOOTSTRAP_RESAMPLES)
    vals = []
    for row in draws:
        try:
            vals.append(statistic(row.reshape(J.shape) / prov.n_samples))
        except UndefinedQuantityError:
            continue
    if len(vals) < 2:
        raise UndefinedQuantityError("statistic undefined on nearly all bootstrap resamples")
    return float(np.std(vals, ddof=1))


def ref_statistics(fx, gy):
    def h_y(m):
        return ref_entropy(m.sum(axis=0))

    def h_xy(m):
        return ref_entropy(m.ravel())

    def cond_x_given_y(m):
        return ref_entropy(m.ravel()) - ref_entropy(m.sum(axis=0))

    def mi(m):
        return ref_entropy(m.sum(axis=1)) + ref_entropy(m.sum(axis=0)) - ref_entropy(m.ravel())

    def nmi(m):
        h = h_y(m)
        if h == 0.0:
            raise UndefinedQuantityError("zero-entropy marginal")
        return mi(m) / h

    def corr(m):
        px = m.sum(axis=1)
        py = m.sum(axis=0)
        ef = float(px @ fx)
        eg = float(py @ gy)
        var_f = float(px @ (fx - ef) ** 2)
        var_g = float(py @ (gy - eg) ** 2)
        if var_f <= 0 or var_g <= 0:
            raise UndefinedQuantityError("zero variance")
        return float((fx - ef) @ m @ (gy - eg)) / math.sqrt(var_f * var_g)

    return {"H": h_y, "H_xy": h_xy, "H_x|y": cond_x_given_y, "I": mi, "nmi": nmi, "corr": corr}


def outcome(fn):
    """fn(), or the error type when the quantity is undefined."""
    try:
        return fn()
    except UndefinedQuantityError:
        return UndefinedQuantityError


def pair(q):
    return (q.value, q.stderr)


def reference(J, fx, gy):
    out = {}
    for name, stat in ref_statistics(fx, gy).items():
        out[name] = outcome(lambda: (stat(J.as_array), ref_stderr(J, stat)))
    return out


def kernel(J, fx, gy):
    """The same statistics through Estimates and measurement_from_joint."""
    plain = Estimates(J)
    out = {
        "H_xy": outcome(lambda: pair(plain.quantity("h_xy"))),
        "H_x|y": outcome(lambda: pair(plain.quantity("h_x_given_y"))),
        "I": outcome(lambda: pair(plain.quantity("mi"))),
        "nmi": outcome(lambda: pair(plain.quantity("nmi_y"))),
    }
    pm = outcome(lambda: measurement_from_joint(2, 1, J, fx, gy, "monte-carlo"))
    if pm is UndefinedQuantityError:
        # Only an undefined I/H makes the whole measurement fail.
        assert out["nmi"] is UndefinedQuantityError
        est = Estimates(J, fx, gy)
        out["H"] = outcome(lambda: pair(est.quantity("h_y")))
        out["corr"] = outcome(lambda: pair(est.quantity("corr")))
    else:
        assert (pair(pm.mi), pair(pm.nmi)) == (out["I"], out["nmi"])
        out["H"] = pair(pm.entropy_v)
        out["corr"] = UndefinedQuantityError if pm.corr is None else pair(pm.corr)
    return out


def random_counts(rng, shape):
    while True:
        counts = rng.integers(0, int(rng.choice([4, 40, 4000])), size=shape)
        if counts.sum() > 0:
            return counts


def test_2x2_bit_for_bit():
    rng = np.random.default_rng(2061)
    undefined = 0
    for trial in range(150):
        J = joint_from_counts(random_counts(rng, (2, 2)), seed=trial)
        fx = np.asarray([0.0, 1.0]) if trial % 3 else np.asarray([1.0, 1.0])
        gy = np.asarray([1.0, -1.0])
        want = reference(J, fx, gy)
        got = kernel(J, fx, gy)
        assert got == want, (J.counts, got, want)
        undefined += sum(v is UndefinedQuantityError for v in want.values())
    assert undefined > 0  # the undefined cases were exercised


@pytest.mark.parametrize("size", [3, 4])
def test_larger_joints_to_1e12(size):
    rng = np.random.default_rng(size)
    for trial in range(40):
        J = joint_from_counts(random_counts(rng, (size, size)), seed=trial)
        fx = rng.normal(size=size) if trial % 4 else np.ones(size)
        gy = rng.normal(size=size)
        want = reference(J, fx, gy)
        got = kernel(J, fx, gy)
        assert got.keys() == want.keys()
        for name, expected in want.items():
            if expected is UndefinedQuantityError:
                assert got[name] is UndefinedQuantityError, name
                continue
            for a, b in zip(got[name], expected):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-300), (name, J.counts)


def test_one_multinomial_draw_per_measurement(monkeypatch):
    calls = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self._rng = real(seed)

        def multinomial(self, *args, **kwargs):
            calls.append(args)
            return self._rng.multinomial(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    J = joint_from_counts(np.array([[30, 10, 2], [12, 28, 5]]), seed=3)
    measurement_from_joint(2, 1, J, (0.0, 1.0), (0.0, 1.0, 2.0), "monte-carlo")
    assert len(calls) == 1
    Estimates(J).quantity("nmi_y")
    assert len(calls) == 2


@pytest.mark.parametrize("cells", [6, 5000])
def test_resample_blocks_match_one_draw(monkeypatch, cells):
    rng = np.random.default_rng(cells)
    counts = rng.integers(0, 5, size=cells)
    x, y = np.divmod(np.arange(cells), 3 if cells == 6 else 50)
    stderrs = []
    for block in (1 << 40, information._RESAMPLE_BLOCK, 7 * cells, 1):
        monkeypatch.setattr(information, "_RESAMPLE_BLOCK", block)
        est = Estimates.from_cells(counts, x, y, seed=17)
        stderrs.append([est.quantity(name).stderr for name in ("h_x", "h_y", "mi", "nmi_y")])
    assert all(s == stderrs[0] for s in stderrs), stderrs


# ---------------------------------------------------------------------------
# listing_finite_N_mi: dict-based pattern counts as the reference
# ---------------------------------------------------------------------------


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


def _vertices_at_distance(G, u, k):
    """The vertices at distance k from u, in breadth-first order."""
    depth = {u: 0}
    frontier = [u]
    for level in range(1, k + 1):
        nxt = []
        for x in frontier:
            for nb in G.adjacency[x]:
                if nb not in depth:
                    depth[nb] = level
                    nxt.append(nb)
        frontier = nxt
    return frontier


def ref_listing(radius, k, n_labels, coloring, resamples=DEFAULT_BOOTSTRAP_RESAMPLES):
    """(I/H, I, H) of the listing process from dict-based counts of the
    pattern pairs, and the bootstrap stderr of each.  Patterns are numbered
    by first appearance, vertex by vertex; the resamples are multinomial
    draws over the distinct pattern pairs in increasing order."""
    G = coloring.graph
    colors = coloring.colors
    pats = [frozenset(colors[w] for w in _within_distance(G.adjacency, [u], radius))
            for u in range(G.n)]
    index = {}
    for pat in pats:
        index.setdefault(pat, len(index))
    counts, ball_size, shared_size = {}, {}, {}
    for u in range(G.n):
        for v in _vertices_at_distance(G, u, k):
            cell = (index[pats[u]], index[pats[v]])
            counts[cell] = counts.get(cell, 0) + 1
            ball_size[cell] = len(pats[v])
            shared_size[cell] = len(pats[u] & pats[v])
    log_n = math.log(n_labels)

    def ratio_from(cell_counts):
        total = sum(cell_counts.values())
        pj = np.asarray(list(cell_counts.values()), dtype=float) / total
        first, second = {}, {}
        for (a, b), c in cell_counts.items():
            first[a] = first.get(a, 0) + c / total
            second[b] = second.get(b, 0) + c / total
        h_v = ref_entropy(np.asarray(list(second.values())))
        mi_pat = ref_entropy(np.asarray(list(first.values()))) + h_v - ref_entropy(pj)
        shared = sum(c * shared_size[cell] for cell, c in cell_counts.items()) / total
        size = sum(c * ball_size[cell] for cell, c in cell_counts.items()) / total
        mi_total = mi_pat + shared * log_n
        h_total = h_v + size * log_n
        return mi_total / h_total, mi_total, h_total

    cells = sorted(counts)
    n = sum(counts.values())
    p = np.asarray([counts[cell] for cell in cells]) / n
    rng = np.random.default_rng([_BOOTSTRAP_SALT, coloring.seed])
    draws = rng.multinomial(n, p / p.sum(), size=resamples)
    resampled = [ratio_from({cell: c for cell, c in zip(cells, row) if c > 0})
                 for row in draws.tolist()]
    stderrs = np.std(np.asarray(resampled), axis=0, ddof=1)
    return [(value, float(stderr)) for value, stderr in zip(ratio_from(counts), stderrs)]


def greedy_coloring(G, separation, seed):
    """A distance-``separation`` coloring, one vertex at a time."""
    colors = [0] * G.n
    for v in range(G.n):
        used = {colors[w] for w in _within_distance(G.adjacency, [v], separation)}
        colors[v] = min(c for c in range(1, len(used) + 2) if c not in used)
    return SparseColoringResult(G, separation, tuple(colors), max(colors), 0, seed)


@pytest.mark.parametrize("radius,k", [(0, 1), (1, 1), (1, 2)], ids=["0", "1", "R1-k2"])
def test_listing_matches_dict_reference(radius, k):
    G = random_regular_graph(200, 3, seed=5)
    coloring = greedy_coloring(G, 2 * radius + k, seed=11)
    pm = listing_finite_N_mi(3, radius, k, 16, coloring)
    want = ref_listing(radius, k, 16, coloring)
    for got, (value, stderr) in zip((pm.nmi, pm.mi, pm.entropy_v), want):
        assert got.value == pytest.approx(value, rel=1e-12)
        assert got.stderr == pytest.approx(stderr, rel=1e-12)
        assert got.stderr > 0
    assert pm.nmi.value <= float(normalized_mi_bound(3, k)) + 3 * pm.nmi.stderr
