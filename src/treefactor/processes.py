"""Constructions of equivariant processes on the d-regular tree and the
machinery to measure the joint law of two vertices at distance k.

Local rules are functions of *canonicalized* labeled rooted balls, which
makes them invariant under root-preserving automorphisms by construction.
Every rule call goes through ``_rule_outputs``, which maps rows of label
indices to output indices.  Exact enumeration, affordable where the
|A|^|B_R| labelings of one ball are, meets each labeling once, in
mixed-radix code order, and conditions on the labels of the vertices the
two balls share.  Seeded Monte Carlo runs the rule once per distinct
labeling that the draws meet (``_ball_outputs``): balls with at most
``_KNOWN_LABELINGS`` labelings key a labeling by its code, one integer
product of the labels giving the codes of both balls, and look the rule's
outputs up in a dense table indexed by code; larger balls key it by its
raw label bytes.  Block-rule labels are the uniforms ``Generator.choice``
would draw, thresholded at the cumulative input law.  Block rules and the
Gaussian sign process draw their samples through one loop,
``_sampled_joint``, over one counter-based stream per seed.  Measurements
work on the letter tuples of the region and build no ``Word``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    InvariantError,
    LocalAlgorithmError,
    TruncationError,
)
from .information import (
    Estimates,
    JointDistribution,
    MeasuredQuantity,
    UndefinedQuantityError,
    joint_from_counts,
    symmetric_binary_joint,
)
from .tree import (
    BallRegion,
    _path_letters,
    ball,
    ball_size,
    origin,
    region_from_balls,
    sphere_size,
)
from .words import FreeProductSignature

DEFAULT_ENUM_BUDGET = 2**18
# How a refused exact enumeration tells the library and the command-line user to sample.
_SAMPLED_INSTEAD = ("for a sampled estimate use mc_joint, "
                    "or --method mc or --method auto on the command line")
DEFAULT_REGION_VERTEX_BUDGET = 60_000
MC_CHUNK = 10_000
_PAIRING_ATTEMPTS = 5000  # stub pairings tried before random_regular_graph gives up
_ENUM_BLOCK = 4096  # configurations per block of exact enumeration; bounds its memory
_KNOWN_LABELINGS = 1 << 16  # ball labelings whose rule output is kept; bounds that memory
_LEVEL_BLOCK = 1024  # ball centres or cycle paths per block of the graph kernels; bounds memory


# ---------------------------------------------------------------------------
# Block-factor rules on canonicalized rooted balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockFactorRule:
    """A radius-R local rule applied to canonical forms of labeled balls.

    ``fn`` receives the canonical code of the rooted labeled ball: a pair
    ``(root_label, sorted_child_codes)`` built recursively, so any two
    label patterns related by a root-preserving automorphism give the
    same code and therefore the same output.  ``fn`` is called once per
    distinct ball labeling that a measurement meets, so it must be a pure
    function of the code.
    """

    name: str
    radius: int
    input_values: tuple
    input_probs: tuple[float, ...]
    output_values: tuple
    fn: Callable

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if len(self.input_values) != len(self.input_probs):
            raise ValueError("input values and probabilities differ in length")
        p = np.asarray(self.input_probs, dtype=float)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("input probabilities must be a distribution")
        if len(self.output_values) < 1:
            raise ValueError("output alphabet must be nonempty")


def canonical_ball_code(labels, root: int, children: Sequence[tuple[int, ...]]):
    """Canonical form of a labeled rooted ball: child subtrees sorted by code."""
    kids = children[root]
    if not kids:
        return (labels[root], ())
    return (
        labels[root],
        tuple(sorted(canonical_ball_code(labels, c, children) for c in kids)),
    )


def _code_label_sum(code) -> int:
    label, kids = code
    return label + sum(_code_label_sum(c) for c in kids)


def identity_rule(d: int) -> BlockFactorRule:
    """Output the root's own label; distinct vertices stay independent."""
    return BlockFactorRule(
        name="identity",
        radius=0,
        input_values=(0, 1),
        input_probs=(0.5, 0.5),
        output_values=(0, 1),
        fn=lambda code: code[0],
    )


def majority_rule(d: int) -> BlockFactorRule:
    """Majority of the d+1 binary labels in the radius-1 ball, ties -> root."""
    total = d + 1

    def fn(code):
        ones = _code_label_sum(code)
        if 2 * ones > total:
            return 1
        if 2 * ones < total:
            return 0
        return code[0]

    return BlockFactorRule(
        name="majority",
        radius=1,
        input_values=(0, 1),
        input_probs=(0.5, 0.5),
        output_values=(0, 1),
        fn=fn,
    )


def parity_rule(d: int) -> BlockFactorRule:
    """Parity of all binary labels in the radius-1 ball."""
    return BlockFactorRule(
        name="parity",
        radius=1,
        input_values=(0, 1),
        input_probs=(0.5, 0.5),
        output_values=(0, 1),
        fn=lambda code: _code_label_sum(code) % 2,
    )


RULES: dict[str, Callable[[int], BlockFactorRule]] = {
    "identity": identity_rule,
    "majority": majority_rule,
    "parity": parity_rule,
}


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessMeasurement:
    """Joint law of (X_u, X_v) at distance k plus derived information
    quantities.  The joint is transpose-symmetric (the two vertices can be
    swapped by an automorphism): exactly for enumeration, within noise for
    Monte Carlo.  ``joint`` is None when the state space is too large to
    materialize and only derived quantities are reported.  ``region`` is
    the explicit union of balls the measurement was made on, if any."""

    d: int
    k: int
    method: str
    joint: Optional[JointDistribution]
    entropy_v: MeasuredQuantity
    mi: MeasuredQuantity
    nmi: MeasuredQuantity
    corr: Optional[MeasuredQuantity]
    samples: Optional[int] = None
    seed: Optional[int] = None
    extra: tuple[tuple[str, float], ...] = ()
    region: Optional[BallRegion] = field(default=None, compare=False, repr=False)

    def to_row(self) -> dict:
        row = {
            "d": self.d,
            "k": self.k,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "H": self.entropy_v.value,
            "H_stderr": self.entropy_v.stderr,
            "I": self.mi.value,
            "I_stderr": self.mi.stderr,
            "nmi": self.nmi.value,
            "nmi_stderr": self.nmi.stderr,
            "corr": None if self.corr is None else self.corr.value,
            "corr_stderr": None if self.corr is None else self.corr.stderr,
        }
        row.update(self.extra)
        return row

    def to_json(self) -> str:
        payload = dict(self.to_row())
        if self.joint is not None:
            payload["joint"] = [list(r) for r in self.joint.matrix]
            payload["provenance"] = self.joint.provenance.to_json_obj()
        payload["schema"] = 1
        return json.dumps(payload, sort_keys=True)


def measurement_from_joint(
    d: int,
    k: int,
    J: JointDistribution,
    x_values: Sequence[float],
    y_values: Sequence[float],
    method: str,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    extra: tuple[tuple[str, float], ...] = (),
    region: Optional[BallRegion] = None,
) -> ProcessMeasurement:
    """Derive H, I, I/H and the value correlation (with bootstrap stderr
    for empirical joints) from a joint law measured on ``region``."""
    return ProcessMeasurement(
        d=d,
        k=k,
        method=method,
        joint=J,
        **_statistic_fields(Estimates(J, x_values, y_values)),
        samples=samples,
        seed=seed,
        extra=tuple(extra),
        region=region,
    )


def _statistic_fields(est: Estimates) -> dict[str, Optional[MeasuredQuantity]]:
    """H, I and I/H of the second vertex, and the value correlation where defined."""
    try:
        corr = est.quantity("corr") if "corr" in est.point else None
    except UndefinedQuantityError:
        corr = None
    return {"entropy_v": est.quantity("h_y"), "mi": est.quantity("mi"),
            "nmi": est.quantity("nmi_y"), "corr": corr}


def _two_balls(d: int, radius: int, k: int) -> tuple[BallRegion, list[int], list[int], tuple]:
    """The union of the radius-``radius`` balls at u and v = k steps from u,
    each ball as region indices breadth-first from its root, and the shape
    that every such ball has in that order: the children of each position,
    as positions in the ball."""
    sig = FreeProductSignature(0, d)
    centers = [((), radius), (_path_letters(sig, (), k), radius)]
    region = region_from_balls(sig, centers, budget=DEFAULT_REGION_VERTEX_BUDGET)
    ball_u, ball_v = (list(ball) for ball in region.balls)
    # The root has d children and every other inner position d-1, each block
    # right after the one before, because a ball is listed level by level.
    fanout = [d] + [d - 1] * (ball_size(d, radius - 1) - 1) if radius else []
    fanout += [0] * (len(ball_u) - len(fanout))
    starts = accumulate(fanout, initial=1)
    shape = tuple(tuple(range(s, s + f)) for s, f in zip(starts, fanout))
    return region, ball_u, ball_v, shape


def _place_values(n_values: int, size: int) -> np.ndarray:
    """The int64 place value of each ball position in a labeling's
    mixed-radix code Σ label·|A|^(size-1-position), for balls whose codes
    fit in int64."""
    return n_values ** np.arange(size - 1, -1, -1, dtype=np.int64)


def _rule_outputs(rule: BlockFactorRule, shape: tuple, rows: np.ndarray) -> np.ndarray:
    """The index of the rule's output on each row of label indices, a ball
    labeling in the breadth-first order of ``shape``: one rule call per row."""
    out_index = {val: i for i, val in enumerate(rule.output_values)}
    labelings = ([rule.input_values[i] for i in row] for row in rows.tolist())
    outs = [out_index[rule.fn(canonical_ball_code(labels, 0, shape))] for labels in labelings]
    return np.array(outs, dtype=np.int64)


def _ball_outputs(rule: BlockFactorRule, shape: tuple, balls: Sequence) -> Callable:
    """The function that maps a (samples, region vertices) matrix of label
    indices to the (samples, len(balls)) indices of the rule's output on
    each ball: the region indices of its positions in the order of
    ``shape``.  The balls cover the region.  Outputs are kept across calls,
    so the rule runs once per distinct labeling, whatever the ball size.

    The key of a labeling is chosen here, once.  A ball with at most
    ``_KNOWN_LABELINGS`` labelings is keyed by its mixed-radix code, one
    int64 product of the labels with ``placement`` giving the codes of
    every ball, and a dense table indexed by code holds the outputs, -1
    where not yet evaluated: a call whose labelings are all known is one
    gather.  Larger balls are keyed by their label rows as raw bytes, made
    unique per call and looked up in a store that starts afresh past
    ``_KNOWN_LABELINGS`` outputs, so its memory stays bounded.
    """
    n_values = len(rule.input_values)
    n_labelings = n_values ** len(shape)
    if n_labelings <= _KNOWN_LABELINGS:
        place = _place_values(n_values, len(shape))
        # Column j holds each position's place value at its vertex in ball j.
        placement = np.zeros((1 + max(map(max, balls)), len(balls)), dtype=np.int64)
        for column, ball in enumerate(balls):
            placement[ball, column] = place
        table = np.full(n_labelings, -1, dtype=np.int64)

        def outputs(labels: np.ndarray) -> np.ndarray:
            codes = labels @ placement
            out = table[codes]
            missing = out < 0
            if missing.any():
                # The distinct missing codes in order, from a count over the table's range.
                new = np.flatnonzero(np.bincount(codes[missing], minlength=n_labelings))
                table[new] = _rule_outputs(rule, shape, new[:, None] // place % n_values)
                out = table[codes]
            return out

        return outputs

    positions = np.array(balls, dtype=np.intp)
    index_type = np.min_scalar_type(n_values - 1)  # the narrowest key bytes
    known: dict = {}  # raw bytes of a labeling -> index of the rule's output

    def outputs(labels: np.ndarray) -> np.ndarray:
        if len(known) > _KNOWN_LABELINGS:
            known.clear()
        rows = np.ascontiguousarray(labels[:, positions], dtype=index_type).reshape(-1, len(shape))
        keys = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
        unique, inverse = np.unique(keys, return_inverse=True)
        unique_keys = unique.tolist()
        found = np.fromiter((known.get(key, -1) for key in unique_keys), np.int64, len(unique_keys))
        new = np.flatnonzero(found < 0)
        found[new] = _rule_outputs(rule, shape, unique[new].view(index_type).reshape(-1, len(shape)))
        known.update(zip((unique_keys[j] for j in new.tolist()), found[new].tolist()))
        return found[inverse].reshape(len(labels), len(balls))

    return outputs


def _sampled_joint(seed: int, samples: int, m: int, draw: Callable) -> JointDistribution:
    """The empirical joint of ``samples`` pairs of output indices in
    0..m-1, drawn in chunks of at most ``MC_CHUNK`` from one counter-based
    stream keyed by the seed: ``draw(rng, chunk)`` returns a (chunk, 2)
    array of the pairs (X_u, X_v)."""
    if samples < 1:
        raise ValueError(f"Monte Carlo needs samples >= 1, got {samples}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.zeros(m * m, dtype=np.int64)
    for start in range(0, samples, MC_CHUNK):
        pairs = draw(rng, min(MC_CHUNK, samples - start))
        counts += np.bincount(pairs[:, 0] * m + pairs[:, 1], minlength=m * m)
    return joint_from_counts(counts.reshape(m, m), seed)


def exact_joint(
    rule: BlockFactorRule,
    d: int,
    k: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> ProcessMeasurement:
    """Exact joint law of (X_u, X_v), conditioned on the labels of the
    shared vertices I = B_u ∩ B_v of the two radius-R balls.

    Given the labels on I, X_u and X_v are independent, so the joint is
    Σ_I p(I) · P_u(·|I) ⊗ P_v(·|I).  The |A|^|B_R| labelings of one ball are
    enumerated once, by mixed-radix code in ``_ENUM_BLOCK`` blocks, and the
    rule runs once per labeling (``_rule_outputs``); each labeling is met
    exactly once, so no output is kept.  Each labeling is binned twice, as
    the ball at u and as the ball at v, by its labels on I and weighted by
    the product over that ball's private vertices only.  ``budget`` bounds
    |A|^|B_R|; codes past int64 are refused whatever the budget.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    region, ball_u, ball_v, shape = _two_balls(d, rule.radius, k)
    n_values = len(rule.input_values)
    total = n_values ** len(shape)
    if total > budget:
        raise BudgetExceededError(
            f"{total} label configurations exceed the budget of {budget}; {_SAMPLED_INSTEAD}"
        )
    if total > np.iinfo(np.int64).max:
        raise BudgetExceededError(
            f"exact enumeration numbers the labelings of a ball by int64 codes, and its "
            f"{total} labelings do not fit in int64; {_SAMPLED_INSTEAD}"
        )
    m = len(rule.output_values)
    probs = np.asarray(rule.input_probs, dtype=float)
    slot = {x: i for i, x in enumerate(sorted(set(ball_u) & set(ball_v)))}
    n_shared = n_values ** len(slot)
    # Each ball's place values give a labeling's code on I, in slot order;
    # its private positions have place 0.
    i_places, privates = [], []
    for ball in (ball_u, ball_v):
        i_place = np.zeros(len(shape), dtype=np.int64)
        for position, x in enumerate(ball):
            if x in slot:
                i_place[position] = n_values ** (len(slot) - 1 - slot[x])
        i_places.append(i_place)
        privates.append(np.flatnonzero(i_place == 0))
    place = _place_values(n_values, len(shape))
    conditional = np.zeros((2, n_shared * m), dtype=float)  # rows: u, v
    for start in range(0, total, _ENUM_BLOCK):
        codes = np.arange(start, min(start + _ENUM_BLOCK, total), dtype=np.int64)
        digits = codes[:, None] // place % n_values  # in itertools.product order
        out = _rule_outputs(rule, shape, digits)
        for row, i_place, private in zip(conditional, i_places, privates):
            weights = np.prod(probs[digits[:, private]], axis=1)
            row += np.bincount(digits @ i_place * m + out, weights=weights, minlength=n_shared * m)
    a_u, a_v = conditional.reshape(2, n_shared, m)
    p_shared = np.ones(1)
    for _ in slot:
        p_shared = np.kron(p_shared, probs)
    joint = a_u.T @ (p_shared[:, None] * a_v)
    joint /= joint.sum()
    gap = float(abs(joint - joint.T).max())
    if gap > 1e-12:
        raise InvariantError(f"exact joint not exchangeable: transpose gap {gap}")
    J = JointDistribution.from_array(joint)
    values = _numeric_values(rule.output_values)
    return measurement_from_joint(d, k, J, values, values, "exact-enumeration", region=region)


def _numeric_values(output_values: tuple) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in output_values)
    except (TypeError, ValueError):
        return tuple(float(i) for i in range(len(output_values)))


def mc_joint(
    rule: BlockFactorRule,
    d: int,
    k: int,
    samples: int,
    seed: int,
) -> ProcessMeasurement:
    """Sampled joint law of (X_u, X_v): each replica draws fresh labels on
    the union region from the counter-based stream of ``_sampled_joint``.

    The labels are the ones ``Generator.choice`` would draw from the rule's
    input law: one uniform per region vertex, thresholded at the cumulative
    law normalised as ``choice`` normalises it.  ``_ball_outputs`` maps
    each chunk of labels to the outputs at u and at v.
    """
    region, ball_u, ball_v, shape = _two_balls(d, rule.radius, k)
    n_vertices = len(region.letters)
    outputs = _ball_outputs(rule, shape, (ball_u, ball_v))
    cdf = np.asarray(rule.input_probs, dtype=float).cumsum()
    cdf /= cdf[-1]  # as Generator.choice does: the law may not sum to exactly 1

    def draw(rng: np.random.Generator, chunk: int) -> np.ndarray:
        uniforms = rng.random((chunk, n_vertices))
        labels = np.zeros((chunk, n_vertices), dtype=np.int64)
        for threshold in cdf[:-1]:
            labels += uniforms >= threshold
        return outputs(labels)

    J = _sampled_joint(seed, samples, len(rule.output_values), draw)
    values = _numeric_values(rule.output_values)
    return measurement_from_joint(
        d, k, J, values, values, "monte-carlo", samples=samples, seed=seed, region=region
    )


# ---------------------------------------------------------------------------
# Finite graphs and the round-based sparse-set / coloring algorithms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGraphInstance:
    """A finite graph for running local algorithms (d-regular when built
    by the configuration model; tree balls have leaves of smaller degree).

    The graph is validated on its neighbour rows, an (n x max degree)
    array holding row v's neighbours in adjacency order, padded with -1
    where v has fewer; the rows are built once and kept, and the ball
    table and the short-cycle count read them."""

    n: int
    d: int
    adjacency: tuple[tuple[int, ...], ...]
    seed: Optional[int] = None

    def __post_init__(self):
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        rows = self._rows
        real = rows >= 0
        tails = np.broadcast_to(np.arange(self.n, dtype=np.int64)[:, None], rows.shape)[real]
        heads = rows[real].astype(np.int64)
        if np.any(heads == tails):
            raise ValueError("adjacency has a self-loop")
        edges = np.sort(tails * self.n + heads)
        if np.any(edges[1:] == edges[:-1]):
            raise ValueError("adjacency repeats a neighbour")
        if not np.array_equal(edges, np.sort(heads * self.n + tails)):
            raise ValueError("adjacency has a one-sided edge")

    @cached_property
    def _rows(self) -> np.ndarray:
        degrees = np.fromiter(map(len, self.adjacency), dtype=np.intp, count=self.n)
        heads = np.fromiter(
            chain.from_iterable(self.adjacency), dtype=np.intp, count=int(degrees.sum())
        )
        if np.any((heads < 0) | (heads >= self.n)):
            raise ValueError("adjacency names a vertex outside 0..n-1")
        rows = np.full((self.n, int(degrees.max(initial=0))), -1, dtype=np.intp)
        rows[np.arange(rows.shape[1]) < degrees[:, None]] = heads
        return rows


def random_regular_graph(n: int, d: int, seed: int) -> FiniteGraphInstance:
    """Uniform pairing of stubs, resampled until the result is simple.

    Each pair gives two directed keys tail*n + head; one sort of them
    finds a repeated edge as equal neighbours and, once the pairing is
    simple, lists every vertex's d neighbours in increasing order."""
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_PAIRING_ATTEMPTS):
        perm = rng.permutation(stubs)
        a = perm[0::2]
        b = perm[1::2]
        if np.any(a == b):
            continue
        keys = np.sort(np.concatenate((a * n + b, b * n + a)))
        if np.any(keys[1:] == keys[:-1]):
            continue
        rows = (keys % n).reshape(n, d)
        return FiniteGraphInstance(n, d, tuple(map(tuple, rows.tolist())), seed)
    raise LocalAlgorithmError(
        f"no simple d-regular pairing found in {_PAIRING_ATTEMPTS} attempts"
    )


def tree_ball_graph(d: int, radius: int) -> FiniteGraphInstance:
    """The ball of the d-regular tree as a finite graph (leaves included)."""
    region = ball(origin(d), radius)
    return FiniteGraphInstance(len(region.letters), d, region.neighbors, None)


def short_cycle_count(G: FiniteGraphInstance, max_length: int = 6) -> int:
    """Number of simple cycles of length at most ``max_length`` in the
    simple graph ``G``.

    Each cycle is walked from its smallest vertex through larger vertices
    only, once in each direction.  The walks are grown as arrays of
    paths, one column per step, in blocks of at most ``_LEVEL_BLOCK``
    paths taken deepest first, so memory stays bounded however many
    paths a dense graph has; a path of three or more vertices whose last
    vertex neighbours its root closes one walk.
    """
    if max_length < 0:
        raise ValueError(f"length bound must be non-negative, got {max_length}")
    rows = G._rows
    stack = _blocks(np.arange(G.n, dtype=np.intp)[:, None])
    walks = 0
    while stack:
        paths = stack.pop()
        steps = rows[paths[:, -1]]
        roots = paths[:, :1]
        if paths.shape[1] >= 3:
            walks += int(np.count_nonzero(steps == roots))
        if paths.shape[1] < max_length:
            on_path = (steps[:, :, None] == paths[:, None, 1:]).any(axis=2)
            path, slot = np.nonzero((steps > roots) & ~on_path)
            stack += _blocks(np.column_stack((paths[path], steps[path, slot])))
    return walks // 2


def _blocks(items: np.ndarray) -> list[np.ndarray]:
    """``items`` cut into consecutive blocks of at most ``_LEVEL_BLOCK``."""
    return [items[i:i + _LEVEL_BLOCK] for i in range(0, len(items), _LEVEL_BLOCK)]


@dataclass(frozen=True)
class SparseSetResult:
    graph: FiniteGraphInstance
    separation: int
    labels: tuple[int, ...]
    rounds: int
    seed: int

    @property
    def ones(self) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab == 1)


def check_sparse_set(
    G: FiniteGraphInstance, labels: Sequence[int], separation: int
) -> tuple[bool, bool]:
    """(separation holds, domination holds) for a 0/1 labeling."""
    return _sparse_set_holds(_balls(G, separation), labels)


def _sparse_set_holds(balls: tuple[np.ndarray, ...], labels: Sequence[int]) -> tuple[bool, bool]:
    """``check_sparse_set`` on the separation balls of ``_balls``: each
    1-vertex's ball holds one 1 (its own), and every ball holds a 1."""
    indptr, indices = balls[:2]
    ones = np.asarray(labels) == 1
    ones_in_ball = _ball_sums(ones[indices], indptr)
    return bool(np.all(ones_in_ball[ones] == 1)), bool(np.all(ones_in_ball >= 1))


def _balls(G: FiniteGraphInstance, radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed ball of radius ``radius`` around every vertex, as CSR
    arrays: ball v is ``indices[indptr[v]:indptr[v + 1]]``, listed
    breadth-first in adjacency order starting with v, and ``depth`` holds
    each entry's distance from v.

    The balls are grown a level at a time on the graph's neighbour rows,
    for blocks of ``_LEVEL_BLOCK`` centres.  Each entry of a level is
    keyed centre*n + vertex; expanding the level lists its neighbours in
    frontier order, and the next level keeps the first occurrence of each
    key that the two levels before do not hold (a neighbour of a vertex at
    distance l is at distance l-1, l or l+1).  A stable sort by centre
    then lists each ball level after level.
    """
    blocks = [_ball_block(G._rows, centres, radius)
              for centres in _blocks(np.arange(G.n, dtype=np.intp))]
    indptr = np.zeros(G.n + 1, dtype=np.intp)
    if not blocks:
        return indptr, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    sizes, indices, depth = (np.concatenate(part) for part in zip(*blocks))
    np.cumsum(sizes, out=indptr[1:])
    return indptr, indices, depth


def _ball_block(
    rows: np.ndarray, centres: np.ndarray, radius: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_balls`` for one block of consecutive centres: ball sizes, and
    the entries and depths of the balls in centre order."""
    n = len(rows)
    owner, vertex = centres, centres
    levels = [(owner, vertex)]
    held = [np.zeros(0, dtype=np.int64), centres.astype(np.int64) * (n + 1)]
    for _ in range(radius):
        owner = np.repeat(owner, rows.shape[1])
        vertex = rows[vertex].ravel()
        real = vertex >= 0
        owner, vertex = owner[real], vertex[real]
        # Held keys go first: after a stable sort, a run of equal keys starts
        # with the held copy if there is one, else with the first occurrence.
        keys = np.concatenate(held + [owner.astype(np.int64) * n + vertex])
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        held_count = len(keys) - len(owner)
        first &= order >= held_count
        keep = np.zeros(len(owner), dtype=bool)
        keep[order[first] - held_count] = True
        owner, vertex = owner[keep], vertex[keep]
        held = [held[1], sorted_keys[first]]
        if not len(owner):
            break
        levels.append((owner, vertex))
    owners = np.concatenate([o for o, _ in levels])
    order = np.argsort(owners, kind="stable")
    depth = np.repeat(np.arange(len(levels), dtype=np.intp), [len(o) for o, _ in levels])
    sizes = np.bincount(owners - centres[0], minlength=len(centres)).astype(np.intp)
    return sizes, np.concatenate([v for _, v in levels])[order], depth[order]


def _ball_sums(entries: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum of a per-entry array over each ball (no ball is empty)."""
    return np.add.reduceat(entries, indptr[:-1], dtype=np.intp)


def _restrict_balls(
    indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The balls of the kept vertices, cut down to kept vertices and
    renumbered in order."""
    inside = np.repeat(keep, np.diff(indptr)) & keep[indices]
    sizes = _ball_sums(keep[indices], indptr)[keep]
    new_indptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=new_indptr[1:])
    return new_indptr, (np.cumsum(keep) - 1)[indices[inside]]


def _sparse_phase(
    balls: tuple[np.ndarray, ...],
    undecided: np.ndarray,
    rng: np.random.Generator,
) -> tuple[list[int], int]:
    """One sparse-set phase on the vertices of the boolean mask ``undecided``.

    Each round the undecided vertices draw distinct ranks (one random
    permutation), and a vertex is fixed iff its rank is the lowest in its
    ball; undecided vertices that then see a fixed vertex within the
    separation distance drop out.  ``balls`` are the separation-radius
    balls of ``_balls``; the phase works on them cut down to the undecided
    vertices, and cuts them again after every round.  The lowest rank of
    all is fixed, so every round fixes a vertex and the phase ends within
    as many rounds as there are undecided vertices.  Returns the fixed
    vertices and the round count.
    """
    vertices = np.flatnonzero(undecided)
    indptr, indices = _restrict_balls(*balls[:2], undecided)
    fixed_all: list[int] = []
    rounds = 0
    while len(vertices):
        rounds += 1
        ranks = rng.permutation(len(vertices))
        fixed = np.minimum.reduceat(ranks[indices], indptr[:-1]) == ranks
        if not fixed.any():
            raise InvariantError(f"round {rounds} of a sparse phase fixed no vertex")
        fixed_all.extend(vertices[fixed].tolist())
        keep = _ball_sums(fixed[indices], indptr) == 0
        indptr, indices = _restrict_balls(indptr, indices, keep)
        vertices = vertices[keep]
    return fixed_all, rounds


def sparse_set_labeling(G: FiniteGraphInstance, separation: int, seed: int) -> SparseSetResult:
    """Round-based 0/1 labeling: 1-labels pairwise further than ``separation``
    apart, yet every vertex has a 1-label within that distance.

    One sparse-set phase of random-priority rounds on all vertices (Luby's
    rounds on the separation-power graph, O(log n) rounds with high
    probability): the vertices it fixes get label 1, all others 0.  Both
    properties are re-checked on the final labeling before returning.
    """
    if separation < 1:
        raise ValueError("separation must be >= 1")
    rng = np.random.default_rng(seed)
    balls = _balls(G, separation)
    fixed, rounds = _sparse_phase(balls, np.ones(G.n, dtype=bool), rng)
    labels = np.zeros(G.n, dtype=np.int64)
    labels[fixed] = 1
    sep_ok, dom_ok = _sparse_set_holds(balls, labels)
    if not (sep_ok and dom_ok):
        raise LocalAlgorithmError(
            f"labeling violates its contract: separation={sep_ok}, domination={dom_ok}"
        )
    return SparseSetResult(G, separation, tuple(labels.tolist()), rounds, seed)


@dataclass(frozen=True)
class SparseColoringResult:
    graph: FiniteGraphInstance
    separation: int
    colors: tuple[int, ...]
    color_count: int
    rounds: int
    seed: int


def check_sparse_coloring(
    G: FiniteGraphInstance, colors: Sequence[int], separation: int
) -> bool:
    return _coloring_holds(_balls(G, separation), colors)


def _coloring_holds(balls: tuple[np.ndarray, ...], colors: Sequence[int]) -> bool:
    """``check_sparse_coloring`` on the separation balls of ``_balls``:
    every ball holds one vertex of its centre's color, the centre."""
    indptr, indices = balls[:2]
    colors = np.asarray(colors)
    own = colors[indices] == np.repeat(colors, np.diff(indptr))
    return bool(np.all(_ball_sums(own, indptr) == 1))


def sparse_coloring(G: FiniteGraphInstance, separation: int, seed: int) -> SparseColoringResult:
    """Repeated sparse-set phases, one color per phase, until every vertex
    is colored.  Same-color vertices end up further than ``separation``
    apart, and the number of colors never exceeds the tree ball size."""
    if separation < 1:
        raise ValueError("separation must be >= 1")
    rng = np.random.default_rng(seed)
    balls = _balls(G, separation)
    colors = np.zeros(G.n, dtype=np.int64)
    max_colors = ball_size(G.d, separation)
    rounds_total = 0
    color = 0
    while np.any(colors == 0):
        color += 1
        if color > max_colors:
            raise LocalAlgorithmError(
                f"more than {max_colors} colors needed; dynamics are broken"
            )
        fixed, rounds = _sparse_phase(balls, colors == 0, rng)
        colors[fixed] = color
        rounds_total += rounds
    if not _coloring_holds(balls, colors):
        raise LocalAlgorithmError("coloring violates its separation contract")
    return SparseColoringResult(
        G, separation, tuple(colors.tolist()), int(colors.max()), rounds_total, seed
    )


# ---------------------------------------------------------------------------
# The label-listing process
# ---------------------------------------------------------------------------


def listing_finite_N_mi(
    d: int,
    radius: int,
    k: int,
    n_labels: int,
    coloring: SparseColoringResult,
) -> ProcessMeasurement:
    """Finite-alphabet listing process: each vertex reports the multiset
    of (color, label) pairs in its radius-R ball, labels i.i.d. uniform on
    {1..n_labels}.

    Colors within distance 2R+k are distinct, so matching colors identify
    shared ball vertices exactly.  The vertex pairs at distance k of the
    colored graph give one cell per distinct pair of color patterns P_u,
    P_v; given the cell, the labels add log(n_labels) times |P_u|, |P_v|
    and |P_u|+|P_v|-|P_u & P_v| to the entropies, and
    ``information.Estimates`` gives H, I, I/H and their bootstrap stderrs.
    The ratio approaches the listing fraction as n_labels grows.
    """
    if n_labels < 2:
        raise ValueError("need at least 2 labels")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    G = coloring.graph
    if d != G.d:
        raise ValueError(f"d={d} does not match the colored graph's degree {G.d}")
    if coloring.separation < 2 * radius + k:
        raise ValueError(
            f"coloring separation {coloring.separation} < 2R+k = {2 * radius + k}"
        )
    indptr, indices, depth = _balls(G, max(radius, k))
    # Balls are listed breadth-first, so the radius-R part of each comes first.
    colors = np.asarray(coloring.colors)
    ends = indptr[:-1] + _ball_sums(depth <= radius, indptr)
    number: dict[frozenset, int] = {}  # color patterns, by first appearance
    pattern = np.array([number.setdefault(frozenset(colors[indices[a:b]].tolist()), len(number))
                        for a, b in zip(indptr[:-1], ends)])
    partners = depth == k
    if not partners.any():
        raise ValueError(f"graph has no vertex pairs at distance {k}")
    us = np.repeat(np.arange(G.n), np.diff(indptr))[partners]
    cells, counts = np.unique(
        pattern[us] * len(number) + pattern[indices[partners]], return_counts=True
    )
    pu, pv = np.divmod(cells, len(number))
    patterns = list(number)
    size = np.array([len(pat) for pat in patterns], dtype=float)
    shared = np.array([len(patterns[a] & patterns[b]) for a, b in zip(pu.tolist(), pv.tolist())])
    within = math.log(n_labels) * np.stack([size[pu], size[pv], size[pu] + size[pv] - shared])
    est = Estimates.from_cells(counts, pu, pv, coloring.seed, within)
    return ProcessMeasurement(
        d=d,
        k=k,
        method="monte-carlo",
        joint=None,
        **_statistic_fields(est),
        samples=int(partners.sum()),
        seed=coloring.seed,
        extra=(("n_labels", float(n_labels)), ("R", float(radius))),
    )


# ---------------------------------------------------------------------------
# The Gaussian linear factor with sign output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianSignSpec:
    """Coefficients of the linear Gaussian factor Y_v = sum over vertices
    of alpha(dist) * Z_w, truncated at ``truncation_radius``, followed by
    sign().  alpha(0) = 0 and alpha(j) = j^(-1/2-eps) / (d-1)^(j/2)."""

    d: int
    eps: float
    truncation_radius: int
    tail_tol: Optional[float] = 1e-3

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("d must be >= 3")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a positive finite number, got {self.eps}")
        if self.truncation_radius < 1:
            raise ValueError("truncation radius must be >= 1")
        tol = self.tail_tol
        if tol is not None and not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tail_tol must be a positive finite number or None, got {tol}")

    def alpha(self, j: int) -> float:
        if j == 0:
            return 0.0
        return j ** (-0.5 - self.eps) / (self.d - 1) ** (j / 2)

    # The two tables below are built once per spec and shared by every k:
    # a `gaussian` sweep makes one spec, so neither outlives its CLI call.

    @cached_property
    def _powers(self) -> np.ndarray:
        """pw[m - 1] = m^(-1/2-eps) for m = 1..D."""
        return np.arange(1, self.truncation_radius + 1, dtype=float) ** (-0.5 - self.eps)

    @cached_property
    def _variance(self) -> float:
        """The truncated variance d/(d-1) * sum over j = 1..D of j^(-1-2eps)."""
        j = np.arange(1, self.truncation_radius + 1, dtype=float)
        return self.d / (self.d - 1) * float(np.sum(j ** (-1 - 2 * self.eps)))


def gaussian_cov_tail_bound(spec: GaussianSignSpec, k: int) -> float:
    """Upper bound on the covariance mass beyond the truncation radius
    (integral tail bounds on the off-path geometric sums)."""
    d, eps, D = spec.d, spec.eps, spec.truncation_radius
    if k == 0:
        return d / (d - 1) * D ** (-2 * eps) / (2 * eps)
    if D <= k:
        return float("inf")
    interior = sum(
        (D - max(j, k - j)) ** (-2 * eps) for j in range(1, k) if D > max(j, k - j)
    )
    ends = 2 * (D - k) ** (-2 * eps)
    return (d - 1) ** (-k / 2) / (2 * eps) * ((d - 2) / (d - 1) * interior + ends)


def _largest_region_radius(d: int) -> int:
    """The largest truncation radius whose two balls fit the region budget."""
    radius = 0
    while 2 * ball_size(d, radius + 1) <= DEFAULT_REGION_VERTEX_BUDGET:
        radius += 1
    return radius


def _require_tail(spec: GaussianSignSpec, k: int, value: float) -> None:
    if spec.tail_tol is None:
        return
    bound = gaussian_cov_tail_bound(spec, k)
    if bound > spec.tail_tol * abs(value):
        cap = _largest_region_radius(spec.d)
        if math.isinf(bound):
            advice = f"raise the truncation radius well beyond k={k}"
        else:
            scale = bound / (spec.tail_tol * abs(value))
            needed = math.ceil(k + (spec.truncation_radius - k) * scale ** (1 / (2 * spec.eps)))
            if needed <= cap:
                advice = f"raise the truncation radius to about {needed}"
            else:
                # Advise no radius past what the region budget can build.
                advice = (
                    f"loosen tail_tol: it needs a truncation radius of about {needed:.3g}, "
                    f"past {cap}, the largest whose two balls fit the region budget of "
                    f"{DEFAULT_REGION_VERTEX_BUDGET} vertices"
                )
                if spec.truncation_radius < cap:
                    advice = f"raise the truncation radius to at most {cap} and {advice}"
        raise TruncationError(
            f"tail bound {bound:.3g} exceeds {spec.tail_tol:.3g} * value {value:.3g}; {advice}"
        )


def gaussian_cov(spec: GaussianSignSpec, k: int) -> float:
    """Truncated covariance of the linear factor at two vertices at
    distance k, summed over classes of vertices with equal distance pairs.

    A vertex hanging n >= 1 steps off the path at interior position j has
    distances (j+n, k-j+n) and the class has (d-2)(d-1)^(n-1) members;
    behind either endpoint the classes have (d-1)^n members.  The
    geometric class sizes cancel against the coefficient decay, which
    keeps every term O(1) in magnitude.
    """
    d, eps, D = spec.d, spec.eps, spec.truncation_radius
    if k < 0:
        raise ValueError("k must be >= 0")
    if D < k:
        raise ValueError(f"truncation radius {D} < k = {k}")
    if k == 0:
        _require_tail(spec, 0, spec._variance)
        return spec._variance

    scale = (d - 1) ** (-k / 2)
    total = 0.0
    # On-path vertices: distances (j, k-j); the endpoints carry alpha(0)=0.
    for j in range(1, k):
        total += scale * (j * (k - j)) ** (-0.5 - eps)
    # pw[m - 1] = m^(-1/2-eps), so (j+n)^(-1/2-eps) over n = 1..n_max is pw[j:j+n_max].
    pw = spec._powers
    # Interior off-path classes.
    for j in range(1, k):
        n_max = D - max(j, k - j)
        if n_max < 1:
            continue
        total += (
            (d - 2)
            / (d - 1)
            * scale
            * float(np.sum(pw[j:j + n_max] * pw[k - j:k - j + n_max]))
        )
    # Behind each endpoint: distances (n, k+n).
    n_max = D - k
    if n_max >= 1:
        total += 2 * scale * float(np.sum(pw[:n_max] * pw[k:k + n_max]))
    _require_tail(spec, k, total)
    return total


def sign_corr(rho: float) -> float:
    """Correlation of the signs of a standard bivariate normal pair with
    correlation rho: (2/pi) * arcsin(rho)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return 2.0 / math.pi * math.asin(rho)


def _sign_law(spec: GaussianSignSpec, k: int) -> dict:
    """The closed form without its MI: truncated covariance -> arcsine law,
    with the truncation tails propagated through both maps."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    cov0 = gaussian_cov(spec, 0)
    covk = gaussian_cov(spec, k) if k > 0 else cov0
    rho = max(-1.0, min(1.0, covk / cov0))
    corr = sign_corr(rho)
    q = (1.0 + corr) / 2.0
    tail0 = gaussian_cov_tail_bound(spec, 0)
    tailk = gaussian_cov_tail_bound(spec, k) if k > 0 else tail0
    rho_rem = (tailk + abs(rho) * tail0) / cov0
    corr_rem = 2.0 / math.pi * rho_rem / max(math.sqrt(1.0 - min(rho * rho, 1.0 - 1e-12)), 1e-6)
    if 0.0 < q < 1.0:
        mi_rem = abs(math.log(q / (1.0 - q))) / 2.0 * corr_rem + corr_rem**2
    else:
        mi_rem = math.log(2.0)
    return {
        "cov0": cov0,
        "covk": covk,
        "rho": rho,
        "corr": corr,
        "q": q,
        "rho_remainder": rho_rem,
        "corr_remainder": corr_rem,
        "mi_remainder": mi_rem,
    }


def gaussian_sign_closed_form(spec: GaussianSignSpec, k: int) -> dict:
    """Closed-form path: truncated covariance -> arcsine law -> binary MI.

    The reported remainder bounds propagate the covariance truncation
    tails through the arcsine and MI maps.
    """
    law = _sign_law(spec, k)
    return {**law, "mi": Estimates(symmetric_binary_joint(law["q"])).quantity("mi").value}


def _sign_extra(law: dict, mi: float) -> tuple[tuple[str, float], ...]:
    """The closed-form values that every sign-process measurement reports."""
    return (
        ("rho", law["rho"]),
        ("closed_form_corr", law["corr"]),
        ("closed_form_mi", mi),
        ("mi_remainder", law["mi_remainder"]),
        ("corr_remainder", law["corr_remainder"]),
    )


def _sign_pair_weights(
    spec: GaussianSignSpec, k: int
) -> tuple[BallRegion, np.ndarray, np.ndarray]:
    """The union of the truncation balls at u and v = k steps from u, and
    the weights of Y_u = w_u . Z and Y_v = w_v . Z on its vertices."""
    D = spec.truncation_radius
    cap = _largest_region_radius(spec.d)
    if D > cap:
        raise BudgetExceededError(
            f"Monte Carlo at d={spec.d} needs a truncation radius of at most {cap}, whose two "
            f"balls fit the region budget of {DEFAULT_REGION_VERTEX_BUDGET} vertices; got {D}"
        )
    region, ball_u, ball_v, _ = _two_balls(spec.d, D, k)
    # A ball lists its positions level by level: depth j fills sphere_size(d, j) of them.
    depth = np.repeat(np.arange(D + 1), [sphere_size(spec.d, j) for j in range(D + 1)])
    alpha = np.array([spec.alpha(j) for j in range(D + 1)])[depth]
    w_u = np.zeros(len(region.letters))
    w_v = np.zeros(len(region.letters))
    w_u[ball_u] = alpha
    w_v[ball_v] = alpha
    return region, w_u, w_v


def _pair_factor(w_u: np.ndarray, w_v: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = Sigma, the covariance of (w_u . Z,
    w_v . Z) for i.i.d. standard normal Z, from the region's dot products.

    L = [[a, 0], [b, c]] with a = sqrt(S_uu), b = S_uv / a and c^2 =
    det(Sigma) / S_uu, clipped at 0.  Sigma has rank 1 at k = 0, where
    Cholesky fails; there w_u = w_v, so the two products of the determinant
    are the same float and c is exactly 0.
    """
    s_uu, s_uv, s_vv = float(w_u @ w_u), float(w_u @ w_v), float(w_v @ w_v)
    a = math.sqrt(s_uu)
    c = math.sqrt(max(s_uu * s_vv - s_uv * s_uv, 0.0)) / a
    return np.array([[a, 0.0], [s_uv / a, c]])


def gaussian_sign_measure(
    spec: GaussianSignSpec,
    k: int,
    samples: int,
    seed: Optional[int] = None,
) -> ProcessMeasurement:
    """Measurement of the sign process at distance k.

    With samples == 0, returns the closed-form law.  Otherwise builds the
    weights of Y_u and Y_v on the explicit union of the two truncation
    balls, takes their 2x2 covariance from the three dot products of those
    weights, and draws (Y_u, Y_v) as two standard normals per sample mapped
    through a lower-triangular factor of it.  The pair has the law of the
    truncated linear factor, and the Monte Carlo path shares nothing with
    the class sums of the arcsine/binary-MI closed form beyond the
    coefficient definitions.  The pairs come from the chunked stream of
    ``_sampled_joint``, the one that block-rule Monte Carlo draws from.
    """
    law = _sign_law(spec, k)
    J = symmetric_binary_joint(law["q"])
    if samples == 0:
        pm = measurement_from_joint(spec.d, k, J, (1.0, -1.0), (1.0, -1.0), "closed-form")
        return replace(pm, extra=_sign_extra(law, pm.mi.value))
    if seed is None:
        raise ValueError("Monte Carlo requires a seed")
    region, w_u, w_v = _sign_pair_weights(spec, k)
    factor_t = _pair_factor(w_u, w_v).T

    def draw(rng: np.random.Generator, chunk: int) -> np.ndarray:
        # Output index 1 is the sign -1; sign(0) is +1.
        return (rng.standard_normal((chunk, 2)) @ factor_t < 0).astype(np.int64)

    return measurement_from_joint(
        spec.d,
        k,
        _sampled_joint(seed, samples, 2, draw),
        (1.0, -1.0),
        (1.0, -1.0),
        "monte-carlo",
        samples=samples,
        seed=seed,
        extra=_sign_extra(law, Estimates(J).quantity("mi").value),
        region=region,
    )
