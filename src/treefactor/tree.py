"""Finite combinatorics of the d-regular tree.

Vertices are addressed by reduced words, so distances and the swap
symmetry of a vertex pair come from the word algebra for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, InvariantError
from .words import (
    FreeProductSignature,
    Word,
    _ball_words,
    _letters_sort_key,
    _multiply_raw,
    inverse,
    multiply,
    word_to_str,
)

DEFAULT_BALL_BUDGET = 1_000_000


@dataclass(frozen=True)
class TreeVertex:
    """A vertex of the d-regular tree, identified with a group element."""

    address: Word

    @property
    def degree(self) -> int:
        return self.address.sig.degree

    def neighbors(self) -> tuple["TreeVertex", ...]:
        sig = self.address.sig
        return tuple(
            TreeVertex(multiply(self.address, Word((x,), sig)))
            for x in sig.alphabet()
        )

    def __str__(self) -> str:
        return word_to_str(self.address)


def origin(d: int) -> TreeVertex:
    return TreeVertex(Word.identity(FreeProductSignature(0, d)))


def vertex_at_distance(start: TreeVertex, k: int) -> TreeVertex:
    """Some vertex at distance exactly k from ``start`` (a straight path)."""
    if k < 0:
        raise ValueError(f"distance must be >= 0, got {k}")
    sig = start.address.sig
    last = start.address.letters[-1] if start.address.letters else 0
    if sig.r >= 1:
        x = -1 if last == -1 else 1
        letters = (x,) * k
    else:
        first = 2 if last == 1 else 1
        other = 2 if first == 1 else 1
        letters = tuple(first if i % 2 == 0 else other for i in range(k))
    return TreeVertex(Word(start.address.letters + letters, sig))


def dist(u: TreeVertex, v: TreeVertex) -> int:
    """Graph distance; equals the word length of u^-1 v."""
    if u.address.sig != v.address.sig:
        raise ValueError("vertices live in trees with different signatures")
    return len(multiply(inverse(u.address), v.address))


@dataclass(frozen=True)
class BallRegion:
    """A union of balls, stored as explicit vertices plus tree edges;
    ``neighbors[i]`` lists the neighbours of vertex i in increasing order,
    and ``balls[c]`` lists the vertices of the c-th centre's ball in the
    breadth-first order of ``_ball_words``."""

    vertices: tuple[TreeVertex, ...]
    adjacency: tuple[tuple[int, int], ...]
    centers: tuple[tuple[TreeVertex, int], ...]
    balls: tuple[tuple[int, ...], ...]

    def index_of(self, v: TreeVertex) -> int:
        return self._index[v.address.letters]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {v.address.letters: i for i, v in enumerate(self.vertices)}
        )
        neighbors: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.adjacency:
            neighbors[a].append(b)
            neighbors[b].append(a)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(ns)) for ns in neighbors))

    def __contains__(self, v: TreeVertex) -> bool:
        return v.address.letters in self._index

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "vertices": [word_to_str(v.address) for v in self.vertices],
            "edges": [list(e) for e in self.adjacency],
            "centers": [[word_to_str(c.address), r] for c, r in self.centers],
        }
        return json.dumps(payload, sort_keys=True)


def region_from_balls(
    centers: list[tuple[TreeVertex, int]], budget: int = DEFAULT_BALL_BUDGET
) -> BallRegion:
    """Explicit union of balls; errors out instead of exceeding the budget."""
    if not centers:
        raise ValueError("need at least one center")
    sig = centers[0][0].address.sig
    d = sig.degree
    total_cap = sum(ball_size(d, radius) for _, radius in centers)
    if total_cap > budget:
        raise BudgetExceededError(
            f"region could reach {total_cap} vertices, over the budget of {budget}"
        )
    balls = []
    for center, radius in centers:
        if center.address.sig != sig:
            raise ValueError("centers live in trees with different signatures")
        balls.append(_ball_words(sig, radius, center.address.letters))
    ordered = sorted(set().union(*balls), key=_letters_sort_key)
    index = {w: i for i, w in enumerate(ordered)}
    edges = []
    alphabet = sig.alphabet()
    for i, w in enumerate(ordered):
        for x in alphabet:
            j = index.get(_multiply_raw(w, (x,), sig.r))
            if j is not None and i < j:
                edges.append((i, j))
    vertices = tuple(TreeVertex(Word(w, sig)) for w in ordered)
    balls = tuple(tuple(index[w] for w in words) for words in balls)
    return BallRegion(vertices, tuple(sorted(edges)), tuple(centers), balls)


def ball(center: TreeVertex, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> BallRegion:
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return region_from_balls([(center, radius)], budget=budget)


def ball_size(d: int, radius: int) -> int:
    """|B_R| = 1 + d((d-1)^R - 1)/(d-2) in the d-regular tree."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def sphere_size(d: int, radius: int) -> int:
    return 1 if radius == 0 else d * (d - 1) ** (radius - 1)


def _intersection_size_formula(d: int, radius: int, k: int) -> int:
    # Classify vertices by the nearest path vertex u_j (0 <= j <= k) and
    # the distance n hung off the path; a vertex at (j, n) has distances
    # (j+n, k-j+n) to the endpoints.
    if k > 2 * radius:
        return 0
    if k == 0:
        return ball_size(d, radius)
    total = 0
    for j in range(k + 1):
        if j <= radius and k - j <= radius:
            total += 1
        n_max = min(radius - j, radius - (k - j))
        if n_max < 1:
            continue
        if 0 < j < k:
            # (d-2)(d-1)^(n-1) vertices at offset n; geometric sum.
            total += (d - 1) ** n_max - 1
        else:
            # Behind an endpoint: (d-1)^n vertices at offset n.
            total += ((d - 1) ** (n_max + 1) - (d - 1)) // (d - 2)
    return total


def ball_intersection_size(
    d: int, radius: int, k: int, budget: int = DEFAULT_BALL_BUDGET
) -> int:
    """|B_R(u) & B_R(v)| for any u, v at distance k.

    Enumerates both balls while they fit in the budget and checks the
    count against the path-offset counting formula; beyond that it uses
    the formula alone.
    """
    if d < 3 or radius < 0 or k < 0:
        raise ValueError(f"invalid arguments d={d}, R={radius}, k={k}")
    if ball_size(d, radius) > budget:
        return _intersection_size_formula(d, radius, k)
    u = origin(d)
    v = vertex_at_distance(u, k)
    sig = u.address.sig
    a = set(_ball_words(sig, radius, u.address.letters))
    size = len(a.intersection(_ball_words(sig, radius, v.address.letters)))
    formula = _intersection_size_formula(d, radius, k)
    if size != formula:
        raise InvariantError(
            f"ball intersection d={d} R={radius} k={k}: enumerated {size}, formula {formula}"
        )
    return size


def listing_ratio(d: int, radius: int, k: int) -> Fraction:
    """Shared fraction of two radius-R label lists at distance k."""
    return Fraction(ball_intersection_size(d, radius, k), ball_size(d, radius))
