"""Finite combinatorics of the d-regular tree.

A vertex is a reduced ``Word``, so distances and the swap symmetry of a
vertex pair come from the word algebra for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError
from .words import (
    FreeProductSignature,
    Word,
    _ball_words,
    _letters_sort_key,
    inverse,
    multiply,
    word_to_str,
)

DEFAULT_BALL_BUDGET = 1_000_000


def origin(d: int) -> Word:
    return Word.identity(FreeProductSignature(0, d))


def vertex_at_distance(start: Word, k: int) -> Word:
    """Some vertex at distance exactly k from ``start`` (a straight path)."""
    if k < 0:
        raise ValueError(f"distance must be >= 0, got {k}")
    sig = start.sig
    last = start.letters[-1] if start.letters else 0
    if sig.r >= 1:
        x = -1 if last == -1 else 1
        letters = (x,) * k
    else:
        first = 2 if last == 1 else 1
        other = 2 if first == 1 else 1
        letters = tuple(first if i % 2 == 0 else other for i in range(k))
    return Word(start.letters + letters, sig)


def dist(u: Word, v: Word) -> int:
    """Graph distance; equals the word length of u^-1 v."""
    if u.sig != v.sig:
        raise ValueError("vertices live in trees with different signatures")
    return len(multiply(inverse(u), v))


@dataclass(frozen=True)
class BallRegion:
    """A union of balls, stored as explicit vertices plus tree edges;
    ``neighbors[i]`` lists the neighbours of vertex i in increasing order,
    and ``balls[c]`` lists the vertices of the c-th centre's ball in the
    breadth-first order of ``_ball_words``."""

    vertices: tuple[Word, ...]
    adjacency: tuple[tuple[int, int], ...]
    centers: tuple[tuple[Word, int], ...]
    balls: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "_letters", frozenset(v.letters for v in self.vertices))
        neighbors: list[list[int]] = [[] for _ in self.vertices]
        for a, b in self.adjacency:
            neighbors[a].append(b)
            neighbors[b].append(a)
        object.__setattr__(self, "neighbors", tuple(tuple(sorted(ns)) for ns in neighbors))

    def __contains__(self, v: Word) -> bool:
        return v.sig == self.vertices[0].sig and v.letters in self._letters

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "vertices": [word_to_str(v) for v in self.vertices],
            "edges": [list(e) for e in self.adjacency],
            "centers": [[word_to_str(c), r] for c, r in self.centers],
        }
        return json.dumps(payload, sort_keys=True)


def region_from_balls(
    centers: list[tuple[Word, int]], budget: int = DEFAULT_BALL_BUDGET
) -> BallRegion:
    """Explicit union of balls; errors out instead of exceeding the budget."""
    if not centers:
        raise ValueError("need at least one center")
    sig = centers[0][0].sig
    d = sig.degree
    # The uncapped size can run to thousands of digits, so the message names the budget.
    if sum(ball_size(d, radius) for _, radius in centers) > budget:
        radii = ", ".join(str(radius) for _, radius in centers)
        raise BudgetExceededError(
            f"balls of radius {radii} at d={d} could exceed the region budget of {budget} vertices"
        )
    balls = []
    for center, radius in centers:
        if center.sig != sig:
            raise ValueError("centers live in trees with different signatures")
        balls.append(_ball_words(sig, radius, center.letters))
    ordered = sorted(set().union(*balls), key=_letters_sort_key)
    index = {w: i for i, w in enumerate(ordered)}
    # Every tree edge joins a reduced word w to its parent w[:-1].
    edges = []
    for j, w in enumerate(ordered):
        i = index.get(w[:-1]) if w else None
        if i is not None:
            edges.append((i, j))
    vertices = tuple(Word(w, sig) for w in ordered)
    balls = tuple(tuple(index[w] for w in words) for words in balls)
    return BallRegion(vertices, tuple(sorted(edges)), tuple(centers), balls)


def ball(center: Word, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> BallRegion:
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return region_from_balls([(center, radius)], budget=budget)


def _check_degree_radius(d: int, radius: int) -> None:
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def ball_size(d: int, radius: int) -> int:
    """|B_R| = 1 + d((d-1)^R - 1)/(d-2) in the d-regular tree."""
    _check_degree_radius(d, radius)
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def sphere_size(d: int, radius: int) -> int:
    """|S_R| = d(d-1)^(R-1) for R >= 1, and 1 for R = 0."""
    _check_degree_radius(d, radius)
    return 1 if radius == 0 else d * (d - 1) ** (radius - 1)


def ball_intersection_size(d: int, radius: int, k: int) -> int:
    """|B_R(u) & B_R(v)| for any u, v at distance k.

    Classify vertices by the nearest path vertex u_j (0 <= j <= k) and the
    distance n hung off the path; a vertex at (j, n) has distances
    (j+n, k-j+n) to the endpoints.
    """
    if d < 3 or radius < 0 or k < 0:
        raise ValueError(f"invalid arguments d={d}, R={radius}, k={k}")
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


def listing_ratio(d: int, radius: int, k: int) -> Fraction:
    """Shared fraction of two radius-R label lists at distance k."""
    return Fraction(ball_intersection_size(d, radius, k), ball_size(d, radius))
