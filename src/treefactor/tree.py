"""Finite combinatorics of the d-regular tree.

A vertex is a reduced ``Word``, so distances and the swap symmetry of a
vertex pair come from the word algebra for free.  Regions keep the bare
letter tuples and build ``Word`` vertices only when a caller reads them.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BudgetExceededError
from .words import (
    FreeProductSignature,
    Word,
    _ball_words,
    _check_reduced,
    _letters_to_str,
    _sorted_letters,
    inverse,
    multiply,
)

DEFAULT_BALL_BUDGET = 1_000_000


def origin(d: int) -> Word:
    return Word.identity(FreeProductSignature(0, d))


def _path_letters(sig: FreeProductSignature, start: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The letters of some vertex at distance exactly k from ``start`` (a straight path)."""
    if k < 0:
        raise ValueError(f"distance must be >= 0, got {k}")
    last = start[-1] if start else 0
    if sig.r >= 1:
        x = -1 if last == -1 else 1
        letters = (x,) * k
    else:
        first = 2 if last == 1 else 1
        other = 2 if first == 1 else 1
        letters = tuple(first if i % 2 == 0 else other for i in range(k))
    return start + letters


def vertex_at_distance(start: Word, k: int) -> Word:
    """Some vertex at distance exactly k from ``start`` (a straight path)."""
    return Word(_path_letters(start.sig, start.letters, k), start.sig)


def dist(u: Word, v: Word) -> int:
    """Graph distance; equals the word length of u^-1 v."""
    if u.sig != v.sig:
        raise ValueError("vertices live in trees with different signatures")
    return len(multiply(inverse(u), v))


class _Vertices(Sequence):
    """A region's vertices as validated ``Word``s, all built on the first
    read of an item; the length is read off the letter tuples."""

    def __init__(self, letters: tuple[tuple[int, ...], ...], sig: FreeProductSignature):
        self._letters = letters
        self._sig = sig

    def __len__(self) -> int:
        return len(self._letters)

    def __getitem__(self, i):
        return self._words[i]

    @cached_property
    def _words(self) -> tuple[Word, ...]:
        return tuple(Word(w, self._sig) for w in self._letters)


@dataclass(frozen=True)
class BallRegion:
    """A union of balls in the tree of signature ``sig``.

    ``letters`` holds the reduced letters of each vertex, shortest first and
    then in ``_letters_sort_key`` order; ``centers`` holds (center letters,
    radius) pairs, and ``balls[c]`` lists the vertices of the c-th centre's
    ball in the breadth-first order of ``_ball_words``.  ``vertices`` (as
    ``Word``s), ``adjacency`` (the tree edges (i, j), i < j, sorted) and
    ``neighbors`` (``neighbors[i]`` in increasing order) are built on first
    use; ``len(vertices)`` builds no ``Word``.
    """

    sig: FreeProductSignature
    letters: tuple[tuple[int, ...], ...]
    centers: tuple[tuple[tuple[int, ...], int], ...]
    balls: tuple[tuple[int, ...], ...]

    @cached_property
    def vertices(self) -> Sequence[Word]:
        return _Vertices(self.letters, self.sig)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return dict(zip(self.letters, range(len(self.letters))))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, int], ...]:
        # Every tree edge joins a reduced word w to its parent w[:-1], which sorts first.
        index = self._index
        edges = [(index[w[:-1]], j) for j, w in enumerate(self.letters) if w and w[:-1] in index]
        return tuple(sorted(edges))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        neighbors: list[list[int]] = [[] for _ in self.letters]
        for a, b in self.adjacency:
            neighbors[a].append(b)
            neighbors[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    def __contains__(self, v: Word) -> bool:
        return v.sig == self.sig and v.letters in self._index

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "vertices": [_letters_to_str(w) for w in self.letters],
            "edges": [list(e) for e in self.adjacency],
            "centers": [[_letters_to_str(c), r] for c, r in self.centers],
        }
        return json.dumps(payload, sort_keys=True)


def region_from_balls(
    sig: FreeProductSignature,
    centers: Sequence[tuple[tuple[int, ...], int]],
    budget: int = DEFAULT_BALL_BUDGET,
) -> BallRegion:
    """Explicit union of balls, each given as (reduced letters of its
    centre, radius) in the tree of ``sig``; errors out instead of exceeding
    the budget.  The vertices are ordered from the letter tuples that
    ``_ball_words`` yields, with no ``Word`` built."""
    if not centers:
        raise ValueError("need at least one center")
    d = sig.degree
    # The uncapped size can run to thousands of digits, so the message names the budget.
    if sum(ball_size(d, radius) for _, radius in centers) > budget:
        radii = ", ".join(str(radius) for _, radius in centers)
        raise BudgetExceededError(
            f"balls of radius {radii} at d={d} could exceed the region budget of {budget} vertices"
        )
    centers = tuple((tuple(center), radius) for center, radius in centers)
    for center, _ in centers:
        _check_reduced(center, sig)
    balls = [_ball_words(sig, radius, center) for center, radius in centers]
    letters = tuple(_sorted_letters(set().union(*balls), sig.r))
    index = dict(zip(letters, range(len(letters))))
    balls = tuple(tuple(map(index.__getitem__, words)) for words in balls)
    return BallRegion(sig, letters, centers, balls)


def ball(center: Word, radius: int, budget: int = DEFAULT_BALL_BUDGET) -> BallRegion:
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return region_from_balls(center.sig, [(center.letters, radius)], budget=budget)


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
