"""Decay bounds for processes on the d-regular tree, plus verdict logic.

A verdict compares a measured quantity against a bound with a slack of
three standard errors (zero for exact measurements).  Verdicts never
clamp: hand-fed laws that violate a bound report FAIL, which is the
point of negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .information import MeasuredQuantity
from .tree import listing_ratio

SLACK_MULTIPLIER = 3.0


def normalized_mi_bound(d: int, k: int) -> Fraction:
    """Universal bound on I/H for vertices at distance k: 2/(d(d-1)^l)
    for odd k = 2l+1, 1/(d-1)^l for even k = 2l."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    l = k // 2
    if k % 2 == 1:
        return Fraction(2, d * (d - 1) ** l)
    return Fraction(1, (d - 1) ** l)


def fixed_process_mi_bound(d: int, k: int, m: int) -> float:
    """Per-process MI bound m(k+1)^2/(d-1)^k for an m-state process."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if k < 1 or m < 1:
        raise ValueError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    return m * (k + 1) ** 2 / (d - 1) ** k


def correlation_bound(d: int, k: int) -> float:
    """Correlation bound (k+1-2k/d) / sqrt(d-1)^k for real-valued processes."""
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (k + 1 - 2 * k / d) * (d - 1) ** (-k / 2)


@dataclass(frozen=True)
class BoundVerdict:
    """One measured quantity against one bound."""

    name: str
    bound: float
    measured: MeasuredQuantity
    slack: float
    passed: bool

    def __str__(self) -> str:
        cmp = f"measured {self.measured.value:.6g} <= {self.bound:.6g} + {self.slack:.3g}"
        return f"{self.name}: {cmp} {'PASS' if self.passed else 'FAIL'}"


def make_verdict(name: str, bound: float, measured: MeasuredQuantity) -> BoundVerdict:
    slack = SLACK_MULTIPLIER * measured.stderr
    return BoundVerdict(name, bound, measured, slack, measured.value <= bound + slack)


def universal_verdict(d: int, k: int, nmi: MeasuredQuantity) -> BoundVerdict:
    return make_verdict(
        f"universal normalized-MI bound (d={d},k={k})",
        float(normalized_mi_bound(d, k)),
        nmi,
    )


def fixed_process_verdict(d: int, k: int, m: int, mi: MeasuredQuantity) -> BoundVerdict:
    return make_verdict(
        f"fixed-process MI bound (d={d},k={k},m={m})",
        fixed_process_mi_bound(d, k, m),
        mi,
    )


@dataclass(frozen=True)
class SharpnessRow:
    k: int
    radius: int
    ratio: float
    bound: float
    gap: float
    gap_non_increasing: bool


def sharpness_report(d: int, k_max: int, r_max: int) -> list[SharpnessRow]:
    """Listing-factor ratio against the universal bound for each k.

    The ratio |B_R(u) & B_R(v)| / |B_R| approaches the bound from below
    as R grows; each row records the gap at R = r_max and whether the gap
    was non-increasing over R = 1..r_max.
    """
    if k_max < 1 or r_max < 1:
        raise ValueError("k_max and r_max must be >= 1")
    rows = []
    for k in range(1, k_max + 1):
        bound = float(normalized_mi_bound(d, k))
        gaps = [
            bound - float(listing_ratio(d, radius, k))
            for radius in range(1, r_max + 1)
        ]
        monotone = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        rows.append(
            SharpnessRow(
                k=k,
                radius=r_max,
                ratio=bound - gaps[-1],
                bound=bound,
                gap=gaps[-1],
                gap_non_increasing=monotone,
            )
        )
    return rows
