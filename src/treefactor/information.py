"""Entropy, mutual information, and maximal correlation for finite joints.

All entropies are in nats with the 0*log(0) = 0 convention.  Quantities
derived from empirically sampled joints carry a nonparametric bootstrap
standard error; exact joints carry stderr 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import UndefinedQuantityError

SUM_TOLERANCE = 1e-12
DEFAULT_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_SALT = 0xB005
_RESAMPLE_BLOCK = 1 << 16  # cells per block of bootstrap resamples; bounds their memory


@dataclass(frozen=True)
class Provenance:
    kind: Literal["exact", "empirical"]
    n_samples: int = 0
    seed: Optional[int] = None

    def to_json_obj(self):
        if self.kind == "exact":
            return {"kind": "exact"}
        return {"kind": "empirical", "n_samples": self.n_samples, "seed": self.seed}


EXACT = Provenance("exact")


@dataclass(frozen=True)
class JointDistribution:
    """An m x n joint probability matrix with provenance.

    Empirical joints also keep their integer count matrix so that
    downstream statistics can attach bootstrap standard errors.
    """

    matrix: tuple[tuple[float, ...], ...]
    provenance: Provenance = EXACT
    counts: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        m = self.as_array
        if m.ndim != 2 or m.size == 0:
            raise ValueError("joint matrix must be a nonempty 2-d array")
        if np.any(m < 0):
            raise ValueError("joint matrix has a negative entry")
        if abs(m.sum() - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"joint matrix sums to {m.sum()!r}, not 1")

    @classmethod
    def from_array(
        cls,
        matrix,
        provenance: Provenance = EXACT,
        counts: Optional[np.ndarray] = None,
    ) -> "JointDistribution":
        arr = np.asarray(matrix, dtype=float)
        return cls(
            tuple(tuple(row) for row in arr),
            provenance,
            None if counts is None else tuple(tuple(int(c) for c in row) for row in counts),
        )

    @property
    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]))


@dataclass(frozen=True)
class MeasuredQuantity:
    """A value in nats plus the uncertainty of how it was obtained."""

    value: float
    stderr: float = 0.0
    method: str = "plug-in"

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def __str__(self) -> str:
        return f"{self.value:.9g} ± {self.stderr:.3g} (nats)"


def _entropy(p: np.ndarray) -> np.ndarray:
    """sum(-p log p) over the last axis, with 0 log 0 = 0."""
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row times column, so every joint of a stack takes the same BLAS dot
    # as a single joint does (einsum sums in another order).
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _ratio(num: np.ndarray, den: np.ndarray, defined: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(defined, num / den, np.nan)


def _correlation(m: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pearson correlation of f(X) and g(Y); NaN where a function has zero variance."""
    px = m.sum(axis=-1)
    py = m.sum(axis=-2)
    a = f - _dot(px, f)[..., None]
    b = g - _dot(py, g)[..., None]
    var_f = _dot(px, a**2)
    var_g = _dot(py, b**2)
    cov = ((a[..., None, :] @ m) @ b[..., :, None])[..., 0, 0]
    return _ratio(cov, np.sqrt(var_f * var_g), (var_f > 0) & (var_g > 0))


def _groups(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells in stable order of state, and where each state's run starts."""
    order = np.argsort(states, kind="stable")
    ordered = states[order]
    return order, np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])


def _statistics(p: np.ndarray, xs: tuple[np.ndarray, np.ndarray],
                ys: tuple[np.ndarray, np.ndarray], within: Optional[np.ndarray],
                values: Optional[tuple]) -> dict[str, np.ndarray]:
    """Plug-in statistics of a joint law given by its cell probabilities
    ``p`` (0-d arrays), or of a stack of such laws along a leading axis;
    NaN where undefined.  ``xs`` and ``ys`` group the cells by X and by Y
    state (see ``_groups``).  ``within`` (3 x cells) holds the entropies of
    X, Y and (X, Y) given each cell, added by the chain rule.  Given
    ``values`` = (shape, f, g), the cells are a dense row-major joint of
    that shape and "corr" is the correlation of f(X) and g(Y)."""
    h_x = _entropy(np.add.reduceat(p[..., xs[0]], xs[1], axis=-1))
    h_y = _entropy(np.add.reduceat(p[..., ys[0]], ys[1], axis=-1))
    h_xy = _entropy(p)
    if within is not None:
        h_x, h_y, h_xy = (h + p @ w for h, w in zip((h_x, h_y, h_xy), within))
    mi = h_x + h_y - h_xy
    stats = {
        "h_x": h_x,
        "h_y": h_y,
        "h_xy": h_xy,
        "h_x_given_y": h_xy - h_y,
        "h_y_given_x": h_xy - h_x,
        "mi": mi,
        "nmi_x": _ratio(mi, h_x, h_x != 0.0),
        "nmi_y": _ratio(mi, h_y, h_y != 0.0),
    }
    if values is not None:
        shape, f, g = values
        stats["corr"] = _correlation(p.reshape(*p.shape[:-1], *shape), f, g)
    return stats


class Estimates:
    """Plug-in statistics of a joint law and, for an empirical joint, of
    its bootstrap resamples, drawn once for every statistic.  Given value
    maps f and g, the statistics include the correlation of f(X) and g(Y).
    The one path from a joint law to statistics and bootstrap resamples."""

    def __init__(self, J: JointDistribution, f: Optional[Sequence[float]] = None,
                 g: Optional[Sequence[float]] = None):
        m = J.as_array
        values = None if f is None else (m.shape, np.asarray(f, dtype=float),
                                         np.asarray(g, dtype=float))
        # Every grid cell, zero cells included: the resamples draw over all of them.
        x, y = np.divmod(np.arange(m.size), m.shape[1])
        self._estimate(m.ravel(), x, y, J.provenance, None, values)

    @classmethod
    def from_cells(cls, counts: np.ndarray, x: np.ndarray, y: np.ndarray,
                   seed: Optional[int], within: Optional[np.ndarray] = None) -> "Estimates":
        """Estimates of an empirical joint from the sample count, X and Y state
        and, optionally, ``within`` entropies of each cell (see ``_statistics``)."""
        est = cls.__new__(cls)
        n = int(np.sum(counts))
        est._estimate(np.asarray(counts) / n, x, y, Provenance("empirical", n, seed), within, None)
        return est

    def _estimate(self, p: np.ndarray, x: np.ndarray, y: np.ndarray, prov: Provenance,
                  within: Optional[np.ndarray], values: Optional[tuple]) -> None:
        xs, ys = _groups(x), _groups(y)
        self.point = _statistics(p, xs, ys, within, values)
        self.resampled = None
        if prov.kind != "empirical" or prov.n_samples <= 0:
            return
        rng = np.random.default_rng([_BOOTSTRAP_SALT, prov.seed if prov.seed is not None else 0])
        n, total, flat = prov.n_samples, DEFAULT_BOOTSTRAP_RESAMPLES, p / p.sum()
        # Drawn row by row, the blocks take the same variates as one draw would.
        rows = max(1, _RESAMPLE_BLOCK // p.size)
        blocks = [_statistics(rng.multinomial(n, flat, size=min(rows, total - start)) / n,
                              xs, ys, within, values) for start in range(0, total, rows)]
        self.resampled = {name: np.concatenate([b[name] for b in blocks]) for name in self.point}

    def quantity(self, name: str) -> MeasuredQuantity:
        """The named statistic with its bootstrap stderr.

        Resamples on which it is undefined (possible for tiny sample
        counts) are skipped.  Raises UndefinedQuantityError when the point
        value is undefined, or when fewer than two resamples are defined.
        """
        value = float(self.point[name])
        if math.isnan(value):
            raise UndefinedQuantityError(
                f"{name} undefined: a marginal entropy or a variance is 0"
            )
        if self.resampled is None:
            return MeasuredQuantity(value, 0.0, "plug-in")
        values = self.resampled[name]
        values = values[~np.isnan(values)]
        if len(values) < 2:
            raise UndefinedQuantityError(
                f"{name} undefined on nearly all bootstrap resamples"
            )
        return MeasuredQuantity(value, float(np.std(values, ddof=1)), "plug-in")


def joint_entropy(J: JointDistribution) -> MeasuredQuantity:
    return Estimates(J).quantity("h_xy")


def mutual_information(J: JointDistribution) -> MeasuredQuantity:
    return Estimates(J).quantity("mi")


def conditional_entropy(J: JointDistribution, given: Literal["x", "y"] = "y") -> MeasuredQuantity:
    """H(X|Y) for given="y" (the default), H(Y|X) for given="x"."""
    return Estimates(J).quantity("h_x_given_y" if given == "y" else "h_y_given_x")


def normalized_mi(J: JointDistribution, marginal: Literal["x", "y"] = "y") -> MeasuredQuantity:
    """I(X;Y) / H of the designated marginal.

    Raises UndefinedQuantityError when that marginal has zero entropy:
    the ratio has no value there, which is different from being 0.
    """
    return Estimates(J).quantity("nmi_x" if marginal == "x" else "nmi_y")


def empirical_joint(
    samples: Sequence[tuple[int, int]],
    seed: Optional[int],
    shape: Optional[tuple[int, int]] = None,
) -> JointDistribution:
    """Plug-in frequency matrix from (x, y) state-index pairs."""
    if len(samples) == 0:
        raise ValueError("empirical joint needs at least one sample")
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("samples must be pairs")
    if arr.min() < 0:
        raise ValueError(f"state index {int(arr.min())} is negative")
    if shape is None:
        shape = (int(arr[:, 0].max()) + 1, int(arr[:, 1].max()) + 1)
    elif arr[:, 0].max() >= shape[0] or arr[:, 1].max() >= shape[1]:
        raise ValueError(f"a state index lies outside the shape {tuple(shape)}")
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (arr[:, 0], arr[:, 1]), 1)
    return joint_from_counts(counts, seed)


def joint_from_counts(counts: np.ndarray, seed: Optional[int]) -> JointDistribution:
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n <= 0:
        raise ValueError("counts must contain at least one sample")
    return JointDistribution.from_array(counts / n, Provenance("empirical", n, seed), counts)


def _normalized_matrix(m: np.ndarray) -> np.ndarray:
    # Drop zero-probability states: correlations ignore null sets.
    px = m.sum(axis=1)
    py = m.sum(axis=0)
    m = m[px > 0][:, py > 0]
    return m / np.sqrt(np.outer(px[px > 0], py[py > 0]))


def maximal_correlation(J: JointDistribution) -> float:
    """Largest correlation achievable by functions of the two coordinates.

    Equals the second singular value of the marginal-normalized joint
    matrix; the first is 1, with the square roots of the marginals as
    its singular vectors.
    """
    q = _normalized_matrix(J.as_array)
    if min(q.shape) < 2:
        return 0.0
    return float(np.clip(np.linalg.svd(q, compute_uv=False)[1], 0.0, 1.0))


def symmetric_binary_joint(q: float) -> JointDistribution:
    """Exact joint of a +-1 symmetric pair with uniform marginals and
    agreement probability q, states ordered (+1, -1)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return JointDistribution.from_array(
        [[q / 2, (1 - q) / 2], [(1 - q) / 2, q / 2]], EXACT
    )
