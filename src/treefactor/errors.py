"""Exception types shared across the package."""


class TreeFactorError(Exception):
    """Base class for all library errors."""


class BudgetExceededError(TreeFactorError):
    """An enumeration or simulation would exceed its configured budget."""


class UndefinedQuantityError(TreeFactorError):
    """A requested quantity is mathematically undefined for the given input.

    Distinct from a malformed-input error: the input is valid but the
    quantity (e.g. a correlation of a constant, a normalized mutual
    information with a zero-entropy marginal) does not exist.
    """


class InvariantError(TreeFactorError):
    """Two computations that must agree did not: a bug, not a bad input."""


class LocalAlgorithmError(TreeFactorError):
    """A finite-graph construction found no simple pairing or broke its
    contract (sparse phases have no round cap: every round fixes a vertex)."""


class TruncationError(TreeFactorError):
    """A truncated series does not meet the requested tail tolerance."""
