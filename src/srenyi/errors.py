"""Exception types raised by the library.

Everything that indicates bad *data* derives from ValueError so that callers
who do not care about the fine distinctions can catch one base class.
Iteration failures derive from RuntimeError.
"""

from __future__ import annotations

__all__ = [
    "DiscontinuityError",
    "DivergentEscortError",
    "SupportViolationError",
    "LabelMismatchError",
    "TargetOutOfRangeError",
    "ConvergenceError",
    "SpectrumConsistencyError",
]


class DiscontinuityError(ValueError):
    """The order-0 mean has no limit because the values mix 0 and +inf."""


class DivergentEscortError(ValueError):
    """An escort weight is infinite, so the escort cannot be normalized."""


class SupportViolationError(ValueError):
    """A ratio or comparison needs support containment that does not hold."""

    def __init__(self, message: str, labels: tuple[str, ...] = ()):
        super().__init__(message)
        self.labels = labels


class LabelMismatchError(ValueError):
    """Two labeled measures do not carry the same label set."""


class TargetOutOfRangeError(ValueError):
    """A requested probability lies outside the attainable range."""


class ConvergenceError(RuntimeError):
    """An iterative search exhausted its iteration budget.

    ``target`` is the value that was not reached, ``order`` the last iterate
    and ``residual`` its relative miss, ``value at order / target - 1``.
    """

    def __init__(
        self,
        message: str,
        target: float | None = None,
        order: float | None = None,
        residual: float | None = None,
    ):
        super().__init__(message)
        self.target = target
        self.order = order
        self.residual = residual


class SpectrumConsistencyError(ArithmeticError):
    """A computed spectrum violates its own monotonicity/consistency laws.

    ``order`` is the order of the offending row, ``neighbour`` the order of
    the row it was compared with (None when the law concerns one row), and
    ``residual`` by how much the law is missed, in the units of its check.
    """

    def __init__(
        self,
        message: str,
        order: float | None = None,
        neighbour: float | None = None,
        residual: float | None = None,
    ):
        super().__init__(message)
        self.order = order
        self.neighbour = neighbour
        self.residual = residual
