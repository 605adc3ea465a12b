"""Entropy spectra over grids of orders, and inversion of the spectrum.

A spectrum is the map ``r -> H_r(m)`` sampled on an :class:`OrderGrid`.
Because the equivalent probability ``pi_r = b**(-H_r)`` is continuous and
non-decreasing from ``min p`` (at ``r = -inf``) to ``max p`` (at
``r = +inf``), the map can be inverted by bisection: given an attainable
probability, :func:`invert_probability` finds an order that realizes it,
and :func:`recover_distribution_probe` does so for every distinct value of
a distribution, recovering the distribution without ever reading a single
component directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    ConvergenceError,
    SpectrumConsistencyError,
    TargetOutOfRangeError,
)
from .info import DEFAULT_BASE, EntropyValue, _check_base
from .means import _log_mean_slope, _log_moments, _LogSupport
from .measures import MassMeasure

__all__ = [
    "OrderGrid",
    "SpectrumRow",
    "SpectrumTable",
    "sample_spectrum",
    "invert_probability",
    "recover_distribution_probe",
]

BRACKET_CAP = 1e6
MAX_BISECT_ITERATIONS = 200


@dataclass(frozen=True)
class OrderGrid:
    """Strictly increasing finite orders, optionally flanked by -inf / +inf."""

    finite_orders: tuple[float, ...]
    include_neg_inf: bool = False
    include_pos_inf: bool = False

    def __post_init__(self) -> None:
        finite = tuple(float(r) for r in self.finite_orders)
        for r in finite:
            if math.isnan(r) or math.isinf(r):
                raise ValueError("finite_orders must be finite numbers")
        if any(prev >= nxt for prev, nxt in zip(finite, finite[1:])):
            raise ValueError("orders must be strictly increasing, without duplicates")
        if not finite and not (self.include_neg_inf or self.include_pos_inf):
            raise ValueError("grid must contain at least one order")
        object.__setattr__(self, "finite_orders", finite)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "OrderGrid":
        """Sort, deduplicate, and split off the infinities."""
        vals = [float(v) for v in values]
        if any(math.isnan(v) for v in vals):
            raise ValueError("orders must not be NaN")
        finite = sorted({v for v in vals if math.isfinite(v)})
        return cls(
            tuple(finite),
            include_neg_inf=any(v == -math.inf for v in vals),
            include_pos_inf=any(v == math.inf for v in vals),
        )

    @classmethod
    def named(cls) -> "OrderGrid":
        """The five classical landmarks: min/harmonic/geometric/arithmetic/max."""
        return cls((-1.0, 0.0, 1.0), include_neg_inf=True, include_pos_inf=True)

    @classmethod
    def linear(cls, start: float, stop: float, count: int) -> "OrderGrid":
        if count < 1:
            raise ValueError("count must be >= 1")
        if count == 1:
            if stop != start:
                raise ValueError("a single-point grid needs start == stop")
            return cls.from_values([start])
        return cls.from_values(np.linspace(start, stop, count))

    @classmethod
    def default(cls) -> "OrderGrid":
        """Both infinities, the landmarks -1/0/1, and 50 log-spaced
        magnitudes in [0.01, 50] mirrored to the negative side."""
        mags = np.geomspace(0.01, 50.0, 50)
        finite = set(mags) | set(-mags) | {-1.0, 0.0, 1.0}
        return cls(tuple(sorted(finite)), include_neg_inf=True, include_pos_inf=True)

    def orders(self) -> tuple[float, ...]:
        head = (-math.inf,) if self.include_neg_inf else ()
        tail = (math.inf,) if self.include_pos_inf else ()
        return head + self.finite_orders + tail

    def __len__(self) -> int:
        return len(self.finite_orders) + self.include_neg_inf + self.include_pos_inf

    def __iter__(self):
        return iter(self.orders())


@dataclass(frozen=True)
class SpectrumRow:
    """One sampled order: entropy, equivalent probability, and (at finite
    orders only, else None) information potential and spectrum slope."""

    order: float
    entropy: EntropyValue
    equiv_prob: float
    potential: float | None
    derivative: float | None


@dataclass(frozen=True)
class SpectrumTable:
    rows: tuple[SpectrumRow, ...]
    base: float
    source_total_mass: float

    def validate(self) -> None:
        """Check the defining monotonicity and consistency properties.

        Entropy must be non-increasing and the equivalent probability
        non-decreasing along the grid (slack 1e-12 for roundoff), each row
        must satisfy ``equiv_prob = base**(-entropy)`` to 1e-10 relative,
        and the derivative column must never be positive.

        A failure raises :class:`SpectrumConsistencyError` carrying the
        offending row's order, the order of the row before it for the two
        monotonicity laws, and the residual: the entropy increase, the
        relative probability decrease, the relative ``equiv_prob`` error,
        or the positive slope.
        """
        slack = 1e-12
        for a, b in zip(self.rows, self.rows[1:]):
            rise = b.entropy.value - a.entropy.value
            if rise > slack:
                raise SpectrumConsistencyError(
                    f"entropy increases by {rise!r} from order {a.order} to {b.order}",
                    order=b.order,
                    neighbour=a.order,
                    residual=rise,
                )
            if b.equiv_prob < a.equiv_prob * (1.0 - 1e-12):
                drop = 1.0 - b.equiv_prob / a.equiv_prob
                raise SpectrumConsistencyError(
                    f"equivalent probability decreases by {drop!r} (relative) "
                    f"from order {a.order} to {b.order}",
                    order=b.order,
                    neighbour=a.order,
                    residual=drop,
                )
        for row in self.rows:
            expected = self.base ** (-row.entropy.value)
            if not math.isclose(row.equiv_prob, expected, rel_tol=1e-10):
                raise SpectrumConsistencyError(
                    f"row at order {row.order}: equiv_prob {row.equiv_prob} "
                    f"vs base**(-entropy) {expected}",
                    order=row.order,
                    residual=(row.equiv_prob - expected) / expected,
                )
            if row.derivative is not None and row.derivative > 0.0:
                raise SpectrumConsistencyError(
                    f"positive spectrum slope {row.derivative!r} at order {row.order}",
                    order=row.order,
                    residual=row.derivative,
                )

    def orders(self) -> tuple[float, ...]:
        return tuple(row.order for row in self.rows)

    def entropies(self) -> tuple[float, ...]:
        return tuple(row.entropy.value for row in self.rows)


def sample_spectrum(
    m: MassMeasure, grid: OrderGrid, base: float = DEFAULT_BASE
) -> SpectrumTable:
    """Evaluate entropy, equivalent probability, potential, and slope of
    ``m`` on every order of ``grid``, and validate the result.

    Potential and slope are None on the +-inf rows, where they are not
    defined.  The measure is trusted as built and its logs are taken once;
    each row then costs one kernel pass and equals what ``shifted_entropy``,
    ``equivalent_probability``, ``information_potential`` and
    ``entropy_derivative`` return at its order.  The returned table has
    already passed :meth:`SpectrumTable.validate`.
    """
    base = _check_base(base)
    ln_b = math.log(base)
    support = _LogSupport(m.weights, m.weights)
    rows = []
    for r in grid.orders():
        if math.isinf(r):
            entropy = EntropyValue(-_log_moments(support, r)[0] / ln_b, base, r)
            rows.append(SpectrumRow(r, entropy, support.mean(r), None, None))
            continue
        log_mean, slope = _log_mean_slope(support, r)
        with np.errstate(over="ignore"):
            prob = float(np.exp(log_mean))
            potential = 1.0 if r == 0.0 else float(np.exp(r * log_mean))
        entropy = EntropyValue(-log_mean / ln_b, base, r)
        rows.append(SpectrumRow(r, entropy, prob, potential, min(0.0, -slope / ln_b)))
    table = SpectrumTable(tuple(rows), base, m.total)
    table.validate()
    return table


def invert_probability(
    m: MassMeasure,
    target_p: float,
    search_bound: float = 1.0,
    tol: float = 1e-10,
) -> float:
    """Find an order ``r`` with ``pi_r(normalize(m)) = target_p`` within
    ``tol``, or +-inf when the target sits at the extreme weights.

    The unnormalized measure is normalized first, so ``target_p`` is always
    a probability in ``[min p, max p]`` of the normalized weights; anything
    outside (beyond ``tol``) raises :class:`TargetOutOfRangeError`.  Flat
    stretches of the spectrum (e.g. uniform distributions, where every order
    works) resolve to the smallest-magnitude answer, preferring 0.  The
    bracket doubles outward from ``search_bound`` and gives up at 1e6,
    returning the corresponding infinity; bisection inside the bracket
    raises :class:`ConvergenceError` after 200 iterations.
    """
    p = m.weights / m.weights.sum()  # bitwise normalize(m).weights
    return _invert(_LogSupport(p, p), target_p, search_bound, tol)


def _invert(
    support: _LogSupport, target_p: float, search_bound: float, tol: float
) -> float:
    """:func:`invert_probability` on the log-support of a distribution
    against itself, whose ``mean(r)`` is the equivalent probability."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not search_bound > 0:
        raise ValueError("search_bound must be positive")
    target = float(target_p)
    if math.isnan(target):
        raise ValueError("target probability must not be NaN")
    p_min, p_max = float(support.values.min()), float(support.values.max())
    if target < p_min - tol or target > p_max + tol:
        raise TargetOutOfRangeError(
            f"target {target} outside the attainable range [{p_min}, {p_max}]"
        )
    pi = support.mean
    if abs(pi(0.0) - target) <= tol:
        return 0.0
    if target >= p_max - tol:
        return math.inf
    if target <= p_min + tol:
        return -math.inf
    lo, hi = -search_bound, search_bound
    while pi(hi) < target:
        hi *= 2.0
        if hi > BRACKET_CAP:
            return math.inf
    while pi(lo) > target:
        lo *= 2.0
        if lo < -BRACKET_CAP:
            return -math.inf
    for _ in range(MAX_BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        val = pi(mid)
        if abs(val - target) <= tol:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not reach tol={tol} in {MAX_BISECT_ITERATIONS} iterations"
    )


def recover_distribution_probe(
    m: MassMeasure, tol: float = 1e-10
) -> list[tuple[str, float, float]]:
    """Recover every distinct probability of ``normalize(m)`` by spectrum
    inversion alone.

    Returns one ``(labels, order, probability)`` row per distinct positive
    probability value, in increasing order of value; tied labels are joined
    with commas after sorting.  ``probability`` is the equivalent
    probability attained at the recovered order, so the multiset of third
    components reproduces the distinct weights of the distribution within
    ``tol``.
    """
    p = m.weights / m.weights.sum()  # bitwise normalize(m).weights
    support = _LogSupport(p, p)
    by_value: dict[float, list[str]] = {}
    for label, weight in zip(m.labels, p.tolist()):
        if weight > 0:
            by_value.setdefault(weight, []).append(label)
    rows = []
    for value in sorted(by_value):
        order = _invert(support, value, 1.0, tol)
        rows.append((",".join(sorted(by_value[value])), order, support.mean(order)))
    return rows
