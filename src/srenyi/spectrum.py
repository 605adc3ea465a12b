"""Entropy spectra over grids of orders, and inversion of the spectrum.

A spectrum is the map ``r -> H_r(m)`` sampled on an :class:`OrderGrid`.
Because the equivalent probability ``pi_r = b**(-H_r)`` is continuous and
non-decreasing from ``min p`` (at ``r = -inf``) to ``max p`` (at
``r = +inf``), the map can be inverted: given an attainable probability,
:func:`invert_probability` finds an order that realizes it to a relative
tolerance, by safeguarded Newton steps on ``ln pi_r`` whose slope is the
spectrum's own, and :func:`recover_distribution_probe` does so for every
distinct value of a distribution at once, recovering the distribution
without ever reading a single component directly.
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
from .means import _log_mean_slope, _LogSupport
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
    one kernel call then evaluates every finite order, and each row equals
    what ``shifted_entropy``, ``equivalent_probability``,
    ``information_potential`` and ``entropy_derivative`` return at its
    order.  The returned table has already passed
    :meth:`SpectrumTable.validate`.
    """
    base = _check_base(base)
    ln_b = math.log(base)
    support = _LogSupport(m.weights, m.weights)
    log_means, slopes = _log_mean_slope(support, grid.finite_orders)
    finite = zip(log_means.tolist(), slopes.tolist())
    rows = []
    for r in grid.orders():
        if math.isinf(r):
            entropy = EntropyValue(-support.log_mean(r) / ln_b, base, r)
            rows.append(SpectrumRow(r, entropy, support.mean(r), None, None))
            continue
        log_mean, slope = next(finite)
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
    """Find an order ``r`` whose equivalent probability ``pi_r(normalize(m))``
    is ``target_p`` within the relative tolerance ``tol``, or +-inf when the
    target sits at the extreme weights.

    The unnormalized measure is normalized first, so ``target_p`` is always
    a probability in ``[min p, max p]`` of the normalized weights; anything
    outside (by more than ``tol`` relative) raises
    :class:`TargetOutOfRangeError`.  A target that ``pi_0`` already meets
    gives 0 (so does every target of a uniform distribution); a target
    within ``tol`` of ``min p`` / ``max p`` gives -inf / +inf, as does one
    whose order lies beyond +-1e6.  Otherwise
    :func:`_invert` solves for it, raising :class:`ConvergenceError` after
    200 steps, or once an iterate stops moving short of ``tol``.
    ``search_bound`` has no effect, but must be positive.
    """
    if not search_bound > 0:
        raise ValueError("search_bound must be positive")
    p = m.weights / m.weights.sum()  # bitwise normalize(m).weights
    orders, _ = _invert(_LogSupport(p, p), (target_p,), tol)
    return float(orders[0])


@np.errstate(all="ignore")  # inf and NaN iterates are settled by the comparisons
def _invert(
    support: _LogSupport, targets: Iterable[float], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`invert_probability` for every target at once, on the
    log-support of a distribution against itself, whose ``mean(r)`` is the
    equivalent probability: ``(orders, support.mean(orders))``.

    As ``sum p**(1+r)`` has no negative term, ``pi_r >= p_max**(1+1/r)`` at
    ``r > 0`` and ``pi_r <= p_min**(1+1/r)`` at ``r < 0``: the root of ``t``
    lies between 0 and ``ln p_ext / (ln t - ln p_ext)`` (``p_ext`` the
    extreme on its side of ``pi_0``), clipped to ``+-BRACKET_CAP``.  Each
    pass is one kernel call over the open targets, which then take a Newton
    step on ``ln pi_r``, in ``1/r`` where ``|r| > 1`` (``ln pi_r ~ A + B/r``
    there); a step out of the bracket goes to an end not evaluated yet, or
    else bisects.  Should ``pi`` at the bound round past ``t``, the cap
    becomes the end.  A target is done once ``|pi_r / t - 1| <= tol``, and
    is +-inf if ``pi`` at the cap falls short.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    t = np.array(targets, dtype=float, ndmin=1)
    if np.isnan(t).any():
        raise ValueError("target probability must not be NaN")
    p_min, p_max = float(support.values.min()), float(support.values.max())
    outside = (t < p_min * (1.0 - tol)) | (t > p_max * (1.0 + tol))
    if outside.any():
        raise TargetOutOfRangeError(
            f"target {float(t[outside][0])} outside the attainable range [{p_min}, {p_max}]"
        )
    (log_pi0,), (slope0,) = _log_mean_slope(support, (0.0,))
    log_t = np.log(t)
    orders = np.zeros(t.size)
    log_pi = np.full(t.size, log_pi0)
    at_zero = np.abs(np.expm1(log_pi0 - log_t)) <= tol
    orders[~at_zero & (t >= p_max * (1.0 - tol))] = math.inf
    orders[~at_zero & (t <= p_min * (1.0 + tol))] = -math.inf
    idx = np.flatnonzero(~at_zero & np.isfinite(orders))
    log_t = log_t[idx]
    below = log_pi0 < log_t  # the root lies at r > 0
    log_ext = np.where(below, math.log(p_max), math.log(p_min))
    # |root| <= bound, also where ln t rounds onto ln p_ext
    bound = np.minimum(log_ext / -np.abs(log_t - log_ext), BRACKET_CAP)
    lo, hi = np.where(below, 0.0, -bound), np.where(below, bound, 0.0)
    lo_known, hi_known = below, ~below
    r = np.clip((log_t - log_pi0) / slope0, lo, hi)
    r_last, miss = np.zeros(idx.size), np.expm1(log_pi0 - log_t)  # pi_0 so far
    steps = 0
    while idx.size and steps < MAX_BISECT_ITERATIONS:
        steps += 1
        lp, slope = _log_mean_slope(support, r)
        f = lp - log_t
        miss = np.expm1(f)
        below = f < 0.0
        lo = np.where(below, r, np.where(r <= lo, -BRACKET_CAP, lo))
        hi = np.where(below, np.where(r >= hi, BRACKET_CAP, hi), r)
        lo_known, hi_known = lo_known | below, hi_known | ~below
        d = f / slope
        step = r - d / np.where(np.abs(r) > 1.0, 1.0 + d / r, 1.0)
        r_next = np.where(~hi_known & (step >= hi), hi, 0.5 * (lo + hi))
        r_next = np.where(~lo_known & (step <= lo), lo, r_next)
        r_next = np.where((lo < step) & (step < hi), step, r_next)
        done = np.abs(miss) <= tol
        orders[idx[done]] = r[done]
        log_pi[idx[done]] = lp[done]
        # short at the cap: the root is beyond it
        past = ~done & (np.abs(r) >= BRACKET_CAP) & (below == (r > 0.0))
        orders[idx[past]] = np.copysign(math.inf, r[past])
        keep = ~(done | past)
        idx, log_t, lo, hi = idx[keep], log_t[keep], lo[keep], hi[keep]
        lo_known, hi_known, r_last, miss = lo_known[keep], hi_known[keep], r[keep], miss[keep]
        r = r_next[keep]
        stuck = r == r_last  # it would repeat at every later step
        if stuck.any():
            idx, r_last, miss = idx[stuck], r_last[stuck], miss[stuck]
            break
    if idx.size:
        worst = int(np.argmax(np.abs(miss)))
        target, order, residual = float(t[idx[worst]]), float(r_last[worst]), float(miss[worst])
        raise ConvergenceError(
            f"target {target!r} not reached to tol={tol} in {steps} steps: "
            f"order {order!r} misses it by {residual!r} (relative)",
            target=target,
            order=order,
            residual=residual,
        )
    probs = np.exp(log_pi)
    probs[orders == math.inf] = p_max
    probs[orders == -math.inf] = p_min
    return orders, probs


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
    ``tol`` relative.  All values are inverted together, as in
    :func:`invert_probability`, with one kernel call per Newton step.
    """
    p = m.weights / m.weights.sum()  # bitwise normalize(m).weights
    by_value: dict[float, list[str]] = {}
    for label, weight in zip(m.labels, p.tolist()):
        if weight > 0:
            by_value.setdefault(weight, []).append(label)
    values = sorted(by_value)
    orders, probs = _invert(_LogSupport(p, p), values, tol)
    return [
        (",".join(sorted(by_value[v])), order, prob)
        for v, order, prob in zip(values, orders.tolist(), probs.tolist())
    ]
