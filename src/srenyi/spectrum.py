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
SEED_ORDERS = 64
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
    200 steps, once an iterate stops moving short of ``tol``, or when
    ``pi`` at +-1e6 misses the target by no more than its own rounding.
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
    extreme on its side of ``pi_0``), clipped to ``+-BRACKET_CAP``.

    With more than ``SEED_ORDERS`` targets, the first kernel call evaluates
    ``r = 0`` and ``SEED_ORDERS`` shared orders spread evenly in
    ``r / (1 + |r|)`` over the brackets of the lowest and the highest
    target, and :func:`_seeded_start` brackets and starts every target from
    them.  With fewer, it evaluates ``r = 0`` alone, and each target starts
    at a Newton step from there, clipped to its bound.

    Every later pass is one kernel call over the open targets, which take a
    Newton step on ``ln pi_r``, in ``1/r`` where ``|r| > 1``
    (``ln pi_r ~ A + B/r`` there); a step out of the bracket bisects it, or
    goes to the cap where that is the end.  Should ``pi`` at an end round
    to the wrong side of ``t``, the cap becomes that end.  A target is done
    once ``|pi_r / t - 1| <= tol``.  It is +-inf if ``pi`` at the cap falls
    short of it by more than the rounding of ``ln pi`` can explain; within
    that rounding no order can meet ``tol``, and :class:`ConvergenceError`
    is raised, as it is when an iterate stops moving.
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
    log_t = np.log(t)
    log_min, log_max = math.log(p_min), math.log(p_max)
    top, bottom = t >= p_max * (1.0 - tol), t <= p_min * (1.0 + tol)
    inner = log_t[~(top | bottom)]
    seeds = np.zeros(1)
    if inner.size > SEED_ORDERS:
        neg = _root_bound(inner.min(), log_min)
        pos = _root_bound(inner.max(), log_max)
        u = np.linspace(-neg / (1.0 + neg), pos / (1.0 + pos), SEED_ORDERS)
        seeds = np.sort(np.append(u / (1.0 - np.abs(u)), 0.0))
    seed_lp, seed_slope = _log_mean_slope(support, seeds)
    log_pi0 = float(seed_lp[np.searchsorted(seeds, 0.0)])
    orders = np.zeros(t.size)
    log_pi = np.full(t.size, log_pi0)
    at_zero = np.abs(np.expm1(log_pi0 - log_t)) <= tol
    orders[~at_zero & top] = math.inf
    orders[~at_zero & bottom] = -math.inf
    idx = np.flatnonzero(~at_zero & np.isfinite(orders))
    log_t = log_t[idx]
    if seeds.size > 1:
        r, lo, hi = _seeded_start(seeds, seed_lp, seed_slope, log_t)
    else:
        below = log_pi0 < log_t  # the root lies at r > 0
        bound = np.where(below, _root_bound(log_t, log_max), -_root_bound(log_t, log_min))
        lo, hi = np.minimum(bound, 0.0), np.maximum(bound, 0.0)
        r = np.clip((log_t - log_pi0) / seed_slope[0], lo, hi)
    slack = 8.0 * np.finfo(float).eps * support.scale  # rounding of ln pi at the cap
    r_last, miss = np.zeros(idx.size), np.expm1(log_pi0 - log_t)  # pi_0 so far
    steps = 0
    while idx.size and steps < MAX_BISECT_ITERATIONS:
        steps += 1
        lp, slope = _log_mean_slope(support, r)
        f = lp - log_t
        miss = np.expm1(f)
        below = f < 0.0
        # an end that reads on the wrong side of t, by rounding, gives way to the cap
        lo = np.where(below, r, np.where(r <= lo, -BRACKET_CAP, lo))
        hi = np.where(below, np.where(r >= hi, BRACKET_CAP, hi), r)
        d = f / slope
        step = r - d / np.where(np.abs(r) > 1.0, 1.0 + d / r, 1.0)
        end = np.where(below, hi, lo)  # the end the root lies toward
        r_next = np.where(np.abs(end) == BRACKET_CAP, end, 0.5 * (lo + hi))
        r_next = np.where((lo < step) & (step < hi), step, r_next)
        done = np.abs(miss) <= tol
        orders[idx[done]] = r[done]
        log_pi[idx[done]] = lp[done]
        # short at the cap by more than rounding: the root is beyond it
        past = ~done & (np.abs(r) >= BRACKET_CAP) & (below == (r > 0.0)) & (np.abs(f) > slack)
        orders[idx[past]] = np.copysign(math.inf, r[past])
        keep = ~(done | past)
        idx, log_t, lo, hi = idx[keep], log_t[keep], lo[keep], hi[keep]
        r_last, miss, r = r[keep], miss[keep], r_next[keep]
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


def _root_bound(log_t, log_ext):
    """``|root|`` of ``ln t`` at most, with ``p_ext`` the extreme on its
    side: ``ln p_ext / (ln t - ln p_ext)``, also where ``ln t`` rounds onto
    ``ln p_ext``, and at most ``BRACKET_CAP``."""
    return np.minimum(log_ext / -np.abs(log_t - log_ext), BRACKET_CAP)


def _seeded_start(
    seeds: np.ndarray, seed_lp: np.ndarray, seed_slope: np.ndarray, log_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, lo, hi)`` of each target from the sorted ``seeds``, their
    ``ln pi`` and their slopes: the bracket is the first seed at or past
    ``ln t`` (by the running maximum of ``ln pi``, which a seed rounding out
    of order cannot break) and the one before it, and the start is their
    inverse cubic Hermite interpolant ``x(ln pi)``, with ``x = 1/r`` where
    both ``|r| > 1``, or the secant where that leaves the bracket.  A
    target that rounding puts past the outermost seed is bracketed by it
    and the cap, and starts at the seed.
    """
    r_pad = np.concatenate(([-BRACKET_CAP], seeds, [BRACKET_CAP]))
    lp_pad = np.concatenate(([-math.inf], np.maximum.accumulate(seed_lp), [math.inf]))
    slope_pad = np.concatenate(([math.nan], seed_slope, [math.nan]))
    j = np.searchsorted(lp_pad, log_t)  # lp_pad[j - 1] < ln t <= lp_pad[j]
    ends, lp = r_pad[[j - 1, j]], lp_pad[[j - 1, j]]
    inv = (np.abs(ends) > 1.0).all(axis=0)  # ln pi ~ A + B/r there
    x = np.where(inv, 1.0 / ends, ends)
    m = np.where(inv, -x * x, 1.0) / slope_pad[[j - 1, j]]  # dx / d ln pi
    h = lp[1] - lp[0]
    s = (log_t - lp[0]) / h
    guess = (
        x[0] + (2.0 * s - 3.0) * s * s * (x[0] - x[1])
        + h * s * (1.0 - s) * ((1.0 - s) * m[0] - s * m[1])
    )
    inside = (x.min(axis=0) < guess) & (guess < x.max(axis=0))
    guess = np.where(inside, guess, x[0] + s * (x[1] - x[0]))
    start = np.where(inv, 1.0 / guess, guess)
    start = np.where(j == 1, ends[1], np.where(j == r_pad.size - 1, ends[0], start))
    return start, ends[0], ends[1]


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
    :func:`invert_probability`: one kernel call samples the spectrum to
    start them all (given more than ``SEED_ORDERS`` values), and then one
    call makes each Newton step.
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
