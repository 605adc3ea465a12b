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
from itertools import repeat
from typing import Iterable

import numpy as np

from .errors import (
    ConvergenceError,
    SpectrumConsistencyError,
    TargetOutOfRangeError,
)
from .info import DEFAULT_BASE, EntropyValue, _check_base
from .means import _EPS, _log_mean_slope, _log_moments, _LogSupport
from .measures import MassMeasure, _probabilities

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
MAX_NEWTON_ROUNDS = 200


@dataclass(frozen=True)
class OrderGrid:
    """Strictly increasing finite orders, optionally flanked by -inf / +inf."""

    finite_orders: tuple[float, ...]
    include_neg_inf: bool = False
    include_pos_inf: bool = False

    def __post_init__(self) -> None:
        finite = tuple(float(r) for r in self.finite_orders)
        if not all(map(math.isfinite, finite)):
            raise ValueError("orders must not be NaN, and -inf/+inf only flank the grid")
        if any(prev >= nxt for prev, nxt in zip(finite, finite[1:])):
            raise ValueError("orders must be strictly increasing, without duplicates")
        if not finite and not (self.include_neg_inf or self.include_pos_inf):
            raise ValueError("grid must contain at least one order")
        object.__setattr__(self, "finite_orders", finite)

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "OrderGrid":
        """Sort, deduplicate, and split off the infinities."""
        vals = [float(v) for v in values]
        finite = sorted({v for v in vals if not math.isinf(v)})
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
        and the derivative column must be <= 0 (not positive, not NaN).

        A failure raises :class:`SpectrumConsistencyError` carrying the
        offending row's order, the order of the row before it for the two
        monotonicity laws, and the residual: the entropy increase, the
        relative probability decrease, the relative ``equiv_prob`` error,
        or the slope that is positive or NaN.
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
        ln_b, tiny, huge = math.log(self.base), math.ulp(0.0), float(np.finfo(float).max)
        for row in self.rows:
            # in logs, as base**(-entropy) can overflow; past the doubles both
            # read as the least or the largest (a divergence's M_r can pass
            # the largest), and pi is good to 1e-10 or two of its spacings
            p = min(max(row.equiv_prob, tiny), huge)  # NaN stays NaN
            got = math.log(p)
            expected = min(max(-row.entropy.value * ln_b, math.log(tiny)), math.log(huge))
            if got != expected and not abs(got - expected) <= max(1e-10, 2.0 * math.ulp(p) / p):
                with np.errstate(over="ignore"):
                    miss = float(np.expm1(got - expected))
                raise SpectrumConsistencyError(
                    f"row at order {row.order}: equiv_prob {row.equiv_prob} is "
                    f"{miss!r} (relative) off base**(-entropy)",
                    order=row.order,
                    residual=miss,
                )
            if row.derivative is not None and not row.derivative <= 0.0:
                raise SpectrumConsistencyError(
                    f"spectrum slope {row.derivative!r} is not <= 0 at order {row.order}",
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

    This is :func:`_table` on the log-support of ``m`` against itself: the
    measure is trusted as built, its logs are taken once, and one kernel
    call evaluates every finite order.  Each row equals what
    ``shifted_entropy``, ``equivalent_probability``,
    ``information_potential`` and ``entropy_derivative`` return at its
    order; potential and slope are None on the +-inf rows, where they are
    not defined.  The returned table has already passed
    :meth:`SpectrumTable.validate`.
    """
    return _table(_LogSupport(m.weights, m.weights), grid, base, m.total)


def _table(
    support: _LogSupport, grid: OrderGrid, base: float, total: float, *, slope: bool = True
) -> SpectrumTable:
    """The validated spectrum table of any log-support: at every order of
    ``grid``, entropy ``-ln M_r / ln b``, equivalent probability ``M_r``,
    potential ``M_r**r`` and slope ``-(d ln M_r / dr) / ln b``.

    A spectrum is the support of ``(w, w)``; the divergence ``D_r(p || q)``
    is minus the entropy column of the support of ``(p, p/q)``, which obeys
    the same laws.  One kernel call evaluates the finite orders, and the
    +-inf rows are the exact extremes, with no potential or slope.  The
    slope is taken only when ``slope`` is set, for a caller that keeps it,
    as :func:`sample_spectrum` does.  It needs every value positive and
    finite, as every spectrum's is; on a support holding 0 or inf, or
    without ``slope``, it is None at every order.
    """
    base = _check_base(base)
    ln_b = math.log(base)
    kernel = _log_mean_slope if slope and support.finite else _log_moments
    log_means, slopes = kernel(support, grid.finite_orders)
    # 0.0 - x, not -x: a zero slope gives +0.0
    derivatives = repeat(None) if slopes is None else (0.0 - slopes / ln_b).tolist()
    finite = zip(log_means.tolist(), derivatives)
    rows = []
    for r in grid.orders():
        if math.isinf(r):
            entropy = EntropyValue(-support.log_mean(r) / ln_b, base, r)
            rows.append(SpectrumRow(r, entropy, support.mean(r), None, None))
            continue
        log_mean, derivative = next(finite)
        with np.errstate(over="ignore"):
            prob = float(np.exp(log_mean))
            potential = float(np.exp(r * log_mean))
        entropy = EntropyValue(-log_mean / ln_b, base, r)
        rows.append(SpectrumRow(r, entropy, prob, potential, derivative))
    table = SpectrumTable(tuple(rows), base, total)
    table.validate()
    return table


def invert_probability(m: MassMeasure, target_p: float, tol: float = 1e-10) -> float:
    """Find an order ``r`` whose equivalent probability ``pi_r(normalize(m))``
    is ``target_p`` within the relative tolerance ``tol``, or +-inf when the
    target sits at the extreme weights.

    The unnormalized measure is normalized first, so ``target_p`` is always
    a probability in ``[min p, max p]`` of the normalized weights; anything
    outside (by more than ``tol`` relative) raises
    :class:`TargetOutOfRangeError`.  A target that ``pi_0`` already meets
    gives 0 (so does every target of a uniform distribution); a target
    within ``tol`` of ``min p`` / ``max p`` gives -inf / +inf, as does one
    whose order lies beyond +-1e6.  Otherwise :func:`_invert` solves for
    it, raising :class:`ConvergenceError` after 200 rounds, once an iterate
    stops moving short of ``tol``, or when ``pi`` at +-1e6 misses the target
    by no more than its own rounding.
    """
    return float(_invert(_probabilities(m), (target_p,), tol)[0][0])


@np.errstate(all="ignore")  # inf and NaN iterates are settled by the comparisons
def _invert(
    p: np.ndarray, targets: Iterable[float], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`invert_probability` for every target at once, given the
    weights ``p`` of ``normalize(m)``, on their log-support against
    themselves, whose ``mean(r)`` is the equivalent probability:
    ``(orders, support.mean(orders))``.

    As ``sum p**(1+r)`` has no negative term, ``pi_r >= p_max**(1+1/r)`` at
    ``r > 0`` and ``pi_r <= p_min**(1+1/r)`` at ``r < 0``: the root of ``t``
    lies between 0 and ``ln p_ext / (ln t - ln p_ext)`` (``p_ext`` the
    extreme on its side of ``pi_0``), clipped to ``+-BRACKET_CAP``.

    The first kernel call evaluates ``r = 0``, and with more than
    ``SEED_ORDERS`` targets also ``SEED_ORDERS`` shared orders spread
    evenly in ``r / (1 + |r|)`` over the brackets of the lowest and the
    highest target; :func:`_seeded_start` brackets and starts every target
    from these seeds.

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
    support = _LogSupport(p, p)
    p_min, p_max = float(support.values.min()), float(support.values.max())
    outside = (t < p_min * (1.0 - tol)) | (t > p_max * (1.0 + tol))
    if outside.any():
        raise TargetOutOfRangeError(
            f"target {float(t[outside][0])} outside the attainable range [{p_min}, {p_max}]"
        )
    log_t = np.log(t)
    log_min, log_max = math.log(p_min), math.log(p_max)
    top, bottom = t >= p_max * (1.0 - tol), t <= p_min * (1.0 + tol)
    interior = ~(top | bottom)
    inner = log_t[interior]
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
    off_zero = np.abs(np.expm1(log_pi0 - log_t)) > tol  # pi_0 misses the target
    orders[off_zero & top] = math.inf
    orders[off_zero & bottom] = -math.inf
    idx = np.flatnonzero(off_zero & interior)
    log_t = log_t[idx]
    r, lo, hi = _seeded_start(seeds, seed_lp, seed_slope, log_t, log_min, log_max)
    slack = 8.0 * _EPS * support.scale  # rounding of ln pi at the cap
    steps = 0
    while idx.size and steps < MAX_NEWTON_ROUNDS:
        steps += 1
        lp, slope = _log_mean_slope(support, r)
        f = lp - log_t
        miss = np.expm1(f)
        below = f < 0.0
        size = np.abs(r)
        # an end that reads on the wrong side of t, by rounding, gives way to the cap
        lo = np.where(below, r, np.where(r <= lo, -BRACKET_CAP, lo))
        hi = np.where(below, np.where(r >= hi, BRACKET_CAP, hi), r)
        d = f / slope
        step = r - d / np.where(size > 1.0, 1.0 + d / r, 1.0)
        end = np.where(below, hi, lo)  # the end the root lies toward
        r_next = np.where(np.abs(end) == BRACKET_CAP, end, 0.5 * (lo + hi))
        r_next = np.where((lo < step) & (step < hi), step, r_next)
        done = np.abs(miss) <= tol
        hit = idx[done]
        orders[hit] = r[done]
        log_pi[hit] = lp[done]
        keep = ~done
        at_cap = size >= BRACKET_CAP
        if at_cap.any():
            # short at the cap by more than rounding: the root is beyond it
            past = keep & at_cap & (below == (r > 0.0)) & (np.abs(f) > slack)
            orders[idx[past]] = np.copysign(math.inf, r[past])
            keep &= ~past
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
    seeds: np.ndarray,
    seed_lp: np.ndarray,
    seed_slope: np.ndarray,
    log_t: np.ndarray,
    log_min: float,
    log_max: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, lo, hi)`` of each target from the sorted ``seeds``, their
    ``ln pi`` and their slopes: the bracket is the first seed at or past
    ``ln t`` (by the running maximum of ``ln pi``, which a seed rounding out
    of order cannot break) and the one before it, and the start is their
    inverse cubic Hermite interpolant ``x(ln pi)``, with ``x = 1/r`` where
    both ``|r| > 1``, or the secant where that leaves the bracket.  A
    target past the outermost seed (every target, when ``r = 0`` is the
    only seed) is bracketed by that seed and its closed-form bound
    :func:`_root_bound`, and starts at the Newton step from the seed,
    clipped into that bracket.  The interpolant is evaluated only for the
    targets between two seeds.
    """
    r_pad = np.concatenate(([-BRACKET_CAP], seeds, [BRACKET_CAP]))
    lp_pad = np.concatenate(([-math.inf], np.maximum.accumulate(seed_lp), [math.inf]))
    j = np.searchsorted(lp_pad, log_t)  # lp_pad[j - 1] < ln t <= lp_pad[j]
    lo, hi = r_pad[j - 1], r_pad[j]
    start = np.empty(log_t.size)
    past = (j == 1) | (j == r_pad.size - 1)  # past the outermost seed
    mid = np.flatnonzero(~past)
    if mid.size:
        k = j[mid] - [[1], [0]]  # the seeds below and above, one row each
        ends, lp = r_pad[k], lp_pad[k]
        inv = (np.abs(ends) > 1.0).all(axis=0)  # ln pi ~ A + B/r there
        x = np.where(inv, 1.0 / ends, ends)
        m = np.where(inv, -x * x, 1.0) / seed_slope[k - 1]  # dx / d ln pi
        h = lp[1] - lp[0]
        s = (log_t[mid] - lp[0]) / h
        guess = (
            x[0] + (2.0 * s - 3.0) * s * s * (x[0] - x[1])
            + h * s * (1.0 - s) * ((1.0 - s) * m[0] - s * m[1])
        )
        inside = (x.min(axis=0) < guess) & (guess < x.max(axis=0))
        guess = np.where(inside, guess, x[0] + s * (x[1] - x[0]))
        start[mid] = np.where(inv, 1.0 / guess, guess)
    out = np.flatnonzero(past)
    if out.size:
        k = np.where(j[out] == 1, 0, -1)
        near, log_t = seeds[k], log_t[out]
        bound = _root_bound(log_t, np.where(k == 0, log_min, log_max))
        bound = np.where(k == 0, -bound, bound)
        lo[out], hi[out] = np.minimum(bound, near), np.maximum(bound, near)
        newton = near + (log_t - seed_lp[k]) / seed_slope[k]
        # fmax, fmin: a 0/0 step (a flat seed meets t) starts at the bound
        start[out] = np.fmin(np.fmax(newton, lo[out]), hi[out])
    return start, lo, hi


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
    start them all, and then one call makes each Newton step.  The labels
    are grouped by one stable sort of the probabilities, each run of equal
    values a row; labels are sorted and joined only when some values tie.
    """
    p = _probabilities(m)
    by_p = np.argsort(p, kind="stable")
    sorted_p = p[by_p]
    # a run of equal probabilities starts where one exceeds the one before;
    # the zeros sort first and start none
    starts = np.flatnonzero(np.diff(sorted_p, prepend=0.0))
    orders, probs = _invert(p, sorted_p[starts], tol)
    labels = [m.labels[i] for i in by_p[starts[0]:].tolist()]
    if starts.size < len(labels):  # ties: one row per run, its labels joined
        bounds = [*(starts - starts[0]).tolist(), len(labels)]
        labels = [",".join(sorted(labels[a:b])) for a, b in zip(bounds, bounds[1:])]
    return list(zip(labels, orders.tolist(), probs.tolist()))
