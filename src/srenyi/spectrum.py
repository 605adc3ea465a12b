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
SEED_ORDERS = 80
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
        This is the law check every built table has passed, applied to the
        columns of this one.

        A failure raises :class:`SpectrumConsistencyError` carrying the
        offending row's order, the order of the row before it for the two
        monotonicity laws, and the residual: the entropy increase, the
        relative probability decrease, the relative ``equiv_prob`` error,
        or the slope that is positive or NaN.
        """
        prob, slope = [row.equiv_prob for row in self.rows], [row.derivative for row in self.rows]
        _check_laws(self.orders(), self.entropies(), prob, slope, self.base)

    def orders(self) -> tuple[float, ...]:
        return tuple(row.order for row in self.rows)

    def entropies(self) -> tuple[float, ...]:
        return tuple(row.entropy.value for row in self.rows)


def sample_spectrum(
    m: MassMeasure, grid: OrderGrid, base: float = DEFAULT_BASE
) -> SpectrumTable:
    """Evaluate entropy, equivalent probability, potential, and slope of
    ``m`` on every order of ``grid``, and validate the result.

    The rows are the columns of :func:`_columns` on the log-support of
    ``m`` against itself: the measure is trusted as built, its logs are
    taken once, and one kernel call evaluates every finite order.  Each row
    equals what ``shifted_entropy``, ``equivalent_probability``,
    ``information_potential`` and ``entropy_derivative`` return at its
    order; potential and slope are None on the +-inf rows, where they are
    not defined.  The returned table has already passed
    :meth:`SpectrumTable.validate`.
    """
    base = _check_base(base)
    columns = zip(*_columns(_LogSupport(m.weights, m.weights), grid, base))
    rows = tuple(SpectrumRow(r, EntropyValue(h, base, r), *rest) for r, h, *rest in columns)
    return SpectrumTable(rows, base, m.total)


def _columns(support: _LogSupport, grid: OrderGrid, base: float, *, slope: bool = True) -> tuple:
    """The validated spectrum columns of any log-support, as five lists:
    the orders of ``grid``, entropy ``-ln M_r / ln b``, equivalent
    probability ``M_r``, potential ``M_r**r`` and slope
    ``-(d ln M_r / dr) / ln b``.

    A spectrum is the support of ``(w, w)``; the divergence ``D_r(p || q)``
    is minus the entropy column of the support of ``(p, p/q)``, which obeys
    the same laws.  One kernel call evaluates the finite orders, whose
    columns are taken as arrays, and the +-inf rows are the exact extremes,
    with no potential or slope.  The slope is taken only when ``slope`` is
    set, for a caller that keeps it, as :func:`sample_spectrum` does; it
    needs every ``ln x`` finite, as the logs of positive doubles are.
    Without ``slope`` it is None at every order.  The columns have passed
    :func:`_check_laws`.
    """
    ln_b = math.log(_check_base(base))
    orders = np.array(grid.finite_orders, dtype=float)
    log_means, slopes = (_log_mean_slope if slope else _log_moments)(support, orders)
    # a divergence's M_r can pass the largest double
    with np.errstate(over="ignore"):
        prob, potential = np.exp(log_means), np.exp(orders * log_means)
    # 0.0 - x, not -x: a zero slope gives +0.0
    derivative = [None] * orders.size if slopes is None else (0.0 - slopes / ln_b).tolist()
    entropy = (-log_means / ln_b).tolist()
    lo, hi = grid.include_neg_inf, grid.include_pos_inf  # a flanking row is there or not
    columns = (
        list(grid.orders()),
        [-support.log_lo / ln_b] * lo + entropy + [-support.log_hi / ln_b] * hi,
        [support.mean(-math.inf)] * lo + prob.tolist() + [support.mean(math.inf)] * hi,
        [None] * lo + potential.tolist() + [None] * hi,
        [None] * lo + derivative + [None] * hi,
    )
    _check_laws(columns[0], columns[1], columns[2], columns[4], base)
    return columns


@np.errstate(all="ignore")  # inf - inf and x / 0 are settled by the comparisons
def _check_laws(orders, entropy, prob, derivative, base: float) -> None:
    """The laws of :meth:`SpectrumTable.validate` on a table's columns:
    raise for the first neighbour pair that breaks one (entropy rise before
    probability drop), else for the first row (``base**(-entropy)`` before
    the slope's sign).

    ``base**(-entropy)`` is compared with ``equiv_prob`` in logs, as it can
    overflow; past the doubles both read as the least or the largest (a
    divergence's ``M_r`` can pass the largest), and ``pi`` is good to 1e-10
    or two of its spacings.  The logs and spacings are ``math.log`` and
    ``math.ulp``: ``np.spacing`` overflows at the largest double.
    """
    slack = 1e-12
    h, p = np.array(entropy, dtype=float), np.array(prob, dtype=float)
    rise = h[1:] - h[:-1]
    bad = np.flatnonzero((rise > slack) | (p[1:] < p[:-1] * (1.0 - 1e-12)))
    if bad.size:
        i = bad[0]
        a, b = orders[i], orders[i + 1]
        if rise[i] > slack:
            residual = float(rise[i])
            message = f"entropy increases by {residual!r} from order {a} to {b}"
        else:
            residual = float(1.0 - p[i + 1] / p[i])
            message = (
                f"equivalent probability decreases by {residual!r} (relative) "
                f"from order {a} to {b}"
            )
        raise SpectrumConsistencyError(message, order=b, neighbour=a, residual=residual)
    tiny, huge = math.ulp(0.0), float(np.finfo(float).max)
    p = np.clip(p, tiny, huge)  # NaN stays NaN
    got = np.fromiter(map(math.log, p.tolist()), float, p.size)
    expected = np.clip(-h * math.log(base), math.log(tiny), math.log(huge))
    ulp = np.fromiter(map(math.ulp, p.tolist()), float, p.size)
    off = (got != expected) & ~(np.abs(got - expected) <= np.maximum(1e-10, 2.0 * ulp / p))
    steep = np.fromiter((d is not None and not d <= 0.0 for d in derivative), bool, p.size)
    bad = np.flatnonzero(off | steep)
    if bad.size:
        i = bad[0]
        if off[i]:
            residual = float(np.expm1(got[i] - expected[i]))
            message = (
                f"row at order {orders[i]}: equiv_prob {prob[i]} is "
                f"{residual!r} (relative) off base**(-entropy)"
            )
        else:
            residual = derivative[i]
            message = f"spectrum slope {residual!r} is not <= 0 at order {orders[i]}"
        raise SpectrumConsistencyError(message, order=orders[i], residual=residual)


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
    return float(_invert(_probabilities(m.weights), (target_p,), tol)[0][0])


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

    The first kernel call evaluates ``r = 0`` alone, or with more than
    ``SEED_ORDERS`` targets ``SEED_ORDERS`` shared orders spread evenly in
    ``c / (1 + |c|)``, ``c = 1 + r``, from the bound of the lowest to that
    of the highest target, of which the one nearest 0 moves onto ``r = 0``.
    They are densest at ``r = -1``, where the escort ``p**(1+r)`` is
    uniform and ``ln pi_r`` bends most, and sparsest at the bounds, where
    ``ln pi_r ~ A + B/r``.  :func:`_seeded_start` brackets and starts every
    target from these seeds.

    Every later pass is one kernel call over the open targets, which take a
    Newton step on ``ln pi_r``, in ``1/r`` where ``|r| > 1``
    (``ln pi_r ~ A + B/r`` there); a step out of the bracket bisects it, or
    goes to the cap where that is the end.  Should ``pi`` at an end round
    to the wrong side of ``t``, the cap becomes that end.  A target is done
    once ``|pi_r / t - 1| <= tol``.  It is +-inf if ``pi`` at the cap falls
    short of it by more than the rounding of ``ln pi`` can explain; within
    that rounding no order can meet ``tol``, and :class:`ConvergenceError`
    is raised, as it is when an iterate stops moving.

    Each round first settles the targets that are done or past the cap and
    compacts the open ones, once; only then are their brackets moved and
    their steps taken.  Every update is elementwise, so the iterates are
    those of updating every target and compacting after, but a late round,
    where nearly every target is done, works on the few that are not.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    t = np.array(targets, dtype=float, ndmin=1)
    if np.isnan(t).any():
        raise ValueError("target probability must not be NaN")
    support = _LogSupport(p, p)
    p_min, p_max = support.lo, support.hi
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
        r_lo = -float(_root_bound(inner.min(), log_min))
        r_hi = float(_root_bound(inner.max(), log_max))
        # c = 1 + r is 0 where the escort is uniform, and ln pi bends most
        u = np.linspace(*(c / (1.0 + abs(c)) for c in (1.0 + r_lo, 1.0 + r_hi)), SEED_ORDERS)
        seeds = u / (1.0 - np.abs(u)) - 1.0
        seeds[0], seeds[-1] = r_lo, r_hi  # the bounds, not their round trip through u
        # r = 0 is always a seed: the nearest one moves onto it rather than
        # sit just beside it, where its slope can also need _kl_slope
        seeds[np.argmin(np.abs(seeds))] = 0.0
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
        done = np.abs(miss) <= tol
        keep = ~done
        if done.any():
            hit = idx[done]
            orders[hit] = r[done]
            log_pi[hit] = lp[done]
        at_cap = np.abs(r) >= BRACKET_CAP
        if at_cap.any():
            # short at the cap by more than rounding: the root is beyond it
            past = keep & at_cap & ((f < 0.0) == (r > 0.0)) & (np.abs(f) > slack)
            orders[idx[past]] = np.copysign(math.inf, r[past])
            keep &= ~past
        if not keep.all():
            idx, log_t, lo, hi, r, f, slope, miss = (
                a[keep] for a in (idx, log_t, lo, hi, r, f, slope, miss)
            )
            if not idx.size:
                break
        below = f < 0.0
        # an end that reads on the wrong side of t, by rounding, gives way to the cap
        lo = np.where(below, r, np.where(r <= lo, -BRACKET_CAP, lo))
        hi = np.where(below, np.where(r >= hi, BRACKET_CAP, hi), r)
        d = f / slope
        step = r - d / np.where(np.abs(r) > 1.0, 1.0 + d / r, 1.0)
        end = np.where(below, hi, lo)  # the end the root lies toward
        r_next = np.where(np.abs(end) == BRACKET_CAP, end, 0.5 * (lo + hi))
        r_next = np.where((lo < step) & (step < hi), step, r_next)
        r_last, r = r, r_next
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
    p = _probabilities(m.weights)
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
