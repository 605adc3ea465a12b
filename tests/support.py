"""Shared generators and oracles for the test suite.

The direct-summation oracles here intentionally do the naive thing in the
linear domain; they are the independent route the library's log-domain
implementations are checked against (and they are expected to break on the
stress cases, which is part of what gets tested).  The Kolmogorov-Nagumo
means and the identity routes of the paper (escort rewrites, skew symmetry,
self-information, mass displacement) live here too: they use only the
public ``srenyi`` API and numpy, so they share no private code with what
they check.  The textbook out-of-place kernel formulas, the kernel's
order rule as one plain chain, a float log-domain equivalent probability
that shares no code with the kernel, the input reader as it was before it
streamed and the dict-based label grouping of the recovery and the
row-wise law check of ``SpectrumTable.validate`` are kept here as oracles
too (the reader borrows the library's JSON record parse, which it does not
check).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

import numpy as np

from srenyi import (
    DEFAULT_BASE,
    Distribution,
    EntropyValue,
    LabelMismatchError,
    MassMeasure,
    OrderGrid,
    SpectrumConsistencyError,
    SpectrumTable,
    SupportViolationError,
    normalize,
    shifted_divergence,
    shifted_entropy,
)

UCB_LABELS = ("A", "B", "C", "D", "E", "F")
UCB_COUNTS = (933, 585, 918, 792, 584, 714)
UCB_TOTAL = 4526


def random_distribution(rng, n=None, low=0.05, high=1.0) -> Distribution:
    """A random fully-supported distribution with moderate dynamic range."""
    if n is None:
        n = int(rng.integers(2, 9))
    weights = rng.uniform(low, high, size=n)
    labels = tuple(f"x{i}" for i in range(n))
    return normalize(MassMeasure(labels, weights))


def random_mass(rng, n=None, low=0.05, high=1.0, scale_low=0.1, scale_high=100.0) -> MassMeasure:
    """Like random_distribution but deliberately unnormalized."""
    if n is None:
        n = int(rng.integers(2, 9))
    scale = rng.uniform(scale_low, scale_high)
    weights = rng.uniform(low, high, size=n) * scale
    labels = tuple(f"x{i}" for i in range(n))
    return MassMeasure(labels, weights)


# Seeds of near_flat_weights(seed) whose default-grid spectrum once failed
# validate: the entropy rose by 1.02e-12 bits across the r = 0 seam
SEAM_SEEDS = (5, 12, 14, 18)


def near_flat_weights(seed, scale=1e-300, n=200) -> np.ndarray:
    """``scale * (1 + 1e-12 * u)`` with ``u`` the first ``n`` uniforms of
    ``numpy.random.default_rng(seed)``: weights equal to 12 digits, far from
    a total of 1."""
    return scale * (1.0 + 1e-12 * np.random.default_rng(seed).random(n))


def random_order(rng, magnitude=3.0, avoid_zero=0.0) -> float:
    """A finite order in [-magnitude, magnitude], optionally bounded away from 0."""
    while True:
        r = float(rng.uniform(-magnitude, magnitude))
        if abs(r) >= avoid_zero:
            return r


def direct_power_mean(weights, values, r) -> float:
    """Textbook linear-domain power mean; no stabilization whatsoever."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(values, dtype=float)
    mask = w > 0
    w, x = w[mask], x[mask]
    wn = w / w.sum()
    if math.isinf(r):
        return float(x.max() if r > 0 else x.min())
    if r == 0.0:
        return float(np.prod(x**wn))
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return float(np.sum(wn * x**r) ** (1.0 / r))


def direct_entropy(dist, r, base=2.0) -> float:
    """-log_b of the direct-summation power mean of the probabilities."""
    m = direct_power_mean(dist.weights, dist.weights, r)
    return -math.log(m) / math.log(base)


def shannon_entropy(dist, base=2.0) -> float:
    p = dist.weights[dist.weights > 0]
    return float(-np.sum(p * np.log(p)) / math.log(base))


def kl_divergence(p_dist, q_dist, base=2.0) -> float:
    """KL divergence with both measures in identical label order."""
    assert p_dist.labels == q_dist.labels
    p = p_dist.weights
    q = q_dist.weights
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])) / math.log(base))


# ------------------------------------------------ kernel and reader references


def reference_log_moments(weights, values, r, escort=False):
    """``(ln M_r, E_rho[ln x] or None)`` at one order by the textbook
    out-of-place formulas: a max-shifted ``exp(a - top)`` for the
    log-sum-exp branch, ``ln(total)`` by ``np.log``, and
    ``sum(w_hat * expm1(r ln x))`` near order zero, with
    the same branch thresholds as the library kernel and its two rules for
    values at 0 and ``+inf``: ``ln M_r`` is the extreme ``ln x`` on ``r``'s
    side where ``r`` or ``r`` times that extreme is infinite, and an order
    at which ``x**r`` drops more than half of ``w_hat`` takes the
    log-sum-exp branch, whatever its ``|r| * scale``.  The escort mean is
    ``dot(rho, ln x) / total`` over the terms that give ``ln M_r``: the
    shifted exponentials ``e`` with ``total = sum(e)`` on the log-sum-exp
    branch, and ``rho = w_hat + w_hat * expm1(r ln x)`` with
    ``total = 1 + sum(w_hat * expm1(r ln x))`` near order zero.  The dot is
    ``np.dot`` up to 8192 values and ``np.einsum`` above, which no BLAS
    thread count can change.  The escort is None at +-inf, at ``r = 0`` and
    in the subnormal series.  Every temporary is a fresh array.  ``ln w_hat``
    is ``ln w - ln W`` after the weights and ``W`` are divided by ``2**e``,
    ``e = round(log2 W)``, an exact shift, except where a weight would leave
    the normal range; there it is ``ln w - ln W`` as they are.

    A power mean lies between the smallest and the largest value on the
    support, so ``ln M_r`` is bounded into ``[min ln x, max ln x]``, which
    rounding alone can overshoot by an ulp.

    Where the values equal the weights (a self-support: ``values is
    weights``, or an equal first entry and equal arrays, as the library
    tells one) the log-sum-exp row is the paper's ``w_hat**(1 + r)``
    instead, shifted to its extreme:
    ``exp(c * (ln w_hat - ln w_hat_ext))``, ``c = 1 + r``, ``ext`` the
    largest ``ln w_hat`` where ``c > 0`` and the least elsewhere, with
    ``top = r * ln x_ext + ln w_hat_ext``."""
    log_mean, escort_mean = _unbounded_log_moments(weights, values, r, escort)
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore"):
        log_x = np.log(np.asarray(values, dtype=float)[w > 0])
    return min(max(log_mean, float(log_x.min())), float(log_x.max())), escort_mean


def _unbounded_log_moments(weights, values, r, escort):
    w = np.asarray(weights, dtype=float)
    x = np.asarray(values, dtype=float)
    own = values is weights or x[0] == w[0] and np.array_equal(x, w)
    w, x = w[w > 0], x[w > 0]
    total = w.sum()
    norm_w = w / total
    e = round(math.log2(total))
    with np.errstate(divide="ignore"):
        log_w = np.where(
            w >= math.ldexp(1.0, e - 1022),
            np.log(np.ldexp(w, -e)) - math.log(math.ldexp(total, -e)),
            np.log(w) - math.log(total),
        )
        log_x = np.log(x)
    branch = reference_branch(log_x, norm_w, r)

    def escort_mean(rho, total):
        dot = np.dot(rho, log_x) if log_x.size <= 8192 else np.einsum("j,j->", rho, log_x)
        return float(dot) / total

    if branch == "zero":
        return float(np.sum(norm_w * log_x)), None
    if branch == "extreme":
        return float(log_x.max() if r > 0 else log_x.min()), None
    with np.errstate(over="ignore"):
        scaled = r * log_x
    if branch == "lse":
        if own:
            c = 1.0 + r
            ext = int(log_w.argmax() if c > 0.0 else log_w.argmin())
            top = r * float(log_x[ext]) + float(log_w[ext])
            e = np.exp((log_w - log_w[ext]) * c)
        else:
            a = log_w + scaled
            top = float(a.max())
            e = np.exp(a - top)
        e_total = float(e.sum())
        log_mean = (top + float(np.log(e_total))) / r
        return log_mean, escort_mean(e, e_total) if escort else None
    if branch == "series":
        geo = float(np.sum(norm_w * log_x))
        var = float(np.sum(norm_w * (log_x - geo) ** 2))
        return geo + 0.5 * r * var, None
    terms = norm_w * np.expm1(scaled)
    excess = float(np.sum(terms))
    log_mean = float(np.log1p(excess)) / r
    return log_mean, escort_mean(norm_w + terms, 1.0 + excess) if escort else None


def reference_branch(log_x, norm_w, r) -> str:
    """The branch that the kernel's order rule gives the order ``r``, as one
    plain chain over the logs of the values on the support and their
    normalized weights: ``"zero"``, ``"extreme"`` (``r`` or ``r`` times the
    extreme ``ln x`` on its side is infinite), ``"lse"`` (``|r| * scale > 1``,
    ``scale`` the largest finite ``|ln x|``, or the values whose ``x**r`` is
    0 hold more than half the mass), ``"series"`` (``|r| * scale < 1e-300``
    on a support of finite logs) or ``"near"``."""
    finite = np.isfinite(log_x)
    scale = float(np.abs(log_x[finite]).max()) if finite.any() else 0.0
    edge = float(log_x.max() if r > 0 else log_x.min())
    dropped = float(norm_w[log_x == (-math.inf if r > 0 else math.inf)].sum())
    if r == 0.0:
        return "zero"
    if math.isinf(r) or math.isinf(r * edge):
        return "extreme"
    if abs(r) * scale > 1.0 or dropped > 0.5:
        return "lse"
    if finite.all() and abs(r) * scale < 1e-300:
        return "series"
    return "near"


def reference_log_equiv_prob(weights, r) -> float:
    """``ln pi_r`` of the distribution ``weights / sum(weights)`` at a finite
    nonzero order ``r``, in float64 logs by a route of its own:
    ``ln pi_r = mu + K / r`` with ``mu = sum p ln p`` and the centred
    log-moment ``K = ln(sum p e**(r d) / sum p)``, ``d = ln p - mu``, every
    sum a ``math.fsum``.  ``K`` is ``log1p`` of ``sum p expm1(r d)`` where
    every ``|r d| <= 1``, whose rounding stays a multiple of ``r``, and
    ``m + ln(sum p e**(r d - m))``, ``m = max(r d)``, elsewhere; so
    ``ln pi_r`` is good to a few units of ``eps * max |d|``, about 1e-14 on
    weights spread over 1e12.  The weights must be positive."""
    w = np.asarray(weights, dtype=float)
    total = math.fsum(w.tolist())
    p = w / total
    log_p = np.log(w) - math.log(total)
    mu = math.fsum((p * log_p).tolist())
    rd = r * (log_p - mu)
    mass = math.fsum(p.tolist())
    if np.abs(rd).max() <= 1.0:
        k = math.log1p(math.fsum((p * np.expm1(rd)).tolist()) / mass)
    else:
        m = float(rd.max())
        k = m + math.log(math.fsum((p * np.exp(rd - m)).tolist()) / mass)
    return mu + k / r


def _centred_logs(pairs):
    """``(w_hat, mu, d)`` of positive ``(weight, value)`` float pairs in the
    current decimal context: the normalized weights, the ``w_hat``-mean
    ``mu`` of ``ln x`` and the centred logs ``d = ln x - mu``, each float
    converted exactly."""
    total = sum(Decimal(wi) for wi, _ in pairs)
    w_hat = [Decimal(wi) / total for wi, _ in pairs]
    logs = [Decimal(xi).ln() for _, xi in pairs]
    mu = sum(wh * lx for wh, lx in zip(w_hat, logs))
    return w_hat, mu, [lx - mu for lx in logs]


def reference_log_mean_slope(weights, values, r, digits=50):
    """``(ln M_r, d ln M_r / dr)`` of the weighted power mean at a finite
    order ``r``, to about ``digits`` significant digits, in stdlib
    ``decimal`` arithmetic.

    The floats are converted exactly and zero-weight entries dropped; every
    other value must be positive and finite.  ``ln x`` is centred at its
    ``w_hat``-mean ``mu`` (``d = ln x - mu``), so that with the centred
    log-moment ``K(r) = ln sum w_hat * exp(r d)`` the slope is
    ``(r K' - K) / r**2`` and ``ln M_r = mu + K / r``.  Guard digits are
    added to the working precision for two cancellations in the slope.
    ``K`` is the log of ``1 + O((r d)**2)``, which costs about
    ``-2 log10(|r| * spread)`` digits.  And where one entry holds all but a
    share ``delta`` of ``w_hat``, its ``d`` is of order ``delta * spread``,
    the difference of two logs of order ``spread``, while the slope is of
    order ``delta``: that costs about ``log10((1 - delta) / delta)`` digits
    (up to 600 with weights over 1e+-300, where 60 digits without this
    guard gave negative slopes).
    """
    pairs = [(float(wi), float(xi)) for wi, xi in zip(weights, values) if wi > 0]
    spread = math.log(max(x for _, x in pairs)) - math.log(min(x for _, x in pairs))
    t = abs(float(r)) * spread
    guard = 2 * max(0, math.ceil(-math.log10(t))) if t > 0 else 0
    *rest, top = sorted(wi for wi, _ in pairs)
    if rest:
        guard += max(0, math.ceil(math.log10(top) - math.log10(sum(rest))))
    with localcontext() as ctx:
        ctx.prec = digits + 10 + guard
        w_hat, mu, d = _centred_logs(pairs)
        if r == 0.0:
            return float(mu), float(sum(wh * di * di for wh, di in zip(w_hat, d)) / 2)
        rd = Decimal(float(r))
        e = [(rd * di).exp() for di in d]
        s0 = sum(wh * ei for wh, ei in zip(w_hat, e))
        s1 = sum(wh * di * ei for wh, di, ei in zip(w_hat, d, e))
        k = s0.ln()
        return float(mu + k / rd), float((rd * s1 / s0 - k) / (rd * rd))


def reference_escort_log_mean(weights, values, r, digits=30):
    """The escort log mean ``E_rho[ln x]``, ``rho ~ w_hat * x**r``, at a
    finite order ``r``, to about ``digits`` significant digits in stdlib
    ``decimal`` arithmetic, as ``mu + sum(w_hat d e**(r d)) / sum(w_hat
    e**(r d))`` with the centred logs of :func:`reference_log_mean_slope`.
    Its rounding is absolute, about ``10**-digits * spread``, far below a
    double's, so it needs no guard digits."""
    pairs = [(float(wi), float(xi)) for wi, xi in zip(weights, values) if wi > 0]
    with localcontext() as ctx:
        ctx.prec = digits + 10
        w_hat, mu, d = _centred_logs(pairs)
        rd = Decimal(float(r))
        rho = [wh * (rd * di).exp() for wh, di in zip(w_hat, d)]
        return float(mu + sum(ri * di for ri, di in zip(rho, d)) / sum(rho))


def reference_escort(weights, values, r, digits=30):
    """The escort weights ``rho_k = w_hat_k x_k**r / sum_i w_hat_i x_i**r``
    on the positive-weight support at a finite order ``r``, to about
    ``digits`` significant digits in stdlib ``decimal`` arithmetic, as
    ``w_hat_k e**(r d_k) / sum_i w_hat_i e**(r d_i)`` with the centred logs
    of :func:`reference_log_mean_slope`.  Each weight is converted to the
    nearest double, so one below the doubles comes back 0 or subnormal."""
    pairs = [(float(wi), float(xi)) for wi, xi in zip(weights, values) if wi > 0]
    with localcontext() as ctx:
        ctx.prec = digits + 10
        w_hat, _, d = _centred_logs(pairs)
        rd = Decimal(float(r))
        rho = [wh * (rd * di).exp() for wh, di in zip(w_hat, d)]
        total = sum(rho)
        return [float(ri / total) for ri in rho]


def reference_divergences(p, q, orders, digits=50):
    """``D_r(p || q) = ln M_r(p_hat, p/q)`` in bits at each order ``r`` of
    ``orders``, to about ``digits`` significant digits in stdlib
    ``decimal`` arithmetic.

    The weights are aligned float arrays, converted exactly; entries where
    ``p`` is 0 are dropped, and ``q`` must be positive on the rest.  The
    ratio is never rounded: ``ln x = ln p - ln q``, and ``M_r`` is
    ``(sum p_hat exp(r ln x))**(1/r)``, ``exp(sum p_hat ln x)`` at
    ``r = 0`` and the extreme ``x`` at ``r = +-inf``.  Its rounding is
    relative to each term, so a sum next to 1 resolves a difference only
    down to ``10**-digits``: ``D_1`` of ``p = (1e-310, 1)``,
    ``q = (1e300, 1)`` is ``-1.44e-310`` bits and needs some 320 digits.
    """
    pairs = [(Decimal(float(a)), Decimal(float(b))) for a, b in zip(p, q) if a > 0]
    with localcontext() as ctx:
        ctx.prec = digits + 10
        total = sum(a for a, _ in pairs)
        w_hat = [a / total for a, _ in pairs]
        logs = [a.ln() - b.ln() for a, b in pairs]
        ln_2, values = Decimal(2).ln(), []
        for r in orders:
            if math.isinf(r):
                log_mean = max(logs) if r > 0 else min(logs)
            elif r == 0.0:
                log_mean = sum(wh * lx for wh, lx in zip(w_hat, logs))
            else:
                rd = Decimal(float(r))
                log_mean = sum(wh * (rd * lx).exp() for wh, lx in zip(w_hat, logs)).ln() / rd
            values.append(float(log_mean / ln_2))
        return values


def reference_log_mean(weights, values, r, digits=50):
    """``ln M_r`` of the weighted power mean at any order ``r``, with values
    at 0 and ``+inf`` allowed, to about ``digits`` significant digits in
    stdlib ``decimal`` arithmetic, from the definition alone.

    The floats are converted exactly and zero-weight entries dropped.  At
    ``r = +-inf`` it is the log of the largest / least value; at ``r = 0``
    ``sum(w_hat ln x)``, ``-inf`` with a 0 value and ``+inf`` with an
    infinite one (not both).  At any other order, a value whose ``x**r`` is
    infinite (0 at ``r < 0``, ``+inf`` at ``r > 0``) makes it ``+-inf`` as
    ``r`` is; the values whose ``x**r`` is 0 drop out of
    ``sum(w_hat x**r)``, which is 0 (``ln M_r = -inf`` at ``r > 0``,
    ``+inf`` at ``r < 0``) when they all do.  The sum is the log of
    ``1 + O(|r| spread)`` where nothing drops, so the working precision has
    ``-log10(|r| spread)`` guard digits, ``spread`` the largest ``|ln x|``
    that stays.
    """
    pairs = [(Decimal(float(wi)), float(xi)) for wi, xi in zip(weights, values) if wi > 0]
    lo, hi, r = min(x for _, x in pairs), max(x for _, x in pairs), float(r)

    def ln(x):
        return -math.inf if x == 0.0 else math.inf if x == math.inf else float(Decimal(x).ln())

    if math.isinf(r):
        return ln(hi if r > 0 else lo)
    if r == 0.0 and (lo == 0.0 or hi == math.inf):
        assert not (lo == 0.0 and hi == math.inf), "the order-0 mean of 0 and inf is undefined"
        return ln(lo if lo == 0.0 else hi)
    if r > 0 and hi == math.inf or r < 0 and lo == 0.0:
        return math.copysign(math.inf, r)
    kept = [(wi, Decimal(xi).ln()) for wi, xi in pairs if 0.0 < xi < math.inf]
    if not kept:
        return -math.copysign(math.inf, r)
    spread = max(abs(lx) for _, lx in kept)
    t = abs(r) * float(spread)
    guard = max(0, math.ceil(-math.log10(t))) if t > 0 else 0
    with localcontext() as ctx:
        ctx.prec = digits + 10 + guard
        total = sum(wi for wi, _ in pairs)
        if r == 0.0:
            return float(sum(wi * lx for wi, lx in kept) / total)
        rd = Decimal(r)
        return float((sum(wi * (rd * lx).exp() for wi, lx in kept) / total).ln() / rd)


# The orders of the dropped-mass sweep: every default-grid order, and two
# small orders of each sign, deep in the expm1 branch of a finite support
DROPPED_MASS_ORDERS = OrderGrid.default().orders() + (-1e-9, 1e-9, -1e-300, 1e-300)


def dropped_mass_supports(rng, dropped=(0.0, math.inf)):
    """``(weights, values)`` of four entries: one value of ``dropped`` (0 or
    ``+inf``) carries all but 1e-12, 1e-15 or 1e-17 of the mass, or 0.4 or
    0.6 of it, and three positive values, spread over ``e**+-0.01``,
    ``e**+-7`` or ``e**+-690``, share the rest."""
    for value in dropped:
        for kept in (1e-12, 1e-15, 1e-17, 0.6, 0.4):
            for spread in (0.01, 7.0, 690.0):
                u = rng.uniform(0.5, 1.0, 3)
                x = np.exp(rng.uniform(-spread, spread, 3))
                yield np.append(1.0 - kept, kept * u / u.sum()), np.append(value, x)


def dropped_mass_bound(values, want):
    """The bound in nats on ``|ln M_r - want|`` of the dropped-mass sweep,
    fixed before any result was seen: ``64 u (1 + |want| + L)``, with
    ``u = 2**-53`` and ``L`` the largest ``|ln x|`` of a positive finite
    value.  The part in ``|want|`` is relative; the part in ``1 + L`` is
    absolute, for the rounding of the logs themselves and for an
    ``ln M_r`` near 0, where relative error alone is not the contract."""
    logs = [abs(math.log(x)) for x in values if 0.0 < x < math.inf]
    return 64.0 * 2.0**-53 * (1.0 + abs(want) + max(logs))


def reference_validate(table: SpectrumTable) -> None:
    """``SpectrumTable.validate`` as a loop over the rows, as it was before
    the laws were checked on columns: every neighbour pair first (entropy
    rise, then probability drop), then every row (``base**(-entropy)``, then
    the slope's sign).  The relative drop is taken in numpy, so that a drop
    from 0 is +-inf rather than a ``ZeroDivisionError``."""
    slack = 1e-12
    for a, b in zip(table.rows, table.rows[1:]):
        rise = b.entropy.value - a.entropy.value
        if rise > slack:
            raise SpectrumConsistencyError(
                f"entropy increases by {rise!r} from order {a.order} to {b.order}",
                order=b.order,
                neighbour=a.order,
                residual=rise,
            )
        if b.equiv_prob < a.equiv_prob * (1.0 - 1e-12):
            with np.errstate(all="ignore"):
                drop = float(1.0 - np.float64(b.equiv_prob) / a.equiv_prob)
            raise SpectrumConsistencyError(
                f"equivalent probability decreases by {drop!r} (relative) "
                f"from order {a.order} to {b.order}",
                order=b.order,
                neighbour=a.order,
                residual=drop,
            )
    ln_b, tiny, huge = math.log(table.base), math.ulp(0.0), float(np.finfo(float).max)
    for row in table.rows:
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


def reference_aligned_weights(p: MassMeasure, q: MassMeasure):
    """``measures.aligned_weights`` as it was before it aligned through one
    sort and one dict: the label sets compared as sets, the sorted labels,
    and a label -> index dict for each measure.  Its error message lists
    every label that differs, as the library's does up to five of them."""
    if set(p.labels) != set(q.labels):
        only_p = sorted(set(p.labels) - set(q.labels))
        only_q = sorted(set(q.labels) - set(p.labels))
        raise LabelMismatchError(
            f"label sets differ (only in first: {only_p}, only in second: {only_q})"
        )
    order = tuple(sorted(p.labels))
    p_index = {l: i for i, l in enumerate(p.labels)}
    q_index = {l: i for i, l in enumerate(q.labels)}
    return order, p.weights[[p_index[l] for l in order]], q.weights[[q_index[l] for l in order]]


def reference_label_groups(m: MassMeasure) -> tuple[list[str], list[float]]:
    """``(labels, values)``: the distinct positive probabilities of
    ``normalize(m)`` in increasing order, and for each the labels that carry
    it, sorted and joined with commas, grouped through a dict keyed by value
    as ``recover_distribution_probe`` once did."""
    by_value: dict[float, list[str]] = {}
    for label, weight in zip(m.labels, (m.weights / m.weights.sum()).tolist()):
        if weight > 0:
            by_value.setdefault(weight, []).append(label)
    values = sorted(by_value)
    return [",".join(sorted(by_value[v])) for v in values], values


def reference_read_measure(path: str) -> MassMeasure:
    """The input reader as it was before it streamed: the whole text is read,
    and a CSV file is parsed by ``csv.reader`` over an ``io.StringIO`` copy
    of it.  ``csv.Error`` escapes as it is.  JSON records go to the
    library's own ``_json_block``, which this oracle does not check; only
    the sniffing in front of it is."""
    from srenyi.cli import _json_block

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty input file")
    if path.lower().endswith(".json") or stripped[0] in "[{":
        return MassMeasure(*_json_block(path, text))
    labels, weights = [], []
    for row in csv.reader(io.StringIO(text)):
        if not row or not "".join(row).strip():
            continue
        if row[0].lstrip().startswith("#"):
            continue
        cells = [c.strip() for c in row]
        if (
            not labels
            and len(cells) == 2
            and cells[0].lower() == "label"
            and cells[1].lower() == "weight"
        ):
            continue
        if len(cells) != 2:
            raise ValueError(
                f"{path}: expected 'label,weight' rows, got {len(cells)} cells: {row}"
            )
        try:
            weight = float(cells[1])
        except ValueError as exc:
            raise ValueError(f"{path}: weight {cells[1]!r} is not a number") from exc
        labels.append(cells[0])
        weights.append(weight)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return MassMeasure(tuple(labels), np.array(weights))


# ------------------------------------------------ Kolmogorov-Nagumo means


@dataclass(frozen=True)
class KNFunctionPair:
    """A strictly monotone continuous function with its inverse.

    Defines the quasi-arithmetic (Kolmogorov-Nagumo) mean
    ``forward_inv(sum_i (w_i / W) * forward(x_i))``.  ``domain`` is the
    closed interval of admissible values; the caller promises that
    ``inverse`` really inverts ``forward`` there, which
    :meth:`check_inverse` can spot-check.
    """

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: tuple[float, float] = (0.0, math.inf)

    def contains(self, value: float) -> bool:
        lo, hi = self.domain
        return lo <= value <= hi

    def check_inverse(self, probe_values, rtol: float = 1e-9) -> None:
        """Raise ValueError if inverse(forward(v)) strays from v on the probes."""
        for v in probe_values:
            v = float(v)
            if not self.contains(v):
                raise ValueError(f"probe value {v} outside domain {self.domain}")
            back = self.inverse(self.forward(v))
            if not math.isclose(back, v, rel_tol=rtol, abs_tol=rtol):
                raise ValueError(
                    f"inverse(forward({v})) = {back}, not an inverse within {rtol}"
                )


def identity_pair() -> KNFunctionPair:
    return KNFunctionPair(lambda v: v, lambda v: v, (0.0, math.inf))


def log_exp_pair() -> KNFunctionPair:
    """log/exp pair; yields the geometric mean (0 is allowed, log(0) = -inf)."""

    def _log(v: float) -> float:
        return math.log(v) if v > 0 else -math.inf

    return KNFunctionPair(_log, math.exp, (0.0, math.inf))


def power_pair(r: float) -> KNFunctionPair:
    """``v -> v**r`` with its inverse, for finite nonzero ``r``."""
    r = float(r)
    if r == 0.0 or not math.isfinite(r):
        raise ValueError("power_pair needs a finite nonzero exponent")

    def _fwd(v: float) -> float:
        with np.errstate(divide="ignore"):
            return float(np.power(v, r))

    def _inv(v: float) -> float:
        with np.errstate(divide="ignore"):
            return float(np.power(v, 1.0 / r))

    return KNFunctionPair(_fwd, _inv, (0.0, math.inf))


def kn_mean(weights, values, pair: KNFunctionPair) -> float:
    """Quasi-arithmetic mean of ``values`` under the function ``pair``.

    With ``pair = power_pair(r)`` this agrees with ``power_mean(w, x, r)``;
    it is an independent, naive-summation route.  Not log-stabilized on
    purpose.
    """
    w = np.asarray(weights, dtype=float)
    x = np.asarray(values, dtype=float)
    mask = w > 0
    w, x = w[mask], x[mask]
    outside = [float(v) for v in x if not pair.contains(float(v))]
    if outside:
        raise ValueError(
            f"values {outside} outside the function domain {pair.domain}"
        )
    fx = np.array([pair.forward(float(v)) for v in x], dtype=float)
    if np.isnan(fx).any():
        raise ValueError("forward function produced NaN on the support")
    mean_fx = float(np.sum((w / w.sum()) * fx))
    return float(pair.inverse(mean_fx))


# ------------------------------------------------ identity routes


def _escort_decomposition(m: MassMeasure, r: float) -> tuple[float, float, float]:
    """Order-0 divergence / cross-entropy / entropy (all in nats) of the
    order-``r`` self-escort ``rho`` of ``normalize(m)`` against it.

    Returns ``(kl, cross, ent)`` with ``kl = sum rho*ln(rho/p)``,
    ``cross = -sum rho*ln p`` and ``ent = -sum rho*ln rho``, computed in the
    log domain so that extreme orders (|r| ~ 50) do not underflow.
    """
    p = normalize(m).weights
    ln_p = np.log(p[p > 0])
    log_t = (1.0 + r) * ln_p
    top = float(log_t.max())
    log_rho = log_t - (top + math.log(float(np.exp(log_t - top).sum())))
    rho = np.exp(log_rho)
    live = rho > 0
    with np.errstate(invalid="ignore"):
        kl = float(np.where(live, rho * (log_rho - ln_p), 0.0).sum())
        ent = -float(np.where(live, rho * log_rho, 0.0).sum())
    cross = -float(np.sum(rho * ln_p))
    return kl, cross, ent


def entropy_via_escort_rewrite(
    m: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> tuple[EntropyValue, EntropyValue]:
    """The entropy at finite nonzero ``r`` recomputed two independent ways
    from Shannon-type quantities of the order-``r`` self-escort ``rho``:

        route 1:  (1/r) * D_0(rho || p)  +  X_0(rho, p)
        route 2:  -(1/r) * H_0(rho)  +  ((r+1)/r) * X_0(rho, p)

    both displaced by ``-log_b(total mass)`` so they equal
    ``shifted_entropy(m, r, base)`` for unnormalized measures too.
    """
    r = float(r)
    if r == 0.0 or not math.isfinite(r):
        raise ValueError("the escort rewrites need a finite nonzero order")
    kl, cross, ent = _escort_decomposition(m, r)
    route1 = kl / r + cross
    route2 = -ent / r + (r + 1.0) / r * cross
    shift = math.log(m.total)
    ln_b = math.log(base)
    return (
        EntropyValue((route1 - shift) / ln_b, base, r),
        EntropyValue((route2 - shift) / ln_b, base, r),
    )


def skew_symmetric_divergence(
    p: MassMeasure, q: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> EntropyValue:
    """The mirrored divergence ``-((r+1)/r) * D_{-(r+1)}(q || p)``.

    For probability distributions with equal support this equals
    ``shifted_divergence(p, q, r, base)`` at every finite ``r != 0``; at
    ``r = 0`` the prefactor blows up and ValueError is raised.
    """
    r = float(r)
    if r == 0.0:
        raise ValueError("the skew identity is undefined at order 0")
    if not math.isfinite(r):
        raise ValueError("the skew identity needs a finite order")
    if set(p.support_labels) != set(q.support_labels):
        raise SupportViolationError(
            "the skew identity needs equal supports",
            labels=tuple(sorted(set(p.support_labels) ^ set(q.support_labels))),
        )
    mirrored = shifted_divergence(q, p, -(r + 1.0), base)
    return EntropyValue(-(r + 1.0) / r * mirrored.value, base, r)


def self_information_check(
    p: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> tuple[EntropyValue, EntropyValue]:
    """Entropy as a divergence from the squared measure.

    Returns ``(H_r(p), D_{-r}(p || p*p))`` where ``(p*p)_i = w_i**2``; the
    two coincide for every extended ``r``, including 0 and +-inf, and for
    unnormalized measures.
    """
    squared = MassMeasure(p.labels, p.weights * p.weights)
    lhs = shifted_entropy(p, r, base)
    rhs = shifted_divergence(p, squared, -float(r), base)
    return lhs, EntropyValue(rhs.value, base, lhs.order)


def mass_displacement_check(
    m: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> tuple[EntropyValue, EntropyValue]:
    """Entropy of a mass measure vs entropy of its normalization displaced
    by the log total mass.

    Returns ``(H_r(m), H_r(normalize(m)) - log_b(total))``; the displacement
    is the same at every order, which is the point of the construction.
    """
    lhs = shifted_entropy(m, r, base)
    shift = math.log(m.total) / math.log(base)
    displaced = shifted_entropy(normalize(m), r, base).value - shift
    return lhs, EntropyValue(displaced, base, lhs.order)
