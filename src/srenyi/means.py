"""Weighted generalized power means over the extended order line.

The order ``r`` is an ordinary float where ``float("-inf")`` and
``float("inf")`` select the min / max limits, ``r == 0.0`` (exactly) selects
the weighted geometric mean, and any other finite value the power mean

    M_r(w, x) = (sum_i (w_i / W) * x_i**r) ** (1/r),    W = sum_i w_i.

Finite nonzero orders are evaluated in the log domain,

    log M_r = log(sum_i exp(log(w_i / W) + r * log(x_i))) / r,

with the sum shifted by its largest exponent (a log-sum-exp), so that orders
like ``r = 50`` on probability-sized values survive double precision where
the direct sum would overflow or underflow; tiny orders switch to
expm1/log1p (and ultimately series) evaluations that stay accurate through
the geometric limit.  Entries with zero weight are dropped before
anything else happens.  Weights obey the rules that ``MassMeasure`` uses
too, stated once in ``_check_weights``; values must be non-negative and not
NaN (``0`` and ``+inf`` are allowed).  The four public functions check this
once, and the kernel behind them trusts it.

There is deliberately no epsilon snapping here: ``r = 1e-300`` is a power
mean, not a geometric mean.  Callers that want to round near-zero orders do
so at their own boundary.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DiscontinuityError, DivergentEscortError

__all__ = [
    "power_mean",
    "log_power_mean",
    "escort_distribution",
    "power_mean_derivative",
]

ArrayLike = Sequence[float] | np.ndarray
# ln M_r at each order of a kernel pass or call, and the escort mean or None
_Moments = tuple[np.ndarray, np.ndarray | None]


def _check_weights(weights: ArrayLike) -> np.ndarray:
    """``weights`` as a float array (not copied if it already is one),
    checked against the weight rules of every input path: one-dimensional,
    not empty, no NaN, finite, non-negative, at least one positive, and a
    finite total."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if w.size == 0:
        raise ValueError("measure must have at least one outcome")
    if np.isnan(w).any():
        raise ValueError("weights must not be NaN")
    if np.isinf(w).any():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if not (w > 0).any():
        raise ValueError("at least one weight must be positive")
    with np.errstate(over="ignore"):
        if not np.isfinite(w.sum()):
            raise ValueError("total weight must be finite")
    return w


def _as_weight_value_arrays(weights: ArrayLike, values: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    w = _check_weights(weights)
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if w.shape != x.shape:
        raise ValueError(f"length mismatch: {w.size} weights vs {x.size} values")
    if np.isnan(x).any():
        raise ValueError("values must not be NaN")
    if (x < 0).any():
        raise ValueError("values must be non-negative")
    return w, x


def _check_order(r: float) -> float:
    r = float(r)
    if math.isnan(r):
        raise ValueError("order must not be NaN")
    return r


# Largest (orders x values) array one kernel pass fills; from n = 2**16
# values on, every order has a pass of its own.  Of 2**12 to 2**20, 2**16
# evaluated the default grid fastest at n = 200 to 6 * 10**4 (one core).
_PASS_ELEMENTS = 2**16
# Longest row whose escort dot product is left to BLAS: OpenBLAS (numpy 2.4)
# splits a dot across threads from about 10**4 values on, and its sum then
# depends on OPENBLAS_NUM_THREADS
_BLAS_DOT_VALUES = 2**13
# Values per chunk of _kl_slope: a chunk's temporaries stay in cache, and
# only its array of terms is as large as a pass
_KL_CHUNK = 2**13


def _shifted_exp_rows(s: _LogSupport, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log escort weights ``ln w_hat + r * ln x`` of ``s``, one row per
    order of ``r``, through one max-shifted exponential pass: ``top = max``
    of each row, the row ``e = exp(row - top)`` and ``total = sum(e)``.

    ``ln(sum(exp(row))) = top + ln(total)`` then holds with no term able to
    overflow, and ``e / total`` are the normalized escort weights.  Every
    ``top`` is finite: the orders at which it would not be are taken by the
    extreme rule of :func:`_log_moments` before a row is built.  A value
    whose ``x**r`` is 0 is a ``-inf`` entry, whose ``e`` is 0.  The rows are
    one fresh array, returned as ``e``.
    """
    a = np.multiply.outer(r, s.log_x)
    a += s.log_w
    top = a.max(axis=1)
    a -= top[:, None]
    np.exp(a, out=a)
    return top, a, a.sum(axis=1)


class _LogSupport:
    """Everything about one ``(weights, values)`` pair that does not depend
    on the order, computed once: the normalized weights ``w_hat`` and their
    logs, the logs of the values and the exact least and largest value
    ``lo`` and ``hi``, all on the positive-weight support.  The values
    array itself is not kept.

    The logs are ``np.log(values)`` unless the caller passes them as
    ``log_x``, as a divergence does, whose values are ratios that may be
    rounded past the doubles.  Such a caller passes a support without zero
    weights, and ``lo`` and ``hi`` are still read from ``values``.

    This is the one place where the weights' scale is taken out.  With
    ``W = 2**e * c``, ``e = round(log2 W)`` and ``c`` within ``sqrt(2)`` of
    1, ``ln w_hat = ln(w / 2**e) - ln(W / 2**e)``.  The division only shifts
    exponents, so ``w_hat`` is bitwise ``w / W``, but ``ln w_hat`` no longer
    carries the rounding of ``ln w`` and ``ln W`` far from 0, which the
    log-sum-exp would divide by ``r``.  A weight that the shift would carry
    out of the normal range (``w_hat`` below about ``2**-1022``) keeps
    ``ln w - ln W``; at ``e = 0`` the shift is the identity.  The values are
    not scaled.

    ``scale`` (the largest finite ``|ln x|``) selects the branch of
    :func:`_log_moments` at each order without another pass over the data;
    ``log_lo`` and ``log_hi`` are the least and largest ``ln x``, the range
    of every ``ln M_r``.  ``dropped[r > 0]`` is the share of ``w_hat``
    whose ``x**r`` is 0 at an order ``r``: that on the values ``+inf`` at
    ``r < 0``, and on the values 0 at ``r > 0``.  Both shares are 0 on a
    ``finite`` support, where they are not summed.  The arrays are trusted
    as a ``MassMeasure`` or the raw-array check leaves them, and are not
    validated again.
    """

    __slots__ = ("lo", "hi", "norm_w", "log_w", "log_x", "finite", "scale", "log_lo", "log_hi", "dropped")

    def __init__(self, weights: np.ndarray, values: np.ndarray, log_x: np.ndarray | None = None):
        mask = weights > 0
        # a support without zero weights is taken as it is, not copied
        w, x = (weights, values) if mask.all() else (weights[mask], values[mask])
        total = w.sum()
        self.lo, self.hi = float(x.min()), float(x.max())
        self.norm_w = w / total
        # the exact scale shift of the class docstring, in one buffer
        e = round(math.log2(total))
        with np.errstate(divide="ignore"):
            self.log_x = np.log(x) if log_x is None else log_x
            self.log_w = np.ldexp(w, -e)
            np.log(self.log_w, out=self.log_w)
            self.log_w -= math.log(math.ldexp(total, -e))
        lost = w < math.ldexp(1.0, e - 1022)
        self.log_w[lost] = np.log(w[lost]) - math.log(total)
        self.log_lo, self.log_hi = float(self.log_x.min()), float(self.log_x.max())
        # the logs hold no NaN, so only their extremes can be infinite
        self.finite = -math.inf < self.log_lo and self.log_hi < math.inf
        logs, self.dropped = self.log_x, (0.0, 0.0)
        if not self.finite:
            self.dropped = tuple(float(self.norm_w[logs == e].sum()) for e in (math.inf, -math.inf))
            logs = logs[np.isfinite(logs)]
        self.scale = max(float(logs.max(initial=0.0)), -float(logs.min(initial=0.0)))

    def log_mean(self, r: float) -> float:
        """``ln M_r`` at one order: the one-order case of the kernel."""
        return float(_log_moments(self, (r,))[0][0])

    def mean(self, r: float) -> float:
        """``M_r``: the exact max / min value at ``r = +-inf`` (not
        round-tripped through logs), ``exp(ln M_r)`` at every other order."""
        if math.isinf(r):
            return self.hi if r > 0 else self.lo
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_mean(r)))


def _passes(idx: Sequence[int] | np.ndarray, n: int) -> list[np.ndarray]:
    """The order indices ``idx`` as ``np.intp`` index arrays of at most
    ``_PASS_ELEMENTS`` (orders x ``n`` values), and at least one order each;
    an array indexes a pass's rows several times faster than a list does."""
    idx = np.asarray(idx, dtype=np.intp)
    k = max(1, _PASS_ELEMENTS // n)
    return [idx[i:i + k] for i in range(0, idx.size, k)]


def _escort_mean(rho: np.ndarray, log_x: np.ndarray, total: np.ndarray) -> np.ndarray:
    """The escort log mean ``E_rho[ln x] = (rho . ln x) / total`` of each
    row ``rho`` of (unnormalized) escort weights, whose sums are ``total``.

    This is the only place where escort weights meet ``ln x``.  Each row's
    dot product is bitwise what that row alone gives, whatever rows share
    the call, and depends on nothing but the input: up to
    ``_BLAS_DOT_VALUES`` values a stacked matmul (one BLAS dot per row),
    above it, where OpenBLAS splits a dot across threads, a BLAS-free
    einsum per row.
    """
    if log_x.size <= _BLAS_DOT_VALUES:
        return np.matmul(rho[:, None, :], log_x)[:, 0] / total
    return np.fromiter((np.einsum("j,j->", row, log_x) for row in rho), float, len(rho)) / total


def _log_sum_exp_pass(s: _LogSupport, r: np.ndarray, escort: bool) -> _Moments:
    """``ln M_r = (top + ln(total)) / r`` at the orders ``r`` from one
    shifted exponential pass over the log escort weights
    ``ln w_hat + r * ln x``, one row per order, and the escort mean from
    the same pass.  The array dies on return, before the next pass
    allocates one, which keeps large-n passes in cache."""
    top, a, total = _shifted_exp_rows(s, r)
    # math.log, not np.log: numpy's vectorized log may differ in the last bit
    log_mean = (top + np.fromiter(map(math.log, total.tolist()), float, total.size)) / r
    return log_mean, _escort_mean(a, s.log_x, total) if escort else None


def _expm1_pass(s: _LogSupport, r: np.ndarray, escort: bool) -> _Moments:
    """``ln M_r`` at near-zero orders ``r``, as
    ``log1p(sum w_hat * t) / r`` with ``t = expm1(r ln x)``, and the escort
    mean from the same terms.  Every finite ``|r ln x| <= 1`` here, so the
    escort weights ``w_hat + w_hat * t`` need no shift, and their total is
    ``1 + sum w_hat * t``, the sum that gives ``ln M_r``.  A value whose
    ``x**r`` is 0 has ``t = -1``; the lost-mass rule of :func:`_log_moments`
    sends an order here only where such values hold at most half the mass,
    so ``1 + sum w_hat * t`` stays above ``1/6`` and ``log1p`` cannot
    cancel it."""
    terms = np.multiply.outer(r, s.log_x)
    np.expm1(terms, out=terms)
    terms *= s.norm_w
    excess = terms.sum(axis=1)
    log_mean = np.log1p(excess) / r
    if not escort:
        return log_mean, None
    terms += s.norm_w
    return log_mean, _escort_mean(terms, s.log_x, 1.0 + excess)


def _log_moments(s: _LogSupport, orders: ArrayLike, escort: bool = False) -> _Moments:
    """``ln M_r`` of a log-support at every order of ``orders`` and, when
    ``escort`` is set, the escort log mean ``E_rho[ln x]`` with
    ``rho_i ~ w_i * x_i**r``.

    This is the one kernel behind every mean, entropy and spectrum column;
    :func:`log_power_mean` documents the branches and conventions.  It is
    also the one place where values at 0 and ``+inf`` are decided, by two
    rules, so that no pass sees an infinite row:

    * the extreme rule: where ``r`` is ``+-inf`` or ``r * e`` is infinite,
      ``e`` the extreme ``ln x`` on ``r``'s side (``log_hi`` at ``r > 0``,
      ``log_lo`` at ``r < 0``), ``ln M_r`` is ``e``.  That is a 0 value at
      ``r < 0``, an infinite one at ``r > 0``, a support all at 0 or all
      at ``+inf``, and an order so large that ``r * e`` overflows, where
      every other value's share of the mean is below the doubles;
    * the lost-mass rule: an order at which ``x**r`` drops more than half
      of ``w_hat`` (``s.dropped[r > 0]``) takes the log-sum-exp pass, which
      sums the mass that survives.  There ``|r ln M_r| >= ln 2``, so the
      pass's absolute rounding stays small against the result.  At or
      below one half, the expm1 pass subtracts the mass that drops without
      cancelling.

    Both rules read only scalars of the support; the second is skipped on
    a ``finite`` one.  The log-sum-exp and expm1 orders are evaluated in
    (orders x values) passes of at most ``_PASS_ELEMENTS``, and every value
    is bitwise what a one-order call gives.  Each such order takes exactly
    one exponential pass, and its escort mean comes from that pass's own
    array, through :func:`_escort_mean`.  The escort needs every value
    positive and finite; it is NaN at ``+-inf``, at ``r = 0`` and in the
    subnormal series.
    """
    rs = np.array(orders, dtype=float, ndmin=1)
    log_mean = np.empty(rs.size)
    escort_mean = np.full(rs.size, math.nan) if escort else None
    zero, series, lse, near = [], [], [], []
    finite, scale = s.finite, s.scale
    for i, r in enumerate(rs.tolist()):
        edge = s.log_hi if r > 0 else s.log_lo
        if r == 0.0:
            zero.append(i)
        elif math.isinf(r) or math.isinf(r * edge):
            log_mean[i] = edge
        elif abs(r) * scale > 1.0 or not finite and s.dropped[r > 0] > 0.5:
            lse.append(i)
        elif finite and abs(r) * scale < 1e-300:
            series.append(i)
        else:
            near.append(i)
    if zero or series:
        if zero and s.log_lo == -math.inf and s.log_hi == math.inf:
            raise DiscontinuityError(
                "order-0 mean is undefined: values contain both 0 and inf"
            )
        # elementwise product, not dot: BLAS is not guaranteed to propagate
        # the -inf from log(0) correctly
        geo = float(np.sum(s.norm_w * s.log_x))
        log_mean[zero] = geo
        if series:
            # r*log(x) underflows into subnormals, where the product itself
            # cannot be trusted; expand around the geometric mean instead,
            # with the slope at r = 0 and an O(r^2) truncation error that is
            # unobservable here
            log_mean[series] = geo + rs[series] * _kl_slope(s, np.zeros(1), np.array([geo]))[0]
    # at a subnormal order, ln M_r of a support that drops mass overflows to
    # the -inf or +inf it tends to
    with np.errstate(over="ignore"):
        for branch, kernel_pass in ((lse, _log_sum_exp_pass), (near, _expm1_pass)):
            for idx in _passes(branch, s.log_x.size):
                log_mean[idx], escort_here = kernel_pass(s, rs[idx], escort)
                if escort:
                    escort_mean[idx] = escort_here
    # a power mean lies between the extreme values, which rounding alone
    # can carry ln M_r an ulp past
    np.maximum(log_mean, s.log_lo, out=log_mean)
    np.minimum(log_mean, s.log_hi, out=log_mean)
    return log_mean, escort_mean


# The largest estimated relative rounding of a closed-form slope that is kept
_SLOPE_BUDGET = 1e-11
_EPS = 2.0**-52  # the float64 machine epsilon, np.finfo(float).eps


def _kl_slope(s: _LogSupport, rs: np.ndarray, log_mean: np.ndarray) -> np.ndarray:
    """``D_0(rho || w_hat) / r**2`` at the orders ``rs`` of one pass, given
    ``ln M_r`` there, as ``sum w_hat c**2 h(r c)``, ``c = ln x - ln M_r`` and
    ``h(v) = ((v - 1) e**v + 1) / v**2 >= 0``.  It cannot cancel, an error
    in ``ln M_r`` moves it only in proportion to ``r``, and at ``r = 0`` it
    is ``Var(ln x) / 2``.  ``h`` is its Taylor series where ``|v| <= 1/2``,
    and ``(rho (v - 1) + w_hat) / v**2`` at the entries where ``|v| > 1/2``,
    with the escort weight ``rho = exp(ln w_hat + v)``, which cannot
    overflow.  The terms are elementwise, so they are formed a chunk of
    ``_KL_CHUNK`` values at a time, and only the array of terms, which is
    summed whole, is as large as a pass.
    """
    terms = np.zeros((rs.size, s.log_x.size))
    buf = np.empty((rs.size, min(s.log_x.size, _KL_CHUNK)))
    for start in range(0, s.log_x.size, _KL_CHUNK):
        cols = slice(start, start + _KL_CHUNK)
        h = terms[:, cols]
        v = buf[:, : h.shape[1]]
        np.subtract(s.log_x[cols], log_mean[:, None], out=v)
        v *= rs[:, None]
        top = max(float(v.max()), -float(v.min()))
        if top > 0.5:
            big = v > 0.5
            big |= v < -0.5
            vb = v[big]
            np.clip(v, -0.5, 0.5, out=v)
        # 16 terms reach double precision at |v| = 1/2; where every v is 0, h = 1/2
        for j in range(15 if top else 0, -1, -1):
            h *= v
            h += (j + 1) / math.factorial(j + 2)
        h *= s.norm_w[cols]
        if top > 0.5:
            log_w, norm_w = (np.broadcast_to(a[cols], v.shape)[big] for a in (s.log_w, s.norm_w))
            h[big] = (np.exp(log_w + vb) * (vb - 1.0) + norm_w) / (vb * vb)
        c = np.subtract(s.log_x[cols], log_mean[:, None], out=v)
        c *= c
        h *= c
    return terms.sum(axis=1)


def _log_mean_slope(s: _LogSupport, orders: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """``(ln M_r, d ln M_r / dr)`` at every order of ``orders``, all finite;
    every value on the support must be positive and finite.

    With ``K(r) = r ln M_r = ln sum w_hat * x**r`` the log-moment, the slope
    is ``(r K' - K) / r**2``, and ``K' = E_rho[ln x]`` under the escort
    ``rho ~ w_hat * x**r`` comes from the same kernel pass as ``ln M_r``.
    That closed form ``(E_rho[ln x] - ln M_r) / r`` is kept where its
    rounding, estimated as ``eps * (|E_rho| + |ln M_r| + min(1/|r|, scale))``
    (the last term is that of ``ln(total) / r`` or of the expm1 sum) over
    ``|E_rho - ln M_r|``, is within ``_SLOPE_BUDGET``; every other order,
    ``r = 0`` included, takes :func:`_kl_slope`.  Every slope in the
    library comes from here, from one kernel call.
    """
    rs = np.array(orders, dtype=float, ndmin=1)
    log_mean, escort_mean = _log_moments(s, rs, escort=True)
    gap, size = escort_mean - log_mean, np.abs(rs)
    slope = gap / rs  # NaN where the escort is NaN, as at r = 0
    # the rounding estimate over eps, and the gap, both times |r|
    rounding = (np.abs(escort_mean) + np.abs(log_mean)) * size + np.minimum(size * s.scale, 1.0)
    redo = ~(rounding <= _SLOPE_BUDGET / _EPS * np.abs(gap * rs))
    for idx in _passes(np.flatnonzero(redo), s.log_x.size):
        slope[idx] = _kl_slope(s, rs[idx], log_mean[idx])
    return log_mean, slope


def log_power_mean(weights: ArrayLike, values: ArrayLike, r: float) -> float:
    """Natural log of the weighted power mean of order ``r``.

    This is the stable primitive behind :func:`power_mean` and everything
    built on it; it never forms ``x**r`` in the linear domain.  Conventions
    at the boundary of the domain:

    * ``r = +inf`` / ``r = -inf``: log of the max / min value on the support.
    * ``r = 0`` with a zero value on the support: ``-inf`` (mean is 0).
    * ``r = 0`` with an infinite value on the support: ``+inf``.
    * ``r = 0`` with both: raises :class:`DiscontinuityError`, because the
      two one-sided limits disagree and no value is meaningful.
    * ``r < 0`` with a zero value: ``-inf``.  ``r > 0`` with an infinite
      value: ``+inf``.  Both are the extreme rule of :func:`_log_moments`.
    * ``r > 0`` with a zero value, and ``r < 0`` with an infinite one: that
      value's ``x**r`` is 0, so its weight counts in ``W`` but it adds
      nothing to the sum.

    Dividing the log-sum-exp by ``r`` amplifies its absolute rounding error
    by ``1/r``, which would wreck orders like ``1e-9``; whenever every
    finite ``r*log(x_i)`` lies in [-1, 1] the evaluation therefore switches
    to ``log1p(sum w_i*expm1(r*log(x_i)))/r``, whose error stays bounded all
    the way into the geometric limit, unless the values whose ``x**r`` is 0
    hold more than half the mass (the lost-mass rule of
    :func:`_log_moments`).
    """
    return _LogSupport(*_as_weight_value_arrays(weights, values)).log_mean(_check_order(r))


def power_mean(weights: ArrayLike, values: ArrayLike, r: float) -> float:
    """Weighted generalized power mean ``M_r(w, x)``.

    ``r = 1`` is the arithmetic mean, ``r = 0`` the geometric, ``r = -1``
    the harmonic, and ``r = +inf`` / ``r = -inf`` the max / min over entries
    with positive weight (those two are exact, not round-tripped through
    logs).  See :func:`log_power_mean` for the edge-case conventions; at
    finite orders this is just its exponential.
    """
    return _LogSupport(*_as_weight_value_arrays(weights, values)).mean(_check_order(r))


def escort_distribution(weights: ArrayLike, values: ArrayLike, r: float) -> np.ndarray:
    """Escort distribution ``{w_k x_k^r / sum_i w_i x_i^r}``.

    Returns a full-length probability vector; positions with zero weight stay
    at exactly 0.  ``r = 0`` gives the normalized weights (the 0^0 = 1
    convention), and ``r = +inf`` / ``-inf`` the uniform distribution over
    the argmax / argmin ties of the values on the support, which is the
    pointwise limit.  So does a finite order at which ``r * e`` overflows,
    ``e`` the finite extreme ``ln x`` on ``r``'s side, as in the extreme
    rule of :func:`_log_moments`: every other value's share is below the
    doubles there.  Every other order takes the kernel's own row on the
    ``_LogSupport`` of ``(weights, values)``: the escort weights are
    ``e / total`` of :func:`_shifted_exp_rows`, bitwise.  Raises
    :class:`DivergentEscortError` when some escort weight is infinite (a
    value 0 at ``r < 0``, or ``+inf`` at ``r > 0``) and ValueError when
    they are all zero.
    """
    w, x = _as_weight_value_arrays(weights, values)
    r = _check_order(r)
    s = _LogSupport(w, x)
    out = np.zeros_like(w)
    edge = s.log_hi if r > 0 else s.log_lo
    top = r * edge
    if math.isinf(r) or math.isinf(top) and math.isfinite(edge):
        ties = x[w > 0] == (s.hi if r > 0 else s.lo)
        out[w > 0] = ties / ties.sum()
    elif r == 0.0:
        out[w > 0] = s.norm_w
    else:
        # the extreme rule of _log_moments: a row whose top is infinite
        if top == math.inf:
            raise DivergentEscortError(
                f"escort weight diverges at order {r}: "
                "a value is 0 with r < 0, or inf with r > 0"
            )
        if top == -math.inf:
            raise ValueError("all escort weights are zero")
        _, e, total = _shifted_exp_rows(s, np.array([r]))
        out[w > 0] = e[0] / total[0]
    return out


def power_mean_derivative(weights: ArrayLike, values: ArrayLike, r: float) -> float:
    """d/dr of ``M_r(w, x)`` at finite nonzero ``r``: ``M_r`` times the
    slope ``d ln M_r / dr`` of :func:`_log_mean_slope`, the one the entropy
    spectrum uses: ``D_0(escort_r(w, x) || w) / r**2``, taken from the
    escort closed form ``(ln M_0(escort_r(w, x), x) - ln M_r) / r`` where
    its rounding is small and from a sum that does not cancel elsewhere.
    Every value on the support must be positive and finite, and ``r = 0``
    is rejected.  The result is never negative (power means are
    non-decreasing in the order).
    """
    s = _LogSupport(*_as_weight_value_arrays(weights, values))
    r = _check_order(r)
    if r == 0.0 or math.isinf(r):
        raise ValueError("the escort derivative formula needs a finite nonzero order")
    if not s.finite:
        raise ValueError("values on the support must be positive and finite")
    log_mean, slope = _log_mean_slope(s, (r,))
    return float(np.exp(log_mean[0]) * slope[0])
