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


def _shifted_exp_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One max-shifted exponential pass over each row of ``a``, in place:
    ``top = max`` of the row, the row is overwritten with
    ``e = exp(row - top)``, and ``total = sum(e)``.

    ``ln(sum(exp(row))) = top + ln(total)`` then holds with no term able to
    overflow, and ``e / total`` are the normalized weights ``exp(row) / sum``.
    An infinite ``top`` leaves nothing to shift: an all ``-inf`` row has
    ``total = 0``, and a row holding ``+inf`` is zeroed, which keeps
    ``top + ln(total) = +inf`` without an overflow.
    """
    top = a.max(axis=1)
    shift = top
    if not np.isfinite(top).all():
        a[top == math.inf] = 0.0
        shift = np.where(np.isinf(top), 0.0, top)
    a -= shift[:, None]
    np.exp(a, out=a)
    return top, a.sum(axis=1)


class _LogSupport:
    """Everything about one ``(weights, values)`` pair that does not depend
    on the order, computed once: the normalized weights ``w_hat`` and their
    logs, and the logs of the values, all on the positive-weight support.

    ``scale`` (the largest finite ``|ln x|``) selects the branch of
    :func:`_log_moments` at each order without another pass over the data;
    ``log_lo`` and ``log_hi`` are ``ln min x`` and ``ln max x``, the range
    of every ``ln M_r``.  The arrays are trusted as a ``MassMeasure`` or the
    raw-array check leaves them, and are not validated again.
    """

    __slots__ = ("values", "norm_w", "log_w", "log_x", "finite", "scale", "log_lo", "log_hi")

    def __init__(self, weights: np.ndarray, values: np.ndarray):
        mask = weights > 0
        w, x = weights[mask], values[mask]
        total = w.sum()
        self.values = x
        self.norm_w = w / total
        self.log_w = np.log(w) - math.log(total)
        with np.errstate(divide="ignore"):
            self.log_x = np.log(x)
        self.log_lo, self.log_hi = float(self.log_x.min()), float(self.log_x.max())
        finite = np.isfinite(self.log_x)
        self.finite = bool(finite.all())
        logs = self.log_x if self.finite else self.log_x[finite]
        self.scale = max(float(logs.max(initial=0.0)), -float(logs.min(initial=0.0)))

    def log_mean(self, r: float) -> float:
        """``ln M_r`` at one order: the one-order case of the kernel."""
        return float(_log_moments(self, (r,))[0][0])

    def mean(self, r: float) -> float:
        """``M_r``: the exact max / min value at ``r = +-inf`` (not
        round-tripped through logs), ``exp(ln M_r)`` at every other order."""
        if math.isinf(r):
            return float(self.values.max() if r > 0 else self.values.min())
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_mean(r)))


def _passes(idx: list[int], n: int) -> list[list[int]]:
    """``idx`` in chunks of at most ``_PASS_ELEMENTS`` (orders x ``n``
    values), and at least one order each."""
    k = max(1, _PASS_ELEMENTS // n)
    return [idx[i:i + k] for i in range(0, len(idx), k)]


def _log_sum_exp_pass(
    s: _LogSupport, r: np.ndarray, escort: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``ln M_r = (top + ln(total)) / r`` at the orders ``r`` from one
    shifted exponential pass over the log escort weights
    ``ln w_hat + r * ln x``, one row per order, and the escort mean from
    the same pass.  The array dies on return, before the next pass
    allocates one, which keeps large-n passes in cache."""
    a = np.multiply.outer(r, s.log_x)
    a += s.log_w
    top, total = _shifted_exp_rows(a)
    # math.log, not np.log: numpy's vectorized log may differ in the last bit
    log_mean = (top + [math.log(t) for t in total.tolist()]) / r
    # a stacked matmul, one dot product per row: each row is bitwise what
    # np.dot(row, ln x) gives, whatever rows share the call
    return log_mean, np.matmul(a[:, None, :], s.log_x)[:, 0] / total if escort else None


def _expm1_pass(s: _LogSupport, r: np.ndarray) -> np.ndarray:
    """``ln M_r`` at near-zero orders ``r``, as
    ``log1p(sum w_hat * expm1(r ln x)) / r``; expm1(-inf) = -1 and
    expm1(inf) = inf keep the zero/inf value conventions intact."""
    terms = np.multiply.outer(r, s.log_x)
    np.expm1(terms, out=terms)
    terms *= s.norm_w
    excess = terms.sum(axis=1)
    # log1p(-1) = -inf, and at a subnormal r the division can overflow
    with np.errstate(divide="ignore", over="ignore"):
        return np.log1p(np.maximum(excess, -1.0)) / r


def _log_moments(
    s: _LogSupport, orders: Sequence[float] | np.ndarray, escort: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """``ln M_r`` of a log-support at every order of ``orders`` and, when
    ``escort`` is set, the escort log mean ``E_rho[ln x]`` with
    ``rho_i ~ w_i * x_i**r``.

    This is the one kernel behind every mean, entropy and spectrum column;
    :func:`log_power_mean` documents the branches and conventions.  The
    log-sum-exp and expm1 orders are evaluated in (orders x values) passes
    of at most ``_PASS_ELEMENTS``, and every value is bitwise what a
    one-order call gives.  The escort needs every value positive and
    finite; it is NaN at ``+-inf``, at ``r = 0`` and in the subnormal
    series.
    """
    rs = np.array(orders, dtype=float, ndmin=1)
    log_x = s.log_x
    log_mean = np.empty(rs.size)
    escort_mean = np.full(rs.size, math.nan) if escort else None
    zero, series, lse, near = [], [], [], []
    for i, r in enumerate(rs.tolist()):
        if math.isinf(r):
            log_mean[i] = s.log_hi if r > 0 else s.log_lo
        elif r == 0.0:
            zero.append(i)
        elif abs(r) * s.scale > 1.0:
            lse.append(i)
        elif s.finite and abs(r) * s.scale < 1e-300:
            series.append(i)
        else:
            near.append(i)
    if zero or series:
        if zero and np.isneginf(log_x).any() and np.isposinf(log_x).any():
            raise DiscontinuityError(
                "order-0 mean is undefined: values contain both 0 and inf"
            )
        # elementwise product, not dot: BLAS is not guaranteed to propagate
        # the -inf from log(0) correctly
        geo = float(np.sum(s.norm_w * log_x))
        log_mean[zero] = geo
        if series:
            # r*log(x) underflows into subnormals, where the product itself
            # cannot be trusted; expand around the geometric mean instead,
            # with the slope at r = 0 and an O(r^2) truncation error that is
            # unobservable here
            log_mean[series] = geo + rs[series] * _kl_slope(s, np.zeros(1), np.array([geo]))[0]
    for idx in _passes(lse, log_x.size):
        log_mean[idx], escort_here = _log_sum_exp_pass(s, rs[idx], escort)
        if escort:
            escort_mean[idx] = escort_here
    for idx in _passes(near, log_x.size):
        log_mean[idx] = _expm1_pass(s, rs[idx])
        if escort:
            escort_mean[idx] = _log_sum_exp_pass(s, rs[idx], escort=True)[1]
    # a power mean lies between the extreme values, which rounding alone
    # can carry ln M_r an ulp past
    np.maximum(log_mean, s.log_lo, out=log_mean)
    np.minimum(log_mean, s.log_hi, out=log_mean)
    return log_mean, escort_mean


# The largest estimated relative rounding of a closed-form slope that is kept
_SLOPE_BUDGET = 1e-11


def _kl_slope(s: _LogSupport, rs: np.ndarray, log_mean: np.ndarray) -> np.ndarray:
    """``D_0(rho || w_hat) / r**2`` at the orders ``rs`` of one pass, given
    ``ln M_r`` there, as ``sum w_hat c**2 h(r c)``, ``c = ln x - ln M_r`` and
    ``h(v) = ((v - 1) e**v + 1) / v**2 >= 0``.  It cannot cancel, an error
    in ``ln M_r`` moves it only in proportion to ``r``, and at ``r = 0`` it
    is ``Var(ln x) / 2``.  ``h`` is its Taylor series where ``|v| <= 1/2``,
    and ``(rho (v - 1) + w_hat) / v**2`` elsewhere, with the escort weight
    ``rho = exp(ln w_hat + v)``, which cannot overflow.
    """
    c = s.log_x - log_mean[:, None]
    v = c * rs[:, None]
    top = min(float(np.abs(v).max()), 0.5)
    small = np.clip(v, -0.5, 0.5) if top == 0.5 else v
    h = np.zeros(v.shape)
    # 16 terms reach double precision at |v| = 1/2; where every v is 0, h = 1/2
    for j in range(15 if top else 0, -1, -1):
        h *= small
        h += (j + 1) / math.factorial(j + 2)
    h *= s.norm_w
    if top == 0.5:
        big = np.abs(v) > 0.5
        v = np.where(big, v, 1.0)
        h = np.where(big, (np.exp(s.log_w + v) * (v - 1.0) + s.norm_w) / (v * v), h)
    c *= c
    h *= c
    return h.sum(axis=1)


def _log_mean_slope(
    s: _LogSupport, orders: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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
    redo = ~(rounding <= _SLOPE_BUDGET / np.finfo(float).eps * np.abs(gap * rs))
    for idx in _passes(np.flatnonzero(redo).tolist(), s.log_x.size):
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
      value: ``+inf``.  Both fall out of the log-sum-exp arithmetic.

    Dividing the log-sum-exp by ``r`` amplifies its absolute rounding error
    by ``1/r``, which would wreck orders like ``1e-9``; whenever every
    ``r*log(x_i)`` lies in [-1, 1] the evaluation therefore switches to
    ``log1p(sum w_i*expm1(r*log(x_i)))/r``, whose error stays bounded all
    the way into the geometric limit.
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
    pointwise limit.  Raises :class:`DivergentEscortError` when some escort
    weight is infinite and ValueError when they are all zero.
    """
    w, x = _as_weight_value_arrays(weights, values)
    r = _check_order(r)
    mask = w > 0
    out = np.zeros_like(w)
    ws, xs = w[mask], x[mask]
    if math.isinf(r):
        extreme = xs.max() if r > 0 else xs.min()
        ties = (xs == extreme)
        out[mask] = ties.astype(float) / ties.sum()
        return out
    if r == 0.0:
        out[mask] = ws / ws.sum()
        return out
    with np.errstate(divide="ignore"):
        log_terms = np.log(ws) + r * np.log(xs)
    if np.isposinf(log_terms).any():
        raise DivergentEscortError(
            f"escort weight diverges at order {r}: "
            "a value is 0 with r < 0, or inf with r > 0"
        )
    _, total = _shifted_exp_rows(log_terms[None, :])
    if total[0] == 0.0:
        raise ValueError("all escort weights are zero")
    out[mask] = log_terms / total[0]
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
