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
anything else happens; values may be ``0`` or ``+inf``, weights must be
finite and non-negative with a positive, finite total; the four public
functions check this once, and the kernel behind them trusts it.

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


def _as_weight_value_arrays(weights: ArrayLike, values: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=float)
    x = np.asarray(values, dtype=float)
    if w.ndim != 1 or x.ndim != 1:
        raise ValueError("weights and values must be one-dimensional")
    if w.shape != x.shape:
        raise ValueError(f"length mismatch: {w.size} weights vs {x.size} values")
    if w.size == 0:
        raise ValueError("need at least one (weight, value) pair")
    if np.isnan(w).any() or np.isnan(x).any():
        raise ValueError("NaN entries are not allowed")
    if np.isinf(w).any():
        raise ValueError("weights must be finite")
    if (w < 0).any() or (x < 0).any():
        raise ValueError("weights and values must be non-negative")
    if not (w > 0).any():
        raise ValueError("total weight must be positive")
    with np.errstate(over="ignore"):
        if not np.isfinite(w.sum()):
            raise ValueError("total weight must be finite")
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
    :func:`_log_moments` at each order without another pass over the data,
    and ``spread`` (the largest minus the smallest finite ``ln x``) the
    branch of :func:`_log_mean_slope`.  The arrays are trusted as a
    ``MassMeasure`` or the raw-array check leaves them, and are not
    validated again.
    """

    __slots__ = ("values", "norm_w", "log_w", "log_x", "finite", "scale", "spread",
                 "_cumulants")

    def __init__(self, weights: np.ndarray, values: np.ndarray):
        mask = weights > 0
        w, x = weights[mask], values[mask]
        total = w.sum()
        self.values = x
        self.norm_w = w / total
        self.log_w = np.log(w) - math.log(total)
        with np.errstate(divide="ignore"):
            self.log_x = np.log(x)
        finite = np.isfinite(self.log_x)
        self.finite = bool(finite.all())
        logs = self.log_x if self.finite else self.log_x[finite]
        lo, hi = (float(logs.min()), float(logs.max())) if logs.size else (0.0, 0.0)
        self.scale = max(hi, -lo)
        self.spread = hi - lo
        self._cumulants = None

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

    def cumulants(self) -> tuple[float, float, float]:
        """The second to fourth cumulants of ``ln x`` under ``w_hat``,
        computed on first use and kept; every value must be finite."""
        if self._cumulants is None:
            w, log_x = self.norm_w, self.log_x
            d = log_x - float(np.sum(w * log_x))
            d2 = d * d
            k2 = float(np.sum(w * d2))
            self._cumulants = (
                k2,
                float(np.sum(w * d2 * d)),
                float(np.sum(w * d2 * d2)) - 3.0 * k2 * k2,
            )
        return self._cumulants


def _row_dots(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a @ v`` as one dot product per row: a stacked matmul, so that each
    row is bitwise what ``np.dot(row, v)`` gives, whatever rows share the
    call (a matrix-vector product may round them differently)."""
    return np.matmul(a[:, None, :], v)[:, 0]


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
    return log_mean, _row_dots(a, s.log_x) / total if escort else None


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
    series, where :func:`_log_mean_slope` never uses it.
    """
    rs = np.array(orders, dtype=float, ndmin=1)
    log_x = s.log_x
    log_mean = np.empty(rs.size)
    escort_mean = np.full(rs.size, math.nan) if escort else None
    zero, series, lse, near = [], [], [], []
    for i, r in enumerate(rs.tolist()):
        if math.isinf(r):
            log_mean[i] = log_x.max() if r > 0 else log_x.min()
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
            # with an O(r^2) truncation error that is unobservable here
            var = float(np.sum(s.norm_w * (log_x - geo) ** 2))
            log_mean[series] = geo + 0.5 * rs[series] * var
    for idx in _passes(lse, log_x.size):
        log_mean[idx], escort_here = _log_sum_exp_pass(s, rs[idx], escort)
        if escort:
            escort_mean[idx] = escort_here
    for idx in _passes(near, log_x.size):
        log_mean[idx] = _expm1_pass(s, rs[idx])
        if escort:
            escort_mean[idx] = _log_sum_exp_pass(s, rs[idx], escort=True)[1]
    return log_mean, escort_mean


# Up to this |r| * spread the slope comes from its Taylor series at r = 0,
# whose first dropped term is ~(|r| * spread)**3 / 15 relative; beyond it
# the rounding error of the closed form, which grows like
# 1e-16 / (|r| * spread), is the smaller one.
SLOPE_SERIES_RADIUS = 1e-3


def _log_mean_slope(
    s: _LogSupport, orders: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(ln M_r, d ln M_r / dr)`` at every order of ``orders``, all finite;
    every value on the support must be positive and finite.

    With ``K(r) = r ln M_r = ln sum w_hat * x**r`` the log-moment, the slope
    is ``(r K' - K) / r**2``, and ``K' = E_rho[ln x]`` under the escort
    ``rho ~ w_hat * x**r`` comes from the same kernel pass as ``ln M_r``.
    That is ``D_0(rho || w_hat) / r**2``, never negative.  The closed form
    cancels catastrophically as ``r -> 0``, so within
    ``|r| * spread <= SLOPE_SERIES_RADIUS`` its Taylor series in the
    cumulants ``k_n`` of ``ln x`` under ``w_hat`` is used instead,
    ``k_2/2 + r k_3/3 + r**2 k_4/8``, which at ``r = 0`` is the exact
    ``Var(ln x) / 2``.  One kernel call serves every order; it is asked for
    the escort unless every order is in the series band.
    Every slope in the library comes from here: the spectrum column,
    :func:`srenyi.info.entropy_derivative`, :func:`power_mean_derivative`
    and the Newton steps of spectrum inversion.
    """
    rs = np.array(orders, dtype=float, ndmin=1)
    near = np.abs(rs) * s.spread <= SLOPE_SERIES_RADIUS
    log_mean, escort_mean = _log_moments(s, rs, escort=not near.all())
    slope = np.empty(rs.size)
    if near.any():
        k2, k3, k4 = s.cumulants()
        r = rs[near]
        slope[near] = 0.5 * k2 + r * k3 / 3.0 + r * r * k4 / 8.0
    if escort_mean is not None:
        far = ~near
        far_slope = (escort_mean[far] - log_mean[far]) / rs[far]
        slope[far] = np.where(far_slope < 0.0, 0.0, far_slope)
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
    spectrum uses.  That is the escort closed form
    ``(ln M_0(escort_r(w, x), x) - ln M_r) / r``, and within
    ``|r| * (max ln x - min ln x) <= SLOPE_SERIES_RADIUS`` (defined next to
    it) its cumulant series at ``r = 0``, which does not cancel there.
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
