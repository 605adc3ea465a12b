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
finite and non-negative with a positive total.

There is deliberately no epsilon snapping here: ``r = 1e-300`` is a power
mean, not a geometric mean.  Callers that want to round near-zero orders do
so at their own boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DiscontinuityError, DivergentEscortError

__all__ = [
    "KNFunctionPair",
    "power_mean",
    "log_power_mean",
    "kn_mean",
    "escort_distribution",
    "power_mean_derivative",
    "identity_pair",
    "log_exp_pair",
    "power_pair",
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
    return w, x


def _check_order(r: float) -> float:
    r = float(r)
    if math.isnan(r):
        raise ValueError("order must not be NaN")
    return r


def _positive_support(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = w > 0
    if not mask.any():
        raise ValueError("total weight must be positive")
    return w[mask], x[mask]


def _shifted_exp(a: np.ndarray) -> tuple[float, np.ndarray | None, float]:
    """One max-shifted exponential pass: ``top = max(a)``, ``e = exp(a - top)``
    and ``total = sum(e)``.

    ``ln(sum(exp(a))) = top + ln(total)`` then holds with no term able to
    overflow, and ``e / total`` are the normalized weights ``exp(a) / sum``.
    An infinite ``top`` leaves nothing to shift: ``(top, None, 1.0)`` comes
    back, which keeps ``top + ln(total) = top``.
    """
    top = float(a.max())
    if math.isinf(top):
        return top, None, 1.0
    e = np.exp(a - top)
    return top, e, float(e.sum())


def _logsumexp(a: np.ndarray) -> float:
    top, _, total = _shifted_exp(a)
    return top + math.log(total)


class _LogSupport:
    """Everything about one ``(weights, values)`` pair that does not depend
    on the order, computed once: the normalized weights ``w_hat`` and their
    logs, and the logs of the values, all on the positive-weight support.

    ``scale`` (the largest finite ``|ln x|``) selects the branch of
    :func:`_log_moments` at each order without another pass over the data.
    """

    __slots__ = ("values", "norm_w", "log_w", "log_x", "finite", "scale")

    def __init__(self, weights: ArrayLike, values: ArrayLike):
        w, x = _positive_support(*_as_weight_value_arrays(weights, values))
        total = w.sum()
        self.values = x
        self.norm_w = w / total
        self.log_w = np.log(w) - math.log(total)
        with np.errstate(divide="ignore"):
            self.log_x = np.log(x)
        finite = np.isfinite(self.log_x)
        self.finite = bool(finite.all())
        self.scale = float(np.abs(self.log_x[finite]).max()) if finite.any() else 0.0

    def mean(self, r: float) -> float:
        """``M_r``: the exact max / min value at ``r = +-inf`` (not
        round-tripped through logs), ``exp(ln M_r)`` at every other order."""
        if math.isinf(r):
            return float(self.values.max() if r > 0 else self.values.min())
        with np.errstate(over="ignore"):
            return float(np.exp(_log_moments(self, r)[0]))


def _log_moments(s: _LogSupport, r: float, escort: bool = False) -> tuple[float, float | None]:
    """``ln M_r`` of a log-support and, when ``escort`` is set, the escort
    log mean ``E_rho[ln x]`` with ``rho_i ~ w_i * x_i**r``.

    This is the one kernel behind every mean, entropy and spectrum column;
    :func:`log_power_mean` documents the branches and conventions.  The
    escort mean reuses the exponential pass of the log-sum-exp branch; it
    needs every value positive and finite and is None when not asked for.
    """
    log_x = s.log_x
    if math.isinf(r):
        return float(log_x.max() if r > 0 else log_x.min()), None
    if r == 0.0:
        if np.isneginf(log_x).any() and np.isposinf(log_x).any():
            raise DiscontinuityError(
                "order-0 mean is undefined: values contain both 0 and inf"
            )
        # elementwise product, not dot: BLAS is not guaranteed to propagate
        # the -inf from log(0) correctly
        geo = float(np.sum(s.norm_w * log_x))
        return geo, geo if escort else None
    scaled = r * log_x
    if abs(r) * s.scale > 1.0:
        top, e, total = _shifted_exp(s.log_w + scaled)
        log_mean = (top + math.log(total)) / r
        return log_mean, float(np.dot(e, log_x)) / total if escort else None
    if s.finite and abs(r) * s.scale < 1e-300:
        # r*log(x) underflows into subnormals, where the product itself
        # cannot be trusted; expand around the geometric mean instead, with
        # an O(r^2) truncation error that is unobservable in this regime
        geo = float(np.sum(s.norm_w * log_x))
        var = float(np.sum(s.norm_w * (log_x - geo) ** 2))
        return geo + 0.5 * r * var, geo + r * var if escort else None
    # near-zero-order regime; expm1(-inf) = -1 and expm1(inf) = inf keep the
    # zero/inf value conventions intact
    excess = float(np.sum(s.norm_w * np.expm1(scaled)))
    with np.errstate(divide="ignore"):
        log_mean = float(np.log1p(max(excess, -1.0)) / r)
    if not escort:
        return log_mean, None
    _, e, total = _shifted_exp(s.log_w + scaled)
    return log_mean, float(np.dot(e, log_x)) / total


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
    s = _LogSupport(weights, values)
    return _log_moments(s, _check_order(r))[0]


def power_mean(weights: ArrayLike, values: ArrayLike, r: float) -> float:
    """Weighted generalized power mean ``M_r(w, x)``.

    ``r = 1`` is the arithmetic mean, ``r = 0`` the geometric, ``r = -1``
    the harmonic, and ``r = +inf`` / ``r = -inf`` the max / min over entries
    with positive weight (those two are exact, not round-tripped through
    logs).  See :func:`log_power_mean` for the edge-case conventions; at
    finite orders this is just its exponential.
    """
    return _LogSupport(weights, values).mean(_check_order(r))


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

    def check_inverse(self, probe_values: ArrayLike, rtol: float = 1e-9) -> None:
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
    if r == 0.0 or math.isinf(r) or math.isnan(r):
        raise ValueError("power_pair needs a finite nonzero exponent")

    def _fwd(v: float) -> float:
        with np.errstate(divide="ignore"):
            return float(np.power(v, r))

    def _inv(v: float) -> float:
        with np.errstate(divide="ignore"):
            return float(np.power(v, 1.0 / r))

    return KNFunctionPair(_fwd, _inv, (0.0, math.inf))


def kn_mean(weights: ArrayLike, values: ArrayLike, pair: KNFunctionPair) -> float:
    """Quasi-arithmetic mean of ``values`` under the function ``pair``.

    With ``pair = power_pair(r)`` this agrees with ``power_mean(w, x, r)``;
    it exists as an independent, naive-summation route and for means outside
    the power family.  Not log-stabilized on purpose.
    """
    w, x = _as_weight_value_arrays(weights, values)
    w, x = _positive_support(w, x)
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
    if not mask.any():
        raise ValueError("total weight must be positive")
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
    _, e, total = _shifted_exp(log_terms)
    if e is None:
        raise ValueError("all escort weights are zero")
    out[mask] = e / total
    return out


def power_mean_derivative(weights: ArrayLike, values: ArrayLike, r: float) -> float:
    """d/dr of ``M_r(w, x)`` at finite nonzero ``r``.

    Uses the escort identity

        M_r'(r) = (1/r) * M_r * ( ln M_0(escort_r(w, x), x) - ln M_r )

    with natural logs, where the escort geometric mean comes from the same
    kernel pass as ``M_r``.  Every value on the support must be positive
    and finite; take a finite difference if you need the derivative at
    ``r = 0``.  The result is always >= 0 up to roundoff (power means are
    non-decreasing in the order).
    """
    s = _LogSupport(weights, values)
    r = _check_order(r)
    if r == 0.0 or math.isinf(r):
        raise ValueError("the escort derivative formula needs a finite nonzero order")
    if not s.finite:
        raise ValueError("values on the support must be positive and finite")
    log_m_r, log_m_0 = _log_moments(s, r, escort=True)
    return float(np.exp(log_m_r) * (log_m_0 - log_m_r) / r)
