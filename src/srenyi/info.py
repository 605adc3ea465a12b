"""Entropy, divergence and cross-entropy of the shifted Renyi family.

Everything is parameterized by the *shifted* order ``r``; the classical
order is ``alpha = r + 1`` and the ``standard_*`` functions accept it
directly.  With ``M_r`` the weighted power mean from :mod:`srenyi.means`
and ``p_hat`` the normalized weights of a measure ``p``:

    entropy        H_r(p)      = -log_b M_r(p_hat, p)
    divergence     D_r(p || q) =  log_b M_r(p_hat, p/q)
    cross-entropy  X_r(p, q)   = -log_b M_r(p_hat, q)

``r = 0`` recovers the Shannon quantities, ``r = 1`` the collision-style
ones (arithmetic mean), ``r = -1`` the max-entropy / Hartley end, and
``r = +inf`` / ``-inf`` the min-entropy / max-entropy extremes.  Weights do
not need to sum to one anywhere: normalization happens inside the mean, and
entropy of an unnormalized measure differs from that of its normalization by
exactly ``-log_b(total mass)`` at every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .means import _check_order, _log_moments, _LogSupport
from .measures import MassMeasure, _aligned_ratio, aligned_weights

__all__ = [
    "EntropyValue",
    "DEFAULT_BASE",
    "shifted_entropy",
    "shifted_divergence",
    "shifted_cross_entropy",
    "standard_entropy",
    "standard_divergence",
    "equivalent_probability",
    "information_potential",
    "entropy_derivative",
]

DEFAULT_BASE = 2.0


@dataclass(frozen=True)
class EntropyValue:
    """A logarithmic information value together with its base and order.

    ``order`` is always the shifted order ``r``.  Use ``float(v)`` or
    ``v.value`` for the bare number.
    """

    value: float
    base: float
    order: float

    def __float__(self) -> float:
        return self.value


def _check_base(base: float) -> float:
    base = float(base)
    if not 1.0 < base < math.inf:
        raise ValueError(f"log base must be a real number > 1, got {base!r}")
    return base


def shifted_entropy(m: MassMeasure, r: float, base: float = DEFAULT_BASE) -> EntropyValue:
    """Shifted Renyi entropy ``-log_b M_r(w_hat, w)`` of a mass measure."""
    base = _check_base(base)
    r = _check_order(r)
    nat = -_log_moments(_LogSupport(m.weights, m.weights), r)[0]
    return EntropyValue(nat / math.log(base), base, r)


def shifted_divergence(
    p: MassMeasure, q: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> EntropyValue:
    """Shifted Renyi divergence ``log_b M_r(p_hat, p/q)``.

    ``p`` and ``q`` must carry the same label set and ``q`` must be positive
    wherever ``p`` is (absolute continuity); otherwise
    :class:`SupportViolationError` names the offending labels.
    """
    base = _check_base(base)
    r = _check_order(r)
    nat = _log_moments(_divergence_support(p, q), r)[0]
    return EntropyValue(nat / math.log(base), base, r)


def _divergence_support(p: MassMeasure, q: MassMeasure) -> _LogSupport:
    """The log-support of ``(p weights, p/q)`` on the support of ``p``, with
    the labels aligned once, so that every order of ``D_r(p || q)`` is one
    kernel call on it."""
    labels, pw, qw = aligned_weights(p, q)
    return _LogSupport(pw[pw > 0], _aligned_ratio(labels, pw, qw))


def shifted_cross_entropy(
    p: MassMeasure, q: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> EntropyValue:
    """Shifted Renyi cross-entropy ``-log_b M_r(p_hat, q)``.

    ``q`` may vanish on the support of ``p``; the value is then ``+inf``
    for ``r <= 0`` (the mean collapses to 0) and finite for ``r > 0``.
    Collapses to ``shifted_entropy(p, r, b)`` when ``q = p``.
    """
    base = _check_base(base)
    r = _check_order(r)
    _, pw, qw = aligned_weights(p, q)
    nat = -_log_moments(_LogSupport(pw, qw), r)[0]
    return EntropyValue(nat / math.log(base), base, r)


def standard_entropy(m: MassMeasure, alpha: float, base: float = DEFAULT_BASE) -> EntropyValue:
    """Classical-order Renyi entropy; delegates to ``shifted_entropy`` at
    ``r = alpha - 1`` and is bitwise identical to it there."""
    return shifted_entropy(m, _check_order(alpha) - 1.0, base)


def standard_divergence(
    p: MassMeasure, q: MassMeasure, alpha: float, base: float = DEFAULT_BASE
) -> EntropyValue:
    """Classical-order Renyi divergence at ``r = alpha - 1``."""
    return shifted_divergence(p, q, _check_order(alpha) - 1.0, base)


def equivalent_probability(m: MassMeasure, r: float) -> float:
    """The probability ``pi_r = M_r(w_hat, w)`` whose negative log is the
    entropy: ``pi_r = b**(-H_r)`` in any base.

    Base independent, non-decreasing in ``r``, and squeezed between the
    smallest and largest normalized weight; the two bounds are attained at
    ``r = -inf`` and ``r = +inf``.
    """
    return _LogSupport(m.weights, m.weights).mean(_check_order(r))


def information_potential(m: MassMeasure, r: float) -> float:
    """Moment ``V_r = sum_i w_hat_i * w_i**r = pi_r ** r`` at finite order.

    Equals ``b**(-r * H_r(m))`` for every base; exactly 1 at ``r = 0``.
    """
    r = _check_order(r)
    if math.isinf(r):
        raise ValueError("the information potential needs a finite order")
    if r == 0.0:
        return 1.0
    with np.errstate(over="ignore"):
        return float(np.exp(r * _log_moments(_LogSupport(m.weights, m.weights), r)[0]))


# Up to this |r| * (max ln p - min ln p) the slope comes from its Taylor
# series at r = 0, whose first dropped term is ~(|r| * spread)**3 / 15
# relative; beyond it the rounding error of the closed form, which grows
# like 1e-16 / (|r| * spread), is the smaller one.
SLOPE_SERIES_RADIUS = 1e-3


class _SelfSpectrum:
    """Every column of a spectrum row of one measure ``m``, at any order,
    from one kernel pass over its log-support, which is computed once.

    With ``w_hat`` the normalized weights, all four columns at order ``r``
    are views of the log-moment ``K(r) = ln sum w_hat * w**r``, which for a
    distribution is ``ln sum p**(1+r)``: the entropy is ``-K / (r ln b)``,
    the equivalent probability ``exp(K / r)``, the potential ``exp(K)``,
    and the slope ``-(r K' - K) / (r**2 ln b)`` needs only
    ``K' = E_rho[ln w]`` under the self-escort ``rho ~ w_hat * w**r``,
    which comes from the same exponential pass.  The first three are
    bitwise the values of the scalar functions.
    """

    def __init__(self, m: MassMeasure, base: float):
        self.base = _check_base(base)
        self.ln_b = math.log(self.base)
        self.support = _LogSupport(m.weights, m.weights)
        w, log_x = self.support.norm_w, self.support.log_x
        self.spread = float(log_x.max() - log_x.min())
        # second to fourth cumulants of ln w (equivalently ln p_hat) under w_hat
        d = log_x - float(np.sum(w * log_x))
        d2 = d * d
        k2 = float(np.sum(w * d2))
        self.cumulants = (
            k2,
            float(np.sum(w * d2 * d)),
            float(np.sum(w * d2 * d2)) - 3.0 * k2 * k2,
        )

    def row(self, r: float) -> tuple[EntropyValue, float, float | None, float | None]:
        """``(entropy, equiv_prob, potential, slope)`` at order ``r``; the
        last two are None at ``r = +-inf``."""
        series = abs(r) * self.spread <= SLOPE_SERIES_RADIUS
        log_mean, escort_mean = _log_moments(
            self.support, r, escort=math.isfinite(r) and not series
        )
        entropy = EntropyValue(-log_mean / self.ln_b, self.base, r)
        if math.isinf(r):
            return entropy, self.support.mean(r), None, None
        with np.errstate(over="ignore"):
            prob = float(np.exp(log_mean))
            potential = 1.0 if r == 0.0 else float(np.exp(r * log_mean))
        if series:
            # (r K' - K) / r**2 = k2/2 + r k3/3 + r**2 k4/8 + O(r**3)
            k2, k3, k4 = self.cumulants
            kl_over_r2 = 0.5 * k2 + r * k3 / 3.0 + r * r * k4 / 8.0
        else:
            # (r K' - K) / r**2 = D_0(rho || w_hat) / r**2, never negative
            kl_over_r2 = max((escort_mean - log_mean) / r, 0.0)
        slope = -kl_over_r2 / self.ln_b
        return entropy, prob, potential, slope if slope < 0.0 else 0.0


def entropy_derivative(m: MassMeasure, r: float, base: float = DEFAULT_BASE) -> float:
    """d/dr of the entropy spectrum ``r -> H_r(m)`` at finite ``r``.

    Away from ``r = 0`` this is the closed form

        H_r'(r) = -(1/r**2) * D_0(escort_r || p) / ln(b)

    with the order-0 divergence of the self-escort, which makes the sign
    explicit: the spectrum never increases, so the result is always <= 0.
    The closed form cancels catastrophically as ``r -> 0``, so within
    ``|r| * (max ln p - min ln p) <= SLOPE_SERIES_RADIUS`` its Taylor series
    in the cumulants ``k_n`` of ``ln p`` under ``p`` is used instead,

        H_r'(r) = -(k_2/2 + r k_3/3 + r**2 k_4/8) / ln(b),

    which at ``r = 0`` is the exact ``-Var_p(ln p) / (2 ln b)``.
    """
    r = _check_order(r)
    if math.isinf(r):
        raise ValueError("the spectrum derivative needs a finite order")
    return _SelfSpectrum(m, base).row(r)[3]
