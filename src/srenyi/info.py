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

from .means import _check_order, _log_mean_slope, _LogSupport
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
    nat = -_LogSupport(m.weights, m.weights).log_mean(r)
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
    nat = _divergence_support(p, q).log_mean(r)
    return EntropyValue(nat / math.log(base), base, r)


def _divergence_support(p: MassMeasure, q: MassMeasure) -> _LogSupport:
    """The log-support of ``(p weights, p/q)`` on the support of ``p``, with
    the labels aligned once, so that every order of ``D_r(p || q)`` is one
    kernel call on it.

    The kernel reads the ratio only through its logs, and no log is taken
    of a ratio rounded past the doubles.  Where ``p/q`` is a normal double,
    its log is ``ln(p/q)``, which is more accurate than ``ln p - ln q``
    when ``p`` and ``q`` are close.  Elsewhere, where the ratio is 0, inf
    or subnormal, it is ``ln p - ln q``: there ``|ln(p/q)| > 708``, so the
    subtraction cannot cancel.  The exact extremes, which the +-inf orders
    read, are those of the rounded ratio.
    """
    labels, pw, qw = aligned_weights(p, q)
    x = _aligned_ratio(labels, pw, qw)
    pw, qw = pw[pw > 0], qw[pw > 0]
    odd = (x < np.finfo(float).tiny) | (x == math.inf)
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    log_x[odd] = np.log(pw[odd]) - np.log(qw[odd])
    return _LogSupport(pw, x, log_x)


def shifted_cross_entropy(
    p: MassMeasure, q: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> EntropyValue:
    """Shifted Renyi cross-entropy ``-log_b M_r(p_hat, q)``.

    ``q`` may vanish on the support of ``p``; the value is then ``+inf``
    for ``r <= 0`` (the mean collapses to 0).  For ``r > 0`` the outcomes
    where ``q`` is 0 drop out of the mean: the value is finite while ``q``
    is positive somewhere on the support of ``p``, however little of
    ``p``'s mass is there (short of orders so small that it leaves the
    doubles), and ``+inf`` where it is not.  Collapses to
    ``shifted_entropy(p, r, b)`` when ``q = p``.
    """
    base = _check_base(base)
    r = _check_order(r)
    _, pw, qw = aligned_weights(p, q)
    nat = -_LogSupport(pw, qw).log_mean(r)
    return EntropyValue(nat / math.log(base), base, r)


def standard_entropy(m: MassMeasure, alpha: float, base: float = DEFAULT_BASE) -> EntropyValue:
    """Classical-order Renyi entropy; delegates to ``shifted_entropy`` at
    ``r = alpha - 1`` and is bitwise identical to it there."""
    return shifted_entropy(m, float(alpha) - 1.0, base)


def standard_divergence(
    p: MassMeasure, q: MassMeasure, alpha: float, base: float = DEFAULT_BASE
) -> EntropyValue:
    """Classical-order Renyi divergence at ``r = alpha - 1``."""
    return shifted_divergence(p, q, float(alpha) - 1.0, base)


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
    with np.errstate(over="ignore"):
        return float(np.exp(r * _LogSupport(m.weights, m.weights).log_mean(r)))


def entropy_derivative(m: MassMeasure, r: float, base: float = DEFAULT_BASE) -> float:
    """d/dr of the entropy spectrum ``r -> H_r(m)`` at finite ``r``.

    ``H_r = -ln M_r(w_hat, w) / ln(b)``, so this is ``-slope / ln(b)`` with
    the library's one slope ``d ln M_r / dr`` (``srenyi.means``), here
    ``-(1/r**2) * D_0(escort_r || p) / ln(b)`` with the order-0 divergence
    of the self-escort, which makes the sign explicit: the spectrum never
    increases, so the result is always <= 0.  It comes from the escort
    closed form where its rounding is small, and from a sum of non-negative
    terms elsewhere, ``r = 0`` included, where it is the exact
    ``-Var_p(ln p) / (2 ln b)``.
    """
    r = _check_order(r)
    if math.isinf(r):
        raise ValueError("the spectrum derivative needs a finite order")
    ln_b = math.log(_check_base(base))
    _, slope = _log_mean_slope(_LogSupport(m.weights, m.weights), (r,))
    return 0.0 - float(slope[0]) / ln_b  # 0.0 - x, not -x: a zero slope gives +0.0
