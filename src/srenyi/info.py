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

from .errors import SupportViolationError
from .means import (
    _check_order,
    _log_moments,
    _logsumexp,
    _LogSupport,
    log_power_mean,
    power_mean,
)
from .measures import MassMeasure, _aligned_ratio, aligned_weights, normalize, total_mass

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
    "entropy_via_escort_rewrite",
    "skew_symmetric_divergence",
    "self_information_check",
    "mass_displacement_check",
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
    if math.isnan(base) or not base > 1.0:
        raise ValueError(f"log base must be a real number > 1, got {base!r}")
    return base


def shifted_entropy(m: MassMeasure, r: float, base: float = DEFAULT_BASE) -> EntropyValue:
    """Shifted Renyi entropy ``-log_b M_r(w_hat, w)`` of a mass measure."""
    base = _check_base(base)
    r = _check_order(r)
    nat = -log_power_mean(m.weights, m.weights, r)
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
    labels, pw, qw = aligned_weights(p, q)
    rat = _aligned_ratio(labels, pw, qw)
    nat = log_power_mean(pw[pw > 0], rat, r)
    return EntropyValue(nat / math.log(base), base, r)


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
    mask = pw > 0
    nat = -log_power_mean(pw[mask], qw[mask], r)
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
    r = _check_order(r)
    return power_mean(m.weights, m.weights, r)


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
        return float(np.exp(r * log_power_mean(m.weights, m.weights, r)))


def _support_log_probs(m: MassMeasure) -> np.ndarray:
    p = normalize(m).weights
    return np.log(p[p > 0])


def _escort_decomposition(m: MassMeasure, r: float) -> tuple[float, float, float]:
    """Order-0 divergence / cross-entropy / entropy (all in nats) of the
    order-``r`` self-escort of ``normalize(m)`` against it.

    Returns ``(kl, cross, ent)`` where, with ``rho`` the escort,
    ``kl = sum rho*ln(rho/p)``, ``cross = -sum rho*ln p``,
    ``ent = -sum rho*ln rho``.  Computed in the log domain so that extreme
    orders (|r| ~ 50) do not underflow.
    """
    ln_p = _support_log_probs(m)
    log_t = (1.0 + r) * ln_p
    log_rho = log_t - _logsumexp(log_t)
    rho = np.exp(log_rho)
    live = rho > 0
    with np.errstate(invalid="ignore"):
        kl = float(np.where(live, rho * (log_rho - ln_p), 0.0).sum())
        ent = -float(np.where(live, rho * log_rho, 0.0).sum())
    cross = -float(np.sum(rho * ln_p))
    return kl, cross, ent


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
            values = self.support.values
            return entropy, float(values.max() if r > 0 else values.min()), None, None
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


def entropy_via_escort_rewrite(
    m: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> tuple[EntropyValue, EntropyValue]:
    """The entropy at finite nonzero ``r`` recomputed two independent ways
    from Shannon-type quantities of the order-``r`` self-escort ``rho``:

        route 1:  (1/r) * D_0(rho || p)  +  X_0(rho, p)
        route 2:  -(1/r) * H_0(rho)  +  ((r+1)/r) * X_0(rho, p)

    both displaced by ``-log_b(total mass)`` so they equal
    ``shifted_entropy(m, r, base)`` for unnormalized measures too.
    Returns the two routes as EntropyValues.
    """
    base = _check_base(base)
    r = _check_order(r)
    if r == 0.0 or math.isinf(r):
        raise ValueError("the escort rewrites need a finite nonzero order")
    kl, cross, ent = _escort_decomposition(m, r)
    route1 = kl / r + cross
    route2 = -ent / r + (r + 1.0) / r * cross
    shift = math.log(total_mass(m))
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
    base = _check_base(base)
    r = _check_order(r)
    if r == 0.0:
        raise ValueError("the skew identity is undefined at order 0")
    if math.isinf(r):
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
    base = _check_base(base)
    r = _check_order(r)
    squared = MassMeasure(p.labels, p.weights * p.weights)
    lhs = shifted_entropy(p, r, base)
    rhs = shifted_divergence(p, squared, -r, base)
    return lhs, EntropyValue(rhs.value, base, r)


def mass_displacement_check(
    m: MassMeasure, r: float, base: float = DEFAULT_BASE
) -> tuple[EntropyValue, EntropyValue]:
    """Entropy of a mass measure vs entropy of its normalization displaced
    by the log total mass.

    Returns ``(H_r(m), H_r(normalize(m)) - log_b(total))``; the displacement
    is the same at every order, which is the point of the construction.
    """
    base = _check_base(base)
    r = _check_order(r)
    lhs = shifted_entropy(m, r, base)
    displaced = shifted_entropy(normalize(m), r, base).value - math.log(
        total_mass(m)
    ) / math.log(base)
    return lhs, EntropyValue(displaced, base, r)
