"""Shifted Renyi information measures on weighted power means.

The shifted order ``r`` relates to the classical Renyi order by
``alpha = r + 1``, which lines the entropy family up with the generalized
power means: ``r = 1`` arithmetic, ``r = 0`` geometric (Shannon),
``r = -1`` harmonic (Hartley), ``r = +inf`` / ``-inf`` min/max entropy.
Everything works on unnormalized mass measures as well, where the whole
spectrum is rigidly displaced by the log of the total mass.
"""

from .errors import (
    ConvergenceError,
    DiscontinuityError,
    DivergentEscortError,
    LabelMismatchError,
    SpectrumConsistencyError,
    SupportViolationError,
    TargetOutOfRangeError,
)
from .info import (
    DEFAULT_BASE,
    EntropyValue,
    entropy_derivative,
    entropy_via_escort_rewrite,
    equivalent_probability,
    information_potential,
    mass_displacement_check,
    self_information_check,
    shifted_cross_entropy,
    shifted_divergence,
    shifted_entropy,
    skew_symmetric_divergence,
    standard_divergence,
    standard_entropy,
)
from .means import (
    KNFunctionPair,
    escort_distribution,
    identity_pair,
    kn_mean,
    log_exp_pair,
    log_power_mean,
    power_mean,
    power_mean_derivative,
    power_pair,
)
from .measures import (
    Distribution,
    MassMeasure,
    aligned_weights,
    from_counts,
    normalize,
    ratio,
)
from .spectrum import (
    OrderGrid,
    SpectrumRow,
    SpectrumTable,
    invert_probability,
    recover_distribution_probe,
    sample_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DiscontinuityError",
    "DivergentEscortError",
    "LabelMismatchError",
    "SpectrumConsistencyError",
    "SupportViolationError",
    "TargetOutOfRangeError",
    "DEFAULT_BASE",
    "EntropyValue",
    "entropy_derivative",
    "entropy_via_escort_rewrite",
    "equivalent_probability",
    "information_potential",
    "mass_displacement_check",
    "self_information_check",
    "shifted_cross_entropy",
    "shifted_divergence",
    "shifted_entropy",
    "skew_symmetric_divergence",
    "standard_divergence",
    "standard_entropy",
    "KNFunctionPair",
    "escort_distribution",
    "identity_pair",
    "kn_mean",
    "log_exp_pair",
    "log_power_mean",
    "power_mean",
    "power_mean_derivative",
    "power_pair",
    "Distribution",
    "MassMeasure",
    "aligned_weights",
    "from_counts",
    "normalize",
    "ratio",
    "OrderGrid",
    "SpectrumRow",
    "SpectrumTable",
    "invert_probability",
    "recover_distribution_probe",
    "sample_spectrum",
    "__version__",
]
