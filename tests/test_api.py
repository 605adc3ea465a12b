"""The public surface: the paper's objects and nothing else.

Test-only oracles (the Kolmogorov-Nagumo means and the identity routes)
live in ``tests/support.py``; this pins that they stay out of the library.
"""

import srenyi
import srenyi.info
import srenyi.means

PUBLIC = (
    "ConvergenceError",
    "DEFAULT_BASE",
    "DiscontinuityError",
    "Distribution",
    "DivergentEscortError",
    "EntropyValue",
    "LabelMismatchError",
    "MassMeasure",
    "OrderGrid",
    "SpectrumConsistencyError",
    "SpectrumRow",
    "SpectrumTable",
    "SupportViolationError",
    "TargetOutOfRangeError",
    "__version__",
    "aligned_weights",
    "entropy_derivative",
    "equivalent_probability",
    "escort_distribution",
    "from_counts",
    "information_potential",
    "invert_probability",
    "log_power_mean",
    "normalize",
    "power_mean",
    "power_mean_derivative",
    "ratio",
    "recover_distribution_probe",
    "sample_spectrum",
    "shifted_cross_entropy",
    "shifted_divergence",
    "shifted_entropy",
    "standard_divergence",
    "standard_entropy",
)

TEST_ORACLES = (
    "KNFunctionPair",
    "identity_pair",
    "log_exp_pair",
    "power_pair",
    "kn_mean",
    "entropy_via_escort_rewrite",
    "skew_symmetric_divergence",
    "self_information_check",
    "mass_displacement_check",
)


def test_all_is_the_paper_surface():
    assert sorted(srenyi.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 34
    for name in srenyi.__all__:
        assert hasattr(srenyi, name), name


def test_oracles_are_not_in_the_library():
    for module in (srenyi, srenyi.means, srenyi.info):
        for name in TEST_ORACLES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
