"""Power means: named special cases, edge conventions, calculus, and the
algebraic properties that make them means."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import srenyi
from srenyi import (
    DiscontinuityError,
    DivergentEscortError,
    OrderGrid,
    escort_distribution,
    log_power_mean,
    power_mean,
    power_mean_derivative,
)
from srenyi.cli import main
from srenyi.means import _log_mean_slope, _log_moments, _LogSupport

from support import (
    UCB_COUNTS,
    KNFunctionPair,
    direct_power_mean,
    identity_pair,
    kn_mean,
    log_exp_pair,
    power_pair,
    random_distribution,
    reference_log_mean_slope,
    reference_log_moments,
)

INF = math.inf


class TestNamedMeans:
    def test_arithmetic(self):
        assert power_mean([1, 1, 1], [1, 2, 3], 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_geometric(self):
        assert power_mean([1, 1], [1, 4], 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_harmonic(self):
        assert power_mean([1, 1], [2, 6], -1.0) == pytest.approx(3.0, rel=1e-15)

    def test_max_and_min(self):
        w, x = [5, 1, 2], [0.1, 0.9, 0.4]
        assert power_mean(w, x, INF) == 0.9
        assert power_mean(w, x, -INF) == 0.1

    def test_weighted_arithmetic(self):
        assert power_mean([1, 3], [2, 6], 1.0) == pytest.approx(5.0, rel=1e-15)

    def test_fractional_order_against_direct_sum(self):
        # both expected values were worked out independently with 60-digit
        # arithmetic and frozen here
        got = power_mean([1.0, 2.0, 3.0], [0.2, 0.5, 0.3], 2.7)
        assert_allclose(got, 0.37899802133997244, rtol=1e-12)
        got2 = power_mean([0.2, 0.5, 0.3], [1.0, 2.0, 3.0], 2.7)
        assert_allclose(got2, 2.2817050311306447, rtol=1e-12)
        assert_allclose(got2, direct_power_mean([0.2, 0.5, 0.3], [1, 2, 3], 2.7), rtol=1e-12)

    def test_zero_weight_entries_are_ignored(self):
        assert power_mean([0, 1], [100.0, 2.0], INF) == 2.0
        assert power_mean([0, 1, 1], [0.0, 2.0, 8.0], 0.0) == pytest.approx(4.0, rel=1e-15)


class TestEdgeConventions:
    """Zero and infinite values at the boundary orders."""

    def test_negative_order_with_zero_value_gives_zero(self):
        assert power_mean([1, 1], [0.0, 5.0], -1.0) == 0.0
        assert power_mean([1, 1], [0.0, 5.0], -0.5) == 0.0

    def test_positive_order_with_infinite_value_gives_inf(self):
        assert power_mean([1, 1], [INF, 5.0], 1.0) == INF
        assert power_mean([1, 1], [INF, 5.0], 0.5) == INF

    def test_zero_order_with_zero_value_gives_zero(self):
        assert power_mean([1, 1], [0.0, 5.0], 0.0) == 0.0

    def test_zero_order_with_infinite_value_gives_inf(self):
        assert power_mean([1, 1], [INF, 5.0], 0.0) == INF

    def test_zero_order_mixing_zero_and_inf_is_rejected(self):
        with pytest.raises(DiscontinuityError):
            power_mean([1, 1, 1], [0.0, 1.0, INF], 0.0)

    def test_positive_order_with_zero_value_is_finite(self):
        assert power_mean([1, 1], [0.0, 2.0], 2.0) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("r", [1e-310, -1e-310])
    def test_subnormal_order_with_zero_value_does_not_warn(self, r):
        # at r = 1e-310, log1p(excess) / r overflows to the right answer, -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_power_mean([0.5, 0.5], [0.0, 2.0], r) == -INF

    def test_extremes_ignore_zero_and_inf_interplay(self):
        assert power_mean([1, 1, 1], [0.0, 1.0, INF], INF) == INF
        assert power_mean([1, 1, 1], [0.0, 1.0, INF], -INF) == 0.0


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 2 weights vs 3 values"):
            power_mean([1, 2], [1, 2, 3], 1.0)
        with pytest.raises(ValueError, match="weights must be one-dimensional"):
            power_mean([[1, 2]], [1, 2], 1.0)
        with pytest.raises(ValueError, match="values must be one-dimensional"):
            power_mean([1, 2], [[1, 2]], 1.0)

    def test_empty(self):
        with pytest.raises(ValueError, match="measure must have at least one outcome"):
            power_mean([], [], 1.0)

    def test_all_zero_weights(self):
        with pytest.raises(ValueError, match="at least one weight must be positive"):
            power_mean([0, 0], [1, 2], 1.0)

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="weights must be non-negative"):
            power_mean([1, -1], [1, 2], 1.0)

    def test_negative_value(self):
        with pytest.raises(ValueError, match="values must be non-negative"):
            power_mean([1, 1], [1, -2], 1.0)

    def test_nan(self):
        with pytest.raises(ValueError, match="values must not be NaN"):
            power_mean([1, 1], [1, math.nan], 1.0)
        with pytest.raises(ValueError, match="order must not be NaN"):
            power_mean([1, 1], [1, 2], math.nan)

    def test_infinite_weight(self):
        with pytest.raises(ValueError, match="weights must be finite"):
            power_mean([1, INF], [1, 2], 1.0)

    @pytest.mark.parametrize("r", [0.0, 1.0, -1.0])
    def test_overflowing_total(self, r):
        # each weight is finite, but their sum is not: normalizing by it
        # would silently turn every mean into 1.0
        w, x = [1e308, 1e308], [1.0, 2.0]
        for f in (log_power_mean, power_mean, escort_distribution):
            with pytest.raises(ValueError, match="total weight must be finite"):
                f(w, x, r)
        with pytest.raises(ValueError, match="total weight must be finite"):
            power_mean_derivative(w, x, 1.0)
        # the same two equal weights, scaled down, give the true means
        assert power_mean([1e307, 1e307], x, r) == pytest.approx(
            {0.0: math.sqrt(2.0), 1.0: 1.5, -1.0: 4.0 / 3.0}[r], rel=1e-15
        )


class TestRawArrayCheckRunsOnlyAtTheBoundary:
    """The raw-array check and the weight rules behind it run once per call
    of a raw-array function or construction of a measure, and never behind
    a function that takes an already validated measure."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        check = srenyi.means._as_weight_value_arrays

        def counting(weights, values):
            calls.append(len(weights))
            return check(weights, values)

        monkeypatch.setattr(srenyi.means, "_as_weight_value_arrays", counting)
        return calls

    @pytest.fixture
    def weight_checks(self, monkeypatch):
        calls = []
        check = srenyi.means._check_weights

        def counting(weights):
            calls.append(len(weights))
            return check(weights)

        for module in (srenyi.means, srenyi.measures):
            monkeypatch.setattr(module, "_check_weights", counting)
        return calls

    MEASURE_FUNCTIONS = {
        "shifted_entropy": lambda p, q: srenyi.shifted_entropy(p, 0.5),
        "shifted_divergence": lambda p, q: srenyi.shifted_divergence(p, q, 0.5),
        "shifted_cross_entropy": lambda p, q: srenyi.shifted_cross_entropy(p, q, 0.5),
        "equivalent_probability": lambda p, q: srenyi.equivalent_probability(p, 0.5),
        "information_potential": lambda p, q: srenyi.information_potential(p, 0.5),
        "entropy_derivative": lambda p, q: srenyi.entropy_derivative(p, 0.5),
        "sample_spectrum": lambda p, q: srenyi.sample_spectrum(p, srenyi.OrderGrid.default()),
        "invert_probability": lambda p, q: srenyi.invert_probability(p, 0.2),
        "recover_distribution_probe": lambda p, q: srenyi.recover_distribution_probe(p),
    }

    @pytest.mark.parametrize("name", sorted(MEASURE_FUNCTIONS))
    def test_measure_functions_never_check(self, calls, weight_checks, name, ucb_counts):
        q = srenyi.from_counts(ucb_counts.labels[::-1], (1, 2, 3, 4, 5, 6))
        assert weight_checks[-1:] == [6]  # building q checked its weights
        weight_checks.clear()
        self.MEASURE_FUNCTIONS[name](ucb_counts, q)
        assert calls == []
        assert weight_checks == []

    def test_divergence_command_never_checks(self, calls, weight_checks, capsys, tmp_path):
        p, q = tmp_path / "p.csv", tmp_path / "q.csv"
        p.write_text("a,1\nb,2\nc,0\n")
        q.write_text("c,1\nb,1\na,3\n")
        assert main(["divergence", str(p), str(q)]) == 0
        assert capsys.readouterr().out
        assert calls == []
        assert weight_checks == [3, 3]  # once per file read, nowhere after

    def test_log_power_mean_checks_once(self, calls, weight_checks):
        log_power_mean([1.0, 2.0, 0.0], [0.5, 0.25, 0.25], 0.5)
        assert calls == [3]
        assert weight_checks == [3]


class TestOneMessagePerWeightRule:
    """A measure, counts and the raw-array means obey one statement of the
    weight rules, so each bad weight vector draws the same message from
    all three (from counts only where the vector is integral)."""

    BAD_WEIGHTS = {
        "nan": ([1.0, math.nan], "weights must not be NaN"),
        "inf": ([1.0, INF], "weights must be finite"),
        "-inf": ([1.0, -INF], "weights must be finite"),
        "negative": ([1.0, -2.0], "weights must be non-negative"),
        "all zero": ([0.0, 0.0], "at least one weight must be positive"),
        "overflowing total": ([1e308, 1e308], "total weight must be finite"),
        "2-D": ([[1.0, 2.0]], "weights must be one-dimensional"),
        "empty": ([], "measure must have at least one outcome"),
    }

    @pytest.mark.parametrize("name", list(BAD_WEIGHTS))
    def test_same_message_everywhere(self, name):
        weights, message = self.BAD_WEIGHTS[name]
        w = np.array(weights, dtype=float)
        labels = tuple(f"x{i}" for i in range(w.size))
        raisers = [
            lambda: srenyi.MassMeasure(labels, w),
            lambda: power_mean(w, np.ones(w.shape), 1.0),
        ]
        if (w == np.floor(w)).all():
            raisers.append(lambda: srenyi.from_counts(labels, w))
        for raiser in raisers:
            with pytest.raises(ValueError) as exc:
                raiser()
            assert str(exc.value) == message


class TestLogDomainStability:
    """The log-domain route must survive where the direct sum does not."""

    def test_agreement_on_benign_inputs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0.1, 1.0, n)
            x = rng.uniform(0.2, 5.0, n)
            r = float(rng.uniform(-4, 4))
            assert_allclose(
                power_mean(w, x, r), direct_power_mean(w, x, r), rtol=1e-10
            )

    def test_extreme_order_on_tiny_values(self):
        w = np.ones(4)
        x = np.array([1e-12, 1e-9, 1e-6, 1e-3])
        for r in (50.0, -50.0):
            got = power_mean(w, x, r)
            assert math.isfinite(got) and got > 0
            assert x.min() <= got <= x.max()
        # x**-50 overflows to inf, so the naive route collapses to 0.0,
        # three hundred orders of magnitude below the true harmonic-ish value
        assert direct_power_mean(w, x, -50.0) == 0.0
        # and with every value below 1e-9, x**50 underflows instead
        tiny = np.array([1e-12, 1e-11, 1e-10, 1e-9])
        assert direct_power_mean(w, tiny, 50.0) == 0.0
        got = power_mean(w, tiny, 50.0)
        assert tiny.min() <= got <= tiny.max()

    def test_log_power_mean_is_log_of_power_mean(self, rng):
        w = rng.uniform(0.1, 1, 5)
        x = rng.uniform(0.5, 2, 5)
        for r in (-3.0, 0.0, 0.7, 2.0):
            assert_allclose(
                log_power_mean(w, x, r), math.log(power_mean(w, x, r)), atol=1e-12
            )


@st.composite
def weights_and_values(draw, max_size=8, value_low=0.05, value_high=20.0):
    n = draw(st.integers(min_value=1, max_value=max_size))
    w = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=n,
            max_size=n,
        )
    )
    x = draw(
        st.lists(
            st.floats(min_value=value_low, max_value=value_high),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(w), np.array(x)


class TestMeanProperties:
    @given(weights_and_values(), st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_min_and_max(self, wx, r):
        w, x = wx
        m = power_mean(w, x, r)
        assert x.min() - 1e-12 <= m <= x.max() + 1e-12

    @given(weights_and_values(), st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_reflexivity(self, wx, c):
        """A constant vector has every mean equal to the constant."""
        w, _ = wx
        x = np.full_like(w, c)
        for r in (-INF, -2.0, 0.0, 1.0, 3.0, INF):
            assert_allclose(power_mean(w, x, r), c, rtol=1e-12)

    @given(weights_and_values(), st.floats(min_value=-5.0, max_value=5.0), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, wx, r, pyrandom):
        w, x = wx
        idx = list(range(len(w)))
        pyrandom.shuffle(idx)
        assert_allclose(
            power_mean(w[idx], x[idx], r), power_mean(w, x, r), rtol=1e-12
        )

    @given(
        weights_and_values(),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_homogeneity(self, wx, r, weight_scale, value_scale):
        """Scaling weights is invisible; scaling values scales the mean."""
        w, x = wx
        base = power_mean(w, x, r)
        assert_allclose(
            power_mean(weight_scale * w, value_scale * x, r),
            value_scale * base,
            rtol=1e-10,
        )

    def test_monotone_in_order(self, rng):
        """M_r is non-decreasing in r, strictly when the values differ."""
        for _ in range(40):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0.1, 1, n)
            x = rng.uniform(0.2, 5, n)
            orders = np.sort(rng.uniform(-6, 6, 7))
            means = [power_mean(w, x, r) for r in [-INF, *orders, INF]]
            diffs = np.diff(means)
            assert (diffs >= -1e-12).all()
        # strict growth on a definitely-non-constant vector, modest orders
        w = np.array([1.0, 1.0, 1.0])
        x = np.array([1.0, 2.0, 4.0])
        means = [power_mean(w, x, r) for r in np.linspace(-4, 4, 9)]
        assert (np.diff(means) > 0).all()

    def test_order_factorization(self, rng):
        """M_{rs}(w, x) ** r == M_s(w, x**r) ** 1 — the composition law."""
        for _ in range(60):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0.1, 1, n)
            x = rng.uniform(0.3, 3, n)
            r = float(rng.uniform(0.2, 2.5) * rng.choice([-1, 1]))
            s = float(rng.uniform(0.2, 2.5) * rng.choice([-1, 1]))
            lhs = power_mean(w, x, r * s)
            rhs = power_mean(w, x**r, s) ** (1.0 / r)
            assert_allclose(lhs, rhs, rtol=1e-10)


class TestKNMeans:
    def test_identity_pair_is_arithmetic(self):
        assert kn_mean([1, 3], [2, 6], identity_pair()) == pytest.approx(5.0)

    def test_log_pair_is_geometric(self):
        assert kn_mean([1, 1], [1, 4], log_exp_pair()) == pytest.approx(2.0)
        assert kn_mean([1, 1], [0.0, 4.0], log_exp_pair()) == 0.0

    def test_cube_pair(self):
        got = kn_mean([1, 1, 1], [1, 1, 2], power_pair(3.0))
        assert_allclose(got, 1.4938015821857216, rtol=1e-12)  # (10/3)**(1/3)

    def test_matches_power_mean_across_orders(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0.1, 1, n)
            x = rng.uniform(0.2, 5, n)
            for r in (-2.0, -1.0, 0.5, 1.0, 2.0, 3.0):
                assert_allclose(
                    kn_mean(w, x, power_pair(r)), power_mean(w, x, r), rtol=1e-9
                )

    def test_domain_enforcement(self):
        pair = power_pair(2.0)
        narrowed = KNFunctionPair(pair.forward, pair.inverse, (0.0, 1.0))
        with pytest.raises(ValueError, match="domain"):
            kn_mean([1, 1], [0.5, 2.0], narrowed)

    def test_check_inverse_catches_a_lie(self):
        bad = KNFunctionPair(lambda v: v**2, lambda v: v, (0.0, math.inf))
        with pytest.raises(ValueError):
            bad.check_inverse([0.5, 2.0, 3.0])
        power_pair(2.0).check_inverse([0.5, 1.0, 2.0, 10.0])

    def test_power_pair_rejects_degenerate_exponents(self):
        for bad in (0.0, INF, -INF, math.nan):
            with pytest.raises(ValueError):
                power_pair(bad)


class TestEscort:
    def test_order_zero_is_normalization(self):
        out = escort_distribution([2, 1, 1], [5, 1, 9], 0.0)
        assert_allclose(out, [0.5, 0.25, 0.25], rtol=1e-15)

    def test_self_escort_order_one(self):
        # p^2 weights renormalized: (25, 9, 4)/38
        out = escort_distribution([0.5, 0.3, 0.2], [0.5, 0.3, 0.2], 1.0)
        assert_allclose(out, np.array([25, 9, 4]) / 38, rtol=1e-14)

    def test_infinite_orders_concentrate_on_ties(self):
        w = [1, 1, 1, 1]
        x = [3.0, 7.0, 7.0, 1.0]
        assert_allclose(escort_distribution(w, x, INF), [0, 0.5, 0.5, 0])
        assert_allclose(escort_distribution(w, x, -INF), [0, 0, 0, 1.0])

    def test_zero_weight_positions_stay_zero(self, rng):
        w = np.array([0.0, 1.0, 2.0])
        x = np.array([9.0, 1.0, 2.0])
        for r in (-INF, -1.0, 0.0, 2.0, INF):
            out = escort_distribution(w, x, r)
            assert out[0] == 0.0
            assert_allclose(out.sum(), 1.0, rtol=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.05, 1, n)
            x = rng.uniform(0.05, 5, n)
            r = float(rng.uniform(-30, 30))
            assert_allclose(escort_distribution(w, x, r).sum(), 1.0, atol=1e-12)

    def test_divergent_escort(self):
        with pytest.raises(DivergentEscortError):
            escort_distribution([1, 1], [0.0, 2.0], -1.0)
        with pytest.raises(DivergentEscortError):
            escort_distribution([1, 1], [INF, 2.0], 1.0)

    def test_all_zero_escort(self):
        with pytest.raises(ValueError):
            escort_distribution([1, 1], [0.0, 0.0], 1.0)


class TestMeanDerivative:
    def test_constant_values_have_flat_spectrum(self):
        assert power_mean_derivative([1, 2, 3], [4, 4, 4], 1.5) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_against_central_difference(self, rng):
        h = 1e-6
        for _ in range(40):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0.1, 1, n)
            x = rng.uniform(0.2, 5, n)
            r = float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))
            fd = (power_mean(w, x, r + h) - power_mean(w, x, r - h)) / (2 * h)
            assert_allclose(power_mean_derivative(w, x, r), fd, rtol=1e-5, atol=1e-10)

    def test_never_negative(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0.1, 1, n)
            x = rng.uniform(0.2, 5, n)
            r = float(rng.uniform(0.1, 6.0) * rng.choice([-1, 1]))
            assert power_mean_derivative(w, x, r) >= -1e-12

    def test_rejects_zero_and_infinite_order(self):
        with pytest.raises(ValueError, match="needs a finite nonzero order"):
            power_mean_derivative([1, 1], [1, 2], 0.0)
        with pytest.raises(ValueError, match="needs a finite nonzero order"):
            power_mean_derivative([1, 1], [1, 2], INF)

    def test_rejects_zero_or_infinite_values(self):
        with pytest.raises(ValueError, match="values on the support must be positive and finite"):
            power_mean_derivative([1, 1], [0.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="values on the support must be positive and finite"):
            power_mean_derivative([1, 1], [INF, 2.0], 1.0)


class TestSlopeAgainstDecimalOracle:
    """``power_mean_derivative`` and ``entropy_derivative`` share one slope
    ``d ln M_r / dr``; both match a 50-digit ``decimal`` reference to 1e-9
    relative, through the r -> 0 seam and at ordinary orders."""

    SEAM = [s * 10.0**k for k in range(-15, -1) for s in (1.0, -1.0)]
    ORDINARY = [-3.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0]

    @staticmethod
    def mean_supports(rng):
        yield (1.0, 2.0, 3.0), (0.5, 2.0, 7.0)
        yield UCB_COUNTS, UCB_COUNTS
        for _ in range(4):
            n = int(rng.integers(2, 9))
            yield rng.uniform(0.1, 1.0, n), rng.uniform(0.2, 5.0, n)

    def test_power_mean_derivative(self, rng):
        for w, x in self.mean_supports(rng):
            for r in self.SEAM + self.ORDINARY:
                log_mean, slope = reference_log_mean_slope(w, x, r)
                want = math.exp(log_mean) * slope
                assert_allclose(power_mean_derivative(w, x, r), want, rtol=1e-9, atol=0)

    def test_entropy_derivative(self, rng, ucb_counts):
        measures = [ucb_counts] + [random_distribution(rng) for _ in range(4)]
        for m in measures:
            for r in self.SEAM + self.ORDINARY + [0.0]:
                want = -reference_log_mean_slope(m.weights, m.weights, r)[1] / math.log(2.0)
                assert_allclose(srenyi.entropy_derivative(m, r), want, rtol=1e-9, atol=0)

    def test_tiny_mass_outlier(self):
        # the probabilities, not the raw weights: ln p ~ -6.9 on the 1000
        # equal entries is what the two logs of the closed form share
        w = np.array([1.0] * 1000 + [1e-12])
        p = w / w.sum()
        log_mean, slope = reference_log_mean_slope(p, p, 1e-3)
        want = math.exp(log_mean) * slope
        assert_allclose(power_mean_derivative(p, p, 1e-3), want, rtol=1e-9, atol=0)

    @staticmethod
    def sweep_supports(rng):
        """``(name, weights, values, oracle weights, oracle values)``: the
        oracle gets each run of equal entries as one entry of their summed
        weight, which has the same means and slopes at a fraction of the
        cost."""
        for n in (2, 30, 1000):
            for outlier in (1e-8, 1e-12):
                w = np.array([1.0] * (n - 1) + [outlier])
                p = w / w.sum()
                yield f"{n - 1} ones + {outlier}", p, p, (n - 1.0, outlier), (p[0], p[-1])
        counts = np.array([1000.0, 1000.0, 1.0])
        yield "counts", counts, counts, counts, counts
        raw = np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12])  # criterion 10
        p = raw / raw.sum()
        yield "criterion 10", p, p, p, p
        for i in range(16):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.01, 1.0, n)
            x = np.exp(rng.uniform(-1.0, 1.0, n) * rng.uniform(0.0, 350.0))
            yield f"random {i}", w, x, w, x

    def test_sweep(self):
        """One slope call over the default grid and +-10**k, k = -15..-2,
        on tiny-mass outliers, counts, criterion 10's measure and random
        spreads up to 700 in ``ln x``."""
        orders = OrderGrid.default().finite_orders + tuple(self.SEAM)
        for name, w, x, oracle_w, oracle_x in self.sweep_supports(np.random.default_rng(15)):
            slope = _log_mean_slope(_LogSupport(w, x), orders)[1]
            want = [reference_log_mean_slope(oracle_w, oracle_x, r)[1] for r in orders]
            assert_allclose(slope, want, rtol=1e-9, atol=0, err_msg=name)


def _bits(values):
    """Floats (or None) as exact hex strings, so -0.0 and NaN compare too."""
    return [None if v is None else float(v).hex() for v in values]


class TestKernelIsTheOutOfPlaceFormula:
    """The in-place kernel is bitwise the textbook out-of-place formulas,
    on every branch: +-inf, geometric, subnormal series, expm1 and
    log-sum-exp, including the +-1e-300 orders and the +-50 grid ends.  The
    escort is compared wherever the reference gives one: on the expm1 and
    log-sum-exp branches."""

    ORDERS = (
        -INF, -50.0, -7.5, -1.0, -0.3, -1e-3, -1e-9, -1e-300, -1e-310,
        0.0, 1e-310, 1e-300, 1e-9, 1e-3, 0.3, 1.0, 7.5, 50.0, INF,
    )

    @staticmethod
    def supports(rng):
        for n in (1, 2, 7, 1000):
            w = rng.uniform(0.0, 1.0, n)
            w[rng.random(n) < 0.2] = 0.0
            w[0] = 1.0
            yield w, np.exp(rng.uniform(-30.0, 30.0, n))  # log-sum-exp mostly
            yield w, 1.0 + rng.uniform(0.0, 1e-3, n)  # expm1 up to |r| = 50
            yield w * 1e-300, rng.uniform(0.0, 1.0, n)  # tiny weights

    @staticmethod
    def one_order(support, r, escort=False):
        log_mean, escort_mean = _log_moments(support, (r,), escort)
        return log_mean[0], None if escort_mean is None else escort_mean[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_supports(self, seed):
        rng = np.random.default_rng(seed)
        for w, x in self.supports(rng):
            support = _LogSupport(w, x)
            for r in self.ORDERS:
                assert _bits(self.one_order(support, r)) == _bits(
                    reference_log_moments(w, x, r)
                ), (w.size, r)
                want = reference_log_moments(w, x, r, escort=True)
                if want[1] is not None:
                    got = self.one_order(support, r, escort=True)
                    assert _bits(got) == _bits(want), (w.size, r)

    def test_zero_and_infinite_values(self):
        w = np.array([0.5, 0.25, 0.25, 0.0])
        for x in ([0.0, 0.5, 2.0, 3.0], [np.inf, 0.5, 2.0, 0.0]):
            support = _LogSupport(w, np.asarray(x))
            for r in self.ORDERS:
                if r == 0.0:
                    continue
                # log1p(-1) / 1e-310 overflows to -inf on both routes
                with np.errstate(over="ignore"):
                    got, want = self.one_order(support, r), reference_log_moments(w, x, r)
                assert _bits(got) == _bits(want), (x, r)

    def test_log_mean_stays_between_extreme_values(self):
        """``min ln x <= ln M_r <= max ln x`` at every default-grid order,
        however the kernel rounds: on 2000 random supports of 1-5 points
        spread over the doubles, and on one-point supports at their ends."""
        rng = np.random.default_rng(14)
        orders = OrderGrid.default().orders()
        supports = [
            (np.ones(1), np.array([x]))
            for x in (np.finfo(float).max, np.finfo(float).tiny, 5e-324)
        ]
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            w = rng.uniform(0.0, 1.0, n)
            w[0] = 1.0
            supports.append((w, np.exp(rng.uniform(-700.0, 700.0, n))))
        for w, x in supports:
            log_mean = _log_moments(_LogSupport(w, x), orders)[0]
            log_x = np.log(x)
            outside = (log_mean < log_x.min()) | (log_mean > log_x.max())
            assert not outside.any(), (x, np.asarray(orders)[outside])

    @pytest.mark.parametrize("n", [6, 200, 10**5])
    def test_many_orders_per_call(self, n):
        """One call over the whole default grid gives every ``ln M_r`` and
        every escort bitwise as one-order calls do."""
        rng = np.random.default_rng(n)
        p = rng.random(n)
        p /= p.sum()
        support = _LogSupport(p, p)
        orders = OrderGrid.default().orders()
        log_mean, escort_mean = _log_moments(support, orders, escort=True)
        singles = [self.one_order(support, r, escort=True) for r in orders]
        assert _bits(log_mean) == _bits([lm for lm, _ in singles])
        assert _bits(escort_mean) == _bits([em for _, em in singles])

    def test_escort_distribution(self, rng):
        w = rng.uniform(0.0, 1.0, 500)
        x = np.exp(rng.uniform(-30.0, 30.0, 500))
        for r in self.ORDERS:
            if r == 0.0 or math.isinf(r):
                continue
            a = np.log(w) + r * np.log(x)
            e = np.exp(a - a.max())
            assert escort_distribution(w, x, r).tobytes() == (e / e.sum()).tobytes()
