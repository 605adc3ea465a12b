"""Power means: named special cases, edge conventions, calculus, and the
algebraic properties that make them means."""

import math
import tracemalloc
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
from srenyi.means import (
    _expm1_rows,
    _log_mean_slope,
    _log_moments,
    _LogSupport,
    _order_rule,
    _shifted_exp_rows,
)

from support import (
    DROPPED_MASS_ORDERS,
    SEAM_SEEDS,
    UCB_COUNTS,
    KNFunctionPair,
    direct_power_mean,
    dropped_mass_bound,
    dropped_mass_supports,
    identity_pair,
    kn_mean,
    log_exp_pair,
    near_flat_weights,
    power_pair,
    random_distribution,
    reference_branch,
    reference_escort,
    reference_escort_log_mean,
    reference_log_mean,
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

    @pytest.mark.parametrize("r", [-INF, -1.0, -1e-9, -1e-310, 0.0, 1e-310, 1e-9, 1.0, INF])
    @pytest.mark.parametrize("value", [0.0, INF])
    def test_all_zero_or_all_infinite_values(self, value, r):
        """A support all at 0 or all at ``+inf`` has that mean at every
        order class, with no warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert power_mean([0.5, 0.25, 0.25], [value] * 3, r) == value
            assert log_power_mean([0.5, 0.25, 0.25], [value] * 3, r) == (INF if value else -INF)

    @pytest.mark.parametrize("r", [-1.0, -1e-9, -1e-310, 1e-310, 1e-9, 1.0])
    @pytest.mark.parametrize("value", [0.0, INF])
    def test_all_zero_or_all_infinite_escort(self, value, r):
        """Every ``x**r`` of such a support is infinite (0 at ``r < 0``,
        ``+inf`` at ``r > 0``) or every one is 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if (value == INF) == (r > 0):
                with pytest.raises(DivergentEscortError):
                    escort_distribution([1, 1], [value, value], r)
            else:
                with pytest.raises(ValueError, match="all escort weights are zero"):
                    escort_distribution([1, 1], [value, value], r)


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

    @pytest.mark.parametrize(
        "x, r, expected",
        [
            ([1e-300, 1e300], 1e306, [0.0, 1.0]),
            ([1e-300, 1e300], -1e306, [1.0, 0.0]),
            ([0.01], 1e308, [1.0]),
        ],
    )
    def test_overflowing_order_concentrates_on_ties(self, x, r, expected):
        """Where ``r * ln x`` at the extreme value overflows, the escort is
        the limit at ``r = +-inf``, as ``log_power_mean`` there is the
        extreme value, not a divergent or an all-zero escort."""
        w = [1.0] * len(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert escort_distribution(w, x, r).tolist() == expected
            assert log_power_mean(w, x, r) == math.log(max(x) if r > 0 else min(x))

    @pytest.mark.parametrize("r", [-2e305, 2e305])
    def test_row_overflow_gives_the_ties_limit(self, r):
        """Where ``r ln x`` is finite but a self-support's row entry
        ``(1 + r)(ln w_hat - ln w_hat_ext)`` overflows, the escort is the
        ties limit, with no warning, as ``log_power_mean`` gives the
        extreme there; for the weights and for a copy of them."""
        w = np.array([1e-300, 1e300])
        expected = [0.0, 1.0] if r > 0 else [1.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in (w, w.copy()):
                assert escort_distribution(w, values, r).tolist() == expected

    def test_self_escort_at_minus_one_is_uniform(self, rng):
        """At ``r = -1`` the self-escort ``p_hat**(1 + r)`` is flat, and the
        self-support's rows are exactly 0 there: the escort is bitwise
        ``1/n`` on weights spread over 1e+-300."""
        for n in (1, 2, 7, 200, 5000):
            w = 10.0 ** rng.uniform(-300.0, 300.0, n)
            assert escort_distribution(w, w, -1.0).tobytes() == np.full(n, 1.0 / n).tobytes()

    @pytest.mark.parametrize("r", [-1.7e308, 1.7e308])
    def test_self_support_rows_do_not_overflow(self, r):
        """Near 1, ``r ln x`` stays finite at orders where ``(1 + r) ln w_hat``
        would overflow, so a self-support's row is formed from differences
        of ``ln w_hat``: its mean and escort match the general path's, with
        no warning."""
        w = np.array([1.0, 1.0, 1.0 + 1e-7])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_power_mean(w, w, r) == log_power_mean(w, w.copy(), r)
            assert escort_distribution(w, w, r).tolist() == escort_distribution(w, w.copy(), r).tolist()

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="all escort weights are zero"):
                escort_distribution([1, 1], [INF, INF], -1.0)


class TestEscortAgainstDecimalOracle:
    """``escort_distribution`` against a decimal evaluation, on self and
    general supports spread over 1e+-200, within relative bounds per
    positive weight fixed before any result was seen (``u = 2**-53``):

    * ``16 u`` where every ``|r ln x| <= 1``, the expm1 rows;
    * elsewhere ``u (16 + 8 m)``, ``m = (1 + |r|)(max|ln x| + max|ln w_hat|)``:
      an escort weight is the exponential of a log weight whose absolute
      rounding is a few ``u`` times the largest magnitude in its row.

    A weight below the normal range is held to the same bound times the
    smallest normal double, absolutely."""

    NEAR = (-1e-300, 1e-300, -1e-9, 1e-9, -1e-5, 1e-5)
    U = 2.0**-53

    @staticmethod
    def supports(rng):
        for _ in range(6):
            n = int(rng.integers(2, 16))
            w = 10.0 ** rng.uniform(-200.0, 200.0, n)
            yield w, w
            yield 10.0 ** rng.uniform(-200.0, 200.0, n), 10.0 ** rng.uniform(-200.0, 200.0, n)

    def test_near_and_default_grid_orders(self):
        tiny = np.finfo(float).tiny
        misses, near = [], 0
        for w, x in self.supports(np.random.default_rng(30)):
            support = _LogSupport(w, x)
            width = float(np.abs(support.log_x).max()) + float(np.abs(support.log_w).max())
            half = 0.5 / support.scale
            grid = [r for r in OrderGrid.default().orders() if math.isfinite(r)]
            for r in self.NEAR + (-half, half) + tuple(grid):
                if abs(r) * support.scale <= 1.0:
                    near += 1
                    bound = 16.0 * self.U
                else:
                    bound = self.U * (16.0 + 8.0 * (1.0 + abs(r)) * width)
                got = escort_distribution(w, x, r).tolist()
                for k, want in enumerate(reference_escort(w, x, r, digits=40)):
                    if not abs(got[k] - want) <= bound * max(want, tiny):
                        misses.append((w is x, w.size, r, k, (got[k] - want) / max(want, tiny) / self.U))
        assert near >= 12 * len(self.NEAR)
        assert not misses


class TestSelfSupportIsToldByItsValues:
    """``(p, p)``, ``(p, p.copy())`` and two equal lists are one
    self-support: every public mean function gives the same bits for the
    three at every default-grid order."""

    def test_default_grid(self):
        p = np.random.default_rng(3).random(50)
        for r in OrderGrid.default().orders():
            for f in (log_power_mean, power_mean, escort_distribution, power_mean_derivative):
                if f is power_mean_derivative and (r == 0.0 or math.isinf(r)):
                    continue
                own, copy, lists = (
                    np.asarray(f(a, b, r)).tobytes()
                    for a, b in ((p, p), (p, p.copy()), (p.tolist(), p.tolist()))
                )
                assert own == copy == lists, (f.__name__, r)


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


class TestLogMeanAgainstDecimalOracle:
    """``ln M_r`` of the kernel against the decimal oracle on 67
    self-supports whose total is far from 1, at orders from +-50 down to
    +-1e-5, within an absolute bound fixed before any result was seen:
    ``1e-13 + 4 eps |ln M_r|`` nats."""

    # the orders near r = -1, where c = 1 + r is small, are where the row
    # form of a self-support differs most from the general one
    ORDERS = tuple(sign * a for a in (50.0, 7.5, 1.0, 0.1, 0.01, 1e-5) for sign in (-1.0, 1.0)) + (
        -2.0, -1.0 - 1e-3, -1.0 + 1e-3, -0.5,
    )

    @staticmethod
    def supports(rng):
        def n():
            return int(rng.integers(2, 41))

        for _ in range(14):  # near-flat at a random magnitude
            yield 10.0 ** rng.uniform(-300.0, 300.0) * (1.0 + 1e-12 * rng.random(n()))
        for _ in range(14):
            yield rng.integers(1, 10**6, n()).astype(float)  # counts
        for centre in (-280.0, 280.0):  # spread over 1e12 far from 1
            for _ in range(7):
                yield 10.0 ** (centre + rng.uniform(-6.0, 6.0, n()))
        for _ in range(14):
            yield 10.0 ** rng.uniform(-150.0, 150.0, n())  # log-uniform
        for _ in range(7):  # over 620 decades, so w_hat can be subnormal
            yield 10.0 ** rng.uniform(-320.0, 300.0, n())
        for seed in SEAM_SEEDS:
            yield near_flat_weights(seed)

    def test_unnormalized_supports(self):
        eps = np.finfo(float).eps
        misses = []
        for w in self.supports(np.random.default_rng(0)):
            got = _log_moments(_LogSupport(w, w), self.ORDERS)[0].tolist()
            for r, log_mean in zip(self.ORDERS, got):
                want = reference_log_mean_slope(w, w, r, digits=30)[0]
                if not abs(log_mean - want) <= 1e-13 + 4.0 * eps * abs(want):
                    misses.append((w.size, r, log_mean - want))
        assert not misses

    def test_self_support_agrees_with_the_general_path(self):
        """A self-support is told by its values, so a copy of the weights
        builds one too; clearing its ``peaks`` sends it through the general
        max-shifted rows.  The two agree within the bound above at every
        default-grid order."""
        eps = np.finfo(float).eps
        orders = OrderGrid.default().orders()
        misses = []
        for w in self.supports(np.random.default_rng(0)):
            own, general = _LogSupport(w, w), _LogSupport(w, w.copy())
            assert own.peaks is not None and general.peaks == own.peaks
            general.peaks = None
            got = _log_moments(own, orders)[0]
            want = _log_moments(general, orders)[0]
            for r, a, b in zip(orders, got.tolist(), want.tolist()):
                if not (a == b or abs(a - b) <= 1e-13 + 4.0 * eps * abs(b)):
                    misses.append((w.size, r, a - b))
        assert not misses


class TestDroppedMassAgainstDecimalOracle:
    """``log_power_mean`` where a value at 0 or ``+inf`` carries all but
    1e-12, 1e-15 or 1e-17 of the mass, or 0.4 or 0.6 of it, against the
    decimal definition at every default-grid order and at +-1e-9 and
    +-1e-300, within the bound of ``dropped_mass_bound``; an infinite
    ``ln M_r`` must be exact.  On such supports a sum of ``x**r - 1`` over
    every value, with 1 added back, cancels the mass that survives (3e-3
    relative where 1e-15 of it survives, ``+inf`` for a finite value at
    1e-17), which the lost-mass rule of the kernel avoids."""

    def test_log_power_mean(self):
        misses = []
        for w, x in dropped_mass_supports(np.random.default_rng(28)):
            for r in DROPPED_MASS_ORDERS:
                got, want = log_power_mean(w, x, r), reference_log_mean(w, x, r)
                if not (got == want or abs(got - want) <= dropped_mass_bound(x, want)):
                    misses.append((w[1:].sum(), x.tolist(), r, got, want))
        assert not misses


class TestDecimalSlopeOracleAcrossTheDoubles:
    """The decimal slope oracle itself, on self-supports whose weights
    spread over 1e+-300: every slope is ``>= 0`` (power means do not
    decrease in the order), and doubling the digits does not move it."""

    ORDERS = (-50.0, -7.5, -1.0, -0.1, -0.01, 0.01, 0.1, 1.0, 7.5, 50.0)

    def test_wide_supports(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            w = 10.0 ** rng.uniform(-300.0, 300.0, int(rng.integers(3, 12)))
            for r in self.ORDERS:
                slope = reference_log_mean_slope(w, w, r, digits=30)[1]
                assert slope >= 0.0, (w.size, r, slope)
                again = reference_log_mean_slope(w, w, r, digits=60)[1]
                assert_allclose(again, slope, rtol=1e-14, atol=0, err_msg=f"{w.size} {r}")


class TestEscortMeanAgainstDecimalOracle:
    """The kernel's escort log mean ``E_rho[ln x]`` on the expm1 and
    log-sum-exp branches, on the supports of
    :class:`TestLogMeanAgainstDecimalOracle`, against a decimal evaluation,
    within an absolute bound fixed before any result was seen:
    ``4 eps max|ln x|`` nats."""

    ORDERS = TestLogMeanAgainstDecimalOracle.ORDERS + (-1e-3, 1e-3)

    def misses(self, near):
        """``(n, r, error)`` of every miss on one branch, and the number of
        escort means checked there."""
        eps = np.finfo(float).eps
        misses, checked = [], 0
        for w in TestLogMeanAgainstDecimalOracle.supports(np.random.default_rng(0)):
            support = _LogSupport(w, w)
            orders = [r for r in self.ORDERS if (abs(r) * support.scale <= 1.0) == near]
            if not orders:
                continue
            got = _log_moments(support, orders, escort=True)[1].tolist()
            for r, escort_mean in zip(orders, got):
                checked += 1
                want = reference_escort_log_mean(w, w, r)
                if not abs(escort_mean - want) <= 4.0 * eps * support.scale:
                    misses.append((w.size, r, escort_mean - want))
        return misses, checked

    def test_expm1_branch(self):
        misses, checked = self.misses(near=True)
        assert not misses
        assert checked >= 300

    def test_log_sum_exp_branch(self):
        assert not self.misses(near=False)[0]


def test_expm1_orders_take_one_pass(monkeypatch):
    """Slopes at expm1-branch orders take their escort means from the
    expm1 rows themselves: one pass for the whole grid, no log-sum-exp
    rows."""
    calls = {"_shifted_exp_rows": 0, "_expm1_rows": 0}
    for name in calls:
        def counted(*args, _name=name, _pass=getattr(srenyi.means, name), **kwargs):
            calls[_name] += 1
            return _pass(*args, **kwargs)

        monkeypatch.setattr(srenyi.means, name, counted)
    p = np.random.default_rng(19).random(200)
    support = _LogSupport(p, p)
    orders = np.array([s * 10.0**k for k in range(-15, -1) for s in (1.0, -1.0)])
    assert (np.abs(orders) * support.scale <= 1.0).all()
    _log_mean_slope(support, orders)
    assert calls == {"_shifted_exp_rows": 0, "_expm1_rows": 1}


def test_support_without_zero_weights_is_not_copied():
    """A support whose weights are all positive is taken without the masked
    copies, and its extremes and logs are bitwise those of the same support
    taken through the zero-weight mask: on weights over 620 decades, some
    of which the scale shift would carry out of the normal range."""
    rng = np.random.default_rng(23)
    w = 10.0 ** rng.uniform(-320.0, 300.0, 500)
    x = np.exp(rng.uniform(-30.0, 30.0, 500))
    lean = _LogSupport(w, x)
    masked = _LogSupport(np.append(w, 0.0), np.append(x, 1.0))
    assert _bits([lean.lo, lean.hi]) == _bits([masked.lo, masked.hi])
    for name in ("norm_w", "log_w", "log_x"):
        assert _bits(getattr(lean, name)) == _bits(getattr(masked, name)), name


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
        # 2 * 10**4 values take the escort dot products past BLAS
        for n in (1, 2, 7, 1000, 2 * 10**4):
            w = rng.uniform(0.0, 1.0, n)
            w[rng.random(n) < 0.2] = 0.0
            w[0] = 1.0
            yield w, np.exp(rng.uniform(-30.0, 30.0, n))  # log-sum-exp mostly
            yield w, 1.0 + rng.uniform(0.0, 1e-3, n)  # expm1 up to |r| = 50
            yield w * 1e-300, rng.uniform(0.0, 1.0, n)  # tiny weights
            # a self-support over 620 decades, whose smallest weights the
            # scale shift would carry out of the normal range
            spread = w * 10.0 ** rng.uniform(-320.0, 300.0, n)
            yield spread, spread

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
        """Where the 0 or inf values hold half the mass, the near-zero orders
        at which they drop out take the expm1 route; where they hold three
        quarters, the log-sum-exp route."""
        for share in (0.5, 0.75):
            w = np.array([share, (1.0 - share) / 2, (1.0 - share) / 2, 0.0])
            for x in ([0.0, 0.5, 2.0, 3.0], [np.inf, 0.5, 2.0, 0.0]):
                support = _LogSupport(w, np.asarray(x))
                for r in self.ORDERS:
                    if r == 0.0:
                        continue
                    got, want = self.one_order(support, r), reference_log_moments(w, x, r)
                    assert _bits(got) == _bits(want), (share, x, r)

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

    def test_orders_spanning_passes(self):
        """At n = 200 a pass holds 327 orders.  One call over 400
        log-sum-exp and 400 expm1 orders in random order, mixed with +-inf,
        0 and the subnormal series orders +-1e-310, spans several passes of
        each branch, and still gives every ``ln M_r`` and every escort
        bitwise as one-order calls do.  A self-support builds the rows on
        each side of ``c = 1 + r = 0`` from one ``d = ln w_hat - ln
        w_hat_ext`` by one einsum, so the seam is in the call too:
        ``r = -1`` (every entry 0) and its two neighbours.  Below the seam,
        ``c * d`` is ``-0.0`` at the tied least weights, where einsum gives
        ``+0.0`` and a one-order call ``-0.0``; both ``exp`` to 1."""
        n = 200
        assert srenyi.means._PASS_ELEMENTS // n == 327
        rng = np.random.default_rng(16)
        p = rng.random(n)
        p[1:3], p[3:5] = p.min(), p.max()  # tied extremes
        p /= p.sum()
        support = _LogSupport(p, p)
        signs = rng.choice([-1.0, 1.0], 800)
        lse = rng.uniform(0.2, 50.0, 400)
        near = 10.0 ** rng.uniform(-15.0, -2.5, 400)
        assert (lse * support.scale > 1.0).all()
        assert (near * support.scale <= 1.0).all() and (near * support.scale >= 1e-300).all()
        seam = [-1.0, math.nextafter(-1.0, -INF), math.nextafter(-1.0, INF), -1.5, -2.0]
        special = [-INF, INF, 0.0, -1e-310, 1e-310, *seam]
        orders = np.concatenate((signs * np.concatenate((lse, near)), special))
        rng.shuffle(orders)
        log_mean, escort_mean = _log_moments(support, orders, escort=True)
        singles = [self.one_order(support, r, escort=True) for r in orders.tolist()]
        assert _bits(log_mean) == _bits([lm for lm, _ in singles])
        assert _bits(escort_mean) == _bits([em for _, em in singles])

    @staticmethod
    def textbook_escort(support, r):
        """The escort row of a finite support at a finite nonzero order by
        the textbook formula of the order's branch:
        ``(w_hat + w_hat * expm1(r ln x)) / (1 + sum(w_hat * expm1(r ln x)))``
        where every ``|r ln x| <= 1``, and the max-shifted exponential of
        ``ln w_hat + r ln x`` over its sum elsewhere."""
        w_hat, log_x = support.norm_w, support.log_x
        if abs(r) * support.scale <= 1.0:
            terms = w_hat * np.expm1(r * log_x)
            return (w_hat + terms) / (1.0 + terms.sum())
        a = support.log_w + r * log_x
        e = np.exp(a - a.max())
        return e / e.sum()

    def test_escort_distribution(self, rng):
        """The escort is the textbook row of the order's branch, bitwise: the
        expm1 row near order 0 and the max-shifted row elsewhere."""
        w = rng.uniform(0.0, 1.0, 500)
        x = np.exp(rng.uniform(-30.0, 30.0, 500))
        support = _LogSupport(w, x)
        branches = set()
        for r in self.ORDERS:
            if r == 0.0 or math.isinf(r):
                continue
            branches.add(abs(r) * support.scale <= 1.0)
            want = self.textbook_escort(support, r)
            assert escort_distribution(w, x, r).tobytes() == want.tobytes(), r
        assert branches == {False, True}

    def test_escort_distribution_is_the_kernel_row(self, rng):
        """Where the weight is positive, ``escort_distribution`` is bitwise
        ``rows / total`` of the kernel's own row function for the order's
        branch, ``_expm1_rows`` where every ``|r ln x| <= 1`` and
        ``_shifted_exp_rows`` elsewhere, on supports of every scale; zero
        weights stay exactly 0."""
        for w, x in self.supports(rng):
            support = _LogSupport(w, x)
            for r in self.ORDERS:
                if r == 0.0 or math.isinf(r):
                    continue
                near = abs(r) * support.scale <= 1.0
                _, rho, total = (_expm1_rows if near else _shifted_exp_rows)(support, np.array([r]))
                got = escort_distribution(w, x, r)
                assert got[w > 0].tobytes() == (rho[0] / total[0]).tobytes(), (w.size, r)
                assert not got[w == 0].any()

    def test_self_support_rows_need_grouped_orders(self):
        """A self-support's rows come one side of ``1 + r = 0`` at a time,
        so ``_shifted_exp_rows`` takes its orders with every ``1 + r <= 0``
        first, as the order rule lists them, and raises on any other
        arrangement rather than build a row from the wrong extreme."""
        p = np.array([0.1, 0.2, 0.3, 0.4])
        support = _LogSupport(p, p)
        with np.errstate(over="ignore"):
            _shifted_exp_rows(support, np.array([-3.0, -1.0, -0.5, 2.0]))
            with pytest.raises(ValueError, match="first"):
                _shifted_exp_rows(support, np.array([-3.0, 2.0, -1.0]))


def _rule_orders(scale):
    """Orders at every edge of the order rule: signed zeros and
    infinities, the largest doubles and +-1e300, where ``r * e`` starts to
    overflow, the subnormals and the series bound, the seam ``r = -1`` of a
    self-support's rows, and ``1 / scale``, where the log-sum-exp branch
    starts; each with its two neighbours, and with either sign."""
    edges = [1e300, 1.7e308, float(np.finfo(float).max), 5e-324, 2.0**-1022, 1e-300, 1.0]
    if scale > 0.0:
        edges += [1.0 / scale, 1e-300 / scale]
    near = [math.nextafter(v, to) for v in edges for to in (0.0, INF)]
    magnitudes = [0.0, INF, *edges, *near]
    return [m for v in magnitudes for m in (v, -v)]


@st.composite
def rule_supports(draw):
    """``(weights, values)`` of 1-6 points: a self-support, values spread
    over the doubles, or values that include 0 and ``+inf``."""
    n = draw(st.integers(min_value=1, max_value=6))
    w = draw(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=n, max_size=n))
    w = np.array(w)
    kind = draw(st.sampled_from(["self", "finite", "zero-inf"]))
    if kind == "self":
        return w, w
    finite = st.floats(min_value=5e-324, max_value=np.finfo(float).max)
    value = finite | st.sampled_from([0.0, INF]) if kind == "zero-inf" else finite
    return w, np.array(draw(st.lists(value, min_size=n, max_size=n)))


class TestOrderRule:
    """``_order_rule`` is the plain chain of ``support.reference_branch``,
    with its common case tested first."""

    @given(rule_supports(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_branches_as_the_plain_chain(self, support_data, data):
        w, x = support_data
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        support = _LogSupport(w, x)
        orders = data.draw(
            st.lists(st.sampled_from(_rule_orders(support.scale)) | st.floats(allow_nan=False),
                     min_size=1, max_size=40)
        )
        rs = np.array(orders)
        log_mean, zero, series, lse, near = _order_rule(support, rs)
        listed = zero + series + lse + near
        assert len(set(listed)) == len(listed)
        got = ["extreme"] * rs.size
        for name, idx in (("zero", zero), ("series", series), ("lse", lse), ("near", near)):
            for i in idx:
                got[i] = name
        want = [reference_branch(log_x, w / w.sum(), r) for r in orders]
        assert got == want, orders
        for i, r in enumerate(orders):
            if want[i] == "extreme":
                assert log_mean[i] == (log_x.max() if r > 0 else log_x.min()), r
        up = [orders[i] > -1.0 for i in lse]
        assert up == sorted(up), "every 1 + r <= 0 comes first"


class TestKernelMemory:
    def test_transient_memory_of_a_large_call(self):
        """A kernel call holds little more than the row of the pass it is
        in: on a self-support of 10**5 values, one order a pass, the
        ``tracemalloc`` peak of ``_log_mean_slope`` over the default grid
        stays under 1.5 rows.  A second row-sized array beside each pass's
        rows, such as its own ``d = ln w_hat - ln w_hat_ext``, takes it to
        about 2 rows."""
        n = 10**5
        p = np.random.default_rng(5).random(n)
        p /= p.sum()
        support = _LogSupport(p, p)
        orders = OrderGrid.default().finite_orders
        tracemalloc.start()
        try:
            _log_mean_slope(support, orders)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n, peak / (8 * n)
