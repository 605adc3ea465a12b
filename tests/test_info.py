"""Entropies, divergences, cross-entropies, and the web of identities
connecting them.

Frozen expected values were computed independently with 60-digit arithmetic
(direct summation of the defining formulas) and pasted here as literals.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import srenyi.info
import srenyi.measures
from srenyi import (
    Distribution,
    MassMeasure,
    SupportViolationError,
    entropy_derivative,
    entropy_via_escort_rewrite,
    equivalent_probability,
    from_counts,
    information_potential,
    mass_displacement_check,
    normalize,
    self_information_check,
    shifted_cross_entropy,
    shifted_divergence,
    shifted_entropy,
    skew_symmetric_divergence,
    standard_divergence,
    standard_entropy,
)

from support import (
    UCB_TOTAL,
    direct_entropy,
    kl_divergence,
    random_distribution,
    random_mass,
    random_order,
    shannon_entropy,
)

INF = math.inf
LOG2_6 = 2.584962500721156
ORDER_SET = (-INF, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, INF)


class TestEntropyLandmarks:
    """The five classical entropies of the six-college admission counts."""

    def test_shannon(self, ucb_dist):
        got = shifted_entropy(ucb_dist, 0.0)
        assert_allclose(got.value, 2.5595380704534317, rtol=1e-12)
        assert_allclose(got.value, shannon_entropy(ucb_dist), rtol=1e-12)

    def test_collision(self, ucb_dist):
        got = shifted_entropy(ucb_dist, 1.0)
        assert_allclose(got.value, 2.5353532126799224, rtol=1e-12)
        # independent route: -log2 of the direct probability sum
        assert_allclose(got.value, direct_entropy(ucb_dist, 1.0), rtol=1e-12)

    def test_hartley_is_log_support_size(self, ucb_dist):
        assert_allclose(shifted_entropy(ucb_dist, -1.0).value, LOG2_6, rtol=1e-13)

    def test_min_entropy(self, ucb_dist):
        got = shifted_entropy(ucb_dist, INF)
        assert_allclose(got.value, 2.2782875984151337, rtol=1e-12)
        assert_allclose(got.value, -math.log2(933 / UCB_TOTAL), rtol=1e-13)

    def test_max_entropy(self, ucb_dist):
        got = shifted_entropy(ucb_dist, -INF)
        assert_allclose(got.value, 2.9541963103868752, rtol=1e-12)
        assert_allclose(got.value, -math.log2(584 / UCB_TOTAL), rtol=1e-13)

    def test_uniform_is_flat(self, uniform6):
        for r in ORDER_SET:
            assert_allclose(shifted_entropy(uniform6, r).value, LOG2_6, rtol=1e-12)

    def test_entropy_value_record(self, ucb_dist):
        v = shifted_entropy(ucb_dist, 1.5, base=10.0)
        assert v.base == 10.0
        assert v.order == 1.5
        assert float(v) == v.value

    def test_base_conversion(self, ucb_dist):
        bits = shifted_entropy(ucb_dist, 0.5, base=2.0).value
        nats = shifted_entropy(ucb_dist, 0.5, base=math.e).value
        bans = shifted_entropy(ucb_dist, 0.5, base=10.0).value
        assert_allclose(nats, bits * math.log(2.0), rtol=1e-13)
        assert_allclose(bans, bits * math.log10(2.0), rtol=1e-13)

    def test_invalid_base(self, ucb_dist):
        for bad in (1.0, 0.5, -2.0, math.nan):
            with pytest.raises(ValueError):
                shifted_entropy(ucb_dist, 1.0, base=bad)

    def test_monotone_nonincreasing_in_order(self, rng):
        for _ in range(30):
            dist = random_distribution(rng)
            orders = [-INF, *np.sort(rng.uniform(-8, 8, 9)), INF]
            ents = [shifted_entropy(dist, r).value for r in orders]
            assert (np.diff(ents) <= 1e-10).all()

    def test_continuous_through_zero(self, rng):
        """The geometric-mean limit: |H_r - H_0| stays tiny at |r| = 1e-8."""
        for _ in range(20):
            dist = random_distribution(rng)
            h0 = shifted_entropy(dist, 0.0).value
            for r in (1e-8, -1e-8):
                assert abs(shifted_entropy(dist, r).value - h0) <= 1e-6


class TestDivergence:
    def test_self_divergence_is_zero(self, rng):
        for _ in range(10):
            dist = random_distribution(rng)
            for r in ORDER_SET:
                assert abs(shifted_divergence(dist, dist, r).value) <= 1e-12

    def test_kl_at_order_zero(self):
        p = Distribution(("a", "b"), np.array([0.5, 0.5]))
        q = Distribution(("a", "b"), np.array([0.25, 0.75]))
        got = shifted_divergence(p, q, 0.0)
        assert_allclose(got.value, 0.20751874963942191, rtol=1e-12)
        assert_allclose(got.value, kl_divergence(p, q), rtol=1e-12)

    def test_uniform_reference_identity(self, ucb_dist, uniform6):
        """Against the uniform distribution, divergence is log n minus entropy."""
        for r in ORDER_SET:
            div = shifted_divergence(ucb_dist, uniform6, r).value
            ent = shifted_entropy(ucb_dist, r).value
            assert_allclose(div, LOG2_6 - ent, rtol=1e-10, atol=1e-12)

    def test_nonnegative_for_distributions(self, rng):
        """At r >= 0 the divergence between distributions is >= 0."""
        for _ in range(25):
            n = int(rng.integers(2, 7))
            p = random_distribution(rng, n=n)
            q = Distribution(p.labels, rng.dirichlet(np.ones(n)))
            for r in (0.0, 0.5, 1.0, 2.0, INF):
                assert shifted_divergence(p, q, r).value >= -1e-10

    def test_support_violation_propagates(self):
        p = Distribution(("a", "b"), np.array([0.5, 0.5]))
        q = MassMeasure(("a", "b"), np.array([1.0, 0.0]))
        with pytest.raises(SupportViolationError) as exc:
            shifted_divergence(p, q, 1.0)
        assert exc.value.labels == ("b",)
        assert str(exc.value) == (
            "second measure is zero on labels ['b'] where the first is positive"
        )

    def test_aligns_labels_once(self, monkeypatch, rng):
        calls = []
        original = srenyi.info.aligned_weights

        def counting(p, q):
            calls.append(1)
            return original(p, q)

        for module in (srenyi.info, srenyi.measures):
            monkeypatch.setattr(module, "aligned_weights", counting)
        p = random_distribution(rng, n=5)
        perm = rng.permutation(5)
        q = random_mass(rng, n=5)
        shuffled = MassMeasure(tuple(q.labels[i] for i in perm), q.weights[perm])
        for r in ORDER_SET:
            calls.clear()
            got = shifted_divergence(p, shuffled, r).value
            assert len(calls) == 1
            assert got == shifted_divergence(p, q, r).value

    def test_extreme_orders_are_log_ratio_bounds(self):
        p = Distribution(("a", "b"), np.array([0.9, 0.1]))
        q = Distribution(("a", "b"), np.array([0.5, 0.5]))
        assert_allclose(shifted_divergence(p, q, INF).value, math.log2(1.8), rtol=1e-13)
        assert_allclose(shifted_divergence(p, q, -INF).value, math.log2(0.2), rtol=1e-13)


class TestCrossEntropy:
    def test_collapses_to_entropy(self, ucb_dist, rng):
        for r in ORDER_SET:
            assert_allclose(
                shifted_cross_entropy(ucb_dist, ucb_dist, r).value,
                shifted_entropy(ucb_dist, r).value,
                rtol=1e-12,
                atol=1e-12,
            )

    def test_missing_reference_mass(self):
        p = MassMeasure(("a", "b"), np.array([1.0, 0.0]))
        q = Distribution(("a", "b"), np.array([0.5, 0.5]))
        # support restriction: only the a-cell ever matters
        assert_allclose(shifted_cross_entropy(p, q, 0.0).value, 1.0, rtol=0)
        q0 = MassMeasure(("a", "b"), np.array([0.0, 1.0]))
        assert shifted_cross_entropy(p, q0, 0.0).value == INF
        assert shifted_cross_entropy(p, q0, -1.0).value == INF
        assert math.isfinite(shifted_cross_entropy(p, q0, 1.0).value) is False

    def test_divergence_as_cross_entropy_of_ratio(self, rng):
        """D_r(p || q) equals the cross-entropy of order -r against q/p."""
        for _ in range(25):
            n = int(rng.integers(2, 7))
            p = random_distribution(rng, n=n)
            q = Distribution(p.labels, rng.dirichlet(np.ones(n) * 3))
            r = random_order(rng, magnitude=3.0)
            ratio_measure = MassMeasure(
                tuple(sorted(p.labels)),
                np.array(
                    [
                        q.weights[q.labels.index(l)] / p.weights[p.labels.index(l)]
                        for l in sorted(p.labels)
                    ]
                ),
            )
            lhs = shifted_divergence(p, q, r).value
            rhs = shifted_cross_entropy(p, ratio_measure, -r).value
            assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestStandardOrderBridge:
    ALPHAS = (-INF, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, INF)

    def test_entropy_bitwise(self, ucb_dist):
        for alpha in self.ALPHAS:
            assert (
                standard_entropy(ucb_dist, alpha).value
                == shifted_entropy(ucb_dist, alpha - 1.0).value
            )

    def test_divergence_bitwise(self, ucb_dist, uniform6):
        for alpha in self.ALPHAS:
            assert (
                standard_divergence(ucb_dist, uniform6, alpha).value
                == shifted_divergence(ucb_dist, uniform6, alpha - 1.0).value
            )

    def test_against_classical_formulas(self, ucb_dist):
        p = ucb_dist.weights
        # alpha = 2: collision entropy -log2 sum p^2
        assert_allclose(
            standard_entropy(ucb_dist, 2.0).value,
            -math.log2(float(np.sum(p * p))),
            rtol=1e-12,
        )
        # alpha = 0: log of the support size
        assert_allclose(standard_entropy(ucb_dist, 0.0).value, LOG2_6, rtol=1e-13)
        # alpha = 1: Shannon
        assert_allclose(
            standard_entropy(ucb_dist, 1.0).value, shannon_entropy(ucb_dist), rtol=1e-12
        )

    def test_divergence_against_classical_formula(self, rng):
        """(1/(alpha-1)) log sum p^alpha q^(1-alpha), summed directly."""
        for _ in range(25):
            n = int(rng.integers(2, 7))
            p = random_distribution(rng, n=n)
            q = Distribution(p.labels, rng.dirichlet(np.ones(n)))
            alpha = float(rng.uniform(0.1, 3.0))
            if abs(alpha - 1.0) < 0.05:
                continue
            direct = math.log2(
                float(np.sum(p.weights**alpha * q.weights ** (1.0 - alpha)))
            ) / (alpha - 1.0)
            assert_allclose(
                standard_divergence(p, q, alpha).value, direct, rtol=1e-10, atol=1e-12
            )


class TestEquivalentProbability:
    def test_uniform(self, uniform6):
        for r in ORDER_SET:
            assert_allclose(equivalent_probability(uniform6, r), 1 / 6, rtol=1e-12)

    def test_extremes_hit_min_and_max(self, ucb_dist):
        assert_allclose(equivalent_probability(ucb_dist, INF), 933 / UCB_TOTAL, rtol=0)
        assert_allclose(equivalent_probability(ucb_dist, -INF), 584 / UCB_TOTAL, rtol=0)

    def test_base_free_and_consistent_with_entropy(self, ucb_dist):
        for r in (-2.0, 0.0, 1.3):
            pi = equivalent_probability(ucb_dist, r)
            for base in (2.0, math.e, 10.0):
                assert_allclose(
                    pi, base ** -shifted_entropy(ucb_dist, r, base).value, rtol=1e-12
                )

    def test_monotone_and_bounded(self, rng):
        for _ in range(25):
            dist = random_distribution(rng)
            support = dist.weights[dist.weights > 0]
            orders = [-INF, *np.sort(rng.uniform(-10, 10, 9)), INF]
            probs = [equivalent_probability(dist, r) for r in orders]
            assert (np.diff(probs) >= -1e-12).all()
            assert probs[0] >= support.min() - 1e-15
            assert probs[-1] <= support.max() + 1e-15


class TestInformationPotential:
    def test_order_zero_is_exactly_one(self, ucb_dist, rng):
        assert information_potential(ucb_dist, 0.0) == 1.0
        assert information_potential(random_mass(rng), 0.0) == 1.0

    def test_ucb_collision_sum(self, ucb_dist):
        assert_allclose(information_potential(ucb_dist, 1.0), 0.17249743173872996, rtol=1e-12)

    def test_uniform(self, uniform6):
        assert_allclose(information_potential(uniform6, 1.0), 1 / 6, rtol=1e-13)

    def test_rejects_infinite_order(self, ucb_dist):
        with pytest.raises(ValueError):
            information_potential(ucb_dist, INF)

    def test_bridges_to_entropy_and_probability(self, rng):
        for _ in range(25):
            m = random_mass(rng)
            r = random_order(rng, magnitude=5.0)
            v = information_potential(m, r)
            assert_allclose(v, equivalent_probability(m, r) ** r, rtol=1e-10)
            for base in (2.0, 10.0):
                h = shifted_entropy(m, r, base).value
                assert_allclose(v, base ** (-r * h), rtol=1e-10)


class TestSpectrumDerivative:
    def test_uniform_spectrum_is_flat(self, uniform6):
        for r in (-3.0, -1.0, 0.0, 1.0, 2.5):
            assert entropy_derivative(uniform6, r) == pytest.approx(0.0, abs=1e-9)

    def test_against_finite_differences(self, ucb_dist, rng):
        h = 1e-6
        for _ in range(25):
            dist = random_distribution(rng)
            r = random_order(rng, magnitude=3.0, avoid_zero=0.05)
            fd = (
                shifted_entropy(dist, r + h).value - shifted_entropy(dist, r - h).value
            ) / (2 * h)
            assert_allclose(entropy_derivative(dist, r), fd, rtol=1e-4, atol=1e-9)

    @staticmethod
    def _slope_near_zero(m, r, base=2.0):
        """Two-term Taylor form of the slope at small ``r`` from the moments
        of ``ln p`` under ``p``: ``-(k2/2 + r k3/3 + r**2 k4/8) / ln b``."""
        p = m.weights[m.weights > 0] / m.weights.sum()
        d = np.log(p) - np.sum(p * np.log(p))
        k2, k3 = np.sum(p * d**2), np.sum(p * d**3)
        k4 = np.sum(p * d**4) - 3.0 * k2**2
        return -(k2 / 2 + r * k3 / 3 + r * r * k4 / 8) / math.log(base)

    def test_exact_at_zero(self, ucb_dist, ucb_counts):
        """H'(0) = -Var_p(ln p) / (2 ln b); -0.024903 on the worked example."""
        expected = self._slope_near_zero(ucb_dist, 0.0)
        assert_allclose(expected, -0.024902510864325, rtol=1e-12)
        for m in (ucb_dist, ucb_counts):
            assert_allclose(entropy_derivative(m, 0.0), expected, rtol=1e-13)
            assert_allclose(
                entropy_derivative(m, 0.0, math.e), expected * math.log(2.0), rtol=1e-13
            )

    def test_continuous_through_zero(self, ucb_dist, ucb_counts, rng):
        """Across |r| in [1e-15, 1e-2] the slope follows its Taylor form at
        0 to 1e-9 plus the first dropped term, ~(|r| * spread)**3."""
        crit10 = MassMeasure(
            tuple(f"s{i}" for i in range(5)), np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12])
        )
        measures = [ucb_dist, ucb_counts, crit10]
        measures += [random_distribution(rng) for _ in range(10)]
        measures += [random_mass(rng) for _ in range(10)]
        mags = np.logspace(-15.0, -2.0, 40)
        for m in measures:
            logs = np.log(m.weights[m.weights > 0])
            spread = logs.max() - logs.min()
            at_zero = abs(self._slope_near_zero(m, 0.0))
            for r in np.concatenate([-mags, mags]):
                r = float(r)
                got = entropy_derivative(m, r)
                tol = (1e-9 + (abs(r) * spread) ** 3) * at_zero
                assert abs(got - self._slope_near_zero(m, r)) <= tol, (m, r, got)

    def test_at_zero_against_finite_difference(self, ucb_dist):
        h = 1e-4
        fd = (
            shifted_entropy(ucb_dist, h).value - shifted_entropy(ucb_dist, -h).value
        ) / (2 * h)
        assert_allclose(entropy_derivative(ucb_dist, 0.0), fd, rtol=1e-4)

    def test_never_positive(self, rng):
        for _ in range(40):
            m = random_mass(rng)
            r = random_order(rng, magnitude=6.0)
            assert entropy_derivative(m, r) <= 0.0
        assert entropy_derivative(random_mass(rng), 0.0) <= 0.0

    def test_displacement_invariant(self, ucb_counts, ucb_dist):
        """Scaling the measure rigidly shifts the spectrum: same slope."""
        for r in (-2.0, 0.0, 1.0, 3.0):
            assert_allclose(
                entropy_derivative(ucb_counts, r),
                entropy_derivative(ucb_dist, r),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_rejects_infinite_order(self, ucb_dist):
        with pytest.raises(ValueError):
            entropy_derivative(ucb_dist, INF)


class TestEscortRewrites:
    """The entropy at finite nonzero order rebuilt from Shannon quantities
    of the self-escort; both routes must land on the plain entropy."""

    def test_two_point_worked_example(self):
        dist = Distribution(("a", "b"), np.array([0.75, 0.25]))
        expected = 0.6780719051126377  # -log2(0.75^2 + 0.25^2)
        assert_allclose(shifted_entropy(dist, 1.0).value, expected, rtol=1e-12)
        r1, r2 = entropy_via_escort_rewrite(dist, 1.0)
        assert_allclose(r1.value, expected, rtol=1e-10)
        assert_allclose(r2.value, expected, rtol=1e-10)

    def test_uniform(self):
        dist = normalize(from_counts("abcd", (1, 1, 1, 1)))
        r1, r2 = entropy_via_escort_rewrite(dist, 1.0)
        assert_allclose([r1.value, r2.value], 2.0, rtol=1e-12)

    def test_ucb_across_orders(self, ucb_dist):
        for r in (-2.0, -0.5, 0.5, 1.0, 2.0):
            expected = shifted_entropy(ucb_dist, r).value
            r1, r2 = entropy_via_escort_rewrite(ucb_dist, r)
            assert_allclose(r1.value, expected, rtol=1e-10)
            assert_allclose(r2.value, expected, rtol=1e-10)

    def test_randomized_including_masses(self, rng):
        for _ in range(40):
            m = random_mass(rng)
            r = random_order(rng, magnitude=3.0, avoid_zero=0.05)
            expected = shifted_entropy(m, r).value
            r1, r2 = entropy_via_escort_rewrite(m, r)
            assert_allclose(r1.value, expected, rtol=1e-9, atol=1e-12)
            assert_allclose(r2.value, expected, rtol=1e-9, atol=1e-12)

    def test_rejects_zero_and_infinite_order(self, ucb_dist):
        with pytest.raises(ValueError):
            entropy_via_escort_rewrite(ucb_dist, 0.0)
        with pytest.raises(ValueError):
            entropy_via_escort_rewrite(ucb_dist, INF)


class TestSkewSymmetry:
    def test_equal_arguments_vanish(self, ucb_dist):
        for r in (-3.0, -1.0, 0.5, 2.0):
            assert abs(skew_symmetric_divergence(ucb_dist, ucb_dist, r).value) <= 1e-12

    def test_matches_forward_divergence(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            p = random_distribution(rng, n=n)
            q = Distribution(p.labels, rng.dirichlet(np.ones(n) * 2))
            r = random_order(rng, magnitude=3.0, avoid_zero=0.05)
            assert_allclose(
                skew_symmetric_divergence(p, q, r).value,
                shifted_divergence(p, q, r).value,
                rtol=1e-9,
                atol=1e-11,
            )

    def test_harmonic_order_vanishes_for_distributions(self, rng):
        """At r = -1 the divergence of any two distributions is zero."""
        p = random_distribution(rng, n=5)
        q = Distribution(p.labels, rng.dirichlet(np.ones(5)))
        assert abs(shifted_divergence(p, q, -1.0).value) <= 1e-12
        assert abs(skew_symmetric_divergence(p, q, -1.0).value) <= 1e-12

    def test_rejects_order_zero(self, ucb_dist, uniform6):
        with pytest.raises(ValueError):
            skew_symmetric_divergence(ucb_dist, uniform6, 0.0)


class TestSelfInformation:
    def test_uniform(self, uniform6):
        lhs, rhs = self_information_check(uniform6, 1.0)
        assert_allclose([lhs.value, rhs.value], LOG2_6, rtol=1e-12)

    def test_ucb(self, ucb_dist):
        lhs, rhs = self_information_check(ucb_dist, 1.0)
        assert_allclose(lhs.value, 2.5353532126799224, rtol=1e-12)
        assert_allclose(rhs.value, lhs.value, rtol=1e-10)

    def test_all_extended_orders(self, rng):
        dist = random_distribution(rng, n=4)
        for r in ORDER_SET:
            lhs, rhs = self_information_check(dist, r)
            assert_allclose(rhs.value, lhs.value, rtol=1e-10, atol=1e-12)

    def test_unnormalized(self, rng):
        m = random_mass(rng)
        for r in (-2.0, 0.0, 1.0):
            lhs, rhs = self_information_check(m, r)
            assert_allclose(rhs.value, lhs.value, rtol=1e-10, atol=1e-12)


class TestMassDisplacement:
    def test_ucb_counts_at_hartley(self, ucb_counts):
        lhs, rhs = mass_displacement_check(ucb_counts, -1.0)
        assert_allclose(lhs.value, -9.559058368545736, rtol=1e-12)
        assert_allclose(rhs.value, lhs.value, rtol=1e-12)
        # displaced by log2(4526): recovers the Hartley entropy of the counts
        assert_allclose(lhs.value + 12.144020869266892, LOG2_6, rtol=1e-12)

    def test_distribution_has_no_displacement(self, ucb_dist):
        lhs, rhs = mass_displacement_check(ucb_dist, 1.0)
        assert_allclose(lhs.value, rhs.value, rtol=1e-13)
        assert_allclose(
            lhs.value, shifted_entropy(ucb_dist, 1.0).value, rtol=1e-13
        )

    def test_doubling_costs_exactly_one_bit(self, ucb_dist):
        doubled = MassMeasure(ucb_dist.labels, 2.0 * ucb_dist.weights)
        for r in (-INF, -1.0, 0.0, 1.0, INF):
            assert_allclose(
                shifted_entropy(doubled, r).value,
                shifted_entropy(ucb_dist, r).value - 1.0,
                rtol=1e-12,
            )

    def test_randomized(self, rng):
        for _ in range(40):
            m = random_mass(rng, scale_low=0.01, scale_high=1000.0)
            r = random_order(rng, magnitude=4.0)
            lhs, rhs = mass_displacement_check(m, r)
            assert_allclose(lhs.value, rhs.value, rtol=1e-9, atol=1e-10)


class TestShannonDecomposition:
    def test_holds_at_order_zero(self, rng):
        """D_0 = -H_0 + X_0: the Shannon decomposition of the KL divergence."""
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = random_distribution(rng, n=n)
            q = Distribution(p.labels, rng.dirichlet(np.ones(n)))
            lhs = shifted_divergence(p, q, 0.0).value
            rhs = (
                -shifted_entropy(p, 0.0).value + shifted_cross_entropy(p, q, 0.0).value
            )
            assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-11)

    def test_fails_away_from_order_zero(self):
        """The decomposition is a Shannon-only privilege: a frozen
        counterexample at r = 1 with a non-uniform reference."""
        p = Distribution(("a", "b"), np.array([0.9, 0.1]))
        q = Distribution(("a", "b"), np.array([0.25, 0.75]))
        div = shifted_divergence(p, q, 1.0).value
        decomposed = (
            -shifted_entropy(p, 1.0).value + shifted_cross_entropy(p, q, 1.0).value
        )
        assert_allclose(div, 1.7019186470670054, rtol=1e-12)
        assert_allclose(decomposed, 1.4506614090095652, rtol=1e-12)
        assert abs(div - decomposed) > 1e-3

    def test_uniform_reference_is_the_exception(self, ucb_dist, uniform6):
        """With a uniform reference the decomposition happens to hold at
        every order, so a counterexample must avoid uniform q."""
        for r in (-2.0, 1.0, 3.0):
            div = shifted_divergence(ucb_dist, uniform6, r).value
            decomposed = (
                -shifted_entropy(ucb_dist, r).value
                + shifted_cross_entropy(ucb_dist, uniform6, r).value
            )
            assert_allclose(div, decomposed, rtol=1e-10)
