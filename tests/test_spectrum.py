"""Order grids, spectrum tables, and inversion of the probability spectrum."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import srenyi.info
import srenyi.means
import srenyi.spectrum
from srenyi import (
    EntropyValue,
    MassMeasure,
    OrderGrid,
    SpectrumConsistencyError,
    SpectrumRow,
    SpectrumTable,
    TargetOutOfRangeError,
    entropy_derivative,
    equivalent_probability,
    from_counts,
    information_potential,
    invert_probability,
    normalize,
    recover_distribution_probe,
    sample_spectrum,
    shifted_entropy,
)

from support import UCB_TOTAL, random_distribution, random_mass

INF = math.inf


class TestOrderGrid:
    def test_orders_sandwich_infinities(self):
        grid = OrderGrid((-1.0, 0.0, 2.0), include_neg_inf=True, include_pos_inf=True)
        assert grid.orders() == (-INF, -1.0, 0.0, 2.0, INF)
        assert len(grid) == 5

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            OrderGrid((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            OrderGrid((1.0, 0.0))
        with pytest.raises(ValueError):
            OrderGrid((0.0, math.nan))
        with pytest.raises(ValueError):
            OrderGrid((0.0, INF))

    def test_must_not_be_empty(self):
        with pytest.raises(ValueError):
            OrderGrid(())
        assert OrderGrid((), include_pos_inf=True).orders() == (INF,)

    def test_from_values_sorts_and_dedupes(self):
        grid = OrderGrid.from_values([3.0, -INF, 0.0, 3.0, -1.0])
        assert grid.orders() == (-INF, -1.0, 0.0, 3.0)

    def test_named(self):
        assert OrderGrid.named().orders() == (-INF, -1.0, 0.0, 1.0, INF)

    def test_linear(self):
        assert OrderGrid.linear(-1.0, 1.0, 5).finite_orders == (-1.0, -0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            OrderGrid.linear(0.0, 1.0, 0)

    def test_default_is_symmetric_and_anchored(self):
        grid = OrderGrid.default()
        orders = grid.orders()
        assert orders[0] == -INF and orders[-1] == INF
        finite = np.array(grid.finite_orders)
        for anchor in (-1.0, 0.0, 1.0):
            assert anchor in finite
        assert_allclose(np.sort(-finite), finite, rtol=0)  # mirror symmetry
        assert finite.min() == -50.0 and finite.max() == 50.0


class TestSampleSpectrum:
    def test_ucb_named_landmarks(self, ucb_counts):
        table = sample_spectrum(normalize(ucb_counts), OrderGrid.named())
        assert_allclose(
            table.entropies(),
            (
                2.9541963103868752,
                2.584962500721156,
                2.5595380704534317,
                2.5353532126799224,
                2.2782875984151337,
            ),
            rtol=1e-12,
        )
        assert table.orders() == (-INF, -1.0, 0.0, 1.0, INF)

    def test_row_contents(self, ucb_dist):
        table = sample_spectrum(ucb_dist, OrderGrid.named())
        for row in table.rows:
            if math.isinf(row.order):
                assert row.potential is None and row.derivative is None
            else:
                assert row.potential is not None and row.derivative <= 0.0
            assert row.entropy.order == row.order
            assert_allclose(row.equiv_prob, 2.0 ** -row.entropy.value, rtol=1e-12)

    def test_uniform_is_constant(self, uniform6):
        table = sample_spectrum(uniform6, OrderGrid.default())
        assert_allclose(table.entropies(), math.log2(6), rtol=1e-12)

    def test_single_order_grid(self, ucb_dist):
        table = sample_spectrum(ucb_dist, OrderGrid((0.0,)))
        assert len(table.rows) == 1
        assert_allclose(table.rows[0].entropy.value, 2.5595380704534317, rtol=1e-12)

    def test_mass_measures_allowed(self, ucb_counts):
        table = sample_spectrum(ucb_counts, OrderGrid.named())
        assert table.source_total_mass == UCB_TOTAL
        assert_allclose(table.rows[1].entropy.value, -9.559058368545736, rtol=1e-12)

    def test_monotone_columns_randomized(self, rng):
        for _ in range(15):
            table = sample_spectrum(random_mass(rng), OrderGrid.default())
            ents = np.array(table.entropies())
            probs = np.array([row.equiv_prob for row in table.rows])
            assert (np.diff(ents) <= 1e-12).all()
            assert (np.diff(probs) >= -1e-12 * probs[:-1]).all()


class TestRowsMatchScalarRoute:
    """Every spectrum row equals the scalar functions at its order: one
    kernel pass per row may not drift from the per-order route."""

    GRIDS = (
        OrderGrid.default(),
        OrderGrid(tuple(np.linspace(-50.0, 50.0, 41)), True, True),
        OrderGrid.from_values(
            np.concatenate([-np.logspace(-12, -2, 6), [0.0], np.logspace(-12, -2, 6)])
        ),
    )

    @staticmethod
    def _check(m, base=2.0):
        for grid in TestRowsMatchScalarRoute.GRIDS:
            for row in sample_spectrum(m, grid, base).rows:
                r = row.order
                assert row.entropy.order == r and row.entropy.base == base
                assert_allclose(
                    row.entropy.value, shifted_entropy(m, r, base).value, rtol=1e-12, atol=0
                )
                assert_allclose(row.equiv_prob, equivalent_probability(m, r), rtol=1e-12, atol=0)
                if math.isinf(r):
                    assert row.potential is None and row.derivative is None
                    continue
                assert_allclose(row.potential, information_potential(m, r), rtol=1e-12, atol=0)
                assert_allclose(row.derivative, entropy_derivative(m, r, base), rtol=1e-9, atol=0)

    def test_random_unnormalized(self, rng):
        for _ in range(10):
            self._check(random_mass(rng), base=float(rng.choice([2.0, math.e, 10.0])))

    def test_uniform(self, uniform6):
        self._check(uniform6)
        self._check(from_counts(tuple("abcdef"), (7,) * 6))

    def test_twelve_decade_range(self):
        raw = np.array([1.0, 1e-3, 1e-6, 1e-9, 1e-12])
        m = MassMeasure(tuple(f"s{i}" for i in range(raw.size)), raw)
        self._check(m)
        self._check(normalize(m))


class TestValidateFailures:
    """Each law ``SpectrumTable.validate`` checks names the offending row,
    its neighbour (for the monotonicity laws) and the residual."""

    @staticmethod
    def _row(order, entropy, prob, slope=None):
        return SpectrumRow(order, EntropyValue(entropy, 2.0, order), prob, None, slope)

    def _fails(self, *rows):
        with pytest.raises(SpectrumConsistencyError) as exc:
            SpectrumTable(rows, 2.0, 1.0).validate()
        assert isinstance(exc.value, ArithmeticError)
        return exc.value

    def test_entropy_increase(self):
        err = self._fails(self._row(0.0, 1.0, 0.5), self._row(1.0, 1.5, 2.0**-1.5))
        assert (err.order, err.neighbour) == (1.0, 0.0)
        assert_allclose(err.residual, 0.5, rtol=1e-15)

    def test_probability_decrease(self):
        err = self._fails(self._row(-1.0, 1.0, 0.5), self._row(2.0, 1.0, 0.4))
        assert (err.order, err.neighbour) == (2.0, -1.0)
        assert_allclose(err.residual, 0.2, rtol=1e-14)

    def test_probability_inconsistent_with_entropy(self):
        err = self._fails(self._row(3.0, 1.0, 0.6))
        assert (err.order, err.neighbour) == (3.0, None)
        assert_allclose(err.residual, 0.2, rtol=1e-14)

    def test_positive_slope(self):
        err = self._fails(self._row(0.5, 1.0, 0.5, slope=0.25))
        assert (err.order, err.neighbour, err.residual) == (0.5, None, 0.25)


class TestInvertProbability:
    def test_uniform_prefers_order_zero(self, uniform6):
        assert invert_probability(uniform6, 1 / 6) == 0.0

    def test_extreme_targets_give_infinities(self, ucb_dist):
        assert invert_probability(ucb_dist, 933 / UCB_TOTAL) == INF
        assert invert_probability(ucb_dist, 584 / UCB_TOTAL) == -INF

    def test_recovers_interior_order(self, ucb_dist):
        target = equivalent_probability(ucb_dist, 1.0)
        r = invert_probability(ucb_dist, target, tol=1e-12)
        assert_allclose(equivalent_probability(ucb_dist, r), target, atol=1e-12)
        assert abs(r - 1.0) < 1e-6

    def test_out_of_range(self, ucb_dist):
        with pytest.raises(TargetOutOfRangeError):
            invert_probability(ucb_dist, 0.5)
        with pytest.raises(TargetOutOfRangeError):
            invert_probability(ucb_dist, 0.01)

    def test_normalizes_mass_input(self, ucb_counts, ucb_dist):
        target = equivalent_probability(ucb_dist, -2.0)
        r_mass = invert_probability(ucb_counts, target, tol=1e-12)
        r_dist = invert_probability(ucb_dist, target, tol=1e-12)
        assert_allclose(r_mass, r_dist, rtol=1e-9)

    def test_rejects_bad_knobs(self, ucb_dist):
        with pytest.raises(ValueError):
            invert_probability(ucb_dist, 0.2, tol=0.0)
        with pytest.raises(ValueError):
            invert_probability(ucb_dist, 0.2, search_bound=-1.0)
        with pytest.raises(ValueError):
            invert_probability(ucb_dist, math.nan)

    def test_round_trip_randomized(self, rng):
        for _ in range(60):
            dist = random_distribution(rng)
            r = float(rng.uniform(-20, 20))
            target = equivalent_probability(dist, r)
            recovered = invert_probability(dist, target, tol=1e-10)
            assert_allclose(
                equivalent_probability(dist, recovered), target, atol=2e-10
            )


class TestRecoverDistribution:
    def test_two_point(self):
        dist = normalize(MassMeasure(("hi", "lo"), np.array([0.75, 0.25])))
        rows = recover_distribution_probe(dist)
        assert [row[0] for row in rows] == ["lo", "hi"]
        assert rows[0][1] == -INF and rows[1][1] == INF
        assert_allclose([rows[0][2], rows[1][2]], [0.25, 0.75], rtol=0)

    def test_uniform_collapses_to_one_row(self, uniform6):
        rows = recover_distribution_probe(uniform6)
        assert len(rows) == 1
        label, order, prob = rows[0]
        assert label == "A,B,C,D,E,F"
        assert order == 0.0
        assert_allclose(prob, 1 / 6, rtol=1e-12)

    def test_ucb_recovers_all_six(self, ucb_counts):
        rows = recover_distribution_probe(ucb_counts, tol=1e-10)
        assert len(rows) == 6
        recovered = sorted(prob for _, _, prob in rows)
        expected = sorted(c / UCB_TOTAL for c in (933, 585, 918, 792, 584, 714))
        assert_allclose(recovered, expected, atol=1e-10)
        # ascending-probability ordering, extremes at the infinities
        orders = [order for _, order, _ in rows]
        assert orders[0] == -INF and orders[-1] == INF

    def test_ties_share_a_row(self):
        m = from_counts(("a", "b", "c", "d"), (1, 3, 1, 5))
        rows = recover_distribution_probe(m)
        assert [row[0] for row in rows] == ["a,c", "b", "d"]

    def test_zero_weight_labels_are_absent(self):
        m = MassMeasure(("a", "b", "z"), np.array([1.0, 3.0, 0.0]))
        rows = recover_distribution_probe(m)
        assert all("z" not in row[0] for row in rows)

    def test_one_support_and_one_normalize_per_recovery(self, ucb_counts, monkeypatch):
        built = []

        class CountingSupport(srenyi.means._LogSupport):
            def __init__(self, weights, values):
                built.append(len(weights))
                super().__init__(weights, values)

        normalized = []

        def counting_normalize(m):
            normalized.append(len(m))
            return normalize(m)

        for module in (srenyi.means, srenyi.info, srenyi.spectrum):
            monkeypatch.setattr(module, "_LogSupport", CountingSupport, raising=False)
        monkeypatch.setattr(srenyi.spectrum, "normalize", counting_normalize)
        rows = recover_distribution_probe(ucb_counts)
        assert len(rows) == 6
        assert built == [6]
        assert normalized == [6]
