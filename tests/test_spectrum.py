"""Order grids, spectrum tables, and inversion of the probability spectrum."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import srenyi.info
import srenyi.means
import srenyi.spectrum
from srenyi import (
    ConvergenceError,
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

from support import (
    SEAM_SEEDS,
    UCB_TOTAL,
    near_flat_weights,
    random_distribution,
    random_mass,
    reference_label_groups,
    reference_validate,
)

INF = math.inf


class TestOrderGrid:
    def test_orders_sandwich_infinities(self):
        grid = OrderGrid((-1.0, 0.0, 2.0), include_neg_inf=True, include_pos_inf=True)
        assert grid.orders() == (-INF, -1.0, 0.0, 2.0, INF)
        assert len(grid) == 5
        assert tuple(grid) == grid.orders()

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
        assert OrderGrid.linear(2.0, 2.0, 1).orders() == (2.0,)
        with pytest.raises(ValueError, match="a single-point grid needs start == stop"):
            OrderGrid.linear(0.0, 1.0, 1)

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
    """Every spectrum row equals the scalar functions at its order bit for
    bit: the columns' one kernel call and vectorized ``np.exp`` may not
    drift from the per-order route."""

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
                    row.entropy.value, shifted_entropy(m, r, base).value, rtol=0, atol=0
                )
                assert_allclose(row.equiv_prob, equivalent_probability(m, r), rtol=0, atol=0)
                if math.isinf(r):
                    assert row.potential is None and row.derivative is None
                    continue
                assert_allclose(row.potential, information_potential(m, r), rtol=0, atol=0)
                assert_allclose(row.derivative, entropy_derivative(m, r, base), rtol=0, atol=0)

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

    def test_nan_slope(self):
        err = self._fails(self._row(0.5, 1.0, 0.5, slope=math.nan))
        assert (err.order, err.neighbour) == (0.5, None)
        assert math.isnan(err.residual)

    def test_probability_drop_from_zero(self):
        """A drop from 0 to -inf is an infinite relative drop, not a
        division by zero."""
        err = self._fails(self._row(0.0, 1.0, 0.0), self._row(1.0, 1.0, -INF))
        assert (err.order, err.neighbour, err.residual) == (1.0, 0.0, INF)
        assert str(err) == "equivalent probability decreases by inf (relative) from order 0.0 to 1.0"


EDGES = (
    math.nan, INF, 0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.5, 1.0,
    1.7976931348623157e308,
)
edge_floats = st.one_of(st.sampled_from(EDGES + tuple(-x for x in EDGES)), st.floats())


@st.composite
def hand_built_tables(draw):
    """Tables of up to 6 rows, most of them close to the laws: entropies in
    decreasing order or not, each ``equiv_prob`` ``base**(-entropy)`` as it
    rounds, nudged by a few 1e-10, or any float, and slopes None, NaN or any
    float; values among NaN, +-inf, +-0, subnormals and the largest double."""
    base = draw(st.sampled_from([2.0, math.e, 10.0]))
    n = draw(st.integers(0, 6))
    orders = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n, unique=True)))
    entropies = draw(st.lists(edge_floats, min_size=n, max_size=n))
    if draw(st.booleans()):
        entropies.sort(key=lambda h: -h if h == h else -INF)
    rows = []
    for r, h in zip(orders, entropies):
        with np.errstate(all="ignore"):
            prob = float(np.exp(-h * math.log(base)))
        kind = draw(st.sampled_from(["law", "nudged", "any"]))
        if kind == "nudged":
            prob *= 1.0 + draw(st.sampled_from([-3e-10, -1e-10, 1e-11, 1e-10, 3e-10]))
        elif kind == "any":
            prob = draw(edge_floats)
        slope = draw(st.one_of(st.none(), st.just(math.nan), edge_floats))
        rows.append(SpectrumRow(r, EntropyValue(h, base, r), prob, None, slope))
    return SpectrumTable(tuple(rows), base, 1.0)


def validation_outcome(check, table):
    """What ``check(table)`` raises, NaN-aware: None, or the exception's
    type, message, order, neighbour and residual, NaNs as "nan"."""
    try:
        check(table)
    except Exception as exc:
        fields = [getattr(exc, name, None) for name in ("order", "neighbour", "residual")]
        fields = ["nan" if isinstance(f, float) and math.isnan(f) else f for f in fields]
        return (type(exc), str(exc), *fields)
    return None


@given(hand_built_tables())
@settings(max_examples=500, deadline=None)
def test_validate_raises_what_the_row_loop_raises(table):
    """``SpectrumTable.validate`` checks the laws on columns and raises
    exactly what the row-wise loop of ``support.reference_validate`` does."""
    assert validation_outcome(SpectrumTable.validate, table) == validation_outcome(
        reference_validate, table
    )


class TestValidateAtTheEdgesOfTheDoubles:
    """``validate`` compares ``equiv_prob`` with ``base**(-entropy)`` in
    logs, so a valid measure whose ``base**(-entropy)`` lies past the
    doubles, or whose probabilities are subnormal, passes."""

    @staticmethod
    def _row(entropy, prob):
        return SpectrumRow(0.0, EntropyValue(entropy, 2.0, 0.0), prob, None, None)

    def test_largest_double_weight(self):
        m = MassMeasure(("a",), [1.7976931348623157e308])
        table = sample_spectrum(m, OrderGrid.named())
        assert table.entropies() == (-1024.0,) * 5

    @pytest.mark.parametrize("w", [1e-320, 3.3e-321, 1.23456e-315, 5e-324])
    def test_subnormal_weights(self, w):
        for weights in ([w, w / 3], [w, 2 * w, w / 2], [w, w / 7, w / 11]):
            m = MassMeasure(tuple("abc"[: len(weights)]), weights)
            sample_spectrum(m, OrderGrid.named())

    @pytest.mark.parametrize(
        "entropy, prob",
        [
            (INF, 0.0),
            (-INF, INF),
            (2000.0, 0.0),
            (-1024.0, 1.7976931348622732e308),
            (-1200.0, INF),  # a divergence's M_r can pass the largest double
        ],
    )
    def test_probability_past_the_doubles(self, entropy, prob):
        SpectrumTable((self._row(entropy, prob),), 2.0, 1.0).validate()

    @pytest.mark.parametrize(
        "entropy, prob, residual",
        [
            (5.0, 0.0, -1.0),
            (math.nan, 0.5, None),
            (1.0, math.nan, None),
            (1.0, 0.5 * (1 + 2e-10), 2e-10),
            (-1200.0, 1e300, -1.0),
        ],
    )
    def test_inconsistent_rows_still_fail(self, entropy, prob, residual):
        with pytest.raises(SpectrumConsistencyError) as exc:
            SpectrumTable((self._row(entropy, prob),), 2.0, 1.0).validate()
        if residual is None:
            assert math.isnan(exc.value.residual)
        else:
            assert_allclose(exc.value.residual, residual, rtol=1e-6)


class TestUnnormalizedSeam:
    """Spectra of measures whose total is far from 1 pass ``validate``:
    ``ln w_hat`` does not carry the rounding of ``ln w`` and ``ln W`` far
    from 0 into the log-sum-exp, which divides it by r next to r = 0."""

    GRID = OrderGrid.default()

    @staticmethod
    def _measure(w):
        return MassMeasure(tuple(f"x{i}" for i in range(w.size)), w)

    @pytest.mark.parametrize("seed", SEAM_SEEDS)
    def test_reproducer(self, seed):
        sample_spectrum(self._measure(near_flat_weights(seed)), self.GRID)

    def test_near_flat_magnitude_sweep(self):
        """50 near-flat weights at 10**k, for every k from -300 to 300."""
        for k in range(-300, 301):
            sample_spectrum(self._measure(near_flat_weights(k + 1000, 10.0**k, 50)), self.GRID)

    def test_stress_sweep(self):
        """600 measures, n 1-299: weights 10**U(-320, 300), whose smallest
        the exact scale shift would carry out of the normal range,
        10**U(-323, -300), and near-flat weights at 10**U(-300, 300)."""
        rng = np.random.default_rng(0)
        for k in range(600):
            n = int(rng.integers(1, 300))
            if k % 3 == 0:
                w = 10.0 ** rng.uniform(-320.0, 300.0, n)
            elif k % 3 == 1:
                w = 10.0 ** rng.uniform(-323.0, -300.0, n)
            else:
                w = 10.0 ** rng.uniform(-300.0, 300.0) * (1.0 + 1e-12 * rng.random(n))
            w = w[w > 0] if (w > 0).any() else np.array([1e-300])
            sample_spectrum(self._measure(w), self.GRID)

    def test_branch_threshold_grids(self):
        """Orders on both sides of the log-sum-exp threshold ``|r| * max|ln w|
        = 1``, around 0, on 80 near-flat measures at 10**U(-300, 300)."""
        rng = np.random.default_rng(17)
        for seed in range(80):
            w = near_flat_weights(seed, 10.0 ** rng.uniform(-300.0, 300.0), int(rng.integers(2, 200)))
            r = 1.0 / float(np.abs(np.log(w)).max())
            grid = OrderGrid((-1.05 * r, -0.95 * r, 0.0, 0.95 * r, 1.05 * r))
            sample_spectrum(self._measure(w), grid)


class TestDivergenceTables:
    """The divergence ``D_r(p || q)`` is minus the entropy column of the
    spectrum table of ``(p, p/q)``, and such tables pass
    ``SpectrumTable.validate`` with its slack as it is, on every kind of
    ratio: each sweep builds default-grid columns through
    ``spectrum._columns``, and every column must pass."""

    GRID = OrderGrid.default()

    @staticmethod
    def _pair(rng, kind):
        n = int(rng.integers(2, 201))
        p = rng.uniform(0.05, 1.0, n)
        if kind == "uniform":
            q = p * 10.0 ** rng.uniform(-5.0, 5.0)
        elif kind == "log-uniform":
            q = p * 10.0 ** rng.uniform(-12.0, 0.0, n)
        elif kind == "1e150":
            q = p * 10.0 ** rng.uniform(-150.0, 150.0, n)
        elif kind == "1e300":
            q = p * 10.0 ** rng.uniform(-300.0, 300.0, n)
        elif kind == "e700":
            q = p * np.exp(rng.uniform(-700.0, 700.0, n))
        elif kind == "wide weights":
            p, q = 10.0 ** rng.uniform(-320.0, 300.0, n), np.ones(n)
        elif kind == "counts":
            p = rng.integers(0, 10, n).astype(float)
            p[rng.integers(n)] = float(rng.integers(1, 10))
            q = rng.integers(1, 10, n).astype(float)
        elif kind == "past the doubles":
            # one ratio overflows to inf and holds nearly all of p's mass,
            # so M_r at small r < 0 passes the largest double
            q = p * 10.0 ** rng.uniform(-12.0, 0.0, n)
            k = rng.integers(n)
            p[k], q[k] = 1e12, 1e-310
        else:  # near-flat ratios
            q = p / (10.0 ** rng.uniform(-300.0, 300.0) * (1.0 + 1e-12 * rng.random(n)))
        labels = tuple(f"x{i}" for i in range(n))
        return MassMeasure(labels, p), MassMeasure(labels, q)

    @pytest.mark.parametrize(
        "seed, kinds, count",
        [
            (1, ("uniform", "log-uniform", "1e150", "near-flat"), 200),
            (2, ("1e300", "e700", "wide weights", "counts", "past the doubles", "near-flat"), 360),
            (3, ("near-flat",), 400),
        ],
        ids=["mixed", "extreme", "near-flat"],
    )
    def test_sweep(self, seed, kinds, count):
        rng = np.random.default_rng(seed)
        for k in range(count):
            p, q = self._pair(rng, kinds[k % len(kinds)])
            support = srenyi.info._divergence_support(p, q)
            orders, *_, derivative = srenyi.spectrum._columns(support, self.GRID, 2.0)
            slopes = [d for r, d in zip(orders, derivative) if math.isfinite(r)]
            assert all(d is not None for d in slopes) == support.finite


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
        with pytest.raises(TargetOutOfRangeError, match=r"^target 0\.5 outside"):
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
            invert_probability(ucb_dist, math.nan)

    def test_search_bound_is_gone(self, ucb_dist):
        with pytest.raises(TypeError):
            invert_probability(ucb_dist, 0.2, search_bound=1.0)

    def test_convergence_error_names_target_order_and_miss(self, ucb_dist, monkeypatch):
        monkeypatch.setattr(srenyi.spectrum, "MAX_NEWTON_ROUNDS", 2)
        target = equivalent_probability(ucb_dist, 7.0)
        with pytest.raises(ConvergenceError) as exc:
            invert_probability(ucb_dist, target, tol=1e-15)
        err = exc.value
        assert err.target == target
        assert math.isfinite(err.order) and abs(err.residual) > 1e-15
        attained = equivalent_probability(ucb_dist, err.order)
        assert_allclose(attained / target - 1.0, err.residual, rtol=1e-6)
        for value in (err.target, err.order, err.residual):
            assert repr(value) in str(err)

    def test_round_trip_randomized(self, rng):
        for _ in range(60):
            dist = random_distribution(rng)
            r = float(rng.uniform(-20, 20))
            target = equivalent_probability(dist, r)
            recovered = invert_probability(dist, target, tol=1e-10)
            assert_allclose(
                equivalent_probability(dist, recovered), target, atol=2e-10
            )


@st.composite
def spectrum_weights(draw):
    """Unnormalized weights: uniform, log-uniform over 1e12, integer counts,
    or a few tiny-mass outliers among uniform ones."""
    kind = draw(st.sampled_from(("uniform", "log-uniform", "counts", "outliers")))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.uniform(1e-3, 1.0, n)
    if kind == "log-uniform":
        return 10.0 ** (-12.0 * rng.random(n))
    if kind == "counts":
        return rng.integers(1, 20, n).astype(float)
    raw = rng.uniform(0.05, 1.0, n)
    k = int(rng.integers(1, n))
    raw[:k] = 10.0 ** rng.uniform(-14.0, -8.0, k)
    return raw


class TestClosedFormBracket:
    """The root of a target t lies between 0 and ln p_ext / (ln t - ln p_ext),
    capped at +-1e6; only a target short at the cap gives +-inf."""

    TWO_POINT = MassMeasure(("a", "b"), np.array([0.9, 0.1]))

    @given(
        spectrum_weights(),
        st.floats(min_value=-2.0, max_value=5.0),
        st.sampled_from((-1.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_bound_brackets_the_root(self, raw, decades, sign):
        """|ln p_ext / (ln pi_r - ln p_ext)| >= |r|, up to the rounding of
        ln pi_r, which grows like eps * max|ln p| * (1 + |r|) / |r|."""
        p = raw / raw.sum()
        r = sign * 10.0**decades
        log_pi = srenyi.means._LogSupport(p, p).log_mean(r)
        log_ext = math.log(p.max() if r > 0 else p.min())
        slack = 8.0 * np.finfo(float).eps * np.abs(np.log(p)).max() * (1.0 + abs(r))
        assert abs(r) * abs(log_pi - log_ext) <= abs(log_ext) + slack

    @pytest.mark.parametrize("r", [8e5, -8e5])
    def test_roots_below_the_cap_are_finite(self, r):
        """Roots in (2**19, 1e6] are finite: only the cap gives +-inf."""
        target = equivalent_probability(self.TWO_POINT, r)
        order = invert_probability(self.TWO_POINT, target)
        assert_allclose(order, r, rtol=1e-8)
        assert_allclose(equivalent_probability(self.TWO_POINT, order), target, rtol=1e-10)

    @pytest.mark.parametrize("r", [3e6, -3e6])
    def test_roots_past_the_cap_give_infinities(self, r):
        target = equivalent_probability(self.TWO_POINT, r)
        assert invert_probability(self.TWO_POINT, target) == math.copysign(INF, r)

    @staticmethod
    def _order_or_failed_order(m, target, tol):
        try:
            return invert_probability(m, target, tol=tol)
        except ConvergenceError as err:
            return err.order

    def test_tight_bound_short_by_rounding_stays_finite(self):
        """At r = 8e5 the bound is the root up to rounding, and pi there falls
        short of the target by an ulp: a tol below that ends in a finite
        order or ConvergenceError, not +inf."""
        target = equivalent_probability(self.TWO_POINT, 8e5)
        assert math.isfinite(self._order_or_failed_order(self.TWO_POINT, target, 1e-20))

    def test_short_at_an_unevaluated_bound_never_gives_infinity(self, monkeypatch):
        """An evaluation at the bound (below the cap) that rounds to the wrong
        side of the target ends as a finite order or ConvergenceError."""
        rng = np.random.default_rng(1)
        m = MassMeasure(tuple(f"x{i}" for i in range(200)), 10.0 ** (-12.0 * rng.random(200)))
        dist = normalize(m)
        target = equivalent_probability(dist, -15.0)
        log_t = float(np.log(np.array([target]))[0])
        log_min = math.log(dist.weights.min())
        bound = log_min / abs(log_t - log_min)
        solve = srenyi.spectrum._log_mean_slope
        seen = []

        def one_ulp_past(s, orders):
            log_pi, slope = solve(s, orders)
            seen.append(list(orders))
            if len(seen) == 2:  # the first step, clipped to the bound
                assert_allclose(orders, [bound], rtol=1e-12)
                log_pi = np.nextafter(np.full(log_pi.shape, log_t), INF)
            return log_pi, slope

        monkeypatch.setattr(srenyi.spectrum, "_log_mean_slope", one_ulp_past)
        assert invert_probability(m, target) == seen[1][0]
        seen.clear()
        assert math.isfinite(self._order_or_failed_order(m, target, 1e-18))

    def test_near_flat_interior_targets_never_give_infinities(self):
        """On weights 1 + 1e-12 * u, pi varies by about 1e-12 over the whole
        order line, and a tol of 2e-16 to 3.4e-16 is below the rounding of
        ln pi: rounding decides the side of pi_0 and the reading at the cap.
        A target strictly inside (p_min, p_max) then ends as a finite order
        or ConvergenceError, never +-inf."""
        outcomes = {"finite": 0, "error": 0}
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 30))
            m = MassMeasure(tuple(f"x{i}" for i in range(n)), 1.0 + 1e-12 * rng.random(n))
            tol = rng.uniform(2e-16, 3.4e-16)
            dist = normalize(m)
            p_min, p_max = dist.weights.min(), dist.weights.max()
            for r in (-0.37, -0.025, 3.0, 1195.0, 2.1e5, -1.7e6):
                target = equivalent_probability(dist, r)
                if not p_min * (1.0 + tol) < target < p_max * (1.0 - tol):
                    continue
                try:
                    order = invert_probability(m, target, tol=tol)
                except ConvergenceError:
                    outcomes["error"] += 1
                else:
                    assert math.isfinite(order), (seed, r, order)
                    outcomes["finite"] += 1
        assert sum(outcomes.values()) == 1800


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

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=40).filter(any),
        st.sampled_from([1.0, 0.1, 3.7e-5, 1e6]),
        st.randoms(use_true_random=False),
    )
    @example([4], 1.0, random.Random(0))  # a single support point
    @example([0, 2, 0, 2, 5, 0], 0.1, random.Random(1))
    @settings(max_examples=150, deadline=None)
    def test_grouping_matches_dict_reference(self, counts, scale, shuffler):
        """Measures with ties, zero weights and shuffled labels (``x10``
        sorts before ``x2``): the label column and the values inverted are
        exactly the dict-based grouping's, and the order and probability
        columns are exactly what ``_invert`` returns on those values."""
        labels = [f"x{i}" for i in range(len(counts))]
        shuffler.shuffle(labels)
        m = MassMeasure(tuple(labels), np.array(counts, dtype=float) * scale)
        want_labels, want_values = reference_label_groups(m)
        invert, inverted = srenyi.spectrum._invert, []

        def spy(p, targets, tol):
            inverted.append(np.asarray(targets).tolist())
            return invert(p, targets, tol)

        with mock.patch.object(srenyi.spectrum, "_invert", spy):
            rows = recover_distribution_probe(m)
        assert [row[0] for row in rows] == want_labels
        assert inverted == [want_values]
        orders, probs = invert(normalize(m).weights, want_values, 1e-10)
        assert [(row[1].hex(), row[2].hex()) for row in rows] == [
            (o.hex(), q.hex()) for o, q in zip(orders.tolist(), probs.tolist())
        ]

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
        for module in (srenyi.measures, srenyi.spectrum):
            monkeypatch.setattr(module, "normalize", counting_normalize, raising=False)
        rows = recover_distribution_probe(ucb_counts)
        assert len(rows) == 6
        assert built == [6]
        assert normalized == []


class TestTwelveDecadeRecovery:
    """Recovery across a 1e12 dynamic range: every target strictly between
    min p and max p gets a finite order whose equivalent probability is
    within 1e-9 relative, and only the extremes map to -inf / +inf."""

    @staticmethod
    def _measure(raw):
        return MassMeasure(tuple(f"x{i}" for i in range(raw.size)), raw)

    def _check(self, m):
        dist = normalize(m)
        p = dist.weights
        support = srenyi.means._LogSupport(p, p)
        rows = recover_distribution_probe(m)
        values = sorted(set(p.tolist()))
        assert len(rows) == len(values)
        for (_, order, prob), target in zip(rows, values):
            assert prob == support.mean(order)
            if target == p.min():
                assert order == -INF and prob == target
            elif target == p.max():
                assert order == INF and prob == target
            else:
                assert math.isfinite(order), target
                assert_allclose(equivalent_probability(dist, order), target, rtol=1e-9, atol=0)
                assert_allclose(prob, target, rtol=1e-9, atol=0)
        return rows

    def test_log_uniform_weights(self):
        rng = np.random.default_rng(1)
        self._check(self._measure(10.0 ** (-12.0 * rng.random(200))))

    def test_probe_weights(self):
        raw = np.array([1e-12, 1e-11, 1e-10, 1.0 - 1.11e-10])
        orders = [order for _, order, _ in self._check(self._measure(raw))]
        assert orders[0] == -INF and orders[1] < orders[2] and orders[3] == INF

    @staticmethod
    def _count_kernel_calls(monkeypatch):
        orders_per_call = []
        kernel = srenyi.means._log_moments

        def counting_kernel(s, orders, escort=False):
            orders_per_call.append(len(orders))
            return kernel(s, orders, escort)

        monkeypatch.setattr(srenyi.means, "_log_moments", counting_kernel)
        return orders_per_call

    def test_tiny_tolerance_answers_or_raises(self, monkeypatch):
        """A tol below the rounding of ln pi_r ends in an answer or in
        ConvergenceError, and a target whose iterate stops moving ends it
        at once rather than after MAX_NEWTON_ROUNDS rounds."""
        calls = self._count_kernel_calls(monkeypatch)
        rng = np.random.default_rng(1)
        m = self._measure(10.0 ** (-12.0 * rng.random(200)))
        try:
            rows = recover_distribution_probe(m, tol=1e-16)
        except ConvergenceError as err:
            assert err.target is not None and err.residual is not None
        else:
            assert len(rows) == 200
        assert len(calls) <= 50

    # seed 59: the first seed meets its second-lowest value exactly
    @pytest.mark.parametrize("seed", [1, 11, 12, 13, 59])
    def test_lockstep_kernel_calls(self, monkeypatch, seed):
        """One recovery of 200 values makes at most 6 kernel calls and
        evaluates at most 2.5 orders per value on average: one call seeds
        every target, and the rest are Newton passes."""
        calls = self._count_kernel_calls(monkeypatch)
        rng = np.random.default_rng(seed)
        rows = recover_distribution_probe(self._measure(10.0 ** (-12.0 * rng.random(200))))
        assert len(rows) == 200
        assert len(calls) <= 6
        assert sum(calls) / len(rows) <= 2.5

    def test_far_tail_target_kernel_calls(self, monkeypatch):
        """A target at r = -15 starts at its closed-form bound, within a few
        per cent of the root, and needs at most 6 kernel calls."""
        rng = np.random.default_rng(1)
        m = self._measure(10.0 ** (-12.0 * rng.random(200)))
        target = equivalent_probability(normalize(m), -15.0)
        calls = self._count_kernel_calls(monkeypatch)
        assert_allclose(invert_probability(m, target), -15.0, rtol=1e-9)
        assert len(calls) <= 6

    @pytest.mark.parametrize("seed", range(5))
    def test_near_flat_recovery_kernel_calls(self, monkeypatch, seed):
        """On 200 weights 1 + 1e-9 * u, pi is flat to rounding between the
        outermost seeds, so every open value lies past one of them; its
        Newton step from that seed goes straight to its bound, and one
        round after the seeding call settles every value."""
        rng = np.random.default_rng(seed)
        m = self._measure(1.0 + 1e-9 * rng.random(200))
        calls = self._count_kernel_calls(monkeypatch)
        rows = recover_distribution_probe(m)
        assert len(rows) == len({float(v) for v in normalize(m).weights})
        assert len(calls) <= 2

    def test_flat_outer_seed_meeting_a_target(self, monkeypatch):
        """The slope at a seed can read 0, and a value past the outermost
        seed can lie exactly at its ln pi: the Newton step from there is
        0/0, and that value starts inside its bracket rather than at NaN."""
        rng = np.random.default_rng(1)
        m = self._measure(10.0 ** (-12.0 * rng.random(200)))
        lowest_inner = math.log(sorted(set(normalize(m).weights.tolist()))[1])
        solve = srenyi.spectrum._log_mean_slope
        starts = []

        def flat_lowest_seed(s, orders):
            log_pi, slope = solve(s, orders)
            if not starts:
                log_pi[0], slope[0] = lowest_inner, 0.0
            starts.append(np.array(orders).tolist())
            return log_pi, slope

        monkeypatch.setattr(srenyi.spectrum, "_log_mean_slope", flat_lowest_seed)
        self._check(m)
        assert -srenyi.spectrum.BRACKET_CAP <= starts[1][0] <= starts[0][0]

    def test_no_seed_beside_zero(self, monkeypatch):
        """On these weights the seed nearest 0 would land at r = 0.0014,
        beside r = 0, where its closed-form slope fails the rounding test;
        it moves onto r = 0, and the seeding call takes ``_kl_slope`` at
        r = 0 alone."""
        rng = np.random.default_rng(2802)
        m = self._measure(10.0 ** (-12.0 * rng.random(200)))
        kl_slope, rows = srenyi.means._kl_slope, []

        def spy(s, rs, log_mean):
            rows.append(rs.tolist())
            return kl_slope(s, rs, log_mean)

        monkeypatch.setattr(srenyi.means, "_kl_slope", spy)
        assert len(recover_distribution_probe(m)) == 200
        assert rows == [[0.0]]

    # Orders evaluated by one recovery of each family's weights (n = 200,
    # default_rng(0)) with the former 64 seeds, spread evenly in r / (1 + |r|)
    FORMER_ORDERS = {
        "uniform": 539,
        "counts": 505,
        "two-scale": 639,
        "log-uniform 1e12": 506,
        "log-uniform 1e300": 470,
        "zipf": 473,
        "near-flat": 175,
    }

    @staticmethod
    def _family(name, rng, n):
        if name == "uniform":
            return rng.random(n)
        if name == "counts":
            return rng.integers(1, 1000, n).astype(float)
        if name == "two-scale":
            return np.where(rng.random(n) < 0.5, 1.0, 1e-6) * (1.0 + rng.random(n))
        if name == "log-uniform 1e12":
            return 10.0 ** (-12.0 * rng.random(n))
        if name == "log-uniform 1e300":
            return 10.0 ** (-300.0 * rng.random(n))
        if name == "zipf":
            return 1.0 / np.arange(1, n + 1) ** (1.0 + rng.random())
        return 1.0 + 1e-9 * rng.random(n)  # near-flat

    @pytest.mark.parametrize("family", sorted(FORMER_ORDERS))
    def test_family_orders_do_not_grow(self, monkeypatch, family):
        """Seeds centred on r = -1 cost no weight family more orders than
        the former placement did, beyond the SEED_ORDERS - 64 seeds added:
        a near-flat recovery is the seeding call and one round, and spends
        all of them."""
        m = self._measure(self._family(family, np.random.default_rng(0), 200))
        calls = self._count_kernel_calls(monkeypatch)
        recover_distribution_probe(m)
        assert sum(calls) <= self.FORMER_ORDERS[family] + srenyi.spectrum.SEED_ORDERS - 64

    @pytest.mark.parametrize(
        "r, max_calls", [(-15.0, 3), (-2.0, 7), (0.3, 5), (4.0, 8), (30.0, 7)]
    )
    def test_one_target_is_not_seeded(self, monkeypatch, r, max_calls):
        """A single target at n = 10**5 evaluates r = 0 alone first, not the
        shared seeds of a recovery: at most 16 orders in all."""
        n = 10**5
        m = self._measure(1.0 - np.random.default_rng(5).random(n))
        target = equivalent_probability(normalize(m), r)
        calls = self._count_kernel_calls(monkeypatch)
        assert_allclose(invert_probability(m, target), r, rtol=1e-9)
        assert len(calls) <= max_calls
        assert sum(calls) <= 16


class TestSeedPlacement:
    """The shared seeds of a recovery are sorted and unique, include r = 0,
    and lie inside the closed-form bounds of the lowest and the highest
    interior target, wherever the targets sit."""

    P = normalize(
        MassMeasure(
            tuple(f"x{i}" for i in range(200)),
            10.0 ** (-6.0 * np.random.default_rng(4).random(200)),
        )
    ).weights

    @pytest.mark.parametrize(
        "orders, extremes",
        [
            (np.linspace(0.5, 30.0, 120), False),  # every target above pi_0
            (np.linspace(-30.0, -0.5, 120), False),  # every target below pi_0
            (np.linspace(-0.9, 8.0, 120), False),  # every root above -1
            (np.linspace(-5.0, 5.0, 120), True),  # both bounds at BRACKET_CAP
        ],
    )
    def test_seeds(self, monkeypatch, orders, extremes):
        """A bound of a target t < 1 is at least 1, so c = 1 + r at the
        lower end is at most 0 even where every root lies above -1; a target
        within 1e-8 of an extreme weight puts its bound at the cap."""
        p, spectrum = self.P, srenyi.spectrum
        support = srenyi.means._LogSupport(p, p)
        targets = [support.mean(r) for r in orders.tolist()]
        if extremes:
            targets += [p.min() * (1.0 + 1e-8), p.max() * (1.0 - 1e-8)]
        log_t = np.log(targets)
        lo = -spectrum._root_bound(log_t.min(), math.log(p.min()))
        hi = spectrum._root_bound(log_t.max(), math.log(p.max()))
        assert (lo == -spectrum.BRACKET_CAP and hi == spectrum.BRACKET_CAP) == extremes
        solve, seen = spectrum._log_mean_slope, []

        def spy(s, at):
            seen.append(np.array(at, dtype=float))
            return solve(s, at)

        monkeypatch.setattr(spectrum, "_log_mean_slope", spy)
        found, probs = spectrum._invert(p, targets, 1e-10)
        seeds = seen[0]
        assert seeds.size == spectrum.SEED_ORDERS
        assert (np.diff(seeds) > 0.0).all()
        assert 0.0 in seeds
        assert seeds[0] == lo and seeds[-1] == hi
        finite = np.isfinite(found)
        assert finite.sum() == len(orders)
        assert_allclose(probs[finite], np.array(targets)[finite], rtol=1e-10, atol=0)
