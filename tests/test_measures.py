"""Labeled measures: construction, normalization, ratios, alignment."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from srenyi import (
    Distribution,
    LabelMismatchError,
    MassMeasure,
    SupportViolationError,
    aligned_weights,
    escort_distribution,
    from_counts,
    normalize,
    ratio,
)

from support import UCB_COUNTS, UCB_LABELS, UCB_TOTAL


class TestConstruction:
    def test_from_counts_total(self, ucb_counts):
        assert ucb_counts.total == UCB_TOTAL
        assert len(ucb_counts) == 6
        assert ucb_counts.labels == UCB_LABELS

    def test_large_integer_counts_are_exact(self):
        m = from_counts(("a", "b"), (2**52, 1))
        assert m.total == 2**52 + 1

    def test_single_outcome(self):
        m = from_counts(("only",), (7,))
        assert normalize(m).weights[0] == 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            from_counts((), ())
        with pytest.raises(ValueError):
            from_counts(("a", "b"), (0, 0))
        with pytest.raises(ValueError):
            from_counts(("a", "a"), (1, 2))
        with pytest.raises(ValueError):
            from_counts(("a", "b"), (1, -2))
        with pytest.raises(ValueError):
            from_counts(("a", "b"), (1, 1.5))

    def test_measure_rejections(self):
        with pytest.raises(ValueError):
            MassMeasure(("a", "b"), np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            MassMeasure(("a", "b"), np.array([1.0, math.inf]))
        with pytest.raises(ValueError):
            MassMeasure(("a", "b"), np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            MassMeasure(("a", "b"), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            MassMeasure(("a",), np.array([1.0, 2.0]))

    def test_weights_are_read_only(self, ucb_counts):
        with pytest.raises(ValueError):
            ucb_counts.weights[0] = 99.0

    def test_distribution_requires_unit_total(self):
        with pytest.raises(ValueError):
            Distribution(("a", "b"), np.array([0.5, 0.6]))
        Distribution(("a", "b"), np.array([0.5, 0.5 + 1e-12]))

    def test_support_labels(self):
        m = MassMeasure(("a", "b", "c"), np.array([1.0, 0.0, 2.0]))
        assert m.support_labels == ("a", "c")


class TestNormalize:
    def test_ucb_probabilities(self, ucb_counts):
        dist = normalize(ucb_counts)
        assert_allclose(
            dist.weights,
            np.array(UCB_COUNTS) / UCB_TOTAL,
            rtol=0,
        )
        # two-decimal sanity values of the worked example
        assert_allclose(dist.weights, [0.21, 0.13, 0.20, 0.17, 0.13, 0.16], atol=0.005)

    def test_uniform(self):
        dist = normalize(from_counts("abcd", (3, 3, 3, 3)))
        assert_allclose(dist.weights, 0.25, rtol=0)

    def test_idempotent(self, rng):
        w = rng.uniform(0.1, 5.0, 7)
        dist = normalize(MassMeasure(tuple("abcdefg"), w))
        again = normalize(dist)
        assert_allclose(again.weights, dist.weights, rtol=1e-14)
        assert math.isclose(dist.weights.sum(), 1.0, rel_tol=1e-12)

    def test_matches_order_zero_escort(self, rng):
        w = rng.uniform(0.1, 5.0, 6)
        dist = normalize(MassMeasure(tuple("abcdef"), w))
        assert_allclose(dist.weights, escort_distribution(w, w, 0.0), atol=1e-12)

    def test_keeps_zeros(self):
        dist = normalize(MassMeasure(("a", "b", "c"), np.array([1.0, 0.0, 3.0])))
        assert dist.weights[1] == 0.0


class TestAlignmentAndRatio:
    def test_identical_measures(self):
        p = MassMeasure(("a", "b"), np.array([0.5, 0.5]))
        assert_allclose(ratio(p, p), [1.0, 1.0], rtol=0)

    def test_simple_ratio(self):
        p = MassMeasure(("a", "b"), np.array([0.5, 0.5]))
        q = MassMeasure(("a", "b"), np.array([0.25, 0.75]))
        assert_allclose(ratio(p, q), [2.0, 2.0 / 3.0], rtol=1e-15)

    def test_label_order_is_irrelevant(self):
        p = MassMeasure(("b", "a"), np.array([0.75, 0.25]))
        q = MassMeasure(("a", "b"), np.array([0.5, 0.5]))
        order, pw, qw = aligned_weights(p, q)
        assert order == ("a", "b")
        assert_allclose(pw, [0.25, 0.75], rtol=0)
        assert_allclose(qw, [0.5, 0.5], rtol=0)
        assert_allclose(ratio(p, q), [0.5, 1.5], rtol=1e-15)

    def test_support_violation_names_labels(self):
        p = MassMeasure(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
        q = MassMeasure(("a", "b", "c"), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(SupportViolationError) as err:
            ratio(p, q)
        assert err.value.labels == ("b", "c")

    def test_zero_p_positions_do_not_constrain_q(self):
        p = MassMeasure(("a", "b"), np.array([1.0, 0.0]))
        q = MassMeasure(("a", "b"), np.array([0.5, 0.0]))
        assert_allclose(ratio(p, q), [2.0], rtol=0)

    def test_label_mismatch(self):
        p = MassMeasure(("a", "b"), np.array([1.0, 1.0]))
        q = MassMeasure(("a", "z"), np.array([1.0, 1.0]))
        with pytest.raises(LabelMismatchError):
            ratio(p, q)
