"""Labeled measures: construction, normalization, ratios, alignment."""

import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import srenyi
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

from support import UCB_COUNTS, UCB_LABELS, UCB_TOTAL, reference_aligned_weights


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
        with pytest.raises(ValueError, match="measure must have at least one outcome"):
            from_counts((), ())
        with pytest.raises(ValueError, match="at least one weight must be positive"):
            from_counts(("a", "b"), (0, 0))
        with pytest.raises(ValueError, match=r"duplicate labels: \['a'\]"):
            from_counts(("a", "a"), (1, 2))
        with pytest.raises(ValueError, match="weights must be non-negative"):
            from_counts(("a", "b"), (1, -2))
        with pytest.raises(ValueError, match="counts must be integers"):
            from_counts(("a", "b"), (1, 1.5))

    def test_non_finite_counts(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                from_counts(("a", "b"), (1, bad))

    def test_duplicate_labels_are_found_in_one_pass(self):
        labels = [f"x{i}" for i in range(30_000)]
        labels[-1] = "x0"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^duplicate labels: \['x0'\]$"):
            MassMeasure(tuple(labels), np.ones(len(labels)))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("n", [2, 10_000])
    def test_colliding_hashes_fall_back_to_the_exact_check(self, monkeypatch, n):
        """Uniqueness is read from the sorted label hashes, and where two
        hashes meet the exact check decides; with every hash equal, distinct
        labels still build and repeated ones are still named."""
        hashed = []
        monkeypatch.setattr(
            srenyi.measures, "hash", lambda label: hashed.append(label) or 0, raising=False
        )
        labels = tuple(f"x{i}" for i in range(n))
        assert MassMeasure(labels, np.ones(n)).labels == labels
        assert hashed == list(labels)
        with pytest.raises(ValueError, match=r"^duplicate labels: \['a'\]$"):
            MassMeasure(("a", "b", "a"), np.ones(3))

    def test_measure_rejections(self):
        with pytest.raises(ValueError, match="weights must not be NaN"):
            MassMeasure(("a", "b"), np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="weights must be finite"):
            MassMeasure(("a", "b"), np.array([1.0, math.inf]))
        with pytest.raises(ValueError, match="weights must be non-negative"):
            MassMeasure(("a", "b"), np.array([-1.0, 2.0]))
        with pytest.raises(ValueError, match="at least one weight must be positive"):
            MassMeasure(("a", "b"), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="1 labels for 2 weights"):
            MassMeasure(("a",), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="weights must be one-dimensional"):
            MassMeasure(("a", "b"), np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="measure must have at least one outcome"):
            MassMeasure((), np.array([]))

    def test_overflowing_total_is_rejected(self):
        # each weight is finite but the total is not; the entropy of such a
        # measure came out as -0.0 instead of about -1023.15 bits
        for cls in (MassMeasure, Distribution):
            with pytest.raises(ValueError, match="total weight must be finite"):
                cls(("a", "b"), np.array([1e308, 1e308]))
        with pytest.raises(ValueError, match="total weight must be finite"):
            from_counts(("a", "b"), (1e308, 1e308))
        assert MassMeasure(("a", "b"), np.array([1e308, 0.5e308])).total == 1.5e308

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

    def test_repr(self):
        """Each label with its weight in ``%g`` form, under the class name."""
        m = MassMeasure(("a", "b", "c"), [1, 2.5, 0])
        assert repr(m) == "MassMeasure(a=1, b=2.5, c=0)"
        assert repr(normalize(from_counts(("x", "y"), (1, 3)))) == "Distribution(x=0.25, y=0.75)"
        assert repr(MassMeasure(("tiny",), [1e-300])) == "MassMeasure(tiny=1e-300)"

    def test_items(self):
        """``(label, weight)`` pairs in label order, each weight a Python float."""
        items = list(MassMeasure(("b", "a", "c"), np.array([2.5, 1.0, 0.0])).items())
        assert items == [("b", 2.5), ("a", 1.0), ("c", 0.0)]
        assert {type(w) for _, w in items} == {float}


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

    def test_alignment_matches_the_reference(self):
        """One sort and one dict align as the set comparison and two dicts
        did: the same order, bitwise the same weights, and the same message
        when the sets differ, by a label that one side lacks (the sizes
        differ) or by one on each side (they do not)."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = [f"{chr(97 + int(k) % 26)}{k}" for k in rng.permutation(3 * n)[:n]]
            p = MassMeasure(labels, 10.0 ** rng.uniform(-300.0, 300.0, n))
            q_labels = [labels[i] for i in rng.permutation(n)]
            kind = int(rng.integers(4))
            if kind == 1:
                q_labels.append("extra")
            elif kind == 2:
                q_labels.pop()
            elif kind == 3:
                q_labels[int(rng.integers(n))] = "other"
            q = MassMeasure(q_labels, rng.random(len(q_labels)))
            try:
                want = reference_aligned_weights(p, q)
            except LabelMismatchError as exc:
                with pytest.raises(LabelMismatchError) as err:
                    aligned_weights(p, q)
                assert str(err.value) == str(exc)
                continue
            order, pw, qw = aligned_weights(p, q)
            assert order == want[0]
            assert (pw.tobytes(), qw.tobytes()) == (want[1].tobytes(), want[2].tobytes())

    def test_many_labels_are_named_by_the_first_five_and_the_count(self):
        labels = tuple("abcdefg")
        p = MassMeasure(labels, np.ones(7))
        q = MassMeasure(labels, np.array([1.0, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(SupportViolationError) as err:
            ratio(p, q)
        assert err.value.labels == labels[1:]
        assert str(err.value) == (
            "second measure is zero on labels ['b', 'c', 'd', 'e', 'f', ...] (6 labels) "
            "where the first is positive"
        )
        other = MassMeasure(tuple("ABCDEFG"), np.ones(7))
        with pytest.raises(LabelMismatchError) as err:
            ratio(p, other)
        assert str(err.value) == (
            "label sets differ (only in first: ['a', 'b', 'c', 'd', 'e', ...] (7 labels), "
            "only in second: ['A', 'B', 'C', 'D', 'E', ...] (7 labels))"
        )

    def test_five_labels_are_all_named(self):
        p = MassMeasure(tuple("abcdef"), np.ones(6))
        q = MassMeasure(tuple("abcdef"), np.array([1.0, 0, 0, 0, 0, 0]))
        with pytest.raises(SupportViolationError) as err:
            ratio(p, q)
        assert str(err.value) == (
            "second measure is zero on labels ['b', 'c', 'd', 'e', 'f'] where the first is positive"
        )
