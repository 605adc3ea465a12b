"""Labeled non-negative mass measures and probability distributions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LabelMismatchError, SupportViolationError
from .means import _check_weights

__all__ = [
    "MassMeasure",
    "Distribution",
    "from_counts",
    "normalize",
    "ratio",
    "aligned_weights",
]

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MassMeasure:
    """Finite non-negative weights attached to unique string labels.

    Weights need not sum to one; at least one must be positive and their
    total finite.  The labels are checked first, then the weight rules that
    the raw-array means share (``means._check_weights``).  Code that takes
    a measure trusts this.  The weight array is stored as a read-only
    float64 copy, so instances are safe to share.
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(map(str, self.labels))
        w = np.array(self.weights, dtype=float)
        if len(labels) != w.size:
            raise ValueError(f"{len(labels)} labels for {w.size} weights")
        # where two label hashes meet, the exact check decides
        if not _unique_hashes(_label_hashes(labels)) and len(set(labels)) != len(labels):
            dupes = sorted(l for l, count in Counter(labels).items() if count > 1)
            raise ValueError(f"duplicate labels: {dupes}")
        _check_weights(w)
        w.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{l}={w:g}" for l, w in zip(self.labels, self.weights))
        return f"{type(self).__name__}({pairs})"

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @property
    def support_labels(self) -> tuple[str, ...]:
        return tuple(l for l, w in zip(self.labels, self.weights) if w > 0)

    def items(self) -> Iterable[tuple[str, float]]:
        return zip(self.labels, (float(w) for w in self.weights))


class Distribution(MassMeasure):
    """A MassMeasure whose weights sum to 1 within ``NORMALIZATION_TOL``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_normalized(self.weights)


def _label_hashes(labels: Sequence[str]) -> np.ndarray:
    """The ``hash`` of each label, as an int64 array."""
    return np.fromiter(map(hash, labels), np.int64, len(labels))


def _unique_hashes(hashes: np.ndarray) -> bool:
    """Whether no two of ``hashes`` are equal; sorts them in place.  Equal
    labels hash equally, so hashes that never meet prove their labels
    unique; where two meet, only the labels themselves can tell."""
    hashes.sort()
    return not (hashes[1:] == hashes[:-1]).any()


def _check_normalized(p: np.ndarray) -> None:
    """The rule of a ``Distribution``: ``p`` sums to 1 within
    ``NORMALIZATION_TOL``."""
    total = p.sum()
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(
            f"probabilities sum to {total!r}, not 1 within {NORMALIZATION_TOL}"
        )


def from_counts(labels: Sequence[str], counts: Sequence[int]) -> MassMeasure:
    """Build a MassMeasure from non-negative integer counts.

    Only the integer rule is checked here; the shape, sign and positivity
    rules are the measure's.  Integer totals are exact up to 2**53, so
    downstream normalization divides by the true total.
    """
    c = np.asarray(counts, dtype=float)
    if (c != np.floor(c)).any():
        raise ValueError("counts must be integers")
    return MassMeasure(tuple(labels), c)


def normalize(m: MassMeasure) -> Distribution:
    """Scale ``m`` to a Distribution on the same labels.

    Always divides by the total, even when it is already 1, so the result
    coincides bit for bit with the order-0 escort of the weights.
    """
    return Distribution(m.labels, _probabilities(m.weights))


def _probabilities(weights: np.ndarray) -> np.ndarray:
    """``weights`` divided by their total: the weights of ``normalize``,
    bitwise, without building a measure."""
    return weights / weights.sum()


def aligned_weights(p: MassMeasure, q: MassMeasure) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Common label order (sorted) with both weight vectors re-indexed to it.

    The label *sets* must be equal; input order is irrelevant.  Labels are
    unique in a measure, so one sort of ``p``'s positions by label and one
    label -> position dict of ``q`` align them: the sets are equal when the
    sizes are and every label of ``p`` is found in ``q``.
    """
    by_label = sorted(range(len(p)), key=p.labels.__getitem__)
    order = tuple(map(p.labels.__getitem__, by_label))
    q_index = dict(zip(q.labels, range(len(q))))
    q_at = list(map(q_index.get, order))
    if len(q) != len(p) or None in q_at:
        only_p = _named(sorted(set(p.labels) - set(q.labels)))
        only_q = _named(sorted(set(q.labels) - set(p.labels)))
        raise LabelMismatchError(
            f"label sets differ (only in first: {only_p}, only in second: {only_q})"
        )
    return order, p.weights[by_label], q.weights[q_at]


def ratio(p: MassMeasure, q: MassMeasure) -> np.ndarray:
    """Pointwise ``p/q`` over the support of ``p``, labels aligned by name.

    Returns the ratio vector in sorted-label order, restricted to labels
    where ``p`` is positive.  Raises :class:`SupportViolationError`, naming
    the offending labels, whenever ``q`` vanishes somewhere ``p`` does not.
    """
    return _aligned_ratio(*aligned_weights(p, q))


def _named(labels: Sequence[str]) -> str:
    """``labels`` for an error message: their list, or past five of them
    the first five and how many there are, so that the message stays one
    short line however many labels it concerns."""
    named = str(list(labels[:5]))
    return named if len(labels) <= 5 else f"{named[:-1]}, ...] ({len(labels)} labels)"


def _aligned_ratio(
    order: tuple[str, ...], pw: np.ndarray, qw: np.ndarray
) -> np.ndarray:
    """:func:`ratio` of weights already aligned by :func:`aligned_weights`."""
    mask = pw > 0
    violated = mask & (qw == 0)
    if violated.any():
        bad = tuple(order[i] for i in np.flatnonzero(violated))
        raise SupportViolationError(
            f"second measure is zero on labels {_named(bad)} where the first is positive",
            labels=bad,
        )
    # a ratio past the largest double is +inf, without a warning
    with np.errstate(over="ignore"):
        return pw[mask] / qw[mask]
