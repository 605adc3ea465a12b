"""Labeled non-negative mass measures and probability distributions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LabelMismatchError, SupportViolationError

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

    Weights need not sum to one; at least one must be positive.  The weight
    array is stored as a read-only float64 copy, so instances are safe to
    share.
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(l) for l in self.labels)
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if len(labels) != w.size:
            raise ValueError(f"{len(labels)} labels for {w.size} weights")
        if w.size == 0:
            raise ValueError("measure must have at least one outcome")
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate labels: {dupes}")
        if np.isnan(w).any():
            raise ValueError("weights must not be NaN")
        if np.isinf(w).any():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        if not (w > 0).any():
            raise ValueError("at least one weight must be positive")
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
        total = self.weights.sum()
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"probabilities sum to {total!r}, not 1 within {NORMALIZATION_TOL}"
            )


def from_counts(labels: Sequence[str], counts: Sequence[int]) -> MassMeasure:
    """Build a MassMeasure from non-negative integer counts.

    Integer totals are exact up to 2**53, so downstream normalization
    divides by the true total.
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("counts must be a non-empty one-dimensional sequence")
    if np.isnan(c).any() or np.isinf(c).any():
        raise ValueError("counts must be finite")
    if (c < 0).any():
        raise ValueError("counts must be non-negative")
    if (c != np.floor(c)).any():
        raise ValueError("counts must be integers")
    if not (c > 0).any():
        raise ValueError("at least one count must be positive")
    return MassMeasure(tuple(labels), c)


def normalize(m: MassMeasure) -> Distribution:
    """Scale ``m`` to a Distribution on the same labels.

    Always divides by the total, even when it is already 1, so the result
    coincides bit for bit with the order-0 escort of the weights.
    """
    return Distribution(m.labels, m.weights / m.weights.sum())


def aligned_weights(p: MassMeasure, q: MassMeasure) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Common label order (sorted) with both weight vectors re-indexed to it.

    The label *sets* must be equal; input order is irrelevant.
    """
    if set(p.labels) != set(q.labels):
        only_p = sorted(set(p.labels) - set(q.labels))
        only_q = sorted(set(q.labels) - set(p.labels))
        raise LabelMismatchError(
            f"label sets differ (only in first: {only_p}, only in second: {only_q})"
        )
    order = tuple(sorted(p.labels))
    p_index = {l: i for i, l in enumerate(p.labels)}
    q_index = {l: i for i, l in enumerate(q.labels)}
    pw = p.weights[[p_index[l] for l in order]]
    qw = q.weights[[q_index[l] for l in order]]
    return order, pw, qw


def ratio(p: MassMeasure, q: MassMeasure) -> np.ndarray:
    """Pointwise ``p/q`` over the support of ``p``, labels aligned by name.

    Returns the ratio vector in sorted-label order, restricted to labels
    where ``p`` is positive.  Raises :class:`SupportViolationError`, naming
    the offending labels, whenever ``q`` vanishes somewhere ``p`` does not.
    """
    return _aligned_ratio(*aligned_weights(p, q))


def _aligned_ratio(
    order: tuple[str, ...], pw: np.ndarray, qw: np.ndarray
) -> np.ndarray:
    """:func:`ratio` of weights already aligned by :func:`aligned_weights`."""
    mask = pw > 0
    bad = tuple(l for l, pi, qi in zip(order, pw, qw) if pi > 0 and qi == 0)
    if bad:
        raise SupportViolationError(
            f"second measure is zero on labels {list(bad)} where the first is positive",
            labels=bad,
        )
    return pw[mask] / qw[mask]
