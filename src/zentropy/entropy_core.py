"""Finite discrete distributions and entropy functionals (bits, log base 2).

Everything here is a pure function over immutable values: Distribution and
SampleCounts validate on construction and are never mutated afterwards, so
all operations are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyCountsError, InvalidAlphaError, InvalidDistributionError

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class EntropyBits:
    """An entropy value in bits (log base 2)."""

    value: float

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability distribution over an ordered list of opaque outcome labels.

    Probabilities must be non-negative and sum to 1 within NORMALIZATION_TOL;
    inputs inside the tolerance are renormalized exactly once, anything
    further off raises InvalidDistributionError.
    """

    outcomes: tuple
    probs: np.ndarray = field(repr=False)

    def __init__(self, outcomes: Sequence[Hashable], probs) -> None:
        outcomes = tuple(outcomes)
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 1 or len(outcomes) != p.shape[0]:
            raise InvalidDistributionError(
                f"{len(outcomes)} outcomes vs {p.shape} probabilities"
            )
        if p.shape[0] == 0:
            raise InvalidDistributionError("empty outcome set")
        if len(set(outcomes)) != len(outcomes):
            raise InvalidDistributionError("outcome labels must be unique")
        p = normalized_probs(p)
        p.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, outcomes: Sequence[Hashable]) -> "Distribution":
        n = len(tuple(outcomes))
        return cls(outcomes, np.full(n, 1.0 / n))

    @classmethod
    def point(cls, outcome: Hashable, outcomes: Sequence[Hashable] | None = None) -> "Distribution":
        """Point mass on `outcome`, optionally embedded in a larger label set."""
        if outcomes is None:
            return cls((outcome,), np.ones(1))
        outcomes = tuple(outcomes)
        p = np.zeros(len(outcomes))
        p[outcomes.index(outcome)] = 1.0
        return cls(outcomes, p)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.probs))

    def prob_of(self, outcome: Hashable) -> float:
        return float(self.probs[self.outcomes.index(outcome)])

    def as_dict(self) -> dict:
        return dict(zip(self.outcomes, self.probs.tolist()))


@dataclass(frozen=True)
class SampleCounts:
    """Occurrence counts per outcome label, the empirical input to estimators."""

    counts: Mapping[Hashable, int]
    total: int = -1

    def __post_init__(self) -> None:
        counts = dict(self.counts)
        for label, c in counts.items():
            if int(c) != c or c < 0:
                raise EmptyCountsError(f"count for {label!r} must be a non-negative integer")
            counts[label] = int(c)
        total = sum(counts.values())
        if self.total not in (-1, total):
            raise EmptyCountsError(f"declared total {self.total} != sum of counts {total}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    @classmethod
    def from_samples(cls, samples: Iterable[Hashable]) -> "SampleCounts":
        counts: dict = {}
        for s in samples:
            counts[s] = counts.get(s, 0) + 1
        return cls(counts)


def normalized_probs(probs) -> np.ndarray:
    """probs as float64, each vector along the last axis finite, >= 0 and
    summing to 1 within NORMALIZATION_TOL (else InvalidDistributionError),
    divided once by its sum if that is not exactly 1."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise InvalidDistributionError("probabilities must be finite and >= 0")
    total = p.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > NORMALIZATION_TOL
    if off.any():
        raise InvalidDistributionError(f"probabilities sum to {float(total[off][0])!r}, not 1")
    return _renormalized(p, total)


def _renormalized(p: np.ndarray, total=None) -> np.ndarray:
    """normalized_probs' arithmetic without its checks: p over total, its
    keepdims sum along the last axis, where that is not exactly 1."""
    total = p.sum(axis=-1, keepdims=True) if total is None else total
    return np.where(total == 1.0, p, p / total)


def _entropy_of_probs(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum() + 0.0)  # + 0.0 normalizes -0.0


def _row_entropies(p) -> np.ndarray:
    """_entropy_of_probs(normalized_probs(row)) of every row of the 2-D p,
    bitwise, from whole-block operations: the row totals are one
    sum(axis=1) of the C-contiguous block, which adds each row in the order
    of its own 1-D .sum(); the division and the log2 run once over the
    block, and each row's positive terms are summed as one contiguous run
    (np.add.reduceat adds a segment in another order). An invalid block
    raises what normalized_probs raises for its first offending row."""
    p = np.ascontiguousarray(p, dtype=np.float64)
    valid = bool(np.isfinite(p).all()) and not (p < 0.0).any()
    total = p.sum(axis=1)[:, None] if valid else None
    if not valid or (np.abs(total - 1.0) > NORMALIZATION_TOL).any():
        for row in p:
            normalized_probs(row)
    q = _renormalized(p, total)
    positive = q > 0.0
    nz = q[positive]
    terms = nz * np.log2(nz)
    ends = np.cumsum(np.count_nonzero(positive, axis=1)).tolist()
    return np.array([-terms[lo:hi].sum() + 0.0 for lo, hi in zip([0] + ends, ends)])


def shannon_entropy(d: Distribution) -> EntropyBits:
    """H(d) = -sum p_i log2 p_i, with 0 log 0 := 0."""
    return EntropyBits(_entropy_of_probs(d.probs))


def renyi_entropy(d: Distribution, alpha: float) -> EntropyBits:
    """Renyi entropy of order alpha: (1/(1-alpha)) log2 sum p_i^alpha."""
    if not (alpha > 0.0) or alpha == 1.0:
        raise InvalidAlphaError(f"alpha must be > 0 and != 1, got {alpha!r}")
    s = float((d.probs ** alpha).sum())
    return EntropyBits(math.log2(s) / (1.0 - alpha) + 0.0)


def _counts_vector(c: SampleCounts) -> np.ndarray:
    if c.total < 1:
        raise EmptyCountsError("entropy estimation needs at least one observation")
    return np.array(list(c.counts.values()), dtype=np.float64)


def plugin_entropy(c: SampleCounts) -> EntropyBits:
    """Maximum-likelihood plug-in estimate: entropy of the empirical frequencies."""
    v = _counts_vector(c)
    return EntropyBits(_entropy_of_probs(v / c.total))


def miller_madow_entropy(c: SampleCounts) -> EntropyBits:
    """Plug-in estimate plus the (K-1)/(2 N ln 2) bias correction.

    K counts the outcomes actually observed. The corrected value is reported
    raw, without clamping to log2(K).
    """
    v = _counts_vector(c)
    k = int((v > 0).sum())
    correction = (k - 1) / (2.0 * c.total * math.log(2.0))
    return EntropyBits(_entropy_of_probs(v / c.total) + correction)


def joint_product(d1: Distribution, d2: Distribution) -> Distribution:
    """Independent product distribution over (o1, o2) pairs, d1-major order."""
    outcomes = tuple((a, b) for a in d1.outcomes for b in d2.outcomes)
    probs = np.outer(d1.probs, d2.probs).ravel()
    return Distribution(outcomes, probs)
