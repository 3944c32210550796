"""Shared numeric conventions, index masks, and the sparsity penalty.

Everything downstream works with 1-based coordinate indices so that masks
round-trip cleanly through JSON/CSV reports. Internally a mask is a sorted
tuple of ints plus the ambient dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Penalty base constant: exp(2), natural log throughout.
Q_DEFAULT = math.exp(2.0)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class DimensionError(ValueError):
    """Objects with mismatched ambient dimension were combined."""


def check_sigma_q(sigma: float, q: float = Q_DEFAULT) -> None:
    """Raise DomainError unless 0 < sigma, sigma*sigma is finite and q is finite."""
    if not (sigma > 0 and math.isfinite(sigma * sigma)):
        raise DomainError(f"sigma must be positive with a finite square, got {sigma}")
    if not math.isfinite(q):
        raise DomainError(f"q must be finite, got {q}")


def sparsity_penalty(k: int | float, n: int, q: float = Q_DEFAULT) -> float:
    """Penalty weight k*log(q*n/k) for selecting k of n coordinates.

    Strictly increasing in k on [0, n] for q >= e; k = 0 returns 0 by the
    0*log(a/0) = 0 convention.

    Raises
    ------
    DomainError
        If k < 0 or k > n.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if k < 0 or k > n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    if k == 0:
        return 0.0
    return k * math.log(q * n / k)


@dataclass(frozen=True)
class SelectionMask:
    """A subset of {1, ..., n}, stored as a sorted tuple of 1-based indices."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"mask dimension must be >= 1, got {self.n}")
        idx = self.indices
        for j, i in enumerate(idx):
            if not (1 <= i <= self.n):
                raise DomainError(f"index {i} outside [1, {self.n}]")
            if j > 0 and idx[j - 1] >= i:
                raise DomainError("indices must be strictly increasing")

    @classmethod
    def from_indices(cls, indices: Sequence[int] | np.ndarray, n: int) -> "SelectionMask":
        """Build a mask from an array-like of 1-based indices (deduplicated)."""
        return cls(tuple(sorted(set(np.asarray(indices, dtype=np.int64).tolist()))), n)

    @classmethod
    def empty(cls, n: int) -> "SelectionMask":
        return cls((), n)

    @classmethod
    def full(cls, n: int) -> "SelectionMask":
        return cls(tuple(range(1, n + 1)), n)

    @property
    def size(self) -> int:
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.indices)

    def indicator(self) -> np.ndarray:
        """Binary representation as an int8 0/1 vector of length n."""
        eta = np.zeros(self.n, dtype=np.int8)
        if self.indices:
            eta[np.asarray(self.indices) - 1] = 1
        return eta

    def to_json(self) -> list[int]:
        """Sorted 1-based index array, the JSON wire form."""
        return list(self.indices)


def hamming_distance(a: SelectionMask, b: SelectionMask) -> int:
    """Number of coordinates on which two masks disagree: |a\\b| + |b\\a|."""
    if a.n != b.n:
        raise DimensionError(f"mask dimensions differ: {a.n} != {b.n}")
    return len(a.as_set() ^ b.as_set())


@dataclass(frozen=True)
class ObservationVector:
    """Observed data with known noise intensity sigma."""

    x: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1 or x.size < 1:
            raise DomainError("x must be a nonempty 1-d vector")
        if not np.all(np.isfinite(x)):
            raise DomainError("x must be finite")
        check_sigma_q(self.sigma)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return int(self.x.size)

