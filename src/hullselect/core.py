"""Shared numeric conventions, index masks, and the sparsity penalty.

Everything downstream works with 1-based coordinate indices so that masks
round-trip cleanly through JSON/CSV reports. Internally a mask is a sorted
tuple of ints plus the ambient dimension.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from operator import lt
from typing import Sequence

import numpy as np

# Penalty base constant: exp(2), natural log throughout.
Q_DEFAULT = math.exp(2.0)
# The largest float whose square is finite.
ROOT_MAX = math.sqrt(sys.float_info.max)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """Invalid outside value (config, spec or input file); ``field`` names it."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


class DimensionError(ValueError):
    """Objects with mismatched ambient dimension were combined."""


def typed(value, kind: type, field: str, ok=None, need: str = ""):
    """Read one outside value as ``kind``, or raise ConfigError naming ``field``.

    ``int`` takes an integral number and ``float`` any number, booleans
    excluded in both; ``str``, ``list`` and ``dict`` must match exactly. The
    optional range test ``ok`` is reported as "must be <need>".
    """
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind:
        got = f"expected {kind.__name__}, got {reprlib.repr(value)}"
        raise ConfigError(field, "missing" if value is None else got)
    if ok is not None and not ok(value):
        raise ConfigError(field, f"must be {need}, got {reprlib.repr(value)}")
    return value


def built(field: str, make, *args):
    """``make(*args)``, with a plain DomainError reported as ConfigError(field)."""
    try:
        return make(*args)
    except ConfigError:
        raise
    except DomainError as exc:
        raise ConfigError(field, str(exc)) from exc


def finite_vector(x, name: str) -> np.ndarray:
    """``x`` as a nonempty 1-d float array whose squares are finite, else DomainError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise DomainError(f"{name} must be a nonempty 1-d vector")
    if not (-ROOT_MAX <= x.min() and x.max() <= ROOT_MAX):
        raise DomainError(f"{name} must be finite with a finite square")
    return x


def check_sigma_q(sigma: float, q: float = Q_DEFAULT) -> None:
    """Raise DomainError unless 0 < sigma, sigma*sigma is finite and 1 < q < inf."""
    if not 0 < sigma <= ROOT_MAX:
        raise DomainError(f"sigma must be positive with a finite square, got {sigma}")
    if not 1 < q < math.inf:
        raise DomainError(f"q must be finite and > 1, got {q}")


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
        # with the order check below, the first and last index bound the rest
        if idx and not (1 <= idx[0] and idx[-1] <= self.n):
            raise DomainError(f"indices {idx[0]}..{idx[-1]} outside [1, {self.n}]")
        if len(idx) > 1 and not all(map(lt, idx, idx[1:])):
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

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.indices)

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
        object.__setattr__(self, "x", finite_vector(self.x, "x"))
        check_sigma_q(self.sigma)

    @property
    def n(self) -> int:
        return int(self.x.size)

