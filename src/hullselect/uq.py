"""Hamming-ball confidence sets around the selected mask.

The data-driven radius shrinks polynomially in n over the preselector size;
the benchmark radius uses the active-set size in the same formula. Coverage
and size failures are evaluated as plain Monte-Carlo fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import DomainError, SelectionMask, hamming_distance


@dataclass(frozen=True)
class UqConfig:
    """Radius exponent and the size-comparison multiplier.

    ``alpha4_prime`` is the shrinkage exponent of the radius; it must stay
    below a non-constructive model exponent for valid coverage, so it is a
    user knob (default 1.0). Zero is allowed as the degenerate full-ball
    diagnostic. ``m1_prime`` multiplies the benchmark radius in the size
    check.
    """

    alpha4_prime: float = 1.0
    m1_prime: float = 4.0

    def __post_init__(self) -> None:
        if not (0 <= self.alpha4_prime < math.inf):
            raise DomainError(f"alpha4_prime must be finite and >= 0, got {self.alpha4_prime}")
        if not (0 < self.m1_prime < math.inf):
            raise DomainError(f"m1_prime must be positive and finite, got {self.m1_prime}")


def confidence_radius(preselector_size: int, n: int, alpha4_prime: float) -> float:
    """Radius n * (max(size, 1) / n)^alpha4_prime.

    Monotone non-decreasing in the size and capped at n for any
    alpha4_prime >= 0; exponent 0 gives the full ball.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not (0 <= preselector_size <= n):
        raise DomainError(f"size must lie in [0, {n}], got {preselector_size}")
    if not (0 <= alpha4_prime < math.inf):
        raise DomainError(f"alpha4_prime must be finite and >= 0, got {alpha4_prime}")
    return n * (max(preselector_size, 1) / n) ** alpha4_prime


@dataclass(frozen=True)
class ConfidenceBall:
    """All masks within Hamming distance ``radius`` of ``center``."""

    center: SelectionMask
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius >= 0):
            raise DomainError(f"radius must be >= 0, got {self.radius}")

    def contains(self, eta: SelectionMask) -> bool:
        return hamming_distance(self.center, eta) <= self.radius


def evaluate_uq_counts(
    records: Sequence[tuple[int, int, int]],
    n: int,
    cfg: UqConfig,
) -> tuple[float, float]:
    """Coverage-failure and size-exceedance fractions over replications.

    Each record is (preselector_size, hamming, active_size), the hamming
    distance being that between the selected and the active mask. The data
    radius is always computed from the preselector size and the benchmark
    radius from the active-set size; the two are never swapped.
    """
    records = list(records)
    if not records:
        raise DomainError("cannot evaluate UQ on an empty replication list")
    cover_fail = 0
    size_exceed = 0
    for presize, ham, active_size in records:
        r_hat = confidence_radius(presize, n, cfg.alpha4_prime)
        r_bench = confidence_radius(active_size, n, cfg.alpha4_prime)
        if ham > r_hat:
            cover_fail += 1
        if r_hat >= cfg.m1_prime * r_bench:
            size_exceed += 1
    r = len(records)
    return cover_fail / r, size_exceed / r


def uq_report_dict(coverage_fail_rate: float, size_exceed_rate: float, cfg: UqConfig) -> dict:
    return {
        "coverage_fail_rate": coverage_fail_rate,
        "size_exceed_rate": size_exceed_rate,
        "alpha4_prime": cfg.alpha4_prime,
        "m1_prime": cfg.m1_prime,
    }
