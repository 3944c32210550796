"""Closed-form lower bounds on the achievable Hamming risk.

Everything here is deterministic arithmetic: the per-coordinate risk term
built from the standard normal CDF, the two-term risk lower bound it yields,
and a grid tabulation that labels each (n, s, level) cell by regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import DomainError

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error well below 1e-15."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


@dataclass(frozen=True)
class BoundQuery:
    """Grid cell for the lower-bound formulas.

    ``s_prime`` defaults to s/2, the split used throughout the tabulation.
    """

    n: int
    s: int
    a: float
    sigma: float
    s_prime: float | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.s <= self.n - 1):
            raise DomainError(f"s must lie in [1, n-1], got s={self.s}, n={self.n}")
        if not (self.a > 0):
            raise DomainError(f"a must be positive, got {self.a}")
        if not (self.sigma > 0):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.s_prime is None:
            object.__setattr__(self, "s_prime", self.s / 2)
        if not (0 < self.s_prime <= self.s):
            raise DomainError(f"s_prime must lie in (0, s], got {self.s_prime}")


def coordinate_risk(q: BoundQuery) -> float:
    """Per-coordinate misclassification risk term at separation a.

    (n/s - 1) * Phi(-a/(2 sigma) - (sigma/a) log(n/s - 1))
            +   Phi(-a/(2 sigma) + (sigma/a) log(n/s - 1)),

    which collapses to 2*Phi(-a/(2 sigma)) when n = 2s. Values lie in
    (0, n/s).
    """
    ratio = q.n / q.s
    if ratio <= 1:
        raise DomainError(f"need n/s > 1, got n={q.n}, s={q.s}")
    u = q.a / (2.0 * q.sigma)
    v = (q.sigma / q.a) * math.log(ratio - 1.0)
    return (ratio - 1.0) * std_normal_cdf(-u - v) + std_normal_cdf(-u + v)


class LowerBound(NamedTuple):
    value: float
    vacuous: bool  # True when the bound is <= 0 and therefore uninformative


def hamming_risk_lower_bound(q: BoundQuery) -> LowerBound:
    """Two-term lower bound s' * risk - 4 s' * exp(-(s - s')^2 / (2 s)).

    Negative values are returned as-is with the vacuous flag set, not
    clamped, so the applicability region stays visible.
    """
    risk = coordinate_risk(q)
    value = q.s_prime * risk - 4.0 * q.s_prime * math.exp(-((q.s - q.s_prime) ** 2) / (2.0 * q.s))
    return LowerBound(value, value <= 0.0)


def separation_for_level(n: int, s: int, level: float, sigma: float) -> float:
    """Signal separation a with a^2/sigma^2 = level * log(e*n/s)."""
    if not 1 <= s <= n:
        raise DomainError(f"need 1 <= s <= n, got n={n}, s={s}")
    if not (0 <= level < math.inf and 0 < sigma < math.inf):
        raise DomainError(f"need a finite level A >= 0 and sigma > 0, got A={level}, sigma={sigma}")
    return sigma * math.sqrt(level * math.log(math.e * n / s))


@dataclass(frozen=True)
class PhaseRow:
    n: int
    s: int
    level: float
    a: float
    lower_bound: float
    regime: str  # "inconsistent" | "lower-bounded" | "vacuous"


PHASE_CSV_HEADER = "n,s,A,a,lower_bound,regime"


def phase_row_csv(row: PhaseRow) -> str:
    return f"{row.n},{row.s},{row.level!r},{row.a!r},{row.lower_bound!r},{row.regime}"


def phase_table(
    n_list: Sequence[int],
    s_list: Sequence[int],
    level_list: Sequence[float],
    sigma: float,
) -> list[PhaseRow]:
    """One row per (n, s, level) cell with s' = s/2.

    Regime labels: "vacuous" when the bound is nonpositive; otherwise
    "inconsistent" when a^2 <= 2 sigma^2 log(n/s - 1), where even
    consistency is unachievable; otherwise "lower-bounded".
    """
    if not (n_list and s_list and level_list):
        raise DomainError("grids must be nonempty")
    rows = []
    for n in n_list:
        for s in s_list:
            for level in level_list:
                a = separation_for_level(n, s, level, sigma)
                q = BoundQuery(n=n, s=s, a=a, sigma=sigma)
                bound = hamming_risk_lower_bound(q)
                if bound.vacuous:
                    regime = "vacuous"
                elif a**2 <= 2.0 * sigma**2 * math.log(n / s - 1.0):
                    regime = "inconsistent"
                else:
                    regime = "lower-bounded"
                rows.append(PhaseRow(n, s, level, a, bound.value, regime))
    return rows
