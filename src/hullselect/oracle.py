"""Signal-level active sets, the variable selection path, and its envelope.

The active set of a signal at penalty level A minimizes the out-of-subset
signal energy plus A*sigma^2 times the sparsity penalty. As A sweeps the
half line, the active set walks down a nested family of level sets of
theta^2; this module computes single active sets, the nested family itself,
and the exact breakpoint decomposition of the half line.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._sweep import kahan_suffix_sums, order_by_score, penalty_vector, sweep_argmin
from .core import Q_DEFAULT, DomainError, SelectionMask, check_sigma_q


def _as_signal(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size < 1:
        raise DomainError("theta must be a nonempty 1-d vector")
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta must be finite")
    return theta


@dataclass(frozen=True)
class ActiveSetResult:
    active: SelectionMask
    r_squared: float

    def to_dict(self) -> dict:
        return {"active": self.active.to_json(), "r_squared": self.r_squared}


def active_set(theta, level: float, sigma: float, q: float = Q_DEFAULT) -> ActiveSetResult:
    """Exact argmin active set of the signal at the given penalty level.

    Among exact minimizers the subset with the smallest sum of 1-based
    indices is returned. Level 0 yields the full support. The result
    depends on (level, sigma) only through level*sigma^2.
    """
    theta = _as_signal(theta)
    if not (0 <= level < math.inf):
        raise DomainError(f"level must be finite and >= 0, got {level}")
    check_sigma_q(sigma, q)
    weight = level * sigma**2
    k, order, value = sweep_argmin(theta**2, weight, q, prefer_small=True)
    return ActiveSetResult(SelectionMask.from_indices(order[:k] + 1, len(theta)), value)


def variable_selection_path(theta) -> list[SelectionMask]:
    """Nested level sets of theta^2, from the empty set up to [n].

    Coordinates with equal theta^2 enter together, so the path has at most
    n + 1 distinct sets; with no zero coordinates the last set is the
    support, otherwise the support is the last set before [n].
    """
    theta = _as_signal(theta)
    n = len(theta)
    v = theta**2
    order = order_by_score(v)
    sorted_v = v[order]
    path = [SelectionMask.empty(n)]
    for k in range(1, n + 1):
        if k == n or sorted_v[k - 1] > sorted_v[k]:
            path.append(SelectionMask.from_indices(order[:k] + 1, n))
    return path


@dataclass(frozen=True)
class SelectionPathEntry:
    """Active set on the half-open penalty-level interval [a_low, a_high)."""

    a_low: float
    a_high: float  # math.inf on the last entry
    active: SelectionMask

    def to_dict(self) -> dict:
        return {
            "a_low": self.a_low,
            "a_high": None if math.isinf(self.a_high) else self.a_high,
            "active": self.active.to_json(),
        }


def _min_crossing(
    k_cur: int,
    cands: Sequence[int],
    suffix: np.ndarray,
    slopes: np.ndarray,
) -> tuple[float, int]:
    """Smallest takeover level among lines with smaller cardinality.

    Ties are broken toward the smallest cardinality. Float comparisons
    within 4 ulp are re-done in exact rational arithmetic on the stored
    line coefficients, so envelope degeneracies (several lines meeting at
    one point) resolve identically everywhere.
    """
    nums, dens, ks, crossings = [], [], [], []
    for k in cands:
        if k >= k_cur:
            continue
        num = float(suffix[k] - suffix[k_cur])
        den = float(slopes[k_cur] - slopes[k])
        nums.append(num)
        dens.append(den)
        ks.append(k)
        crossings.append(num / den)
    a_min = min(crossings)
    tol = 4.0 * math.ulp(abs(a_min))
    near = [i for i, c in enumerate(crossings) if c - a_min <= tol]
    if len(near) > 1:
        exact = [Fraction(nums[i]) / Fraction(dens[i]) for i in near]
        lo = min(exact)
        near = [near[i] for i, e in enumerate(exact) if e == lo]
    i_best = min(near, key=lambda i: ks[i])
    return crossings[i_best], ks[i_best]


def active_set_path(theta, sigma: float, q: float = Q_DEFAULT) -> list[SelectionPathEntry]:
    """Breakpoint decomposition of the penalty half line [0, inf).

    Each candidate cardinality contributes an affine function of the level
    (suffix energy plus slope sigma^2 * penalty(k)); the path is the lower
    envelope of those lines. Intervals are half open on the right, matching
    the right continuity of the active-set size. Inside an interval,
    :func:`path_lookup` reproduces :func:`active_set`. A breakpoint
    ``a_low`` is a float rounding of the exact crossing and can fall on its
    near side, so within a few ulps of ``a_low`` the two can disagree.
    """
    theta = _as_signal(theta)
    check_sigma_q(sigma, q)
    n = len(theta)
    v = theta**2
    order = order_by_score(v)
    sorted_v = v[order]
    suffix = kahan_suffix_sums(sorted_v)
    slopes = sigma**2 * penalty_vector(n, q)
    cands = [0] + [k for k in range(1, n + 1) if k == n or sorted_v[k - 1] > sorted_v[k]]

    # At level 0 the criterion is the suffix energy alone; the zero-energy
    # candidate with the smallest index sum is the support.
    k_cur = next(k for k in cands if suffix[k] == suffix[n])
    a_cur = 0.0
    entries: list[SelectionPathEntry] = []
    while k_cur > 0:
        a_next, k_next = _min_crossing(k_cur, cands, suffix, slopes)
        a_next = max(a_next, a_cur)
        if a_next > a_cur:
            active = SelectionMask.from_indices(order[:k_cur] + 1, n)
            entries.append(SelectionPathEntry(a_cur, a_next, active))
            a_cur = a_next
        k_cur = k_next
    entries.append(SelectionPathEntry(a_cur, math.inf, SelectionMask.empty(n)))
    return entries


def path_lookup(entries: Sequence[SelectionPathEntry], level: float) -> SelectionMask:
    """Active set at the given level according to the interval decomposition."""
    if not (0 <= level < math.inf):
        raise DomainError(f"level must be finite and >= 0, got {level}")
    lows = [e.a_low for e in entries]
    return entries[bisect_right(lows, level) - 1].active


def has_distinct_active_set(
    theta, sigma: float, level_low: float, level_high: float, q: float = Q_DEFAULT
) -> bool:
    """True when the active set is identical at both control levels.

    Signals passing this check have a well-separated active/inactive split
    over the whole band [level_low, level_high].
    """
    if level_low > level_high:
        raise DomainError(f"level_low {level_low} exceeds level_high {level_high}")
    lo = active_set(theta, level_low, sigma, q).active
    hi = active_set(theta, level_high, sigma, q).active
    return lo == hi


def strong_signal_vector(
    n: int,
    s: int,
    level: float,
    sigma: float,
    signs="positive",
    q: float = Q_DEFAULT,
) -> np.ndarray:
    """Signal with active coordinates {1..s} at the critical magnitude.

    Coordinates 1..s get squared magnitude level*sigma^2*log(q*n/s) plus a
    relative margin of 1e-9, which pins the active set to {1..s} for every
    penalty level up to ``level``. ``signs`` is "positive", "alternating",
    an explicit +-1 sequence of length s, or a numpy Generator for random
    signs.
    """
    if not (1 <= s <= n):
        raise DomainError(f"s must lie in [1, {n}], got {s}")
    if not (level > 0 and sigma > 0):
        raise DomainError("level and sigma must be positive")
    magnitude = sigma * math.sqrt(level * math.log(q * n / s) * (1.0 + 1e-9))
    if isinstance(signs, str):
        if signs == "positive":
            sgn = np.ones(s)
        elif signs == "alternating":
            sgn = np.where(np.arange(s) % 2 == 0, 1.0, -1.0)
        else:
            raise DomainError(f"unknown sign pattern {signs!r}")
    elif isinstance(signs, np.random.Generator):
        sgn = signs.choice([-1.0, 1.0], size=s)
    else:
        sgn = np.asarray(signs, dtype=float)
        if sgn.shape != (s,) or not np.all(np.abs(sgn) == 1.0):
            raise DomainError("explicit signs must be a +-1 vector of length s")
    theta = np.zeros(n)
    theta[:s] = sgn * magnitude
    return theta
