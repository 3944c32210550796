"""Signal-level active sets, the variable selection path, and its envelope.

The active set of a signal at penalty level A minimizes the out-of-subset
signal energy plus A*sigma^2 times the sparsity penalty. As A sweeps the
half line, the active set walks down a nested family of level sets of
theta^2; this module computes single active sets, the nested family itself,
and the exact breakpoint decomposition of the half line.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter
from typing import Sequence

import numpy as np

from ._sweep import _as_ints, _penalty_bounds, order_by_score, penalty_vector, sweep_argmin
from .core import Q_DEFAULT, DomainError, SelectionMask, check_sigma_q, finite_vector


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
    theta = finite_vector(theta, "theta")
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
    theta = finite_vector(theta, "theta")
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
    """Active set on the level interval [a_low, a_high): the first k of ``order``, the 1-based
    coordinates by descending theta^2 in one tuple the whole path shares. ``active`` builds
    the mask on each read."""

    a_low: float
    a_high: float  # math.inf on the last entry
    k: int
    order: tuple[int, ...] = field(repr=False)

    @property
    def active(self) -> SelectionMask:
        return SelectionMask(tuple(sorted(self.order[: self.k])), len(self.order))

    def to_dict(self) -> dict:
        return {
            "a_low": self.a_low,
            "a_high": None if math.isinf(self.a_high) else self.a_high,
            "active": self.active.to_json(),
        }


def _least_level(num: int, den: int, s2: float) -> float:
    """Smallest float a with a finite fl(a * s2) >= num/den > 0; inf if there is none.

    Exact: the comparisons are in integers, and int/int division and a * s2 round correctly.
    """
    big = int(sys.float_info.max)
    if s2 == 0 or num > big * den:
        return math.inf
    top = num / den  # fl(a * s2) reaches num/den iff it reaches top, the least float >= it
    tn, td = top.as_integer_ratio()
    if tn * den < num * td:
        top = math.nextafter(top, math.inf)
    # fl(x) >= top iff x passes mid, halfway to the float below top (on a tie, iff top's
    # mantissa is even), so the least a is the float nearest mid / s2 or the one above it
    (t, p, s), _ = _as_ints(np.array([top, math.nextafter(top, 0.0), s2]))
    a = min(t + p, 2 * s * big) / (2 * s)  # a bound past the range steps to inf
    if a * s2 < top:
        a = math.nextafter(a, math.inf)
    # fl(a * s2) grows with a, so where this a overflows no finite product reaches top
    return a if math.isfinite(a * s2) else math.inf


def active_set_path(theta, sigma: float, q: float = Q_DEFAULT) -> list[SelectionPathEntry]:
    """Breakpoint decomposition of the penalty half line [0, inf).

    The path is the lower envelope of the lines S(k) + w * p[k] in the
    weight w = fl(level * sigma^2) of :func:`active_set`: S(k) is the energy
    outside the k largest fl(theta^2) and p the float penalty vector. It is
    built as the lower convex hull of the points (p[k], S(k)) (Andrew's
    monotone chain) in exact integers. A crossing goes to the smaller set
    and ``a_low`` is the least float level whose weight reaches it, so
    :func:`path_lookup` equals :func:`active_set` at every float level where
    :func:`active_set` returns. It raises DomainError where its float sum of
    the scores and the penalty term overflows; the path still answers there.
    The entries share one order: time and memory are O(n) past sort and hull.
    """
    theta = finite_vector(theta, "theta")
    check_sigma_q(sigma, q)
    n = len(theta)
    if _penalty_bounds(n, q)[0] <= 0:
        raise DomainError(f"q = {q} is too small: the penalty must increase strictly up to k = {n}")
    v = theta**2
    order = order_by_score(v)
    scores, den_s = _as_ints(v[order])
    pen, den_p = _as_ints(penalty_vector(n, q))
    suffix = list(accumulate(reversed(scores), initial=0))[::-1]

    def cross(a: int, b: int, c: int) -> int:  # (b - a) x (c - a) in the (p, S) plane
        return (pen[b] - pen[a]) * (suffix[c] - suffix[a]) - (suffix[b] - suffix[a]) * (pen[c] - pen[a])

    # At level 0 the smallest zero-energy set wins; larger k never win after.
    hull: list[int] = []
    for k in range(suffix.index(0) + 1):
        while len(hull) >= 2 and cross(hull[-2], hull[-1], k) <= 0:
            hull.pop()
        hull.append(k)

    shared = tuple((order + 1).tolist())
    a_cur, k_cur = 0.0, hull.pop()
    entries: list[SelectionPathEntry] = []
    for k in reversed(hull):  # a crossing no finite level reaches ends the path
        a = _least_level((suffix[k] - suffix[k_cur]) * den_p, (pen[k_cur] - pen[k]) * den_s, sigma**2)
        if a > a_cur:
            entries.append(SelectionPathEntry(a_cur, a, k_cur, shared))
            a_cur = a
        k_cur = k
    if a_cur < math.inf:  # the hull starts at k = 0, so k_cur is 0 here
        entries.append(SelectionPathEntry(a_cur, math.inf, k_cur, shared))
    return entries


def path_lookup(entries: Sequence[SelectionPathEntry], level: float) -> SelectionMask:
    """Active set at the given level according to the interval decomposition.

    Equals :func:`active_set` wherever that returns; it raises DomainError
    where its float sum of the scores and the penalty term overflows.
    """
    i = bisect_right(entries, level, key=attrgetter("a_low"))
    if not (0 <= level < math.inf and i):
        raise DomainError(f"level must be finite, >= 0 and reach the first entry, got {level}")
    return entries[i - 1].active


def has_distinct_active_set(
    theta, sigma: float, level_low: float, level_high: float, q: float = Q_DEFAULT
) -> bool:
    """True when the active set is identical at both control levels.

    Signals passing this check have a well-separated active/inactive split over the whole
    band [level_low, level_high]. Both sets are prefixes of one order, so sizes decide it.
    """
    if level_low > level_high:
        raise DomainError(f"level_low {level_low} exceeds level_high {level_high}")
    lo, hi = (len(active_set(theta, a, sigma, q).active) for a in (level_low, level_high))
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
    penalty level up to ``level``. That squared magnitude must be a finite
    normal float, or DomainError. ``signs`` is "positive", "alternating",
    an explicit +-1 sequence of length s, or a numpy Generator for random
    signs.
    """
    if not (1 <= s <= n):
        raise DomainError(f"s must lie in [1, {n}], got {s}")
    if not level > 0:
        raise DomainError(f"level must be positive, got {level}")
    check_sigma_q(sigma, q)
    magnitude = sigma * math.sqrt(level * math.log(q * n / s) * (1.0 + 1e-9))
    if not sys.float_info.min <= magnitude * magnitude < math.inf:
        raise DomainError(f"squared magnitude {magnitude * magnitude} is not a finite normal float")
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
