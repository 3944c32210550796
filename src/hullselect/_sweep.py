"""Sort-and-sweep argmin kernel shared by the preselector and the active set.

Both minimize, over all subsets I of {1..n},

    C(I) = sum of v_i over i outside I  +  w * p(|I|)

for nonnegative per-coordinate scores v (squared observations or squared
signal values), a float weight w and the float penalty vector
p = fl(penalty(k)). For a fixed cardinality k the optimal subset consists of
the k largest scores (exchange argument, checked against brute force in the
test suite), so the 2^n search collapses to a sweep over k on suffix sums of
the sorted scores. Ties in the k-th largest score are resolved toward the
smaller index, which simultaneously maximizes sum(n - i) and minimizes
sum(i) among same-size optimal subsets, so both callers share the within-k
choice and differ only in the across-k tie rule.

Exact contract. Every decision is exact over the rounded inputs v, w and p:
the minimum and its tie set are those of the rational values of C, as if
all sums and products were carried out without rounding. The sweep
evaluates C in floats from one cumsum, brackets each value with a rigorous
summation error bound (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 4), and re-decides in scaled integers (``_as_ints``) only
the cardinalities whose bracket reaches the minimum (the float-filter idea
of Shewchuk's adaptive predicates).

Floor lemma. If k >= 1 is optimal, then v_(k) >= w * (p[k] - p[k-1]) for
the k-th largest score v_(k): otherwise dropping that coordinate lowers C.
So no optimal set holds a score below w * min_j (p[j] - p[j-1]), and only
the scores at or above that floor need sorting.

Block form. ``sweep_argmin_block`` runs the same float filter on every row
of a (rows, n) block at once and returns each row's k: one floor test, one
ascending sort of each row's zero pads and kept scores, one cumsum read
backwards (the leading pads add exact zeros, so each row's suffix sums are
bitwise those of ``sweep_argmin``), and the same brackets.
A row whose guard passes and whose brackets leave one candidate is decided
there; every other row is open and goes to ``sweep_argmin``, so the exact
refinement, the tie rules and the scaled sum exist only in the row kernel.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .core import DomainError, sparsity_penalty

# Relative rounding per float operation is at most 2^-53; the factor 4 slack
# also covers the rounding of the bound and bracket arithmetic itself.
_REL = 2.0**-51
# An underflowing product is off by at most half the smallest subnormal.
_TINY = 2.0**-1073


@lru_cache(maxsize=64)
def penalty_vector(n: int, q: float) -> np.ndarray:
    """Cached [penalty(0), penalty(1), ..., penalty(n)]. Do not mutate.

    Bitwise equal to sparsity_penalty at each k: the ratios (q*n)/k divide
    as the scalar ones do, and their logs come from math.log, since np.log
    can differ from it in the last bit.
    """
    sparsity_penalty(n, n, q)  # its DomainError for n < 1
    k = np.arange(1.0, n + 1)
    logs = np.fromiter(map(math.log, (q * n) / k), float, n)
    return np.concatenate(([0.0], np.multiply(k, logs, out=logs)))


@lru_cache(maxsize=64)
def _penalty_bounds(n: int, q: float) -> tuple[float, float]:
    """(min_j (p[j] - p[j-1]), max_k |p[k]|) of the float penalty vector."""
    pen = penalty_vector(n, q)
    return float(np.min(np.diff(pen))), float(np.max(np.abs(pen)))


def _as_ints(values: np.ndarray) -> tuple[list[int], int]:
    """Exact integer numerators of finite floats over one power-of-two denominator."""
    ratios = [x.as_integer_ratio() for x in values.tolist()]
    den = max(d for _, d in ratios)
    return [num * (den // d) for num, d in ratios], den


def order_by_score(v: np.ndarray) -> np.ndarray:
    """0-based indices sorted by descending score, ascending index on ties."""
    return np.argsort(-np.asarray(v, dtype=float), kind="stable")


def _candidates(approx: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Where a value known as ``approx`` within ``err`` can be the minimum along
    the last axis: its bracket reaches the smallest upper end."""
    return approx - err <= (approx + err).min(axis=-1, keepdims=True)


def _weight_terms(n: int, weight: float, q: float) -> tuple[np.ndarray, float, float]:
    """(p, |w| * max_k |p[k]|, floor) of a sweep over n scores with weight w.

    The floor is w * min_j (p[j] - p[j-1]); where it is positive it is
    lowered by far more than its two roundings (the increment and the
    product), and by an absolute term for an underflowing product.
    """
    if not math.isfinite(weight):
        raise DomainError(f"penalty weight must be finite, got {weight}")
    min_step, max_abs = _penalty_bounds(n, q)
    floor = weight * min_step
    if floor > 0:
        floor -= floor * 2.0**-40 + _TINY
    return penalty_vector(n, q), abs(float(weight)) * max_abs, floor


def _fits(total, penalty):
    """Whether scores summing to at most ``total`` plus a penalty term of at
    most ``penalty`` leave every float sum of the sweep finite.

    Every such float sum exceeds its exact value by less than 2^-20 of it.
    """
    return (total + penalty) * (1 + 2.0**-20) <= sys.float_info.max


def _bracket(suffix, m, weight: float, penalty: float):
    """Bound on |fl(suffix[k] + w*p[k]) - (exact suffix[k] + w*p[k])|.

    Recursive summation of a suffix of m sorted scores and the two final
    roundings stay within (m + 2)*2^-53 of s + |w*p|. |w*p[k]| is at most
    ``penalty``, so one scalar covers the penalty part; the suffix part
    stays per k, so a zero suffix with w = 0 has bound 0.
    """
    rel = (m + 4) * _REL
    err = suffix * rel
    if weight != 0:
        err += penalty * rel + _TINY
    return err


def sweep_argmin(
    v: np.ndarray,
    weight: float,
    q: float,
    prefer_small: bool,
) -> tuple[int, np.ndarray, float]:
    """Minimize the penalized out-of-subset score over all cardinalities.

    Parameters
    ----------
    v : nonnegative scores, one per coordinate.
    weight : finite multiplier w on the sparsity penalty (K*sigma^2 or
        A*sigma^2).
    q : penalty base constant.
    prefer_small : across-k rule on exact criterion ties. True picks the
        smallest tied cardinality (the smallest sum of 1-based indices);
        False the largest (the largest sum of (n - i), equal sums going to
        the larger set).

    Returns
    -------
    (k, order, criterion) where ``order[:k]`` are the chosen 0-based
    coordinates in descending score order (``order`` covers at least the
    scores at or above the floor, not necessarily all n) and ``criterion``
    is the objective value of the chosen set: the pairwise float sum of the
    scores outside it plus fl(w * p[k]).

    The chosen k is the exact argmin over v, w and p with the stated tie
    rules (see the module docstring); only scores at or above the floor
    w * min_j (p[j] - p[j-1]), lowered to cover its rounding, are sorted.
    """
    v = np.asarray(v, dtype=float)
    n = len(v)
    pen, penalty, floor = _weight_terms(n, weight, q)
    keep = (v >= floor).nonzero()[0]  # every nonnegative score where the floor is not positive
    order = keep[order_by_score(v[keep])]
    top = v[order]
    m = len(top)
    # The sorted scores sum to at most m * top[0] and the others lie below
    # the floor; only near the float limit are the scores summed, scaled by
    # 2^-64 so that the sum cannot overflow.
    total = (m * float(top[0]) if m else 0.0) + (n - m) * floor
    if not _fits(total, penalty):
        total = float(np.sum(v * 2.0**-64)) * 2.0**64
        if not _fits(total, penalty):
            raise DomainError("the sum of the scores and the penalty term overflows")

    # D(k) = sum(top[k:]) + w*p[k] differs from C(k) by the sum of the
    # unsorted scores, a constant.
    suffix = np.zeros(m + 1)
    top[::-1].cumsum(out=suffix[:m][::-1])
    err = _bracket(suffix, m, weight, penalty)
    ties = _candidates(suffix + weight * pen[: m + 1], err).nonzero()[0]
    if len(ties) > 1 and err[ties].any():
        # Re-decide exactly, unless every candidate bound is 0 and each
        # candidate float equals the minimum already. The values are
        # D(k) - sum(top[a:]) for the anchor a = largest candidate, in
        # integers scaled by the scores' and penalties' one denominator and wd.
        lo, a = int(ties[0]), int(ties[-1])
        ints, _ = _as_ints(np.concatenate((top[lo:a], pen[ties])))
        sums = list(accumulate(reversed(ints[: a - lo]), initial=0))[::-1]
        wn, wd = float(weight).as_integer_ratio()
        values = [sums[k - lo] * wd + wn * p for k, p in zip(ties.tolist(), ints[a - lo :])]
        best = min(values)
        ties = ties[[x == best for x in values]]
    # The candidates are nested prefixes, so sum(i) grows strictly with k and
    # sum(n - i) never falls: the tie rules pick the smallest or the largest k.
    best_k = int(ties[0] if prefer_small else ties[-1])

    outside = v.copy()
    outside[order[:best_k]] = 0.0
    return best_k, order, float(outside.sum()) + weight * float(pen[best_k])


def sweep_argmin_block(v: np.ndarray, weight: float, q: float) -> np.ndarray:
    """The preselector's sweep_argmin (prefer_small=False) on every row of a
    (rows, n) block of scores, in one pass.

    Returns ``k``, where ``k[i]`` is the cardinality sweep_argmin chooses
    for row i: row i's preselector is its k[i] largest scores.

    The rows share the floor, one stable ascending sort of each row's zero
    pads and kept scores, and one cumsum read backwards; the pads add exact
    zeros, so each row's suffix sums are bitwise those of sweep_argmin. A
    row is decided here when its overflow guard passes and exactly one
    cardinality's bracket reaches the minimum; any other row is open and
    goes to sweep_argmin whole, which holds the exact refinement, the tie
    rules and the scaled sum.
    """
    rows, n = v.shape
    pen, penalty, floor = _weight_terms(n, weight, q)
    keep = v >= floor  # every nonnegative score where the floor is not positive
    m = np.count_nonzero(keep, axis=1)
    width = max(m.tolist()) + 1
    cols = np.arange(width)
    # Each row's zero pads, then its kept scores in ascending order: the
    # cumsum read backwards is the suffix sum of the descending scores.
    top = np.zeros((rows, width))
    top[cols < m[:, None]] = v[keep]
    top = np.take_along_axis(top, top.argsort(axis=1, kind="stable"), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # rows whose guard trips
        fits = _fits(m * top[:, -1] + (n - m) * floor, penalty)
        suffix = top.cumsum(axis=1)[:, ::-1]
        err = _bracket(suffix, m[:, None], weight, penalty)
        approx = np.add(suffix, weight * pen[:width], out=suffix)
        approx[cols > m[:, None]] = np.inf  # cardinalities past a row's kept scores
        cands = _candidates(approx, err)
    k = cands.argmax(axis=1)
    for i in np.flatnonzero(~fits | (np.count_nonzero(cands, axis=1) != 1)):
        k[i] = sweep_argmin(v[i], weight, q, prefer_small=False)[0]
    return k
