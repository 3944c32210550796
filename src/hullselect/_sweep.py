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
Algorithms*, ch. 4), and re-decides in ``Fraction`` arithmetic only the
cardinalities whose bracket reaches the minimum (the float-filter idea of
Shewchuk's adaptive predicates).

Floor lemma. If k >= 1 is optimal, then v_(k) >= w * (p[k] - p[k-1]) for
the k-th largest score v_(k): otherwise dropping that coordinate lowers C.
So no optimal set holds a score below w * min_j (p[j] - p[j-1]), and only
the scores at or above that floor need sorting.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import DomainError, sparsity_penalty

# Relative rounding per float operation is at most 2^-53; the factor 4 slack
# also covers the rounding of the bound and bracket arithmetic itself.
_REL = 2.0**-51
# An underflowing product is off by at most half the smallest subnormal.
_TINY = 2.0**-1073


@lru_cache(maxsize=64)
def penalty_vector(n: int, q: float) -> np.ndarray:
    """Cached [penalty(0), penalty(1), ..., penalty(n)]. Do not mutate."""
    return np.array([sparsity_penalty(k, n, q) for k in range(n + 1)])


@lru_cache(maxsize=64)
def _penalty_bounds(n: int, q: float) -> tuple[float, float]:
    """(min_j (p[j] - p[j-1]), max_k |p[k]|) of the float penalty vector."""
    pen = penalty_vector(n, q)
    return float(np.min(np.diff(pen))), float(np.max(np.abs(pen)))


def order_by_score(v: np.ndarray) -> np.ndarray:
    """0-based indices sorted by descending score, ascending index on ties."""
    return np.argsort(-np.asarray(v, dtype=float), kind="stable")


def exact_minimizers(
    approx: np.ndarray,
    err: np.ndarray,
    exact: Callable[[np.ndarray], list[Fraction]],
) -> np.ndarray:
    """Ascending indices i at which an exactly defined value X_i is minimal.

    Each X_i is known as a float ``approx[i]`` with |approx[i] - X_i| <=
    ``err[i]``. Every i whose bracket reaches the smallest upper end is a
    candidate. Candidates with bound 0 are exact already; if all of them
    are, their floats decide. Otherwise ``exact(candidates)`` returns the
    candidates' X_i as Fractions, shifted by one common constant if that is
    cheaper, and the minimum is taken exactly.
    """
    cands = (approx - err <= (approx + err).min()).nonzero()[0]
    if len(cands) == 1 or not err[cands].any():
        # With all candidate bounds 0, each candidate float equals the minimum.
        return cands
    values = exact(cands)
    best = min(values)
    return cands[[x == best for x in values]]


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
        candidate with the smallest sum of 1-based indices; False picks the
        largest sum of (n - i), breaking residual ties toward the larger
        cardinality.

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
    if not math.isfinite(weight):
        raise DomainError(f"penalty weight must be finite, got {weight}")
    pen = penalty_vector(n, q)
    min_step, max_abs = _penalty_bounds(n, q)
    floor = weight * min_step
    if floor > 0:
        # Two roundings (the increment and the product) stay far inside the
        # 2^-40 margin; the absolute term covers an underflowing product.
        floor -= floor * 2.0**-40 + _TINY
        keep = (v >= floor).nonzero()[0]
        order = keep[order_by_score(v[keep])]
    else:
        order = order_by_score(v)
    top = v[order]
    m = len(top)
    # Every float sum below exceeds its exact value by less than 2^-20 of it.
    # The sorted scores sum to at most m * top[0] and the others lie below
    # the floor; only near the float limit are the scores summed, scaled by
    # 2^-64 so that the sum cannot overflow.
    total = (m * float(top[0]) if m else 0.0) + (n - m) * floor
    penalty = abs(float(weight)) * max_abs
    if not (total + penalty) * (1 + 2.0**-20) <= sys.float_info.max:
        total = float(np.sum(v * 2.0**-64)) * 2.0**64
        if not (total + penalty) * (1 + 2.0**-20) <= sys.float_info.max:
            raise DomainError("the sum of the scores and the penalty term overflows")

    # D(k) = sum(top[k:]) + w*p[k] differs from C(k) by the sum of the
    # unsorted scores, a constant. Recursive summation of the suffix and
    # the two final roundings stay within (m + 2)*2^-53 of s + |w*p|.
    suffix = np.zeros(m + 1)
    top[::-1].cumsum(out=suffix[:m][::-1])
    wp = weight * pen[: m + 1]
    # |w*p[k]| <= |w|*max|p|, so one scalar covers the penalty part; the
    # suffix part stays per k, so a zero suffix with w = 0 has bound 0.
    err = suffix * ((m + 4) * _REL)
    if weight != 0:
        err += abs(weight) * max_abs * ((m + 4) * _REL) + _TINY

    def exact(cands: np.ndarray) -> list[Fraction]:
        # D(k) - sum(top[a:]) for the anchor a = largest candidate.
        fw = Fraction(weight)
        out = []
        acc = Fraction(0)
        j = int(cands[-1])
        for k in reversed(cands.tolist()):
            for x in top[k:j].tolist():
                acc += Fraction(x)
            j = k
            out.append(acc + fw * Fraction(float(pen[k])))
        return out[::-1]

    ties = exact_minimizers(suffix + wp, err, exact)
    if len(ties) == 1 or prefer_small:
        # Candidates are nested, so sum(i) grows strictly with k: the
        # smallest tied cardinality has the smallest index sum.
        best_k = int(ties[0])
    else:
        # Largest sum(n - i) = k*n - sum of chosen 1-based indices; equal
        # sums are possible only when the extra coordinate is index n, in
        # which case the larger set wins for determinism.
        csum = np.concatenate(([0], np.cumsum(order[: ties[-1]] + 1)))
        tie_scores = ties * n - csum[ties]
        best_k = int(ties[np.flatnonzero(tie_scores == tie_scores.max())[-1]])

    outside = v.copy()
    outside[order[:best_k]] = 0.0
    return best_k, order, float(outside.sum()) + weight * float(pen[best_k])
