"""Shared independent oracles and probes for the test suite.

The brute-force routines enumerate all 2^n subsets with math.fsum-based
criteria (exactly rounded sums, order independent) and apply the documented
tie orders explicitly, so they share no code path with the sort-and-sweep
implementations they check. The pool probe shows that a run meant to use
the worker pool did start one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hullselect import SelectionMask, harness, sparsity_penalty
from record_golden import recording_pool


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """Worker counts of the pools that runs start while the test runs, in order."""
    sizes: list[int] = []
    monkeypatch.setattr(harness, "ThreadPoolExecutor", recording_pool(sizes))
    return sizes


def iter_masks(n: int):
    """All subsets of {1..n} as sorted index tuples."""
    for bits in range(1 << n):
        yield tuple(i + 1 for i in range(n) if bits & (1 << i))


def brute_force_argmin(v, weight: float, q: float, prefer_small: bool) -> tuple[SelectionMask, float]:
    """Exhaustive penalized argmin with the stated tie order.

    prefer_small=True resolves exact criterion ties by the smallest sum of
    indices, then smaller cardinality, then lexicographic order; False by
    the largest sum of (n - i), then larger cardinality, then lexicographic.
    """
    v = np.asarray(v, dtype=float)
    n = len(v)
    best_key = None
    best = None
    best_crit = None
    for idx in iter_masks(n):
        chosen = set(idx)
        out = [v[i - 1] for i in range(1, n + 1) if i not in chosen]
        crit = math.fsum(out) + weight * sparsity_penalty(len(idx), n, q)
        if prefer_small:
            key = (crit, sum(idx), len(idx), idx)
        else:
            key = (crit, -sum(n - i for i in idx), -len(idx), idx)
        if best_key is None or key < best_key:
            best_key = key
            best = idx
            best_crit = crit
    return SelectionMask(best, n), best_crit


def brute_force_mallows(x, sigma: float) -> set[tuple[int, ...]]:
    """All exact argmins of the Cp objective (residual + 2 sigma^2 |I|)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    crits = {}
    for idx in iter_masks(n):
        chosen = set(idx)
        out = [x[i - 1] ** 2 for i in range(1, n + 1) if i not in chosen]
        crits[idx] = math.fsum(out) + 2.0 * sigma**2 * len(idx)
    best = min(crits.values())
    return {idx for idx, c in crits.items() if c == best}
