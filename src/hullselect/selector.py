"""Penalized preselection and the thresholding variable selector.

The preselector minimizes the out-of-subset energy plus K*sigma^2 times the
sparsity penalty; the final selector keeps the coordinates whose squared
observation clears a threshold set by the preselector's size. A Mallows-Cp
style baseline is included for comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sweep import sweep_argmin
from .core import Q_DEFAULT, DomainError, ObservationVector, SelectionMask, check_sigma_q


@dataclass(frozen=True)
class SelectorConfig:
    """Penalty constant K, noise intensity, and penalty base."""

    K: float
    sigma: float
    q: float = Q_DEFAULT

    def __post_init__(self) -> None:
        if not (0 < self.K < math.inf):
            raise DomainError(f"K must be positive and finite, got {self.K}")
        check_sigma_q(self.sigma, self.q)


@dataclass(frozen=True)
class SelectionResult:
    preselector: SelectionMask
    selected: SelectionMask
    threshold: float  # +inf exactly when the preselector is empty
    criterion_value: float

    def to_dict(self) -> dict:
        return {
            "preselector": self.preselector.to_json(),
            "selected": self.selected.to_json(),
            "threshold": None if math.isinf(self.threshold) else self.threshold,
            "criterion": self.criterion_value,
        }


def preselect(obs: ObservationVector, cfg: SelectorConfig) -> tuple[SelectionMask, float]:
    """Exact argmin of the penalized out-of-subset energy.

    Returns the minimizing mask and the criterion value. Among exact
    minimizers the mask maximizing sum(n - i) is returned; residual ties go
    to the larger cardinality. Runs in O(n log n) via the sort-and-sweep
    reduction, verified against exhaustive search in the tests.
    """
    k, order, value = sweep_argmin(obs.x**2, cfg.K * cfg.sigma**2, cfg.q, prefer_small=False)
    return SelectionMask.from_indices(order[:k] + 1, obs.n), value


def select(obs: ObservationVector, cfg: SelectorConfig) -> SelectionResult:
    """Preselect, then keep coordinates whose x_i^2 clears the size threshold.

    The threshold is K*sigma^2*log(q*n/size) for a nonempty preselector and
    +infinity otherwise, so an empty preselector selects nothing. The
    selected set is checked to be a subset of the preselector, which the
    criterion guarantees for the default threshold. Both sets are prefixes
    of one descending score order, so the check compares their sizes.
    """
    x2 = obs.x**2
    weight = cfg.K * cfg.sigma**2
    k, order, value = sweep_argmin(x2, weight, cfg.q, prefer_small=False)
    threshold = _size_threshold(weight, cfg.q, obs.n, k)
    selected = (x2 >= threshold).nonzero()[0]
    if len(selected) > k:
        raise RuntimeError("selector produced a coordinate outside the preselector")
    pre = SelectionMask.from_indices(order[:k] + 1, obs.n)
    return SelectionResult(pre, SelectionMask.from_indices(selected + 1, obs.n), threshold, value)


def _size_threshold(weight: float, q: float, n: int, k: int) -> float:
    """Threshold w*log(q*n/k) on x^2 for a preselector of size k; +inf at k = 0."""
    # math.log, not np.log: the two can differ in the last bit
    return math.inf if k == 0 else weight * math.log(q * n / k)


def mallows_cp(obs: ObservationVector) -> SelectionMask:
    """Argmin of the Cp objective; separable, so x_i^2 > 2*sigma^2 per coordinate.

    Coordinates tied exactly at 2*sigma^2 are excluded (strict inequality).
    """
    cut = 2.0 * obs.sigma**2
    return SelectionMask.from_indices(np.flatnonzero(obs.x**2 > cut) + 1, obs.n)
