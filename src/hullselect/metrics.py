"""Per-replication confusion proportions and Monte-Carlo rate aggregation.

Proportions follow the 0/0 = 0 convention throughout, so every operation is
total. Rates are plain empirical means over replications; exceedance rates
(at least k false positives / negatives) come from the same integer counts,
taken as columns of one count array with a row per replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import DimensionError, DomainError, SelectionMask

DEFAULT_KFWER_KS = (1, 2, 5)


@dataclass(frozen=True)
class ConfusionCounts:
    false_pos: int
    false_neg: int
    selected_size: int
    active_size: int
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= 2**53:  # so that every count is an exact float64
            raise DomainError(f"n must lie in [0, 2**53], got {self.n}")
        # each proportion's numerator is at most its denominator
        ok = (
            0 <= self.false_pos <= min(self.selected_size, self.n - self.active_size)
            and 0 <= self.false_neg <= min(self.active_size, self.n - self.selected_size)
            and 0 <= self.selected_size <= self.n
            and 0 <= self.active_size <= self.n
        )
        if not ok:
            raise DomainError(f"inconsistent confusion counts: {self}")

    @property
    def hamming(self) -> int:
        return self.false_pos + self.false_neg


def confusion(selected: SelectionMask, active: SelectionMask) -> ConfusionCounts:
    """Set-difference cardinalities between the selected and active masks."""
    if selected.n != active.n:
        raise DimensionError(f"mask dimensions differ: {selected.n} != {active.n}")
    sel, act = selected.as_set(), active.as_set()
    return ConfusionCounts(
        false_pos=len(sel - act),
        false_neg=len(act - sel),
        selected_size=len(sel),
        active_size=len(act),
        n=selected.n,
    )


@dataclass(frozen=True)
class ProportionSet:
    fdp: float
    fpp: float
    ndp: float
    fnp: float
    hamming_loss: int


def _proportions(counts: np.ndarray, n: int) -> np.ndarray:
    """The (4, R) fdp, fpp, ndp and fnp of R (false_pos, false_neg, selected_size,
    active_size) rows: 0 where the numerator is 0, else num / den."""
    fp, fn, sel, act = counts.T
    num, den = np.array([fp, fp, fn, fn]), np.array([sel, n - act, act, n - sel])
    return np.divide(num, den, out=np.zeros(num.shape), where=num != 0)


def _stack(counts: Sequence[ConfusionCounts]) -> np.ndarray:
    return np.array([(c.false_pos, c.false_neg, c.selected_size, c.active_size) for c in counts])


def proportions(c: ConfusionCounts) -> ProportionSet:
    """False discovery / positive / non-discovery / false non-discovery proportions."""
    fdp, fpp, ndp, fnp = _proportions(_stack([c]), c.n)[:, 0].tolist()
    return ProportionSet(fdp=fdp, fpp=fpp, ndp=ndp, fnp=fnp, hamming_loss=c.hamming)


@dataclass(frozen=True)
class RateReport:
    """Empirical rates over replications, with the four combined risks.

    ``mtr`` holds (fdr+ndr, fdr+fnr, fpr+ndr, fpr+fnr) composed exactly from
    the reported rates. ``kfwer[k]`` / ``kfwnr[k]`` are the fractions of
    replications with at least k false positives / negatives. ``stderr``
    carries sample-sd / sqrt(R) for the mean-type rates.
    """

    fdr: float
    fpr: float
    ndr: float
    fnr: float
    mtr: tuple[float, float, float, float]
    hamming_risk: float
    kfwer: dict[int, float]
    kfwnr: dict[int, float]
    replications: int
    stderr: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "fdr": self.fdr,
            "fpr": self.fpr,
            "ndr": self.ndr,
            "fnr": self.fnr,
            "mtr1": self.mtr[0],
            "mtr2": self.mtr[1],
            "mtr3": self.mtr[2],
            "mtr4": self.mtr[3],
            "hamming_risk": self.hamming_risk,
            "kfwer": {str(k): p for k, p in self.kfwer.items()},
            "kfwnr": {str(k): p for k, p in self.kfwnr.items()},
            "replications": self.replications,
            "stderr": dict(self.stderr),
        }


def _mean_and_se(values: Sequence[float]) -> tuple[float, float]:
    r = len(values)
    mean = math.fsum(values) / r
    if r == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (r - 1)
    return mean, math.sqrt(var / r)


def aggregate(per_rep: Iterable[ConfusionCounts], ks: Sequence[int] = DEFAULT_KFWER_KS) -> RateReport:
    """Mean rates and exceedance rates over a nonempty replication set.

    k = 1 is always included in the exceedance maps (plain family-wise
    error); extra k values come from ``ks``.
    """
    reps = list(per_rep)
    if not reps:
        raise DomainError("cannot aggregate an empty replication list")
    n = reps[0].n
    if any(c.n != n for c in reps):
        raise DimensionError("replications disagree on n")
    if any(k < 1 for k in ks):
        raise DomainError(f"k values must be positive, got {list(ks)}")
    return _rates(_stack(reps), n, ks)


def _rates(counts: np.ndarray, n: int, ks: Sequence[int]) -> RateReport:
    """The rates of (false_pos, false_neg, selected_size, active_size) rows, one
    per replication in order, with exceedance maps at ks and at 1."""
    r, fp, fn = len(counts), counts[:, 0], counts[:, 1]
    columns = _proportions(counts, n).tolist() + [(fp + fn).astype(float).tolist()]
    (fdr, fpr, ndr, fnr, hamming_risk), se = zip(*map(_mean_and_se, columns))
    ks = sorted(set(ks) | {1})
    return RateReport(
        fdr=fdr,
        fpr=fpr,
        ndr=ndr,
        fnr=fnr,
        mtr=(fdr + ndr, fdr + fnr, fpr + ndr, fpr + fnr),
        hamming_risk=hamming_risk,
        kfwer={k: np.count_nonzero(fp >= k) / r for k in ks},
        kfwnr={k: np.count_nonzero(fn >= k) / r for k in ks},
        replications=r,
        stderr=dict(zip(("fdr", "fpr", "ndr", "fnr", "hamming_risk"), se)),
    )
