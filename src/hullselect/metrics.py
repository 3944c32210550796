"""Per-replication confusion proportions and Monte-Carlo rate aggregation.

Proportions follow the 0/0 = 0 convention throughout, so every operation is
total. Rates are plain empirical means over replications; exceedance rates
(at least k false positives / negatives) come from the same integer counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        ok = (
            0 <= self.false_pos <= min(self.selected_size, self.n - self.active_size)
            and 0 <= self.false_neg <= self.active_size
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


def _ratio(num: int, den: int) -> float:
    return 0.0 if num == 0 else num / den


def proportions(c: ConfusionCounts) -> ProportionSet:
    """False discovery / positive / non-discovery / false non-discovery proportions."""
    return ProportionSet(
        fdp=_ratio(c.false_pos, c.selected_size),
        fpp=_ratio(c.false_pos, c.n - c.active_size),
        ndp=_ratio(c.false_neg, c.active_size),
        fnp=_ratio(c.false_neg, c.n - c.selected_size),
        hamming_loss=c.hamming,
    )


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
    ks = sorted(set(ks) | {1})

    props = [proportions(c) for c in reps]
    r = len(reps)
    fdr, se_fdr = _mean_and_se([p.fdp for p in props])
    fpr, se_fpr = _mean_and_se([p.fpp for p in props])
    ndr, se_ndr = _mean_and_se([p.ndp for p in props])
    fnr, se_fnr = _mean_and_se([p.fnp for p in props])
    hamming_risk, se_ham = _mean_and_se([float(p.hamming_loss) for p in props])
    kfwer = {k: sum(1 for c in reps if c.false_pos >= k) / r for k in ks}
    kfwnr = {k: sum(1 for c in reps if c.false_neg >= k) / r for k in ks}
    return RateReport(
        fdr=fdr,
        fpr=fpr,
        ndr=ndr,
        fnr=fnr,
        mtr=(fdr + ndr, fdr + fnr, fpr + ndr, fpr + fnr),
        hamming_risk=hamming_risk,
        kfwer=kfwer,
        kfwnr=kfwnr,
        replications=r,
        stderr={
            "fdr": se_fdr,
            "fpr": se_fpr,
            "ndr": se_ndr,
            "fnr": se_fnr,
            "hamming_risk": se_ham,
        },
    )
