"""Noise generators for the robustness class, plus an empirical tail diagnostic.

All samplers are pure functions of an explicit numpy Generator, so a run is
reproducible from its seed alone. The diagnostic estimates how fast the
survival probability of subset sums of squared noise decays past a linear
budget; exponential-or-faster decay is what the selector's penalty is built
around.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, DomainError, typed


def _front(buf: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """A C-ordered array of ``shape``: new, or a view of the front of the flat ``buf``."""
    if buf is None:
        return np.empty(shape)
    return buf[: shape[0] * shape[1]].reshape(shape)


class NoiseModel(ABC):
    """A distribution for the standardized noise vector."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray: ...

    def sample_rows(
        self, n: int, rngs: Sequence[np.random.Generator], buf: np.ndarray | None = None
    ) -> np.ndarray:
        """One noise vector per generator, as the rows of a (len(rngs), n) array.

        Row j is bit-identical to ``self.sample(n, rngs[j])`` and leaves
        ``rngs[j]`` in the same state, so a block of draws from independent
        generators equals the draws one at a time. The array is new, or,
        given a flat float array ``buf`` of at least len(rngs) * n elements,
        a view of its front. The caller owns it and may overwrite it. This
        default stacks ``sample``; a model overrides it only where a block is
        faster.
        """
        out = _front(buf, (len(rngs), n))
        for row, rng in zip(out, rngs):
            row[:] = self.sample(n, rng)
        return out

    @abstractmethod
    def to_spec(self) -> dict: ...


@dataclass(frozen=True)
class IidGaussian(NoiseModel):
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(n)

    def to_spec(self) -> dict:
        return {"variant": "iid-gaussian"}


@dataclass(frozen=True)
class Ar1(NoiseModel):
    """Gaussian AR(1) with stationary start, unit marginal variance."""

    rho: float

    def __post_init__(self) -> None:
        if not (-1.0 < self.rho < 1.0):
            raise DomainError(f"ar1 rho must lie in (-1, 1), got {self.rho}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Python floats round exactly as numpy float64 scalars do, so the
        # recurrence on a list is bit-identical to indexing the array.
        z = rng.standard_normal(n).tolist()
        rho = self.rho
        c = math.sqrt(1.0 - rho**2)
        prev = z[0]
        out = [prev]
        for zi in z[1:]:
            prev = rho * prev + c * zi
            out.append(prev)
        return np.array(out)

    def sample_rows(
        self, n: int, rngs: Sequence[np.random.Generator], buf: np.ndarray | None = None
    ) -> np.ndarray:
        # Rep j is column j of one (n, B) buffer, so the recurrence steps all
        # reps at once down contiguous rows. Each element is rounded as in
        # sample, fl(fl(c*z) + fl(rho*prev)), so each column equals it bitwise.
        z = _front(buf, (n, len(rngs)))
        for j, rng in enumerate(rngs):
            z[:, j] = rng.standard_normal(n)
        rho = self.rho
        z[1:] *= math.sqrt(1.0 - rho**2)
        for i in range(1, n):
            z[i] += rho * z[i - 1]
        return z.T

    def to_spec(self) -> dict:
        return {"variant": "ar1", "rho": self.rho}


@dataclass(frozen=True)
class BoundedUniform(NoiseModel):
    b: float

    def __post_init__(self) -> None:
        if not (self.b > 0):
            raise DomainError(f"bounded-uniform b must be positive, got {self.b}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-self.b, self.b, n)

    def to_spec(self) -> dict:
        return {"variant": "bounded-uniform", "b": self.b}


@dataclass(frozen=True)
class Rademacher(NoiseModel):
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2, n) * 2.0 - 1.0

    def to_spec(self) -> dict:
        return {"variant": "rademacher"}


@dataclass(frozen=True)
class MeanOf(NoiseModel):
    """Average of m independent draws of an inner model; variance scales 1/m."""

    inner: NoiseModel
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"mean-of-m m must be >= 1, got {self.m}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        acc = np.zeros(n)
        for _ in range(self.m):
            acc += self.inner.sample(n, rng)
        return acc / self.m

    def sample_rows(
        self, n: int, rngs: Sequence[np.random.Generator], buf: np.ndarray | None = None
    ) -> np.ndarray:
        acc = _front(buf, (len(rngs), n))
        acc.fill(0.0)
        for _ in range(self.m):
            acc += self.inner.sample_rows(n, rngs)
        acc /= self.m
        return acc

    def to_spec(self) -> dict:
        return {"variant": "mean-of-m", "m": self.m, "inner": self.inner.to_spec()}


def sample_noise(
    model: NoiseModel,
    n: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
    buf: np.ndarray | None = None,
) -> np.ndarray:
    """Draw one noise vector; deterministic given the generator state.

    Given a list of generators, draw one row per generator instead, into
    ``buf`` if given, as ``model.sample_rows`` does.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if isinstance(rng, np.random.Generator):
        return model.sample(n, rng)
    return model.sample_rows(n, rng, buf)


def noise_model_from_spec(spec: dict, field: str = "noise") -> NoiseModel:
    """Parse the tagged-object JSON form, e.g. {"variant": "ar1", "rho": 0.5}.

    A malformed spec raises ConfigError naming ``field`` or its offending key;
    a well-typed value out of a model's range raises that model's DomainError.
    """
    spec = typed(spec, dict, field)
    variant = spec.get("variant")
    if variant == "iid-gaussian":
        return IidGaussian()
    if variant == "ar1":
        return Ar1(rho=typed(spec.get("rho"), float, f"{field}.rho"))
    if variant == "bounded-uniform":
        return BoundedUniform(b=typed(spec.get("b"), float, f"{field}.b"))
    if variant == "rademacher":
        return Rademacher()
    if variant == "mean-of-m":
        inner = noise_model_from_spec(spec.get("inner"), f"{field}.inner")
        return MeanOf(inner=inner, m=typed(spec.get("m"), int, f"{field}.m"))
    raise ConfigError(field, f"unknown noise variant {variant!r}")


@dataclass(frozen=True)
class TailDiagnosticReport:
    """Empirical survival of subset sums past a linear budget, and its decay.

    ``fitted_slope`` is the least-squares slope of log-survival against the
    margin grid, or None when fewer than two grid points had positive
    survival (decay faster than any exponential the grid can see).
    """

    m_grid: tuple[float, ...]
    empirical_survival: tuple[float, ...]
    fitted_slope: float | None
    passes: bool
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "m_grid": list(self.m_grid),
            "empirical_survival": list(self.empirical_survival),
            "fitted_slope": self.fitted_slope,
            "passes": self.passes,
            "note": self.note,
        }


def tail_decay_diagnostic(
    model: NoiseModel,
    n: int,
    per_coordinate_budget: float,
    m_grid: Sequence[float],
    subset_sizes: Sequence[int],
    reps: int,
    rng: np.random.Generator,
    slope_threshold: float = 0.1,
) -> TailDiagnosticReport:
    """Estimate P(sum of squared noise over a random subset >= budget + M).

    For each subset size s, ``reps`` replications each draw a fresh random
    subset of size s and a noise vector; the excess over the linear budget
    ``per_coordinate_budget * s`` is pooled across sizes and thresholded at
    every M in ``m_grid``. A line is fit to log-survival over the positive
    points; the check passes when the slope is at most -slope_threshold,
    which must be finite and > 0. This is a sanity diagnostic, not a
    certificate.
    """
    if reps < 100:
        raise DomainError(f"reps must be >= 100, got {reps}")
    if not m_grid or not subset_sizes:
        raise DomainError("m_grid and subset_sizes must be nonempty")
    for s in subset_sizes:
        if not (1 <= s <= n):
            raise DomainError(f"subset size {s} outside [1, {n}]")
    if not (0 < per_coordinate_budget < math.inf):
        raise DomainError(f"per_coordinate_budget must be finite and > 0, got {per_coordinate_budget}")
    if not (0 < slope_threshold < math.inf):
        raise DomainError(f"slope_threshold must be finite and > 0, got {slope_threshold}")
    grid = tuple(sorted(float(m) for m in m_grid))
    if not all(map(math.isfinite, grid)):
        raise DomainError(f"m_grid points must be finite, got {list(m_grid)}")

    excesses = []
    for s in subset_sizes:
        for _ in range(reps):
            idx = rng.choice(n, size=s, replace=False)
            xi = sample_noise(model, n, rng)
            excesses.append(float(np.sum(xi[idx] ** 2)) - per_coordinate_budget * s)
    excesses = np.asarray(excesses)
    survival = tuple(float(np.mean(excesses >= m)) for m in grid)

    pos = [(m, p) for m, p in zip(grid, survival) if p > 0]
    if len(pos) < 2:
        return TailDiagnosticReport(grid, survival, None, True, "survival vanished")
    ms = np.array([m for m, _ in pos])
    logs = np.log([p for _, p in pos])
    slope = float(np.polyfit(ms, logs, 1)[0])
    return TailDiagnosticReport(grid, survival, slope, slope <= -slope_threshold)
