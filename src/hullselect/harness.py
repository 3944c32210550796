"""Experiment configuration, the seeded Monte-Carlo runner, and persistence.

A run fixes one signal, computes its evaluation active set once, then for
each replication derives an independent stream from (master_seed, rep),
draws noise, runs the selector, and records integer confusion counts. All
aggregation happens afterwards from the ordered records, so serial and
worker-pool execution produce byte-identical outputs.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._version import __version__
from .core import Q_DEFAULT, ObservationVector, SelectionMask
from .metrics import DEFAULT_KFWER_KS, ConfusionCounts, RateReport, aggregate, confusion
from .noise import NoiseModel, noise_model_from_spec, sample_noise
from .oracle import active_set, has_distinct_active_set, strong_signal_vector
from .selector import SelectorConfig, select
from .uq import UqConfig, evaluate_uq_counts, uq_report_dict

PER_REP_CSV_HEADER = "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` identifies the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed: int, index: int) -> int:
    """Splitmix-style per-replication seed; index 0 is reserved for the signal."""
    return _mix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    sigma: float
    K: float
    signal: dict
    noise: NoiseModel
    replications: int
    master_seed: int
    oracle_level: float
    theta_check: tuple[float, float] | None = None
    uq: UqConfig = UqConfig()
    kfwer_ks: tuple[int, ...] = DEFAULT_KFWER_KS
    q: float = Q_DEFAULT
    report_path: str | None = None
    reps_path: str | None = None

    def resolve_theta(self) -> np.ndarray:
        """Materialize the signal vector, deterministically under master_seed."""
        spec = self.signal
        if "theta" in spec:
            theta = np.asarray(spec["theta"], dtype=float)
            if theta.shape != (self.n,):
                raise ConfigError("signal.theta", f"expected length {self.n}, got {theta.shape}")
            return theta
        signs = spec.get("signs", "positive")
        if signs == "random":
            signs = np.random.default_rng(stream_seed(self.master_seed, 0))
        return strong_signal_vector(
            self.n, int(spec["s"]), float(spec["A"]), self.sigma, signs, self.q
        )

    def echo(self) -> dict:
        out = {
            "n": self.n,
            "sigma": self.sigma,
            "K": self.K,
            "signal": self.signal,
            "noise": self.noise.to_spec(),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "oracle_A": self.oracle_level,
            "kfwer_ks": list(self.kfwer_ks),
            "q": self.q,
            "uq": {"alpha4_prime": self.uq.alpha4_prime, "m1_prime": self.uq.m1_prime},
        }
        if self.theta_check is not None:
            out["theta_check"] = list(self.theta_check)
        return out


def _require(d: dict, key: str, kind, field: str | None = None):
    field = field or key
    if key not in d:
        raise ConfigError(field, "missing")
    try:
        return kind(d[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"expected {kind.__name__}: {exc}") from exc


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    n = _require(d, "n", int)
    sigma = _require(d, "sigma", float)
    k_const = _require(d, "K", float)
    reps = _require(d, "replications", int)
    seed = _require(d, "master_seed", int)
    oracle_level = _require(d, "oracle_A", float)
    if n < 1:
        raise ConfigError("n", f"must be >= 1, got {n}")
    if not sigma > 0:
        raise ConfigError("sigma", f"must be positive, got {sigma}")
    if not k_const > 0:
        raise ConfigError("K", f"must be positive, got {k_const}")
    if reps < 1:
        raise ConfigError("replications", f"must be >= 1, got {reps}")
    if oracle_level < 0:
        raise ConfigError("oracle_A", f"must be >= 0, got {oracle_level}")

    signal = d.get("signal")
    if not isinstance(signal, dict) or not ({"theta"} <= set(signal) or {"s", "A"} <= set(signal)):
        raise ConfigError("signal", "need either {'theta': [...]} or {'s': ..., 'A': ...}")
    if "s" in signal and not (1 <= int(signal["s"]) <= n):
        raise ConfigError("signal.s", f"must lie in [1, {n}], got {signal['s']}")

    try:
        noise = noise_model_from_spec(d.get("noise", {"variant": "iid-gaussian"}))
    except (ValueError, KeyError) as exc:
        raise ConfigError("noise", str(exc)) from exc

    theta_check = None
    if d.get("theta_check") is not None:
        pair = d["theta_check"]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError("theta_check", "expected a two-element [A0, A1] list")
        a0, a1 = float(pair[0]), float(pair[1])
        if not (0 <= a0 <= a1):
            raise ConfigError("theta_check", f"need 0 <= A0 <= A1, got {pair}")
        theta_check = (a0, a1)

    uq_spec = d.get("uq", {})
    try:
        uq = UqConfig(
            alpha4_prime=float(uq_spec.get("alpha4_prime", 1.0)),
            m1_prime=float(uq_spec.get("m1_prime", 4.0)),
        )
    except ValueError as exc:
        raise ConfigError("uq", str(exc)) from exc

    ks = d.get("kfwer_ks", list(DEFAULT_KFWER_KS))
    if not (isinstance(ks, (list, tuple)) and all(int(k) >= 1 for k in ks)):
        raise ConfigError("kfwer_ks", f"expected a list of positive integers, got {ks!r}")

    output = d.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output", "expected an object with 'report'/'reps' paths")

    return ExperimentConfig(
        n=n,
        sigma=sigma,
        K=k_const,
        signal=signal,
        noise=noise,
        replications=reps,
        master_seed=seed,
        oracle_level=oracle_level,
        theta_check=theta_check,
        uq=uq,
        kfwer_ks=tuple(int(k) for k in ks),
        q=float(d.get("q", Q_DEFAULT)),
        report_path=output.get("report"),
        reps_path=output.get("reps"),
    )


def experiment_config_from_json(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"{path} line {exc.lineno}: {exc.msg}") from exc
    return experiment_config_from_dict(d)


@dataclass(frozen=True)
class RepRecord:
    rep: int
    false_pos: int
    false_neg: int
    selected_size: int
    preselector_size: int
    active_size: int
    hamming: int

    def csv_row(self) -> str:
        return (
            f"{self.rep},{self.false_pos},{self.false_neg},{self.selected_size},"
            f"{self.preselector_size},{self.active_size},{self.hamming}"
        )


@dataclass(frozen=True)
class _RepContext:
    theta: np.ndarray
    sigma: float
    K: float
    q: float
    noise: NoiseModel
    active: SelectionMask


def _replicate(ctx: _RepContext, job: tuple[int, int]) -> RepRecord:
    rep, seed = job
    rng = np.random.default_rng(seed)
    xi = sample_noise(ctx.noise, len(ctx.theta), rng)
    x = ctx.theta + ctx.sigma * xi
    result = select(ObservationVector(x, ctx.sigma), SelectorConfig(ctx.K, ctx.sigma, ctx.q))
    counts = confusion(result.selected, ctx.active)
    return RepRecord(
        rep=rep,
        false_pos=counts.false_pos,
        false_neg=counts.false_neg,
        selected_size=counts.selected_size,
        preselector_size=result.preselector.size,
        active_size=counts.active_size,
        hamming=counts.hamming,
    )


_WORKER_CTX: _RepContext | None = None


def _init_worker(ctx: _RepContext) -> None:
    """Pool initializer: receive the shared rep context once per worker."""
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _replicate_in_worker(job: tuple[int, int]) -> RepRecord:
    return _replicate(_WORKER_CTX, job)


def resolve_workers(explicit: int | None = None) -> int:
    """Worker count: explicit argument, else HULLSELECT_THREADS, else every usable core.

    Zero also means every usable core: the cores this process may run on,
    which can be fewer than the machine's when its CPU affinity is pinned.
    """
    field, raw = "workers", explicit
    if explicit is None:
        field, raw = "HULLSELECT_THREADS", os.environ.get("HULLSELECT_THREADS", "").strip() or 0
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(field, f"expected an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError(field, f"must be >= 0, got {value}")
    if value:
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    rates: RateReport
    coverage_fail_rate: float
    size_exceed_rate: float
    uq_config: UqConfig
    theta_check_passed: bool | None
    records: tuple[RepRecord, ...]
    per_rep_csv: str | None
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "rates": self.rates.to_dict(),
            "uq": uq_report_dict(self.coverage_fail_rate, self.size_exceed_rate, self.uq_config),
            "theta_check_passed": self.theta_check_passed,
            "per_rep_csv": self.per_rep_csv,
            "wall_time_s": self.wall_time_s,
            "version": __version__,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def per_rep_csv_text(records: Sequence[RepRecord]) -> str:
    return "\n".join([PER_REP_CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentReport:
    """Run the full replication loop and aggregate every report quantity.

    ``workers`` overrides the HULLSELECT_THREADS policy; 1 forces serial
    execution. Outputs are identical for any worker count because records
    are aggregated in replication order from integer counts.
    """
    t0 = time.perf_counter()
    theta = cfg.resolve_theta()
    active = active_set(theta, cfg.oracle_level, cfg.sigma, cfg.q).active
    ctx = _RepContext(theta, cfg.sigma, cfg.K, cfg.q, cfg.noise, active)
    jobs = [(rep, stream_seed(cfg.master_seed, rep)) for rep in range(1, cfg.replications + 1)]

    n_workers = resolve_workers(workers)
    if n_workers > 1 and cfg.replications > 1:
        chunk = max(1, cfg.replications // (4 * n_workers))
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            records = list(pool.map(_replicate_in_worker, jobs, chunksize=chunk))
    else:
        records = [_replicate(ctx, job) for job in jobs]
    records.sort(key=lambda r: r.rep)

    counts = [
        ConfusionCounts(r.false_pos, r.false_neg, r.selected_size, r.active_size, cfg.n)
        for r in records
    ]
    rates = aggregate(counts, cfg.kfwer_ks)
    cover_fail, size_exceed = evaluate_uq_counts(
        [(r.preselector_size, r.hamming, r.active_size) for r in records], cfg.n, cfg.uq
    )
    check = None
    if cfg.theta_check is not None:
        check = has_distinct_active_set(theta, cfg.sigma, *cfg.theta_check, cfg.q)

    return ExperimentReport(
        config=cfg.echo(),
        rates=rates,
        coverage_fail_rate=cover_fail,
        size_exceed_rate=size_exceed,
        uq_config=cfg.uq,
        theta_check_passed=check,
        records=tuple(records),
        per_rep_csv=cfg.reps_path,
        wall_time_s=time.perf_counter() - t0,
    )


def write_outputs(report: ExperimentReport, report_path: str | None, reps_path: str | None) -> None:
    if reps_path:
        with open(reps_path, "w") as fh:
            fh.write(per_rep_csv_text(report.records))
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(report.to_json())
