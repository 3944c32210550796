"""Experiment configuration, the seeded Monte-Carlo runner, and persistence.

A run fixes one signal, computes its evaluation active set once, then for
each replication derives an independent stream from (master_seed, rep),
draws noise, runs the selector, and records integer confusion counts. Reps
run in contiguous batches whose noise is drawn as one block, row by row
from each rep's own stream. The block is squared in place and each row is
selected through the same row function as ``select``, then counted against
the active-set indicator. All aggregation happens afterwards from the
ordered records, so serial and worker-pool execution and every batch size
produce byte-identical outputs.
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
from .core import Q_DEFAULT, ConfigError, built, finite_vector, typed
from .metrics import DEFAULT_KFWER_KS, ConfusionCounts, RateReport, aggregate
from .noise import NoiseModel, noise_model_from_spec, sample_noise
from .oracle import active_set, has_distinct_active_set, strong_signal_vector
from .selector import SelectorConfig, _select_row
from .uq import UqConfig, evaluate_uq_counts, uq_report_dict

PER_REP_CSV_HEADER = "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
        signal = _read_signal(self.signal, self.n)
        if isinstance(signal, np.ndarray):
            return signal
        s, level, signs = signal
        if signs == "random":
            signs = np.random.default_rng(stream_seed(self.master_seed, 0))
        return strong_signal_vector(self.n, s, level, self.sigma, signs, self.q)

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


def _read_signal(spec: dict, n: int) -> np.ndarray | tuple:
    """The explicit theta of a signal spec, or the (s, A, signs) of a strong signal."""
    if "theta" in spec:
        theta = typed(spec["theta"], list, "signal.theta", lambda t: len(t) == n, f"of length {n}")
        return np.array([typed(t, float, "signal.theta") for t in theta])
    s = typed(spec["s"], int, "signal.s", lambda s: 1 <= s <= n, f"in [1, {n}]")
    signs = spec.get("signs", "positive")
    if not isinstance(signs, str):
        signs = [typed(sign, float, "signal.signs") for sign in typed(signs, list, "signal.signs")]
    return s, typed(spec["A"], float, "signal.A"), signs


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    d = typed(d, dict, "<root>")
    n = typed(d.get("n"), int, "n", lambda n: n >= 1, ">= 1")
    signal = typed(
        d.get("signal"), dict, "signal",
        lambda sig: "theta" in sig or {"s", "A"} <= set(sig), "an object with 'theta', or 's' and 'A'"
    )
    _read_signal(signal, n)  # fail here; the echo keeps the spec as written
    theta_check = d.get("theta_check")
    if theta_check is not None:
        pair = typed(theta_check, list, "theta_check", lambda p: len(p) == 2, "a pair [A0, A1]")
        theta_check = tuple(typed(a, float, "theta_check") for a in pair)
        if not 0 <= theta_check[0] <= theta_check[1]:
            raise ConfigError("theta_check", f"need 0 <= A0 <= A1, got {pair}")
    uq = typed(d.get("uq", {}), dict, "uq")
    ks = typed(d.get("kfwer_ks", list(DEFAULT_KFWER_KS)), list, "kfwer_ks")
    output = typed(d.get("output", {}), dict, "output")
    report, reps = output.get("report"), output.get("reps")
    return ExperimentConfig(
        n=n,
        sigma=typed(d.get("sigma"), float, "sigma", lambda v: v > 0, "positive"),
        K=typed(d.get("K"), float, "K", lambda v: v > 0, "positive"),
        signal=signal,
        noise=built("noise", noise_model_from_spec, d.get("noise", {"variant": "iid-gaussian"})),
        replications=typed(d.get("replications"), int, "replications", lambda v: v >= 1, ">= 1"),
        master_seed=typed(d.get("master_seed"), int, "master_seed"),
        oracle_level=typed(d.get("oracle_A"), float, "oracle_A", lambda v: v >= 0, ">= 0"),
        theta_check=theta_check,
        uq=built(
            "uq", UqConfig,
            typed(uq.get("alpha4_prime", 1.0), float, "uq.alpha4_prime"),
            typed(uq.get("m1_prime", 4.0), float, "uq.m1_prime"),
        ),
        kfwer_ks=tuple(typed(k, int, "kfwer_ks", lambda k: k >= 1, ">= 1") for k in ks),
        q=typed(d.get("q", Q_DEFAULT), float, "q"),
        report_path=None if report is None else typed(report, str, "output.report"),
        reps_path=None if reps is None else typed(reps, str, "output.reps"),
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


# A batch's noise block holds at most this many coordinates (2 MiB of
# float64), so a run's memory does not grow with its rep count.
_BATCH_COORDS = 2**18
# A run of fewer coordinates (reps times n) than this stays serial: below it
# starting a worker pool costs more than the workers save.
_POOL_MIN_COORDS = 2**20


@dataclass(frozen=True)
class _RepContext:
    theta: np.ndarray
    selector: SelectorConfig
    noise: NoiseModel
    active: np.ndarray  # boolean indicator of the evaluation active set
    master_seed: int


def _replicate(ctx: _RepContext, first: int, last: int) -> list[RepRecord]:
    """Records of reps first..last, in order, drawn in batches of one noise block each.

    Rep r draws from its own stream, seeded stream_seed(master_seed, r), so
    its record does not depend on the batch it falls in.
    """
    n = len(ctx.theta)
    sigma = ctx.selector.sigma
    active_size = int(np.count_nonzero(ctx.active))
    batch = max(1, _BATCH_COORDS // n)
    records = []
    for start in range(first, last + 1, batch):
        reps = range(start, min(start + batch, last + 1))
        rngs = [np.random.default_rng(stream_seed(ctx.master_seed, rep)) for rep in reps]
        x = sample_noise(ctx.noise, n, rngs)
        x *= sigma
        x += ctx.theta  # x = theta + sigma * xi, rounded as for one rep
        finite_vector(x.ravel(order="K"), "x")  # a view of the block, not a copy
        np.square(x, out=x)
        for rep, x2 in zip(reps, x):
            k, _, _, _, selected = _select_row(x2, ctx.selector)
            true_pos = int(np.count_nonzero(ctx.active[selected]))
            false_pos, false_neg = len(selected) - true_pos, active_size - true_pos
            records.append(RepRecord(rep, false_pos, false_neg, len(selected), k, active_size,
                                     false_pos + false_neg))
    return records


_WORKER_CTX: _RepContext | None = None


def _init_worker(ctx: _RepContext) -> None:
    """Pool initializer: receive the shared rep context once per worker."""
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _replicate_in_worker(span: tuple[int, int]) -> list[RepRecord]:
    return _replicate(_WORKER_CTX, *span)


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
    execution. A run of fewer than _POOL_MIN_COORDS coordinates (reps
    times n) is serial whatever the worker count; a larger one hands the
    workers contiguous rep ranges. Outputs are identical for any worker
    count because records are aggregated in replication order from
    integer counts.
    """
    t0 = time.perf_counter()
    n_workers = resolve_workers(workers)
    theta = cfg.resolve_theta()
    mask = active_set(theta, cfg.oracle_level, cfg.sigma, cfg.q).active
    active = np.zeros(cfg.n, dtype=bool)
    active[[i - 1 for i in mask.indices]] = True
    ctx = _RepContext(theta, SelectorConfig(cfg.K, cfg.sigma, cfg.q), cfg.noise, active,
                      cfg.master_seed)

    reps = cfg.replications
    if n_workers > 1 and reps > 1 and reps * cfg.n >= _POOL_MIN_COORDS:
        span = max(1, reps // (4 * n_workers))
        spans = [(first, min(first + span - 1, reps)) for first in range(1, reps + 1, span)]
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(ctx,)
        ) as pool:
            records = [rec for part in pool.map(_replicate_in_worker, spans) for rec in part]
    else:
        records = _replicate(ctx, 1, reps)

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
