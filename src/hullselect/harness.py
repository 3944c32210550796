"""Experiment configuration, the seeded Monte-Carlo runner, and persistence.

A run fixes one signal, computes its evaluation active set once, then for
each replication derives an independent stream from (master_seed, rep),
draws noise, runs the selector, and records one row of integer counts. Reps
run in contiguous batches, the one unit of work of serial and pooled runs
alike. A batch's noise is drawn as one block, row by row from each rep's
own stream, into the noise buffer of the thread that runs it: each thread
maps one per run, so a run's memory does not depend on the history of the
malloc heap. The block is squared in place and selected in slices of rows
by the sweep's block form, which hands any row its float filter leaves open
to the row kernel that ``select`` runs. Each slice's thresholds, subset
check and counts are taken over its rows at once, into the columns of one
count array per batch. A large run maps its batches over a pool of threads:
each rep's generator lives in one batch, so in one thread, and the context
the batches share is read only. The rates, the UQ and the records all come
from the batches' arrays in rep order, so serial and pooled execution and
every batch size produce byte-identical outputs.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._version import __version__
from .core import Q_DEFAULT, ConfigError, built, finite_vector, typed
from .metrics import DEFAULT_KFWER_KS, RateReport, _rates
from .noise import NoiseModel, noise_model_from_spec, sample_noise
from .oracle import active_set, has_distinct_active_set, strong_signal_vector
from ._sweep import sweep_argmin_block
from .selector import SelectorConfig, _size_threshold
from .uq import UqConfig, evaluate_uq_counts, uq_report_dict

PER_REP_CSV_HEADER = "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LEVEL = (lambda a: 0 <= a < np.inf, "finite and >= 0")  # a penalty level's range test


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
        theta_check = tuple(typed(a, float, "theta_check", *_LEVEL) for a in pair)
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
        oracle_level=typed(d.get("oracle_A"), float, "oracle_A", *_LEVEL),
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
# float64), so a run's memory does not grow with its rep count; each thread
# of a run maps one buffer of a batch's size.
_BATCH_COORDS = 2**18
# A batch is selected in slices of this many rows, which bounds the
# selection's work arrays whatever the batch size; larger slices select no
# faster.
_SELECT_ROWS = 64
# A run of fewer coordinates (reps times n) than this stays serial. Only
# numpy's bulk draws, sorts and sums release the interpreter lock; a small-n
# run spends most of its time in Python (the AR(1) recurrence, per-rep
# records), where threads contend for the lock and run slower than one.
_POOL_MIN_COORDS = 2**20


def _mapped_block(size: int) -> np.ndarray:
    """A flat float array of ``size`` elements in its own anonymous memory mapping.

    A noise buffer is large. As a malloc chunk it would come from the heap
    once glibc has raised its mmap threshold past its size, and where it
    landed would depend on what the process allocated before, so a run's
    peak memory would differ from one process to the next by up to a
    buffer. A mapping is returned whole to the system when the array is
    freed. Its pages are private and, on Linux, faulted in by the one call
    that maps them.
    """
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, 8 * size, flags=flags), dtype=np.float64)


class _NoiseBuffers(threading.local):
    """Each thread's noise buffer for one run: ``size`` floats, mapped at the
    thread's first batch and reused by its later ones."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.block: np.ndarray | None = None

    def get(self) -> np.ndarray:
        if self.block is None:
            self.block = _mapped_block(self.size)
        return self.block


@dataclass(frozen=True)
class _RepContext:
    theta: np.ndarray
    selector: SelectorConfig
    noise: NoiseModel
    active: np.ndarray  # 0-based columns of the evaluation active set
    master_seed: int
    buffers: _NoiseBuffers


def _batch_records(ctx: _RepContext, reps: range) -> np.ndarray:
    """The (len(reps), 7) int64 count rows of one batch, in PER_REP_CSV_HEADER's
    column order: its noise block, drawn into the thread's buffer and selected
    in slices of _SELECT_ROWS rows.

    Rep r draws from its own stream, seeded stream_seed(master_seed, r), so
    its row does not depend on the batch it falls in.
    """
    n = len(ctx.theta)
    cfg = ctx.selector
    weight = cfg.K * cfg.sigma**2
    rngs = [np.random.default_rng(stream_seed(ctx.master_seed, rep)) for rep in reps]
    x = sample_noise(ctx.noise, n, rngs, ctx.buffers.get())
    x *= cfg.sigma
    x += ctx.theta  # x = theta + sigma * xi, rounded as for one rep
    finite_vector(x.ravel(order="K"), "x")  # a view of the block, not a copy
    np.square(x, out=x)
    clears = np.empty((min(len(reps), _SELECT_ROWS), n), dtype=bool)
    counts = np.empty((len(reps), 7), dtype=np.int64)
    counts[:, 0] = reps
    counts[:, 5] = len(ctx.active)
    for lo in range(0, len(reps), _SELECT_ROWS):
        x2, rows = x[lo:lo + _SELECT_ROWS], counts[lo:lo + _SELECT_ROWS]
        k = sweep_argmin_block(x2, weight, cfg.q)
        threshold = np.array([_size_threshold(weight, cfg.q, n, pre) for pre in k.tolist()])[:, None]
        selected = np.count_nonzero(np.greater_equal(x2, threshold, out=clears[:len(k)]), axis=1)
        # both sets are prefixes of one descending score order, so the
        # selected set lies in the preselector exactly when it is no larger
        if (selected > k).any():
            raise RuntimeError("selector produced a coordinate outside the preselector")
        true_pos = np.count_nonzero(x2[:, ctx.active] >= threshold, axis=1)
        rows[:, 1] = selected - true_pos
        rows[:, 2] = len(ctx.active) - true_pos
        rows[:, 3] = selected
        rows[:, 4] = k
    counts[:, 6] = counts[:, 1] + counts[:, 2]
    return counts


def resolve_workers() -> int:
    """Worker setting: HULLSELECT_THREADS, or, where it is 0 or unset, the cores this
    process may run on, which are fewer than the machine's when its affinity is pinned.
    """
    raw = os.environ.get("HULLSELECT_THREADS", "").strip() or 0
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError("HULLSELECT_THREADS", f"expected an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError("HULLSELECT_THREADS", f"must be >= 0, got {value}")
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


def read_per_rep_csv(path: str) -> list[RepRecord]:
    """The records of a per-rep CSV, as per_rep_csv_text writes it."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != PER_REP_CSV_HEADER:
            raise ConfigError("reps-in", f"unexpected CSV header {header!r}")
        for lineno, line in enumerate(fh, 2):
            if line.strip():
                row = typed(
                    line.strip().split(","), list, f"reps-in line {lineno}",
                    lambda row: len(row) == 7 and all(c.isdecimal() for c in row), "7 counts"
                )
                records.append(RepRecord(*map(int, row)))
    return records


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full replication loop and aggregate every report quantity.

    The reps are split once into batches of at most _BATCH_COORDS
    coordinates. A run of fewer than _POOL_MIN_COORDS coordinates (reps
    times n) loops over them serially; a larger one cuts them to at least
    four per worker and maps them over a thread pool, in order.
    HULLSELECT_THREADS is the only worker setting (see resolve_workers).
    Outputs are identical for any worker count because the rates, the UQ and
    the records are all read from one integer count array in rep order.
    """
    t0 = time.perf_counter()
    n_workers = resolve_workers()
    theta = cfg.resolve_theta()
    mask = active_set(theta, cfg.oracle_level, cfg.sigma, cfg.q).active
    active = np.array(mask.indices, dtype=np.intp) - 1

    reps = cfg.replications
    size = max(1, _BATCH_COORDS // cfg.n)
    pooled = n_workers > 1 and reps * cfg.n >= _POOL_MIN_COORDS
    if pooled:  # at least four batches per worker, so that uneven batch times even out
        size = max(1, min(size, reps // (4 * n_workers)))
    batches = [range(first, min(first + size, reps + 1)) for first in range(1, reps + 1, size)]
    ctx = _RepContext(theta, SelectorConfig(cfg.K, cfg.sigma, cfg.q), cfg.noise, active,
                      cfg.master_seed, _NoiseBuffers(min(size, reps) * cfg.n))
    if pooled and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=min(n_workers, len(batches))) as pool:
            parts = list(pool.map(_batch_records, [ctx] * len(batches), batches))
    else:
        parts = [_batch_records(ctx, batch) for batch in batches]
    counts = np.concatenate(parts)

    rates = _rates(counts[:, [1, 2, 3, 5]], cfg.n, cfg.kfwer_ks)
    cover_fail, size_exceed = evaluate_uq_counts(counts[:, [4, 6, 5]].tolist(), cfg.n, cfg.uq)
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
        records=tuple(RepRecord(*row) for row in counts.tolist()),
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
