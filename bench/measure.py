"""One measuring process: set-up, then the timed ops of one workload.

``run.py`` starts this script in a fresh interpreter, once per sample, and
reads the JSON object on the last line of its standard output. Modes:

- ``setup``: time ``import hullselect`` plus the first op, then stop.
- ``e2e``: after a warm-up of one batch (one op, or one cycle of inputs),
  time ops until ``--seconds`` of op time have passed, untraced, with the
  harness pool at ``HULLSELECT_THREADS``.
- ``trace``: untraced ops for the overhead and pool-efficiency baselines,
  then serial traced ops that give the per-layer split.

Every op is checked outside its timed interval.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from statistics import median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
E2E_MIN_OPS = 25  # so that op_s_tail is at least the p60


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, i: int, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            reason = f"op raised {out!r}"
        else:
            try:
                reason = self.wl.check(i, out)
            except Exception as exc:  # a crashing check is a failed op, not a crashed run
                reason = f"check raised {exc!r}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{self.wl.name} op {i}: {reason}")


def plain_call(wl, i: int):
    t0 = perf_counter()
    try:
        out = wl.op(i)
    except Exception as exc:  # counted as a failed op by Tally.check
        out = exc
    return out, perf_counter() - t0


def traced_call(tracer, wl, i: int):
    try:
        return tracer.run_op(i, wl.op, i)
    except Exception as exc:  # counted as a failed op by Tally.check
        return exc, 0.0


def run_ops(wl, tally: Tally, call, start: int, budget: float, wall_end: float, min_ops: int = 3):
    """Time ops from index ``start`` until ``budget`` seconds of op time and
    ``min_ops`` ops, in whole batches.

    Returns (op times, coordinates processed). ``wall_end`` caps the loop,
    correctness checks included, at a batch boundary.
    """
    times: list[float] = []
    coords = 0
    spent = 0.0
    i = start
    while spent < budget or len(times) < min_ops or len(times) % wl.batch:
        if len(times) >= 3 and len(times) % wl.batch == 0 and perf_counter() > wall_end:
            break
        out, dt = call(i)
        times.append(dt)
        spent += dt
        coords += wl.coords(i)
        tally.check(i, out)
        i += 1
    return times, coords


def rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def fork_rss_mb() -> float:
    """RSS of a freshly forked child of this process, in MiB.

    A pool worker starts with this much, all of it pages it shares with the
    parent; it is the base to take from a worker's peak.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report its RSS and leave at once
        os.close(r)
        os.write(w, repr(rss_mb()).encode())
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        value = float(fh.read())
    os.waitpid(pid, 0)
    return value


def rss_summary(base: float, worker_base: float) -> dict:
    """Peak RSS of this process and of its largest pool worker, with their bases, in MiB.

    ``growth`` is what the ops added on top of the bases: the peak of this
    process minus its RSS before op 0, plus the largest worker's peak minus
    what a fresh fork holds. A worker's pages that are still shared with
    this process count in both peaks, so ``growth`` counts them twice.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worker_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"peak": peak, "base": base, "worker_peak": worker_peak, "worker_base": worker_base,
            "growth": peak - base + max(0.0, worker_peak - worker_base)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_phase(wl, tally, start, seconds, wall_end, workers, out_dir):
    """Untraced baselines, then serial traced ops; returns the per-layer metrics."""
    import hullselect._sweep as sweep
    import spans

    # Every phase replays the same op indices, so that the phases compare
    # like with like on workloads whose inputs vary per op.
    threads = os.environ["HULLSELECT_THREADS"]
    plain = lambda i: plain_call(wl, i)  # noqa: E731
    pooled_p50 = None
    serial_budget = seconds / 3
    if wl.uses_pool:
        pooled, _ = run_ops(wl, tally, plain, start, seconds / 4, wall_end)
        pooled_p50 = median(pooled)
        serial_budget = seconds / 4
        os.environ["HULLSELECT_THREADS"] = "1"
    try:
        serial, _ = run_ops(wl, tally, plain, start, serial_budget, wall_end)

        penalty = getattr(sweep, "penalty_vector", None)
        cache_info = getattr(penalty, "cache_info", None)
        info0 = cache_info() if cache_info else None
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_budget = seconds - serial_budget - (seconds / 4 if wl.uses_pool else 0.0)
            traced, _ = run_ops(wl, tally, lambda j: traced_call(tracer, wl, j), start,
                                   traced_budget, wall_end)
        finally:
            tracer.uninstall()
        info1 = cache_info() if cache_info else None
    finally:
        os.environ["HULLSELECT_THREADS"] = threads

    tracer.write(os.path.join(out_dir, f"trace-{wl.name}.jsonl"))
    total, self_t, work, ops = tracer.totals()
    hits = misses = 0
    if info0 is not None:
        hits, misses = info1.hits - info0.hits, info1.misses - info0.misses

    def tot(name):
        return total.get(name, 0.0) / ops

    def own(name):
        return self_t.get(name, 0.0) / ops

    def count(name):
        return work.get(name, 0) / ops

    serial_p50 = median(serial)
    return {
        "noise.sample_s": tot("noise.sample"),
        "noise.coords": count("noise.sample"),
        "selector.sort_s": tot("selector.sort"),
        "selector.suffix_s": tot("selector.suffix"),
        "selector.penalty_s": tot("selector.penalty"),
        "selector.penalty_hit_ratio": _ratio(hits, hits + misses),
        "selector.argmin_self_s": own("selector.sweep_argmin"),
        "selector.self_s": own("selector.select"),
        "selector.select_s": tot("selector.select"),
        "selector.coords": count("selector.select"),
        "oracle.path_s": tot("oracle.path"),
        "oracle.crossing_s": tot("oracle.crossing"),
        "oracle.path_self_s": own("oracle.path"),
        "oracle.breakpoints": count("oracle.path"),
        "oracle.crossings_per_breakpoint": _ratio(work.get("oracle.crossing", 0),
                                                  work.get("oracle.path", 0)),
        "oracle.active_set_s": tot("oracle.active_set"),
        "metrics.confusion_s": tot("metrics.confusion"),
        "metrics.aggregate_s": tot("metrics.aggregate"),
        "uq.evaluate_s": tot("uq.evaluate"),
        "harness.run_s": tot("harness.run"),
        "harness.self_s": own("harness.run"),
        "harness.io_s": tot("harness.io"),
        "harness.pool_efficiency": _ratio(serial_p50, pooled_p50 * workers) if pooled_p50 else 0.0,
        "harness.workers": workers if wl.uses_pool else 0,
        "cli.self_s": own("cli.main"),
        "trace.op_s_p50": median(traced),
        "trace.op_s_mean": tot(spans.ROOT_SPAN),
        "trace.op_self_s": own(spans.ROOT_SPAN),
        "trace.overhead_ratio": median(traced) / serial_p50,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), required=True)
    p.add_argument("--tmp", required=True, help="directory for simulate outputs")
    p.add_argument("--out-dir", required=True, help="directory for the span file")
    p.add_argument("--wall", type=float, required=True, help="wall-clock cap on the timed loop")
    args = p.parse_args(argv)
    wall_end = perf_counter() + args.wall

    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import hullselect

    import_s = perf_counter() - t0
    if os.path.dirname(os.path.abspath(hullselect.__file__)) != os.path.join(SRC, "hullselect"):
        print(f"bench: imported hullselect from {hullselect.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        reference = json.load(fh)
    expect = None
    if args.scale == "full" and args.seed == reference["seed"]:
        expect = reference[args.workload]
    wl = workloads.make(args.workload, args.seed, args.scale, args.tmp,
                        os.path.join(ROOT, "schemas", "report.schema.json"), expect)
    tally = Tally(wl)
    # Memory baselines, taken after the inputs are made and before op 0.
    base, worker_base = rss_mb(), fork_rss_mb()
    out, first_s = plain_call(wl, 0)
    tally.check(0, out)
    result = {"setup_s": import_s + first_s}
    workers = int(os.environ["HULLSELECT_THREADS"])

    if args.mode != "setup":
        # Warm-up: the rest of the first batch, untimed, so that timing
        # starts on a whole cycle of inputs that have each run once.
        for i in range(1, wl.batch):
            tally.check(i, plain_call(wl, i)[0])
    if args.mode == "e2e":
        times, coords = run_ops(wl, tally, lambda i: plain_call(wl, i), wl.batch, args.seconds,
                                wall_end, E2E_MIN_OPS)
        result.update(times=times, coords=coords)
    elif args.mode == "trace":
        result["layers"] = trace_phase(wl, tally, wl.batch, args.seconds, wall_end, workers,
                                       args.out_dir)
        result["layers"]["oracle.breakpoint_mismatches"] = workloads.breakpoint_mismatches(
            args.seed, args.scale)
    result.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
                  rss=rss_summary(base, worker_base), workers=workers if wl.uses_pool else 0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
