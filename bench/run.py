"""hullselect benchmark: one workload, end-to-end metrics or the traced per-layer split.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc-readme [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` is the op time measured per run. It is always BENCHMARK.json's
``run_seconds``: the flag may be left out, and any other value is refused.
``--scale tiny`` (for the smoke test) shrinks every input and measures for
TINY_SECONDS instead.

Workloads: mc-readme, mc-large, path-gaussian, select-mixed-n (see
bench/README.md; BENCHMARK.json lists only the two mc workloads). Each op
runs in a closed loop: the next op starts when the previous one has
returned. ``--trace 0`` prints the end-to-end metrics named
in BENCHMARK.json, ``--trace 1`` the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The package is imported from ``src/`` of this
checkout, never from an installed copy; without it the run fails with a
nonzero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from statistics import median
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-readme", "mc-large", "path-gaussian", "select-mixed-n")
DEFAULT_SEED = 20250810
TINY_SECONDS = 0.5  # op time measured per run at --scale tiny
SETUP_SAMPLES = 3  # fresh interpreters per run; setup_s is their median
TIME_LIMIT_S = 170.0  # whole run, all child processes included
REQUIRED = ("BENCHMARK.json", "src/hullselect/__init__.py", "schemas/report.schema.json")


class BenchError(RuntimeError):
    pass


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    A gauge of the host's speed at the time of the run, printed next to the
    metrics (never as one), so that drift of the host can be told apart
    from a change of the program.
    """
    times = []
    for _ in range(7):
        t0 = monotonic()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(monotonic() - t0)
    return 1e3 * median(times)


def run_child(args, mode: str, tmp: str, out_dir: str, env: dict, deadline: float) -> dict:
    """Run measure.py in a fresh interpreter; return the JSON object it prints last."""
    remaining = deadline - monotonic()
    if remaining < 5:
        raise BenchError(f"no time left for a {mode} sample")
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--scale", args.scale, "--tmp", tmp, "--out-dir", out_dir,
           "--wall", str(min(3 * args.seconds + 20, remaining - 30))]
    # A new process group, so that stopping the sample also stops the pool
    # workers it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except BaseException as exc:  # a timeout, or SIGTERM/SIGINT to this process
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{mode} sample exceeded the time limit") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    s = sorted(times)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    idx = len(s) - 11
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - 1 - idx


def end_to_end(args, tmp, out_dir, env, deadline):
    setups = [run_child(args, "setup", tmp, out_dir, env, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_child(args, "e2e", tmp, out_dir, env, deadline)
    setups.append(res["setup_s"])
    times = res["times"]
    value, pct, beyond = tail(times)
    rss = res["rss"]
    metrics = {
        "op_s_p50": median(times),
        "op_s_tail": value,
        "coords_per_s": res["coords"] / sum(times),
        "setup_s": median(setups),
        "peak_rss_mb": rss["growth"],
    }
    notes = {
        "op_s_tail": f"p{pct:.1f}, {beyond} of {len(times)} timed ops beyond it",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": (f"growth over the pre-op bases: peak {rss['peak']:.1f} over "
                        f"{rss['base']:.1f}, largest worker {rss['worker_peak']:.1f} over a "
                        f"fresh fork's {rss['worker_base']:.1f}"),
    }
    return res, metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="op time measured per run; must equal BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the smoke test")
    args = p.parse_args(argv)
    deadline = monotonic() + TIME_LIMIT_S
    # SIGTERM unwinds like an exception, so the running sample is stopped and
    # the temp outputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"bench: not a hullselect checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    budget = TINY_SECONDS if args.scale == "tiny" else spec["run_seconds"]
    if args.seconds is not None and args.seconds != budget:
        print(f"bench: --seconds {args.seconds:g} at scale {args.scale}; this scale measures "
              f"for {budget:g} s", file=sys.stderr)
        return 2
    args.seconds = budget

    # Pin the pool to the cores this process may run on: os.cpu_count()
    # ignores affinity, so the package's default would oversubscribe.
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ, HULLSELECT_THREADS=str(cores))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    probe_before = host_probe_ms()
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        if args.trace:
            res = run_child(args, "trace", tmp, out_dir, env, deadline)
            metrics, notes = res["layers"], {}
        else:
            res, metrics, notes = end_to_end(args, tmp, out_dir, env, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    probe_after = host_probe_ms()
    import numpy

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  trace {args.trace}")
    print(f"env python {platform.python_version()}  numpy {numpy.__version__}  "
          f"usable cores {cores}  workers used {res['workers']}")
    print(f"host probe {probe_before:.2f} ms before, {probe_after:.2f} ms after "
          "(a fixed pure-Python loop; not a metric)")
    for m in wanted:
        note = notes.get(m["name"])
        print(f"  {m['name']:34s} {metrics[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_frac':34s} {res['failed'] / res['attempted']:.6g}  "
          f"({res['failed']} of {res['attempted']} ops failed the check)")
    for reason in res["reasons"]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
