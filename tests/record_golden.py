"""Golden output digests: the cases, their recomputation, and the recorder.

    PYTHONPATH=src python3 tests/record_golden.py

rewrites tests/golden.json from the package on the path. Run it only when an
output change is intended, and say so in CHANGES.md; ``test_golden.py``
recomputes every digest and compares. Each digest is the SHA-256 of a case's
output bytes: for ``simulate`` the per-rep CSV and the report JSON without
``wall_time_s``, for ``select``/``oracle``/``path`` the CLI's JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from hullselect import harness
from hullselect.cli import main as cli_main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

README_CONFIG = {
    "n": 1000,
    "sigma": 1.0,
    "K": 4.0,
    "signal": {"s": 10, "A": 16.0, "signs": "positive"},
    "noise": {"variant": "ar1", "rho": 0.5},
    "replications": 500,
    "master_seed": 20250810,
    "oracle_A": 16.0,
    "theta_check": [1.0, 16.0],
    "uq": {"alpha4_prime": 1.0, "m1_prime": 4.0},
    "kfwer_ks": [1, 2, 5],
}

# The three configs of acceptance criterion 9.
CRITERION_9 = [
    {"signal": {"s": 3, "A": 16.0}, "n": 50, "K": 4.0},
    {"signal": {"s": 5, "A": 2.0}, "n": 80, "K": 1.0},
    {"signal": {"s": 2, "A": 4.0}, "n": 60, "K": 2.0, "noise": {"variant": "ar1", "rho": 0.5}},
]

TIED = [3.0, -3.0, 3.0, 1.0, -1.0, 1.0, 0.0, 0.0, 2.0, -2.0]
ZERO = [0.0] * 8
# fl(x^2) = w * (p[1] - p[0]) exactly at w = 0.25, a power of two: C(0) and C(1)
# tie exactly, so the preselector takes the larger set {1} and the active set
# the smaller, {}.
CROSS_TIE = [0.8205405505762566, 0.0]
# The bench's first path-gaussian theta at its default seed.
GAUSSIAN_1E3 = np.random.default_rng(20250810).standard_normal(1000).tolist()


def recording_pool(sizes: list[int]) -> type:
    """A ThreadPoolExecutor that appends each started pool's worker count to sizes."""

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    return RecordingPool


@contextmanager
def _run_setting(threads: str, **attrs):
    """HULLSELECT_THREADS and harness module attributes, restored on exit."""
    saved_env = os.environ.get("HULLSELECT_THREADS")
    saved = {name: getattr(harness, name) for name in attrs}
    os.environ["HULLSELECT_THREADS"] = threads
    for name, value in attrs.items():
        setattr(harness, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(harness, name, value)
        if saved_env is None:
            os.environ.pop("HULLSELECT_THREADS", None)
        else:
            os.environ["HULLSELECT_THREADS"] = saved_env


def _simulate_digest(config: dict) -> str:
    report = harness.run_experiment(harness.experiment_config_from_dict(config))
    body = report.to_dict()
    body.pop("wall_time_s")
    data = harness.per_rep_csv_text(report.records) + json.dumps(body, indent=2, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def _cli_digest(tmp: str, argv: list[str], values: list[float]) -> str:
    src, out = os.path.join(tmp, "input.json"), os.path.join(tmp, "out.json")
    with open(src, "w") as fh:
        json.dump(values, fh)
    flag = "--input" if argv[0] == "select" else "--theta"
    if cli_main(argv + [flag, src, "--out", out]) != 0:
        raise RuntimeError(f"{argv} failed")
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compute_digests() -> dict[str, str]:
    """Digest of every golden case, by case name."""
    digests = {}
    with _run_setting("1"):
        digests["readme"] = _simulate_digest(README_CONFIG)
    with _run_setting("1", _BATCH_COORDS=1):
        digests["readme-cap-1"] = _simulate_digest(README_CONFIG)
    # without the work threshold each criterion 9 run hands 2 workers 10 batches
    pools: list[int] = []
    with _run_setting("2", _POOL_MIN_COORDS=0, ThreadPoolExecutor=recording_pool(pools)):
        for idx, over in enumerate(CRITERION_9):
            config = {"sigma": 1.0, "noise": {"variant": "iid-gaussian"}, "replications": 30,
                      "master_seed": 4200 + idx, "oracle_A": over["signal"]["A"], **over}
            digests[f"criterion-9-{idx}-pool-2"] = _simulate_digest(config)
    if pools != [2] * len(CRITERION_9):
        raise RuntimeError(f"the criterion 9 cases started pools of {pools}, not one of 2 each")
    with _run_setting("1"):
        for K in (0.3, 1.0, 4.0):
            config = {**README_CONFIG, "K": K, "noise": {"variant": "rademacher"}}
            digests[f"rademacher-K{K}"] = _simulate_digest(config)
    with tempfile.TemporaryDirectory() as tmp:
        for label, values in (("tied", TIED), ("zero", ZERO)):
            digests[f"select-{label}"] = _cli_digest(
                tmp, ["select", "--sigma", "1", "--K", "1"], values)
            digests[f"oracle-{label}"] = _cli_digest(
                tmp, ["oracle", "--sigma", "1", "--A", "4"], values)
            digests[f"path-{label}"] = _cli_digest(tmp, ["path", "--sigma", "1"], values)
        digests["select-cross-tie"] = _cli_digest(
            tmp, ["select", "--sigma", "1", "--K", "0.25"], CROSS_TIE)
        digests["oracle-cross-tie"] = _cli_digest(
            tmp, ["oracle", "--sigma", "1", "--A", "0.25"], CROSS_TIE)
        digests["path-gaussian-1e3"] = _cli_digest(tmp, ["path", "--sigma", "1"], GAUSSIAN_1E3)
    return digests


def main() -> int:
    golden = {"numpy": np.__version__, "digests": compute_digests()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    json.dump(golden, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
