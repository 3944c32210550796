"""Record the reference output digests that the default-seed run compares against.

    python3 bench/record_reference.py

Run it only when an output change is intended; it rewrites bench/reference.json
from the package in src/ of this checkout.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {"seed": DEFAULT_SEED}
    schema = os.path.join(ROOT, "schemas", "report.schema.json")
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            wl = workloads.make(name, DEFAULT_SEED, "full", tmp, schema)
            for i in range(wl.batch):
                reason = wl.check(i, wl.op(i))
                if reason is not None:
                    raise SystemExit(f"{name} op {i}: {reason}")
            reference[name] = wl.digests()
            print(name, reference[name])
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
