"""Outputs stay byte-identical: every golden digest recomputes unchanged.

The digests in golden.json were recorded by record_golden.py; a mismatch
means that an output changed, or that numpy differs from the one they were
recorded under.
"""

import json

import numpy as np

from record_golden import GOLDEN_PATH, compute_digests


def test_outputs_match_golden_digests():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    got = compute_digests()
    changed = sorted(name for name in golden["digests"] if got.get(name) != golden["digests"][name])
    assert sorted(got) == sorted(golden["digests"])
    note = ("" if golden["numpy"] == np.__version__ else
            f"; the digests were recorded under numpy {golden['numpy']}, this is {np.__version__}")
    assert not changed, f"outputs changed: {changed}{note}"
