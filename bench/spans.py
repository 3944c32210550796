"""In-memory span recorder and the call sites it wraps.

Wrappers are installed by rebinding a public name in every module that holds
a copy of it: ``from .core import kahan_suffix_sums`` copies the binding into
``_sweep`` and ``oracle``, so each copy is a site of its own. A site whose
name no longer exists is skipped with a warning, and its spans then report
zero calls; the benchmark keeps running across refactors that delete names.
"""

from __future__ import annotations

import importlib
import json
import sys
from bisect import bisect_left
from time import perf_counter


def _obs_n(args, result) -> int:
    return args[0].n


def _noise_n(args, result) -> int:
    return args[1]


def _breakpoints(args, result) -> int:
    return len(result)


def _candidates(args, result) -> int:
    # _min_crossing(k_cur, cands, ...) scans every candidate below k_cur;
    # cands is ascending, so bisection counts them without a rescan.
    return bisect_left(args[1], args[0])


# (module, attribute, span name, work counter or None). The benchmark's own
# entry points are called through these module attributes, so they are
# covered as well.
SITES = (
    ("hullselect.cli", "main", "cli.main", None),
    ("hullselect.cli", "run_experiment", "harness.run", None),
    ("hullselect.cli", "write_outputs", "harness.io", None),
    ("hullselect.cli", "select", "selector.select", _obs_n),
    ("hullselect.cli", "active_set", "oracle.active_set", None),
    ("hullselect.cli", "active_set_path", "oracle.path", _breakpoints),
    ("hullselect.cli", "evaluate_uq_counts", "uq.evaluate", None),
    ("hullselect.harness", "sample_noise", "noise.sample", _noise_n),
    ("hullselect.harness", "select", "selector.select", _obs_n),
    ("hullselect.harness", "active_set", "oracle.active_set", None),
    ("hullselect.harness", "confusion", "metrics.confusion", None),
    ("hullselect.harness", "aggregate", "metrics.aggregate", None),
    ("hullselect.harness", "evaluate_uq_counts", "uq.evaluate", None),
    ("hullselect.selector", "select", "selector.select", _obs_n),
    ("hullselect.selector", "sweep_argmin", "selector.sweep_argmin", None),
    ("hullselect._sweep", "order_by_score", "selector.sort", None),
    ("hullselect._sweep", "kahan_suffix_sums", "selector.suffix", None),
    ("hullselect._sweep", "penalty_vector", "selector.penalty", None),
    ("hullselect.oracle", "active_set", "oracle.active_set", None),
    ("hullselect.oracle", "active_set_path", "oracle.path", _breakpoints),
    ("hullselect.oracle", "_min_crossing", "oracle.crossing", _candidates),
    ("hullselect.oracle", "sweep_argmin", "selector.sweep_argmin", None),
    ("hullselect.oracle", "order_by_score", "selector.sort", None),
    ("hullselect.oracle", "kahan_suffix_sums", "selector.suffix", None),
    ("hullselect.oracle", "penalty_vector", "selector.penalty", None),
)

ROOT_SPAN = "op"


def missing_sites() -> list[str]:
    """``module.attribute`` of every site that does not resolve on this tree."""
    out = []
    for mod_name, attr, _, _ in SITES:
        if not hasattr(importlib.import_module(mod_name), attr):
            out.append(f"{mod_name}.{attr}")
    return out


class Tracer:
    """Records spans as [name, start, end, parent index, op id, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._bad_counters: set[str] = set()
        self.op = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            if self.op < 0:  # outside a traced op, e.g. in a correctness check
                return fn(*args, **kwargs)
            rec = self._open(name)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if work is not None and name not in self._bad_counters:
                try:
                    rec[5] = work(args, result)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    self._bad_counters.add(name)
                    print(f"bench: warning: work counter of {name} failed: {exc!r}", file=sys.stderr)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, work in SITES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                print(f"bench: warning: {mod_name}.{attr} not found; {name} reports no calls from it",
                      file=sys.stderr)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, work))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) under a root span for one op; returns (result, seconds)."""
        self.op = op_id
        rec = self._open(ROOT_SPAN)
        rec[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self.op = -1
        return result, rec[2] - rec[1]

    def totals(self) -> tuple[dict, dict, dict, int]:
        """Per span name: summed duration, summed self time, summed work; and the op count.

        Self time is a span's duration minus the time its direct children
        cover. Spans are sequential within one thread, so children never
        overlap and their durations simply add.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        self_t: dict[str, float] = {}
        work: dict[str, int] = {}
        ops = 0
        for i, (name, start, end, _, _, w) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_t[name] = self_t.get(name, 0.0) + (end - start - child[i])
            work[name] = work.get(name, 0) + w
            ops += name == ROOT_SPAN
        return total, self_t, work, ops

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, w) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "work": w}) + "\n")
