"""Command-line front end.

Subcommands: select, oracle, path, simulate, bound, noise-check, uq.
Exit codes: 0 success, 2 configuration/usage error, 1 runtime error.
JSON outputs encode +infinity as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from ._version import __version__
from .bounds import PHASE_CSV_HEADER, phase_row_csv, phase_table
from .core import ConfigError, DimensionError, DomainError, ObservationVector, built, typed
from .harness import experiment_config_from_json, read_per_rep_csv, run_experiment, write_outputs
from .noise import noise_model_from_spec, tail_decay_diagnostic
from .oracle import active_set, active_set_path
from .selector import SelectorConfig, select
from .uq import UqConfig, evaluate_uq_counts, uq_report_dict


def _read_vector(path: str) -> np.ndarray:
    """Vector input: a JSON array (*.json) or CSV with one value per line."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        return np.array([typed(x, float, "input") for x in typed(data, list, "input")])
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError as exc:
                raise ConfigError("input", f"{path} line {lineno}: {line!r}") from exc
    if not values:
        raise ConfigError("input", f"{path}: no values")
    return np.asarray(values)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_select(args) -> int:
    obs = ObservationVector(_read_vector(args.input), args.sigma)
    result = select(obs, SelectorConfig(K=args.K, sigma=args.sigma))
    _emit(json.dumps(result.to_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_oracle(args) -> int:
    result = active_set(_read_vector(args.theta), args.A, args.sigma)
    _emit(json.dumps(result.to_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_path(args) -> int:
    entries = active_set_path(_read_vector(args.theta), args.sigma)
    _emit(json.dumps([e.to_dict() for e in entries], indent=2) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = experiment_config_from_json(args.config)
    updates: dict = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.out is not None:
        updates["report_path"] = args.out
    if args.reps_out is not None:
        updates["reps_path"] = args.reps_out
    cfg = dataclasses.replace(cfg, **updates)
    report = run_experiment(cfg)
    write_outputs(report, cfg.report_path, cfg.reps_path)
    if cfg.report_path is None:
        sys.stdout.write(report.to_json())
    return 0


def _cmd_bound(args) -> int:
    rows = phase_table(args.n, args.s, args.A, args.sigma)
    lines = [PHASE_CSV_HEADER] + [phase_row_csv(r) for r in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_noise_check(args) -> int:
    text = args.model
    if not text.lstrip().startswith("{"):
        with open(text) as fh:
            text = fh.read()
    model = built("noise", noise_model_from_spec, json.loads(text))
    report = tail_decay_diagnostic(
        model,
        n=args.n,
        per_coordinate_budget=args.C,
        m_grid=args.m_grid,
        subset_sizes=args.sizes,
        reps=args.reps,
        rng=np.random.default_rng(args.seed),
        slope_threshold=args.slope_threshold,
    )
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_uq(args) -> int:
    records = read_per_rep_csv(args.reps_in, args.n)
    cfg = UqConfig(alpha4_prime=args.alpha4_prime, m1_prime=args.m1_prime)
    counts = [(r.preselector_size, r.hamming, r.active_size) for r in records]
    cover_fail, size_exceed = evaluate_uq_counts(counts, args.n, cfg)
    _emit(json.dumps(uq_report_dict(cover_fail, size_exceed, cfg), indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullselect",
        description="Penalized variable selection, risk metrics, and Monte-Carlo evaluation.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"hullselect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="run the selector on a data vector")
    p.add_argument("--input", required=True, help="CSV (one value per line) or JSON array")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("oracle", help="active set of a signal at one penalty level")
    p.add_argument("--theta", required=True, help="signal vector file (CSV or JSON array)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("path", help="full active-set interval decomposition")
    p.add_argument("--theta", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("simulate", help="run a Monte-Carlo experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="report JSON path (stdout if omitted)")
    p.add_argument("--reps-out", help="per-replication CSV path")
    p.add_argument("--seed", type=int, help="override the config master_seed")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="lower-bound phase table over a grid")
    p.add_argument("--n", type=_int_list, required=True, help="comma list")
    p.add_argument("--s", type=_int_list, required=True, help="comma list")
    p.add_argument("--A", type=_float_list, required=True, help="comma list")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("noise-check", help="empirical tail-decay diagnostic")
    p.add_argument("--model", required=True, help="noise spec as inline JSON or a file path")
    p.add_argument("--C", type=float, required=True, help="per-coordinate budget")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--sizes", type=_int_list, default=[10])
    p.add_argument("--m-grid", type=_float_list, default=[float(m) for m in range(0, 21, 2)])
    p.add_argument("--slope-threshold", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_noise_check)

    p = sub.add_parser("uq", help="coverage/size rates from a per-replication CSV")
    p.add_argument("--reps-in", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha4-prime", type=float, default=1.0)
    p.add_argument("--m1-prime", type=float, default=4.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_uq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, DimensionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
