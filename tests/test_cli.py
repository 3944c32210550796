import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hullselect import active_set_path, harness, sparsity_penalty
from hullselect.cli import main


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def vector_csv(tmp_path):
    p = tmp_path / "xs.csv"
    p.write_text("3.0\n0.0\n")
    return str(p)


class TestSelect:
    def test_json_on_stdout(self, capsys, vector_csv):
        code, out, _ = run_cli(capsys, "select", "--input", vector_csv, "--sigma", "1", "--K", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["preselector"] == [1]
        assert payload["selected"] == [1]
        assert payload["threshold"] == pytest.approx(math.log(2 * math.e**2))
        assert payload["criterion"] == pytest.approx(2 + math.log(2))

    def test_json_array_input(self, capsys, tmp_path):
        p = tmp_path / "xs.json"
        p.write_text("[0.0, 0.0, 0.0]")
        code, out, _ = run_cli(capsys, "select", "--input", str(p), "--sigma", "1", "--K", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["selected"] == [] and payload["threshold"] is None

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "select", "--input", str(tmp_path / "nope.csv"), "--sigma", "1", "--K", "4"
        )
        assert code == 1 and "error" in err

    def test_bad_content_is_config_error(self, capsys, tmp_path):
        p = tmp_path / "xs.csv"
        p.write_text("3.0\nnot-a-number\n")
        code, _, err = run_cli(capsys, "select", "--input", str(p), "--sigma", "1", "--K", "4")
        assert code == 2 and "line 2" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys, vector_csv):
        code, _, _ = run_cli(
            capsys, "select", "--input", vector_csv, "--sigma", "1", "--K", "4", "--bogus"
        )
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2


class TestOracleAndPath:
    def test_oracle(self, capsys, tmp_path):
        p = tmp_path / "theta.csv"
        p.write_text("10.0\n0.0\n0.0\n0.0\n")
        code, out, _ = run_cli(capsys, "oracle", "--theta", str(p), "--sigma", "1", "--A", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["active"] == [1]
        assert payload["r_squared"] == pytest.approx(sparsity_penalty(1, 4))

    def test_path(self, capsys, tmp_path):
        p = tmp_path / "theta.json"
        p.write_text("[10.0, 0.0, 0.0, 0.0]")
        code, out, _ = run_cli(capsys, "path", "--theta", str(p), "--sigma", "1")
        assert code == 0
        entries = json.loads(out)
        expect = [e.to_dict() for e in active_set_path([10.0, 0, 0, 0], 1.0)]
        assert entries == expect
        assert entries[-1]["a_high"] is None  # +inf encodes as null


class TestSimulate:
    def config(self, tmp_path, **over):
        d = {
            "n": 30,
            "sigma": 1.0,
            "K": 4.0,
            "signal": {"s": 3, "A": 16.0},
            "noise": {"variant": "iid-gaussian"},
            "replications": 10,
            "master_seed": 7,
            "oracle_A": 16.0,
        }
        d.update(over)
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(d))
        return str(p)

    def test_writes_report_and_reps(self, capsys, tmp_path):
        cfg = self.config(tmp_path)
        report_path = tmp_path / "report.json"
        reps_path = tmp_path / "reps.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--config", cfg, "--out", str(report_path), "--reps-out", str(reps_path),
        )
        assert code == 0 and out == ""
        report = json.loads(report_path.read_text())
        for key in ("config", "rates", "uq", "version"):
            assert key in report
        lines = reps_path.read_text().strip().split("\n")
        assert lines[0].startswith("rep,") and len(lines) == 11

    def test_stdout_without_out(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--config", self.config(tmp_path))
        assert code == 0
        assert "rates" in json.loads(out)

    def test_seed_override(self, capsys, tmp_path):
        cfg = self.config(tmp_path, signal={"s": 3, "A": 2.0}, K=1.0, replications=20)
        _, out_a, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "100")
        _, out_b, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "101")
        _, out_a2, _ = run_cli(capsys, "simulate", "--config", cfg, "--seed", "100")
        ja, jb, ja2 = json.loads(out_a), json.loads(out_b), json.loads(out_a2)
        assert ja["config"]["master_seed"] == 100
        ja.pop("wall_time_s"), jb.pop("wall_time_s"), ja2.pop("wall_time_s")
        assert ja == ja2
        assert ja["rates"] != jb["rates"]

    def test_bad_thread_count_exit_2(self, capsys, tmp_path, monkeypatch):
        # this run is small enough to stay serial, yet the variable is read
        monkeypatch.setenv("HULLSELECT_THREADS", "abc")
        code, out, err = run_cli(capsys, "simulate", "--config", self.config(tmp_path))
        assert code == 2 and out == ""
        assert "config field 'HULLSELECT_THREADS'" in err

    def test_observation_without_finite_square_exit_2(self, capsys, tmp_path):
        cfg = self.config(tmp_path, sigma=1e154, K=1.0, signal={"theta": [0.0] * 30}, oracle_A=0.0)
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2 and out == ""
        assert "x must be finite with a finite square" in err

    def test_config_error_exit_2(self, capsys, tmp_path):
        cfg = self.config(tmp_path, K=-1.0)
        code, _, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2 and "K" in err

    @pytest.mark.parametrize("uq", [{"alpha4_prime": math.nan}, {"m1_prime": math.inf}])
    def test_non_finite_uq_exit_2(self, capsys, tmp_path, uq):
        cfg = self.config(tmp_path, uq=uq)
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2 and "config field 'uq'" in err
        assert out == ""

    @pytest.mark.parametrize("field,value", [
        ("theta_check", [1.0, math.inf]),
        ("theta_check", [math.inf, math.inf]),
        ("oracle_A", math.inf),
    ], ids=["theta_check-A1", "theta_check-both", "oracle_A"])
    def test_non_finite_level_exit_2_before_any_batch(self, capsys, tmp_path, monkeypatch,
                                                      field, value):
        batches = []
        monkeypatch.setattr(harness, "_batch_records", lambda ctx, reps: batches.append(reps))
        cfg = self.config(tmp_path, **{field: value})
        code, out, err = run_cli(capsys, "simulate", "--config", cfg)
        assert code == 2 and f"config field '{field}'" in err
        assert "finite and >= 0" in err
        assert out == "" and batches == []


class TestBound:
    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--n", "1000", "--s", "10,20", "--A", "2,8", "--sigma", "1"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,s,A,a,lower_bound,regime"
        assert len(lines) == 5  # header + 2x2 grid
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "1000"
            assert fields[5] in {"inconsistent", "lower-bounded", "vacuous"}

    @pytest.mark.parametrize("flag, value, field", [
        ("--s", "0", "s <= n"), ("--n", "0", "s <= n"), ("--A", "-1", "level A"),
    ])
    def test_out_of_domain_exit_2(self, capsys, flag, value, field):
        argv = {"--n": "1000", "--s": "10", "--A": "2", "--sigma": "1", flag: value}
        code, out, err = run_cli(capsys, "bound", *[t for item in argv.items() for t in item])
        assert code == 2 and field in err
        assert out == ""


class TestNoiseCheck:
    def test_inline_model(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "noise-check", "--model", '{"variant": "bounded-uniform", "b": 1.0}',
            "--C", "1.0", "--reps", "200", "--n", "50", "--sizes", "5",
            "--m-grid", "1,2,5", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passes"] is True
        assert payload["note"] == "survival vanished"
        assert payload["empirical_survival"] == [0.0, 0.0, 0.0]

    def test_model_from_file(self, capsys, tmp_path):
        p = tmp_path / "model.json"
        p.write_text('{"variant": "iid-gaussian"}')
        code, out, _ = run_cli(
            capsys,
            "noise-check", "--model", str(p), "--C", "2.0", "--reps", "2000",
            "--n", "50", "--sizes", "10", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["passes"] is True

    @pytest.mark.parametrize("flag, value, field", [
        ("--m-grid", "nan,1", "m_grid"), ("--m-grid", "0,inf", "m_grid"),
        ("--C", "inf", "per_coordinate_budget"),
        ("--slope-threshold", "nan", "slope_threshold"),
        ("--slope-threshold", "inf", "slope_threshold"),
        ("--slope-threshold", "0", "slope_threshold"),
        ("--slope-threshold", "-0.1", "slope_threshold"),
    ])
    def test_non_finite_input_exit_2(self, capsys, flag, value, field):
        code, out, err = run_cli(
            capsys, "noise-check", "--model", '{"variant": "iid-gaussian"}', "--C", "1",
            "--reps", "100", "--n", "20", "--sizes", "2", flag, value,
        )
        assert code == 2 and field in err
        assert out == ""

    def test_bad_model_json(self, capsys):
        code, _, err = run_cli(
            capsys, "noise-check", "--model", '{"variant": "nope"}', "--C", "1", "--reps", "200"
        )
        assert code == 2


class TestUq:
    def test_from_reps_csv(self, capsys, tmp_path):
        p = tmp_path / "reps.csv"
        p.write_text(
            "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming\n"
            "1,0,0,3,3,3,0\n"
            "2,1,1,3,10,3,2\n"
        )
        code, out, _ = run_cli(
            capsys, "uq", "--reps-in", str(p), "--n", "100",
            "--alpha4-prime", "1.0", "--m1-prime", "4.0",
        )
        assert code == 0
        payload = json.loads(out)
        # rep 1: r_hat 3 >= ham 0; rep 2: r_hat 10 >= ham 2 -> no failures
        assert payload["coverage_fail_rate"] == 0.0
        # rep 2: r_hat 10 < 4 * 3 = 12 -> no size exceed either
        assert payload["size_exceed_rate"] == 0.0
        assert payload["alpha4_prime"] == 1.0

    def test_header_checked(self, capsys, tmp_path):
        p = tmp_path / "reps.csv"
        p.write_text("wrong,header\n1,2\n")
        code, _, err = run_cli(capsys, "uq", "--reps-in", str(p), "--n", "10")
        assert code == 2

    def test_non_finite_exponent_exit_2(self, capsys, tmp_path):
        p = tmp_path / "reps.csv"
        p.write_text(
            "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming\n"
            "1,0,0,3,3,3,0\n"
        )
        code, out, err = run_cli(
            capsys, "uq", "--reps-in", str(p), "--n", "100", "--alpha4-prime", "nan"
        )
        assert code == 2 and "alpha4_prime" in err
        assert out == ""

    def test_zero_n_exit_2(self, capsys, tmp_path):
        p = tmp_path / "reps.csv"
        p.write_text(
            "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming\n"
            "1,0,0,0,0,0,0\n"
        )
        code, out, err = run_cli(capsys, "uq", "--reps-in", str(p), "--n", "0")
        assert code == 2 and "n must be >= 1" in err
        assert out == ""

    @pytest.mark.parametrize("row", ["1,5,0,3,3,3,1", "1,0,0,3,3,3,100000000000000000000",
                                     "1,1,0,3,3,3,2", "1,0,0,4,3,3,1"],
                             ids=["false_pos_past_selected", "hamming_past_n",
                                  "hamming_not_fp_plus_fn", "selected_past_preselector"])
    def test_row_no_run_can_write_exit_2(self, capsys, tmp_path, row):
        p = tmp_path / "reps.csv"
        p.write_text(
            "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming\n"
            "1,0,0,3,3,3,0\n"
            f"{row}\n"
        )
        code, out, err = run_cli(capsys, "uq", "--reps-in", str(p), "--n", "100")
        assert code == 2 and "config field 'reps-in line 3'" in err
        assert out == ""

    @pytest.mark.parametrize("row", ["1,0,0,3,100000000000000000000,3,0",
                                     "1,0,0,3,3,100000000000000000000,0"],
                             ids=["preselector_size", "active_size"])
    def test_count_past_int64_exit_2(self, capsys, tmp_path, row):
        # a size of 10**20 lies outside [0, n]; it is never cast to a machine integer
        p = tmp_path / "reps.csv"
        p.write_text(
            "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming\n"
            f"{row}\n"
        )
        code, out, err = run_cli(capsys, "uq", "--reps-in", str(p), "--n", "100")
        assert code == 2 and "size must lie in [0, 100], got 100000000000000000000" in err
        assert out == ""


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert run_cli(capsys, "--version")[0] == 0


SIMULATE_BASE = {
    "n": 30,
    "sigma": 1.0,
    "K": 4.0,
    "signal": {"s": 3, "A": 16.0},
    "replications": 4,
    "master_seed": 7,
    "oracle_A": 16.0,
}
REPS_HEADER = "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming"


def malformed_argv(tmp_path, command, payload):
    """argv that feeds ``payload`` to ``command`` as its config, spec, vector or CSV row."""
    if command == "simulate":
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({**SIMULATE_BASE, **payload}))
        return ["simulate", "--config", str(path)]
    if command == "noise-check":
        return ["noise-check", "--model", payload, "--C", "1", "--reps", "200", "--n", "20"]
    if command == "select":
        path = tmp_path / "xs.json"
        path.write_text(payload)
        return ["select", "--input", str(path), "--sigma", "1", "--K", "4"]
    path = tmp_path / "reps.csv"
    path.write_text(f"{REPS_HEADER}\n{payload}\n")
    return ["uq", "--reps-in", str(path), "--n", "10"]


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("simulate", {"n": 1.7}, "n"),
        ("simulate", {"n": True}, "n"),
        ("simulate", {"replications": 2.5}, "replications"),
        ("simulate", {"sigma": True}, "sigma"),
        ("simulate", {"signal": {"s": "x", "A": 16.0}}, "signal.s"),
        ("simulate", {"signal": {"s": 3, "A": "x"}}, "signal.A"),
        ("simulate", {"theta_check": ["a", 1]}, "theta_check"),
        ("simulate", {"kfwer_ks": ["a"]}, "kfwer_ks"),
        ("simulate", {"q": "x"}, "q"),
        ("simulate", {"uq": [1]}, "uq"),
        ("simulate", {"noise": {"variant": "mean-of-m", "m": 1.5, "inner": {"variant": "rademacher"}}},
         "noise.m"),
        ("simulate", {"output": {"report": 5}}, "output.report"),
        ("noise-check", '{"variant": "ar1"}', "noise.rho"),
        ("noise-check", '{"variant": "ar1", "rho": "x"}', "noise.rho"),
        ("noise-check", '{"variant": "mean-of-m", "m": 2}', "noise.inner"),
        ("noise-check", '{"variant": "ar1", "rho": 5}', "noise"),
        ("select", '[1, "a"]', "input"),
        ("select", "[true, 2]", "input"),
        ("uq", "1,0,0,3,x,3,0", "reps-in line 2"),
        ("uq", "1,0,0", "reps-in line 2"),
    ],
)
def test_malformed_input_exit_code_2(capsys, tmp_path, command, payload, field):
    code, out, err = run_cli(capsys, *malformed_argv(tmp_path, command, payload))
    assert code == 2 and out == ""
    assert f"config field '{field}'" in err


def test_import_loads_no_process_machinery():
    # the replication pool runs on threads and the exact decisions use scaled
    # integers; a fresh interpreter shows what importing the CLI loads
    names = ('multiprocessing', 'concurrent.futures.process', 'fractions', 'decimal')
    code = f"import sys, hullselect.cli; print([m for m in {names!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
