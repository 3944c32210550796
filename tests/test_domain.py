"""Noise intensity sigma and penalty base q are checked once, at every entry point.

sigma must be positive with a finite square and q must be finite and > 1
(the penalty k*log(q*n/k) needs q*n/k > 1 up to k = n); anything else is a DomainError from the library and exit code 2 from the CLI, never a
raw OverflowError or an empty-sequence ValueError.
"""

import json
import math

import pytest

from hullselect import (
    DomainError,
    Q_DEFAULT,
    ObservationVector,
    SelectorConfig,
    active_set,
    active_set_path,
    mallows_cp,
    select,
)
from hullselect.cli import main

BAD_SIGMAS = [0.0, -1.0, math.nan, math.inf, 1e155]
BAD_QS = [math.nan, math.inf, 0.5, 1.0, 0.0, -1.0]
X = [1.0, 2.0]

ENTRY_POINTS = {
    "active_set": lambda sigma, q: active_set(X, 1.0, sigma, q),
    "select": lambda sigma, q: select(ObservationVector(X, 1.0), SelectorConfig(4.0, sigma, q)),
    "active_set_path": lambda sigma, q: active_set_path(X, sigma, q),
}


@pytest.mark.parametrize("sigma", BAD_SIGMAS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_sigma_raises_domain_error(entry, sigma):
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](sigma, Q_DEFAULT)


@pytest.mark.parametrize("q", BAD_QS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_q_raises_domain_error(entry, q):
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](1.0, q)


@pytest.mark.parametrize("sigma", BAD_SIGMAS)
def test_mallows_cp_bad_sigma(sigma):
    # mallows_cp has no q; its sigma arrives through the observation
    with pytest.raises(DomainError):
        mallows_cp(ObservationVector(X, sigma))


def test_largest_accepted_sigma_still_runs():
    sigma = 1e154  # sigma**2 = 1e308 is finite
    assert active_set(X, 0.0, sigma).active.indices == (1, 2)
    assert mallows_cp(ObservationVector(X, sigma)).size == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--sigma", "1e200", "--A", "1"],
        ["oracle", "--sigma", "nan", "--A", "1"],
        ["path", "--sigma", "inf"],
        ["path", "--sigma", "1e155"],
        ["path", "--sigma", "0"],
    ],
)
def test_cli_exit_code_2(capsys, tmp_path, argv):
    theta = tmp_path / "theta.json"
    theta.write_text("[1.0, 2.0]")
    code = main(argv[:1] + ["--theta", str(theta)] + argv[1:])
    assert code == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["1e200", "inf", "-1"])
def test_cli_select_exit_code_2(capsys, tmp_path, sigma):
    xs = tmp_path / "xs.csv"
    xs.write_text("1.0\n2.0\n")
    assert main(["select", "--input", str(xs), "--sigma", sigma, "--K", "4"]) == 2
    assert "sigma" in capsys.readouterr().err


def test_cli_path_overflowing_theta_exit_code_2(capsys, tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text("[1e200, 1.0]")
    assert main(["path", "--theta", str(theta), "--sigma", "1"]) == 2
    assert "theta" in capsys.readouterr().err


def test_cli_simulate_q_below_one_exit_code_2(capsys, tmp_path):
    config = {
        "n": 30,
        "sigma": 1.0,
        "K": 4.0,
        "q": 0.5,
        "signal": {"s": 3, "A": 16.0},
        "replications": 4,
        "master_seed": 7,
        "oracle_A": 16.0,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "q must be" in capsys.readouterr().err
    assert not out.exists()
