"""Noise intensity sigma and penalty base q are checked once, at every entry point.

sigma must be positive with a finite square and q must be finite and > 1
(the penalty k*log(q*n/k) needs q*n/k > 1 up to k = n); anything else is a DomainError from the library and exit code 2 from the CLI, never a
raw OverflowError or an empty-sequence ValueError.

Data whose squares, or whose sum of squares, overflow is a DomainError too,
raised before numpy would warn of the overflow.
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
    path_lookup,
    select,
)
from hullselect.cli import main
from hullselect.core import ROOT_MAX

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
    assert len(mallows_cp(ObservationVector(X, sigma))) == 0


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


OVERFLOWS = {
    # each square is finite, their sum is not
    "active_set_sum": lambda: active_set([1e154, 1e154], 5e307, 1.0),
    "select_sum": lambda: select(ObservationVector([1e154, 1e154], 1.0), SelectorConfig(5e307, 1.0)),
    # the square itself overflows (|x| > 1.34e154)
    "select_square": lambda: select(ObservationVector([1.0, 2e154], 1.0), SelectorConfig(4.0, 1.0)),
    "mallows_cp_square": lambda: mallows_cp(ObservationVector([-1e155], 1.0)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflow_is_domain_error(case):
    with pytest.raises(DomainError):
        OVERFLOWS[case]()


@pytest.mark.filterwarnings("error")
def test_path_lookup_equals_active_set_wherever_it_returns():
    # active_set sums in floats and raises where that sum overflows; the path
    # sums in exact integers and answers at every level
    outcomes = {}
    for theta in ([ROOT_MAX, ROOT_MAX], [1.2e154, 0.5e154]):  # the second sum just fits
        entries = active_set_path(theta, 1.0)
        levels = [e.a_low for e in entries]
        levels += [e.a_low + (e.a_high - e.a_low) / 2 for e in entries if e.a_high < math.inf]
        seen = outcomes.setdefault(theta[0], set())
        for level in levels:
            try:
                active = active_set(theta, level, 1.0).active
            except DomainError:
                seen.add("raised")
                continue
            assert active == path_lookup(entries, level)
            seen.add("equal")
    assert outcomes == {ROOT_MAX: {"raised"}, 1.2e154: {"equal", "raised"}}


@pytest.mark.filterwarnings("error")
def test_huge_finite_sums_still_run():
    # squares near the float limit whose sum stays finite
    x = [1e154, 0.0, 0.0, 0.0]
    assert active_set(x, 1.0, 1.0).active.indices == (1,)
    assert select(ObservationVector(x, 1.0), SelectorConfig(4.0, 1.0)).selected.indices == (1,)
    assert active_set([1.2e154, 0.5e154], 0.0, 1.0).active.indices == (1, 2)  # sum 1.69e308
    # the path works in exact integers, so the overflowing float sum does not matter
    entries = active_set_path([1e154, 1e154], 1.0)
    assert [(e.a_low, e.a_high, e.active.indices) for e in entries] == [
        (0.0, 5e307, (1, 2)),
        (5e307, math.inf, ()),
    ]
