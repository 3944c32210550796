"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Monte-Carlo thresholds are pilot-calibrated and fixed here; every
exactness claim is checked against an independent brute-force or
closed-form oracle from conftest / scipy.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import hullselect as hs
from hullselect.cli import main as cli_main

from conftest import brute_force_argmin


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:>2}: FAIL  {label}")
        raise
    print(f"[acceptance] criterion {num:>2}: PASS  {label}")


def mc_cell(level, noise, replications=500, seed=20250810):
    cfg = hs.experiment_config_from_dict(
        {
            "n": 1000,
            "sigma": 1.0,
            "K": 4.0,
            "signal": {"s": 10, "A": level},
            "noise": noise,
            "replications": replications,
            "master_seed": seed,
            "oracle_A": level,
            "uq": {"alpha4_prime": 1.0, "m1_prime": 4.0},
        }
    )
    return hs.run_experiment(cfg)


@pytest.fixture(scope="module")
def gaussian_cells():
    return {level: mc_cell(level, {"variant": "iid-gaussian"}) for level in (1.0, 4.0, 16.0)}


def test_criterion_1_selector_brute_force_equivalence():
    with criterion(1, "selector equals exhaustive argmin on 1000 instances, < 30 s"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for trial in range(1000):
            n = int(rng.integers(1, 13))
            x = rng.uniform(-5.0, 5.0, n)
            k_const = (0.5, 1.0, 4.0)[trial % 3]
            mask, _ = hs.preselect(
                hs.ObservationVector(x, 1.0), hs.SelectorConfig(K=k_const, sigma=1.0)
            )
            expect, _ = brute_force_argmin(x**2, k_const, hs.Q_DEFAULT, prefer_small=False)
            assert mask == expect
        assert time.perf_counter() - t0 < 30.0


def test_criterion_2_oracle_brute_force_and_path_grid():
    with criterion(2, "active set equals exhaustive argmin; path matches pointwise on grids"):
        rng = np.random.default_rng(102)
        for trial in range(1000):
            n = int(rng.integers(1, 13))
            theta = rng.uniform(-5.0, 5.0, n)
            level = (0.5, 1.0, 4.0)[trial % 3]
            res = hs.active_set(theta, level, 1.0)
            expect, _ = brute_force_argmin(theta**2, level, hs.Q_DEFAULT, prefer_small=True)
            assert res.active == expect
        for _ in range(100):
            n = int(rng.integers(1, 13))
            theta = rng.normal(0.0, 3.0, n) * rng.integers(0, 2, n)
            entries = hs.active_set_path(theta, 1.0)
            top = entries[-1].a_low * 1.5 + 1.0
            for level in rng.uniform(0.0, top, 10_000):
                assert hs.path_lookup(entries, level) == hs.active_set(theta, level, 1.0).active


def test_criterion_3_convention_suite():
    with criterion(3, "degenerate-input conventions hold exactly"):
        n = 9
        active = hs.SelectionMask((1, 4), n)
        assert hs.proportions(hs.confusion(hs.SelectionMask.empty(n), active)).fdp == 0.0
        assert hs.proportions(hs.confusion(hs.SelectionMask.full(n), active)).ndp == 0.0
        assert hs.sparsity_penalty(0, n) == 0.0
        res = hs.select(
            hs.ObservationVector(np.zeros(5), 1.0), hs.SelectorConfig(K=2.0, sigma=1.0)
        )
        assert len(res.preselector) == 0
        assert res.threshold == math.inf
        assert len(res.selected) == 0


def test_criterion_4_invariant_suite():
    with criterion(4, "subset/nesting/membership/MTR/Markov invariants"):
        rng = np.random.default_rng(104)
        for _ in range(10_000):
            n = int(rng.integers(1, 25))
            x = rng.normal(0.0, rng.uniform(0.5, 4.0), n)
            res = hs.select(
                hs.ObservationVector(x, 1.0),
                hs.SelectorConfig(K=float(rng.uniform(0.3, 8.0)), sigma=1.0),
            )
            assert res.selected.as_set() <= res.preselector.as_set()

        for _ in range(1000):
            n = int(rng.integers(2, 14))
            theta = rng.normal(0.0, 3.0, n) * rng.integers(0, 2, n)
            support = set(np.flatnonzero(theta != 0) + 1)
            previous = None
            for level in sorted(rng.uniform(0.0, 8.0, 5)):
                active = hs.active_set(theta, level, 1.0).active
                inside = active.as_set()
                assert inside <= support
                if previous is not None:
                    assert inside <= previous
                previous = inside
                size = len(active)
                force = level * math.log(hs.Q_DEFAULT * n / (size + 1))
                for i in range(1, n + 1):
                    if theta[i - 1] ** 2 >= force:
                        assert i in inside
                if size:
                    floor = level * math.log(math.e * n / size)
                    for i in active.indices:
                        assert theta[i - 1] ** 2 >= floor - 1e-12

        for _ in range(100):
            n = int(rng.integers(2, 12))
            reps = []
            for _ in range(int(rng.integers(1, 60))):
                a = hs.SelectionMask.from_indices(
                    rng.choice(n, rng.integers(0, n + 1), replace=False) + 1, n
                )
                b = hs.SelectionMask.from_indices(
                    rng.choice(n, rng.integers(0, n + 1), replace=False) + 1, n
                )
                reps.append(hs.confusion(a, b))
            report = hs.aggregate(reps, ks=[1, 2, 3, 5])
            assert report.mtr == (
                report.fdr + report.ndr,
                report.fdr + report.fnr,
                report.fpr + report.ndr,
                report.fpr + report.fnr,
            )
            mean_fp = sum(c.false_pos for c in reps) / len(reps)
            for k, p in report.kfwer.items():
                assert p <= mean_fp / k + 1e-15


def test_criterion_5_recovery_trend(gaussian_cells):
    with criterion(5, "hamming risk falls with signal level; strong cell under budget, < 60 s"):
        t0 = time.perf_counter()
        risks = [gaussian_cells[level].rates.hamming_risk for level in (1.0, 4.0, 16.0)]
        assert risks[0] >= risks[1] >= risks[2]
        strong = gaussian_cells[16.0].rates
        assert strong.hamming_risk <= 0.05 * 10
        assert strong.mtr[0] <= 0.05
        assert time.perf_counter() - t0 < 60.0


def test_criterion_6_uq_rates(gaussian_cells):
    with criterion(6, "coverage/size failure rates under budget; degenerate identities exact"):
        strong = gaussian_cells[16.0]
        assert strong.coverage_fail_rate <= 0.05
        assert strong.size_exceed_rate <= 0.05
        records = [(r.preselector_size, r.hamming, r.active_size) for r in strong.records]
        for m1 in (0.5, 1.0, 4.0):
            cover_fail, size_exceed = hs.evaluate_uq_counts(
                records, 1000, hs.UqConfig(alpha4_prime=0.0, m1_prime=m1)
            )
            assert cover_fail == 0.0
            assert size_exceed == (1.0 if m1 <= 1.0 else 0.0)


def test_criterion_7_robust_noise_sweep():
    with criterion(7, "ar1(0.5) and bounded-uniform(1.5) hold the strong-cell budgets"):
        for noise in ({"variant": "ar1", "rho": 0.5}, {"variant": "bounded-uniform", "b": 1.5}):
            cell = mc_cell(16.0, noise)
            assert cell.rates.hamming_risk <= 0.05 * 10
            assert cell.rates.mtr[0] <= 0.05
            assert cell.coverage_fail_rate <= 0.05
            assert cell.size_exceed_rate <= 0.05


def test_criterion_8_lower_bound_numerics():
    with criterion(8, "risk-term identity, small-signal floor, normal CDF exactness"):
        rng = np.random.default_rng(108)
        for _ in range(200):
            s = int(rng.integers(1, 500))
            a = float(rng.uniform(0.1, 20.0))
            sigma = float(rng.uniform(0.3, 3.0))
            q = hs.BoundQuery(n=2 * s, s=s, a=a, sigma=sigma)
            assert hs.coordinate_risk(q) == pytest.approx(
                2.0 * hs.std_normal_cdf(-a / (2.0 * sigma)), abs=1e-12
            )
        for s in range(20, 201):
            assert s * (0.25 - 2.0 * math.exp(-s / 8.0)) > 0.085 * s
        assert hs.std_normal_cdf(0.0) == 0.5
        for x in rng.uniform(-8.0, 8.0, 500):
            assert abs(hs.std_normal_cdf(x) + hs.std_normal_cdf(-x) - 1.0) <= 1e-15


def test_criterion_9_simulate_determinism(tmp_path, monkeypatch, pool_sizes):
    with criterion(9, "per-rep CSV bitwise identical: serial vs parallel vs re-run, 3 configs"):
        # these configs lie below the pool's work threshold; drop it, so
        # that the parallel run hands 30 one-rep batches to 4 workers
        monkeypatch.setattr("hullselect.harness._POOL_MIN_COORDS", 0)
        configs = [
            {"signal": {"s": 3, "A": 16.0}, "n": 50, "K": 4.0},
            {"signal": {"s": 5, "A": 2.0}, "n": 80, "K": 1.0},
            {"signal": {"s": 2, "A": 4.0}, "n": 60, "K": 2.0,
             "noise": {"variant": "ar1", "rho": 0.5}},
        ]
        for idx, over in enumerate(configs):
            d = {
                "sigma": 1.0,
                "noise": {"variant": "iid-gaussian"},
                "replications": 30,
                "master_seed": 4200 + idx,
                "oracle_A": over["signal"]["A"],
            }
            d.update(over)
            cfg_path = tmp_path / f"exp{idx}.json"
            cfg_path.write_text(json.dumps(d))
            outputs = []
            for run, threads in (("serial", "1"), ("parallel", "4"), ("rerun", "1")):
                reps = tmp_path / f"reps{idx}-{run}.csv"
                rep_json = tmp_path / f"report{idx}-{run}.json"
                monkeypatch.setenv("HULLSELECT_THREADS", threads)
                code = cli_main(
                    ["simulate", "--config", str(cfg_path),
                     "--out", str(rep_json), "--reps-out", str(reps)]
                )
                assert code == 0
                outputs.append(reps.read_bytes())
            assert outputs[0] == outputs[1] == outputs[2]
        # one pool of 4 per config, from the parallel run alone
        assert pool_sizes == [4, 4, 4]


def test_criterion_10_noise_diagnostic():
    with criterion(10, "bounded noise: exact zero survival; gaussian slope <= -0.1"):
        bounded = hs.tail_decay_diagnostic(
            hs.BoundedUniform(1.0),
            n=200,
            per_coordinate_budget=1.0,
            m_grid=[0.5, 1.0, 2.0, 5.0, 10.0, 20.0],
            subset_sizes=[5, 20],
            reps=500,
            rng=np.random.default_rng(110),
        )
        assert bounded.empirical_survival == (0.0,) * 6
        assert bounded.passes and bounded.note == "survival vanished"

        gaussian = hs.tail_decay_diagnostic(
            hs.IidGaussian(),
            n=200,
            per_coordinate_budget=2.0,
            m_grid=[float(m) for m in range(0, 21, 2)],
            subset_sizes=[10],
            reps=10_000,
            rng=np.random.default_rng(111),
        )
        assert gaussian.fitted_slope is not None
        assert gaussian.fitted_slope <= -0.1
        assert gaussian.passes
