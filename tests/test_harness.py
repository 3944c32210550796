import dataclasses
import json
import math
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hullselect import (
    ConfigError,
    ConfusionCounts,
    DomainError,
    NoiseModel,
    ObservationVector,
    SelectorConfig,
    active_set,
    confusion,
    experiment_config_from_dict,
    experiment_config_from_json,
    per_rep_csv_text,
    run_experiment,
    sample_noise,
    select,
    stream_seed,
)
from hullselect import _sweep, harness, uq
from hullselect.harness import RepRecord, read_per_rep_csv, resolve_workers

SCHEMA = json.loads((Path(__file__).parent.parent / "schemas" / "report.schema.json").read_text())


def base_config(**over):
    d = {
        "n": 40,
        "sigma": 1.0,
        "K": 4.0,
        "signal": {"s": 4, "A": 16.0},
        "noise": {"variant": "iid-gaussian"},
        "replications": 25,
        "master_seed": 2024,
        "oracle_A": 16.0,
    }
    d.update(over)
    return d


class ZeroNoise(NoiseModel):
    """Test stub: noiseless observations."""

    def sample(self, n, rng):
        return np.zeros(n)

    def to_spec(self):
        return {"variant": "iid-gaussian"}  # echo placeholder for schema checks


class TestConfigParsing:
    def test_round_trip_minimal(self):
        cfg = experiment_config_from_dict(base_config())
        assert cfg.n == 40 and cfg.kfwer_ks == (1, 2, 5)
        assert cfg.uq.alpha4_prime == 1.0 and cfg.uq.m1_prime == 4.0

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"n": 0}, "n"),
            ({"sigma": -1.0}, "sigma"),
            ({"K": 0.0}, "K"),
            ({"replications": 0}, "replications"),
            ({"oracle_A": -2.0}, "oracle_A"),
            ({"signal": {}}, "signal"),
            ({"signal": {"s": 0, "A": 4.0}}, "signal.s"),
            ({"noise": {"variant": "bogus"}}, "noise"),
            ({"theta_check": [4.0, 1.0]}, "theta_check"),
            ({"kfwer_ks": [0]}, "kfwer_ks"),
            # wrong JSON types: each is a ConfigError naming its key, never a cast
            ({"n": 1.7}, "n"),
            ({"n": True}, "n"),
            ({"replications": 2.5}, "replications"),
            ({"sigma": True}, "sigma"),
            ({"sigma": 10**400}, "sigma"),  # an int past the float range
            ({"signal": {"s": "x", "A": 4.0}}, "signal.s"),
            ({"signal": {"s": 2, "A": "x"}}, "signal.A"),
            ({"signal": {"s": 2, "A": 4.0, "signs": ["a", 1]}}, "signal.signs"),
            ({"signal": {"theta": [1.0, "a"]}}, "signal.theta"),
            ({"theta_check": ["a", 1]}, "theta_check"),
            ({"kfwer_ks": ["a"]}, "kfwer_ks"),
            ({"q": "x"}, "q"),
            ({"uq": [1]}, "uq"),
            ({"uq": {"alpha4_prime": "x"}}, "uq.alpha4_prime"),
            ({"noise": {"variant": "ar1"}}, "noise.rho"),
            ({"noise": {"variant": "ar1", "rho": 2.0}}, "noise"),
            ({"noise": {"variant": "mean-of-m", "m": 1.5, "inner": {"variant": "ar1", "rho": 0}}},
             "noise.m"),
            ({"noise": {"variant": "mean-of-m", "m": 2}}, "noise.inner"),
            ({"output": {"report": 5}}, "output.report"),
            # penalty levels are finite and >= 0, as active_set takes them
            ({"oracle_A": math.inf}, "oracle_A"),
            ({"oracle_A": math.nan}, "oracle_A"),
            ({"theta_check": [1.0, math.inf]}, "theta_check"),
            ({"theta_check": [math.inf, math.inf]}, "theta_check"),
        ],
    )
    def test_field_errors_are_identified(self, patch, field):
        with pytest.raises(ConfigError) as err:
            experiment_config_from_dict(base_config(**patch))
        assert err.value.field == field

    def test_integral_floats_parse_to_the_same_config(self):
        ints = base_config(signal={"s": 4, "A": 16}, kfwer_ks=[1, 3], theta_check=[1, 16])
        floats = base_config(
            n=40.0, signal={"s": 4, "A": 16}, replications=25.0, master_seed=2024.0,
            kfwer_ks=[1.0, 3.0], theta_check=[1.0, 16.0],
        )
        assert experiment_config_from_dict(floats) == experiment_config_from_dict(ints)

    def test_echo_keeps_the_signal_as_written(self):
        # signal is validated, not rewritten: "A": 16 stays an int; the float
        # fields (sigma, K, oracle_A, q, theta_check) echo as floats
        d = base_config(sigma=1, K=4, signal={"s": 4, "A": 16, "signs": "alternating"},
                        oracle_A=16, theta_check=[1, 16], q=8)
        echo = experiment_config_from_dict(d).echo()  # the report's "config" block
        assert echo["signal"] == {"s": 4, "A": 16, "signs": "alternating"}
        assert type(echo["signal"]["A"]) is int
        assert [echo[k] for k in ("sigma", "K", "oracle_A", "q")] == [1.0, 4.0, 16.0, 8.0]
        assert all(type(echo[k]) is float for k in ("sigma", "K", "oracle_A", "q"))
        assert echo["theta_check"] == [1.0, 16.0] and echo["n"] == 40

    def test_missing_field(self):
        d = base_config()
        del d["master_seed"]
        with pytest.raises(ConfigError) as err:
            experiment_config_from_dict(d)
        assert err.value.field == "master_seed"

    def test_json_file_with_line_info(self, tmp_path):
        bad = tmp_path / "exp.json"
        bad.write_text('{\n  "n": 40,\n  broken\n}\n')
        with pytest.raises(ConfigError) as err:
            experiment_config_from_json(str(bad))
        assert "line 3" in str(err.value)

    def test_explicit_theta_length_checked(self):
        with pytest.raises(ConfigError) as err:
            experiment_config_from_dict(base_config(signal={"theta": [1.0, 2.0]})).resolve_theta()
        assert err.value.field == "signal.theta"


class TestStreams:
    def test_deterministic(self):
        assert stream_seed(123, 7) == stream_seed(123, 7)
        assert stream_seed(123, 7) != stream_seed(123, 8)
        assert stream_seed(123, 7) != stream_seed(124, 7)

    def test_collision_scan_one_million(self):
        seeds = {stream_seed(987654321, r) for r in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_64_bit_range(self):
        for r in range(1000):
            assert 0 <= stream_seed(-5, r) < 2**64

    def test_batch_seeding_equals_default_rng(self):
        # the generators built per batch against numpy's own SeedSequence
        # path, so that a change of numpy's seeding fails here; a seed below
        # 2**32 has one entropy word, a larger one two
        draw = np.random.default_rng(99).integers(0, 2**64 - 1, 3000, np.uint64, endpoint=True)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + draw.tolist()
        for master in (0, -5, 2**63 - 1, 20250810):
            seeds += [stream_seed(master, rep) for rep in range(1, 601)]
        assert min(seeds) == 0 and max(seeds) == 2**64 - 1
        assert sum(s < 2**32 for s in seeds) >= 3
        got = harness._default_rngs(seeds)
        assert len(got) == len(seeds)
        for seed, rng in zip(seeds, got):
            want = np.random.default_rng(seed)
            assert rng.bit_generator.state == want.bit_generator.state, seed
            assert rng.bit_generator.random_raw(2).tolist() == want.bit_generator.random_raw(2).tolist()
            assert rng.standard_normal() == want.standard_normal(), seed

    @pytest.mark.parametrize("signs", ["positive", "random"])
    def test_run_builds_default_rng_only_for_the_signal(self, monkeypatch, signs):
        calls = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or real(*a))
        cfg = experiment_config_from_dict(base_config(signal={"s": 4, "A": 16.0, "signs": signs}))
        run_experiment(cfg)
        assert calls == ([(stream_seed(cfg.master_seed, 0),)] if signs == "random" else [])


class TestResolveWorkers:
    @pytest.fixture
    def pinned(self, monkeypatch):
        """Pretend the machine has 64 cores but this process may use only 3."""
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        monkeypatch.delenv("HULLSELECT_THREADS", raising=False)

    def test_unset_uses_usable_cores(self, pinned):
        assert resolve_workers() == 3

    @pytest.mark.parametrize("env, expect", [("", 3), ("  ", 3), ("0", 3), ("2", 2), (" 5 ", 5)])
    def test_env(self, pinned, monkeypatch, env, expect):
        monkeypatch.setenv("HULLSELECT_THREADS", env)
        assert resolve_workers() == expect

    def test_without_affinity_falls_back_to_cpu_count(self, pinned, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        assert resolve_workers() == 64

    @pytest.mark.parametrize("env", ["-1", "two", "1.5"])
    def test_bad_env(self, pinned, monkeypatch, env):
        monkeypatch.setenv("HULLSELECT_THREADS", env)
        with pytest.raises(ConfigError) as info:
            resolve_workers()
        assert info.value.field == "HULLSELECT_THREADS"


class TestRunExperiment:
    def test_no_signal_no_noise(self):
        cfg = experiment_config_from_dict(
            base_config(signal={"theta": [0.0] * 40}, replications=1, oracle_A=1.0)
        )
        cfg = dataclasses.replace(cfg, noise=ZeroNoise())
        report = run_experiment(cfg)
        r = report.rates
        assert (r.fdr, r.fpr, r.ndr, r.fnr) == (0.0, 0.0, 0.0, 0.0)
        assert r.hamming_risk == 0.0
        assert report.coverage_fail_rate == 0.0
        assert all(rec.selected_size == 0 for rec in report.records)

    def test_determinism_rerun(self):
        cfg = experiment_config_from_dict(base_config())
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert per_rep_csv_text(a.records) == per_rep_csv_text(b.records)
        ja, jb = json.loads(a.to_json()), json.loads(b.to_json())
        ja.pop("wall_time_s"), jb.pop("wall_time_s")
        assert ja == jb

    def test_serial_equals_parallel(self, monkeypatch, pool_sizes):
        # 40 reps at n = 40 lie below the pool's work threshold; drop it, so
        # that the 4 workers run 20 batches of 2 reps
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 0)
        cfg = experiment_config_from_dict(base_config(replications=40))
        monkeypatch.setenv("HULLSELECT_THREADS", "1")
        serial = run_experiment(cfg)
        assert pool_sizes == []
        monkeypatch.setenv("HULLSELECT_THREADS", "4")
        parallel = run_experiment(cfg)
        assert pool_sizes == [4]
        assert per_rep_csv_text(serial.records) == per_rep_csv_text(parallel.records)
        js, jp = json.loads(serial.to_json()), json.loads(parallel.to_json())
        js.pop("wall_time_s"), jp.pop("wall_time_s")
        assert js == jp

    def test_thread_pool_under_fast_switching_equals_serial(self, monkeypatch, pool_sizes):
        # more threads than cores, switching every microsecond, all missing
        # the cold penalty caches at once, with 8 two-row slices per batch:
        # a stream, buffer or cache entry shared between threads would
        # change some record
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 0)
        monkeypatch.setattr(harness, "_SELECT_ROWS", 2)
        cfg = experiment_config_from_dict(
            base_config(n=97, signal={"s": 4, "A": 2.0}, K=1.0, replications=512)
        )
        monkeypatch.setenv("HULLSELECT_THREADS", "1")
        serial = run_experiment(cfg).records
        monkeypatch.setenv("HULLSELECT_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                _sweep.penalty_vector.cache_clear()
                _sweep._penalty_bounds.cache_clear()
                assert run_experiment(cfg).records == serial
        finally:
            sys.setswitchinterval(interval)
        assert pool_sizes == [8] * 3

    @pytest.mark.parametrize("over", [
        {"noise": {"variant": "iid-gaussian"}},
        {"noise": {"variant": "ar1", "rho": 0.5}},
        {"noise": {"variant": "mean-of-m", "m": 2, "inner": {"variant": "ar1", "rho": -0.9}}},
        # +-1 noise on zero theta coordinates: their x^2 tie exactly, above the sweep's floor
        {"noise": {"variant": "rademacher"}, "K": 0.9, "oracle_A": 2.0},
        # pure noise: some reps have an empty preselector and an infinite threshold
        {"signal": {"theta": [0.0] * 40}},
        # a small K preselects most coordinates
        {"K": 0.05, "oracle_A": 2.0},
        {"n": 1, "signal": {"s": 1, "A": 2.0}, "oracle_A": 2.0},
    ], ids=["noise0", "noise1", "noise2", "rademacher-ties", "pure-noise", "small-K", "n1"])
    def test_batches_leave_records_unchanged(self, monkeypatch, over):
        # borderline regime, so that records differ from rep to rep
        cfg = experiment_config_from_dict(
            base_config(**{"signal": {"s": 4, "A": 2.0}, "K": 1.0, "replications": 10, **over})
        )
        # each rep drawn on its own by sample, as before reps were batched
        theta = cfg.resolve_theta()
        active = active_set(theta, cfg.oracle_level, cfg.sigma).active
        expect = []
        for rep in range(1, 11):
            xi = cfg.noise.sample(cfg.n, np.random.default_rng(stream_seed(cfg.master_seed, rep)))
            result = select(ObservationVector(theta + cfg.sigma * xi, cfg.sigma),
                            SelectorConfig(cfg.K, cfg.sigma))
            c = confusion(result.selected, active)
            expect.append((rep, c.false_pos, c.false_neg, c.selected_size,
                           len(result.preselector), c.active_size, c.hamming))
        assert len(set(row[1:] for row in expect)) > 1

        blocks = []

        def recording_sample_noise(model, n, rngs, buf):
            blocks.append(len(rngs))
            return sample_noise(model, n, rngs, buf)

        monkeypatch.setattr(harness, "sample_noise", recording_sample_noise)
        # caps of 3 reps, 1 rep and all 10 reps per batch
        for cap, sizes in ((3 * cfg.n, [3, 3, 3, 1]), (1, [1] * 10), (10 * cfg.n, [10])):
            monkeypatch.setattr(harness, "_BATCH_COORDS", cap)
            blocks.clear()
            records = run_experiment(cfg).records
            assert blocks == sizes
            assert [dataclasses.astuple(r) for r in records] == expect

    @staticmethod
    def raised_by_run(cfg, mode, monkeypatch, pool_sizes) -> Exception:
        """The exception a run raises, serially or on a forced pool of 2 threads.

        The pooled run must start its pool and leave no worker thread behind.
        """
        monkeypatch.setenv("HULLSELECT_THREADS", "1" if mode == "serial" else "2")
        if mode == "pool-2":
            monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 0)
        before = threading.active_count()
        with pytest.raises(Exception) as info:
            run_experiment(cfg)
        assert pool_sizes == ([] if mode == "serial" else [2])
        assert threading.active_count() == before
        return info.value

    @pytest.mark.parametrize("mode", ["serial", "pool-2"])
    def test_selected_outside_preselector_is_runtime_error(self, monkeypatch, pool_sizes, mode):
        real = harness.sweep_argmin_block

        def one_chosen(v, weight, q):
            # a preselector of size 1, while the threshold at k = 1 still
            # selects every strong coordinate
            return np.ones_like(real(v, weight, q))

        monkeypatch.setattr(harness, "sweep_argmin_block", one_chosen)
        cfg = experiment_config_from_dict(base_config(replications=5))
        exc = self.raised_by_run(cfg, mode, monkeypatch, pool_sizes)
        assert type(exc) is RuntimeError
        assert str(exc) == "selector produced a coordinate outside the preselector"

    @pytest.mark.parametrize("mode", ["serial", "pool-2"])
    def test_observation_without_finite_square_is_domain_error(self, monkeypatch, pool_sizes,
                                                                mode):
        # sigma^2 is finite but sigma * xi passes ROOT_MAX; K = 1 and level 0
        # keep every penalty weight finite, so only the observation overflows
        cfg = experiment_config_from_dict(
            base_config(sigma=1e154, K=1.0, signal={"theta": [0.0] * 40}, oracle_A=0.0)
        )
        exc = self.raised_by_run(cfg, mode, monkeypatch, pool_sizes)
        assert type(exc) is DomainError
        assert str(exc) == "x must be finite with a finite square"

    @pytest.mark.parametrize("mode", ["serial", "pool-2"])
    def test_run_builds_no_confusion_counts_and_one_radius_per_size(self, monkeypatch,
                                                                     pool_sizes, mode):
        # the run reads its rates and its UQ from one count array: it builds no
        # per-rep ConfusionCounts, and each distinct size gets one radius
        built, radii = [], []
        real_init, real_radius = ConfusionCounts.__post_init__, uq.confidence_radius

        def counting_init(c):
            built.append(c)
            real_init(c)

        def counting_radius(size, n, alpha4_prime):
            radii.append(size)
            return real_radius(size, n, alpha4_prime)

        monkeypatch.setattr(ConfusionCounts, "__post_init__", counting_init)
        monkeypatch.setattr(uq, "confidence_radius", counting_radius)
        monkeypatch.setenv("HULLSELECT_THREADS", "1" if mode == "serial" else "2")
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 0)
        cfg = experiment_config_from_dict(
            base_config(signal={"s": 4, "A": 2.0}, K=1.0, replications=40)
        )
        records = run_experiment(cfg).records
        assert pool_sizes == ([] if mode == "serial" else [2])
        assert built == []
        sizes = {r.preselector_size for r in records} | {r.active_size for r in records}
        assert len(sizes) > 2
        assert sorted(radii) == sorted(sizes)

    @pytest.mark.parametrize("mode", ["serial", "pool-2"])
    @pytest.mark.parametrize("over", [
        {"signal": {"s": 4, "A": 2.0}, "K": 1.0},
        {"noise": {"variant": "rademacher"}, "K": 0.9, "oracle_A": 2.0},
        {"signal": {"theta": [0.0] * 40}},
        {"K": 0.05, "oracle_A": 2.0},
    ], ids=["borderline", "rademacher-ties", "pure-noise", "small-K"])
    def test_every_record_satisfies_the_confusion_invariants(self, monkeypatch, pool_sizes,
                                                             mode, over):
        # the run checks no per-rep ConfusionCounts, so the tests do: each
        # record's counts must build one, and its hamming and preselector agree
        monkeypatch.setenv("HULLSELECT_THREADS", "1" if mode == "serial" else "2")
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 0)
        cfg = experiment_config_from_dict(base_config(replications=60, **over))
        records = run_experiment(cfg).records
        assert pool_sizes == ([] if mode == "serial" else [2])
        assert [r.rep for r in records] == list(range(1, 61))
        for r in records:
            assert type(r) is RepRecord
            assert all(type(v) is int for v in dataclasses.astuple(r))
            ConfusionCounts(r.false_pos, r.false_neg, r.selected_size, r.active_size, cfg.n)
            assert r.hamming == r.false_pos + r.false_neg
            assert r.selected_size <= r.preselector_size <= cfg.n

    def test_pool_runs_rep_ranges_at_the_work_threshold(self, monkeypatch):
        # an inline stand-in for the pool records its size and starts no
        # thread; a spy on _batch_records records the rep ranges that serial
        # and pooled runs select
        sizes, batches = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        real = harness._batch_records

        def recording_batch(ctx, reps):
            batches.append(reps)
            return real(ctx, reps)

        def run(cfg):
            sizes.clear()
            batches.clear()
            return run_experiment(cfg).records

        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_batch_records", recording_batch)
        cfg = experiment_config_from_dict(
            base_config(signal={"s": 4, "A": 2.0}, K=1.0, replications=43)
        )
        monkeypatch.setenv("HULLSELECT_THREADS", "1")
        serial = run(cfg)
        assert (sizes, batches) == ([], [range(1, 44)])

        monkeypatch.setenv("HULLSELECT_THREADS", "4")
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 43 * 40 + 1)
        assert run(cfg) == serial
        assert (sizes, batches) == ([], [range(1, 44)])
        # at the threshold the pool gets at least four batches per worker:
        # 43 // (4 * 4) = 2 reps each, in order, the last one alone
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 43 * 40)
        assert run(cfg) == serial
        assert (sizes, batches) == ([4], [range(r, min(r + 2, 44)) for r in range(1, 44, 2)])

        # the coordinate cap still bounds a pooled batch: one rep each
        default_cap = harness._BATCH_COORDS
        monkeypatch.setattr(harness, "_BATCH_COORDS", 40)
        assert run(cfg) == serial
        assert (sizes, batches) == ([4], [range(r, r + 1) for r in range(1, 44)])
        monkeypatch.setattr(harness, "_BATCH_COORDS", default_cap)

        # 64 workers asked for, but only 43 one-rep batches to run
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 0)
        monkeypatch.setenv("HULLSELECT_THREADS", "64")
        assert run(cfg) == serial
        assert (sizes, len(batches)) == ([43], 43)

        # a run of one rep is one batch, so no pool even with the threshold at 0
        one = experiment_config_from_dict(base_config(replications=1))
        run(one)
        assert (sizes, batches) == ([], [range(1, 2)])

    def test_pooled_batches_split_mc_large_as_rep_ranges_did(self, monkeypatch):
        # n = 1e5, 20 reps: the cap holds 2 reps; 2 workers get 10 tasks of
        # 2 reps, and 4 or more get 20 tasks of 1 rep, as the pool's rep
        # ranges of reps // (4 * workers) did
        tasks = []

        class CountingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, ctxs, jobs):
                tasks.append([len(job) for job in jobs])
                return map(fn, ctxs, jobs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)
        cfg = experiment_config_from_dict(
            base_config(n=100_000, signal={"s": 10, "A": 16.0}, replications=20)
        )
        for threads, split in (("2", [2] * 10), ("4", [1] * 20), ("8", [1] * 20)):
            monkeypatch.setenv("HULLSELECT_THREADS", threads)
            tasks.clear()
            run_experiment(cfg)
            assert tasks == [split]

    def test_run_draws_every_batch_into_a_mapped_buffer_per_thread(self, monkeypatch):
        # a serial run maps one buffer of a batch's size, a pool one in each
        # thread that runs a batch; every batch draws its block into one
        mapped, used = [], []
        real_block, real_sample = harness._mapped_block, harness.sample_noise

        def recording_block(size):
            mapped.append(real_block(size))
            return mapped[-1]

        def recording_sample(model, n, rngs, buf):
            x = real_sample(model, n, rngs, buf)
            used.append(any(b is buf for b in mapped) and np.shares_memory(x, buf))
            return x

        monkeypatch.setattr(harness, "_mapped_block", recording_block)
        monkeypatch.setattr(harness, "sample_noise", recording_sample)
        monkeypatch.setattr(harness, "_BATCH_COORDS", 3 * 40)
        cfg = experiment_config_from_dict(base_config(replications=10))
        monkeypatch.setenv("HULLSELECT_THREADS", "1")
        serial = run_experiment(cfg).records
        assert [len(b) for b in mapped] == [3 * 40] and used == [True] * 4

        # 10 // (4 * 2) = 1 rep per pooled batch
        mapped.clear()
        used.clear()
        monkeypatch.setenv("HULLSELECT_THREADS", "2")
        monkeypatch.setattr(harness, "_POOL_MIN_COORDS", 0)
        assert run_experiment(cfg).records == serial
        assert len(mapped) in (1, 2) and {len(b) for b in mapped} == {40}
        assert used == [True] * 10

        # more workers than cores, switching threads often: two batches that
        # shared a buffer would overwrite each other's block
        many = experiment_config_from_dict(base_config(signal={"s": 4, "A": 2.0}, K=1.0,
                                                       replications=200))
        monkeypatch.setenv("HULLSELECT_THREADS", "1")
        serial = run_experiment(many).records
        assert len({r.hamming for r in serial}) > 1
        monkeypatch.setenv("HULLSELECT_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                mapped.clear()
                assert run_experiment(many).records == serial
                assert 1 <= len(mapped) <= 8
        finally:
            sys.setswitchinterval(interval)

    def test_seed_changes_output(self):
        # borderline regime so per-replication records actually vary
        weak = base_config(signal={"s": 4, "A": 2.0}, K=1.0, replications=30)
        a = run_experiment(experiment_config_from_dict(weak))
        b = run_experiment(experiment_config_from_dict({**weak, "master_seed": 2025}))
        assert per_rep_csv_text(a.records) != per_rep_csv_text(b.records)

    def test_theta_check_reported(self):
        cfg = experiment_config_from_dict(base_config(theta_check=[1.0, 16.0]))
        report = run_experiment(cfg)
        assert report.theta_check_passed is True

    def test_strong_regime_recovers_active_set(self):
        cfg = experiment_config_from_dict(base_config(replications=50))
        report = run_experiment(cfg)
        assert report.rates.hamming_risk <= 0.1
        theta = cfg.resolve_theta()
        assert np.all(theta[:4] != 0) and np.all(theta[4:] == 0)

    def test_random_signs_deterministic(self):
        cfg = experiment_config_from_dict(
            base_config(signal={"s": 4, "A": 16.0, "signs": "random"})
        )
        assert np.array_equal(cfg.resolve_theta(), cfg.resolve_theta())

    def test_report_validates_against_schema(self):
        cfg = experiment_config_from_dict(base_config(theta_check=[1.0, 16.0]))
        report = run_experiment(cfg)
        jsonschema.validate(json.loads(report.to_json()), SCHEMA)

    def test_per_rep_csv_layout(self):
        cfg = experiment_config_from_dict(base_config(replications=3))
        report = run_experiment(cfg)
        lines = per_rep_csv_text(report.records).strip().split("\n")
        assert lines[0] == "rep,false_pos,false_neg,selected_size,preselector_size,active_size,hamming"
        assert len(lines) == 4
        first = [int(v) for v in lines[1].split(",")]
        assert first[0] == 1
        assert first[6] == first[1] + first[2]  # hamming = fp + fn

    def test_per_rep_csv_round_trip(self, tmp_path):
        weak = base_config(signal={"s": 4, "A": 2.0}, K=1.0, replications=30)
        cfg = experiment_config_from_dict(weak)
        records = run_experiment(cfg).records
        assert len({r.hamming for r in records}) > 1
        path = tmp_path / "reps.csv"
        path.write_text(per_rep_csv_text(records))
        assert read_per_rep_csv(str(path), cfg.n) == list(records)

    def test_wall_time_positive(self):
        report = run_experiment(experiment_config_from_dict(base_config(replications=2)))
        assert report.wall_time_s > 0
        assert math.isfinite(report.wall_time_s)


class TestOracleActiveSetUse:
    def test_oracle_level_controls_target(self):
        # explicit theta with a mid-size coordinate: the evaluation target
        # shrinks as oracle_A grows
        theta = [6.0, 2.0] + [0.0] * 18
        lo = experiment_config_from_dict(
            base_config(n=20, signal={"theta": theta}, oracle_A=0.5, replications=5)
        )
        hi = experiment_config_from_dict(
            base_config(n=20, signal={"theta": theta}, oracle_A=30.0, replications=5)
        )
        rep_lo = run_experiment(lo)
        rep_hi = run_experiment(hi)
        assert rep_lo.records[0].active_size > rep_hi.records[0].active_size
