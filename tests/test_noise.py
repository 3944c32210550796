import math

import numpy as np
import pytest
from scipy import stats

from hullselect import (
    Ar1,
    BoundedUniform,
    DomainError,
    IidGaussian,
    MeanOf,
    Rademacher,
    noise_model_from_spec,
    sample_noise,
    tail_decay_diagnostic,
)


class TestSamplers:
    def test_bitwise_reproducible(self):
        # one seed gives one vector; a block of rows, one per fresh
        # generator, gives the same vectors byte for byte
        models = [
            IidGaussian(),
            Ar1(0.6),
            BoundedUniform(1.5),
            Rademacher(),
            MeanOf(IidGaussian(), 4),
        ] + [Ar1(rho) for rho in (0.0, 0.5, -0.9)] + [MeanOf(Ar1(rho), 3) for rho in (0.0, 0.5, -0.9)]
        for model in models:
            a = sample_noise(model, 200, np.random.default_rng(123))
            b = sample_noise(model, 200, np.random.default_rng(123))
            assert np.array_equal(a, b)
            for n in (1, 2, 1000):
                for rows in (1, 2, 7):
                    rngs = [np.random.default_rng(123 + j) for j in range(rows)]
                    block = sample_noise(model, n, rngs)
                    assert block.shape == (rows, n) and block.dtype == np.float64
                    for j, row in enumerate(block):
                        one = model.sample(n, np.random.default_rng(123 + j))
                        assert row.tobytes() == one.tobytes(), (model, n, rows, j)

    def test_rows_drawn_into_a_buffer_fill_its_front(self):
        # the same rows as a new block, as a view of the buffer's front; the
        # rest of the buffer is left as it was
        for model in (IidGaussian(), Ar1(0.5), MeanOf(Ar1(0.5), 3)):
            buf = np.full(3 * 50 + 7, np.nan)
            got = sample_noise(model, 50, [np.random.default_rng(5 + j) for j in range(3)], buf)
            want = sample_noise(model, 50, [np.random.default_rng(5 + j) for j in range(3)])
            assert got.shape == (3, 50) and np.shares_memory(got, buf)
            assert got.tobytes() == want.tobytes(), model
            assert np.isnan(buf[150:]).all()

    def test_ar1_zero_rho_equals_iid_stream(self):
        a = sample_noise(Ar1(0.0), 500, np.random.default_rng(9))
        b = sample_noise(IidGaussian(), 500, np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_ar1_bitwise_equals_indexed_recurrence(self, rho, n):
        # the recurrence written on numpy float64 scalars, element by element;
        # row j is drawn from the generator seeded 31 + j, so sample must give
        # row 0 and sample_rows over seeds 31.. the first `rows` rows
        c = math.sqrt(1.0 - rho**2)
        expect = np.empty((7, n))
        for j in range(7):
            z = np.random.default_rng(31 + j).standard_normal(n)
            expect[j, 0] = z[0]
            for i in range(1, n):
                expect[j, i] = rho * expect[j, i - 1] + c * z[i]
        got = Ar1(rho).sample(n, np.random.default_rng(31))
        assert got.dtype == expect.dtype and got.shape == (n,)
        assert got.tobytes() == expect[0].tobytes()
        for rows in (1, 2, 7):
            block = Ar1(rho).sample_rows(n, [np.random.default_rng(31 + j) for j in range(rows)])
            assert block.dtype == expect.dtype and block.shape == (rows, n)
            assert np.ascontiguousarray(block).tobytes() == expect[:rows].tobytes()

    def test_rademacher_support(self):
        x = sample_noise(Rademacher(), 1000, np.random.default_rng(1))
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_bounded_uniform_support(self):
        x = sample_noise(BoundedUniform(1.5), 5000, np.random.default_rng(2))
        assert np.all(np.abs(x) <= 1.5)

    def test_mean_of_m_variance_scaling(self):
        # variance 1/m within 3 standard errors of the sample variance
        m = 4
        x = sample_noise(MeanOf(IidGaussian(), m), 100_000, np.random.default_rng(3))
        var = x.var(ddof=1)
        se = math.sqrt(2.0 / (len(x) - 1)) * (1.0 / m)  # SE of chi2-based variance
        assert abs(var - 1.0 / m) <= 3 * se

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.9])
    def test_ar1_unit_marginal_variance(self, rho):
        x = sample_noise(Ar1(rho), 100_000, np.random.default_rng(4))
        # autocorrelated draws: variance of the sample variance grows with
        # the squared-process correlation, budget it conservatively
        neff = len(x) * (1 - rho**2) / (1 + rho**2)
        se = math.sqrt(2.0 / neff)
        assert abs(x.var(ddof=1) - 1.0) <= 3 * se

    def test_ar1_lag_one_correlation(self):
        rho = 0.7
        x = sample_noise(Ar1(rho), 200_000, np.random.default_rng(5))
        emp = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(emp - rho) < 0.01

    def test_validation(self):
        with pytest.raises(DomainError):
            Ar1(1.0)
        with pytest.raises(DomainError):
            BoundedUniform(0.0)
        with pytest.raises(DomainError):
            MeanOf(IidGaussian(), 0)
        with pytest.raises(DomainError):
            sample_noise(IidGaussian(), 0, np.random.default_rng(0))
        with pytest.raises(DomainError):
            sample_noise(Ar1(0.5), 0, [np.random.default_rng(0)])


class TestSpecParsing:
    def test_round_trip(self):
        specs = [
            {"variant": "iid-gaussian"},
            {"variant": "ar1", "rho": 0.5},
            {"variant": "bounded-uniform", "b": 2.0},
            {"variant": "rademacher"},
            {"variant": "mean-of-m", "m": 3, "inner": {"variant": "ar1", "rho": -0.2}},
        ]
        for spec in specs:
            assert noise_model_from_spec(spec).to_spec() == spec

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            noise_model_from_spec({"variant": "cauchy"})
        with pytest.raises(DomainError):
            noise_model_from_spec({"rho": 0.5})


class TestTailDiagnostic:
    def test_bounded_noise_survival_vanishes(self):
        # squared sums are capped at b^2 * |I|, so any positive margin has
        # exactly zero survival
        report = tail_decay_diagnostic(
            BoundedUniform(1.0),
            n=100,
            per_coordinate_budget=1.0,
            m_grid=[0.5, 1, 2, 5, 10],
            subset_sizes=[5, 10],
            reps=200,
            rng=np.random.default_rng(6),
        )
        assert report.empirical_survival == (0.0,) * 5
        assert report.passes and report.note == "survival vanished"
        assert report.fitted_slope is None

    def test_gaussian_matches_chi_square_tail(self):
        # subset sums of squared iid gaussians are exactly chi-square(s)
        s, budget, margin, reps = 10, 2.0, 10.0, 40_000
        report = tail_decay_diagnostic(
            IidGaussian(),
            n=60,
            per_coordinate_budget=budget,
            m_grid=[margin],
            subset_sizes=[s],
            reps=reps,
            rng=np.random.default_rng(7),
        )
        p = stats.chi2.sf(budget * s + margin, df=s)
        se = math.sqrt(p * (1 - p) / reps)
        assert abs(report.empirical_survival[0] - p) <= 3 * se

    def test_gaussian_slope_passes(self):
        report = tail_decay_diagnostic(
            IidGaussian(),
            n=100,
            per_coordinate_budget=2.0,
            m_grid=list(range(0, 21, 2)),
            subset_sizes=[10],
            reps=10_000,
            rng=np.random.default_rng(8),
        )
        assert report.fitted_slope is not None and report.fitted_slope <= -0.1
        assert report.passes
        surv = report.empirical_survival
        assert all(a >= b for a, b in zip(surv, surv[1:]))

    def test_ar1_slope_passes(self):
        report = tail_decay_diagnostic(
            Ar1(0.5),
            n=100,
            per_coordinate_budget=3.0,
            m_grid=list(range(0, 21, 2)),
            subset_sizes=[10],
            reps=5_000,
            rng=np.random.default_rng(9),
        )
        assert report.passes
        assert report.fitted_slope is None or report.fitted_slope < 0

    @pytest.mark.parametrize("budget, grid", [
        (1.0, [math.nan, 1.0]), (1.0, [0.0, math.inf]), (1.0, [-math.inf]), (math.inf, [1.0]),
    ])
    def test_non_finite_inputs(self, budget, grid):
        with pytest.raises(DomainError):
            tail_decay_diagnostic(
                IidGaussian(), 10, budget, grid, [2], reps=100, rng=np.random.default_rng(0)
            )

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -0.1])
    def test_slope_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(DomainError, match="slope_threshold"):
            tail_decay_diagnostic(
                IidGaussian(), 10, 1.0, [1.0], [2], reps=100, rng=np.random.default_rng(0),
                slope_threshold=threshold,
            )

    def test_validation(self):
        with pytest.raises(DomainError):
            tail_decay_diagnostic(
                IidGaussian(), 10, 1.0, [1.0], [2], reps=50, rng=np.random.default_rng(0)
            )
        with pytest.raises(DomainError):
            tail_decay_diagnostic(
                IidGaussian(), 10, 1.0, [1.0], [11], reps=200, rng=np.random.default_rng(0)
            )
