import math

import numpy as np
import pytest
from scipy import integrate, stats

from hullselect import (
    BoundQuery,
    DomainError,
    coordinate_risk,
    hamming_risk_lower_bound,
    phase_table,
    separation_for_level,
    std_normal_cdf,
)


def cdf_by_quadrature(x: float) -> float:
    """Independent CDF route: numerical integration of the normal density."""
    if x <= 0:
        val, _ = integrate.quad(stats.norm.pdf, -40.0, x, epsabs=1e-14, epsrel=1e-13)
        return val
    val, _ = integrate.quad(stats.norm.pdf, x, 40.0, epsabs=1e-14, epsrel=1e-13)
    return 1.0 - val


def risk_term_alt(n, s, a, sigma):
    """Independent reimplementation with scipy's CDF routine."""
    ratio = n / s
    t = math.log(ratio - 1.0)
    return (ratio - 1.0) * stats.norm.cdf(-a / (2 * sigma) - sigma * t / a) + stats.norm.cdf(
        -a / (2 * sigma) + sigma * t / a
    )


class TestNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry_identity(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-8, 8, 200):
            assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15

    def test_975_quantile(self):
        assert abs(std_normal_cdf(1.959963984540054) - 0.975) < 1e-9

    def test_against_quadrature(self):
        for x in [-5.0, -2.0, -0.7, 0.3, 1.0, 2.5, 4.0]:
            assert std_normal_cdf(x) == pytest.approx(cdf_by_quadrature(x), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            std_normal_cdf(math.inf)


class TestCoordinateRisk:
    def test_half_sparsity_collapses(self):
        # n = 2s kills the log term: risk = 2 Phi(-a / (2 sigma))
        q = BoundQuery(n=20, s=10, a=2.0, sigma=1.0)
        assert coordinate_risk(q) == pytest.approx(2 * std_normal_cdf(-1.0), abs=1e-12)
        assert coordinate_risk(q) == pytest.approx(0.3173105078, abs=1e-9)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(3, 5000))
            s = int(rng.integers(1, n))
            a = float(rng.uniform(0.2, 20.0))
            sigma = float(rng.uniform(0.3, 3.0))
            q = BoundQuery(n=n, s=s, a=a, sigma=sigma)
            assert coordinate_risk(q) == pytest.approx(risk_term_alt(n, s, a, sigma), rel=1e-12, abs=1e-300)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(3, 1000))
            s = int(rng.integers(1, n))
            q = BoundQuery(n=n, s=s, a=float(rng.uniform(0.1, 10)), sigma=1.0)
            val = coordinate_risk(q)
            assert 0.0 <= val < n / s

    def test_ratio_rounding_to_one_is_domain_error(self):
        # s = n - 1 passes BoundQuery, but past 2^53 the float n/s rounds to
        # 1.0 and log(n/s - 1) would be a raw math domain error
        q = BoundQuery(n=2**53 + 1, s=2**53, a=1.0, sigma=1.0)
        with pytest.raises(DomainError, match="need n/s > 1"):
            coordinate_risk(q)

    def test_vanishes_for_strong_signal(self):
        vals = [
            coordinate_risk(BoundQuery(n=100, s=10, a=a, sigma=1.0))
            for a in np.linspace(4.0, 40.0, 30)
        ]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12


class TestHammingLowerBound:
    def test_s_prime_equals_s(self):
        q = BoundQuery(n=50, s=10, a=1.0, sigma=1.0, s_prime=10.0)
        expect = 10 * coordinate_risk(q) - 40.0
        got = hamming_risk_lower_bound(q)
        assert got.value == pytest.approx(expect, rel=1e-15)
        assert got.vacuous

    def test_inconsistency_regime_floor(self):
        # weak separation: bound at s' = s/2 dominates s (1/4 - 2 e^{-s/8})
        for s in (20, 40, 80):
            n = 40 * s
            a = math.sqrt(2.0 * math.log(n / s - 1.0))
            q = BoundQuery(n=n, s=s, a=a, sigma=1.0)
            got = hamming_risk_lower_bound(q)
            floor = s * (0.25 - 2.0 * math.exp(-s / 8.0))
            assert got.value >= floor > 0.085 * s
            assert not got.vacuous

    def test_matches_independent_recomputation(self):
        q = BoundQuery(n=1000, s=20, a=1.0, sigma=1.0, s_prime=10.0)
        term1 = 10.0 * risk_term_alt(1000, 20, 1.0, 1.0)
        term2 = 40.0 * math.exp(-((20 - 10.0) ** 2) / 40.0)
        assert hamming_risk_lower_bound(q).value == pytest.approx(term1 - term2, rel=1e-12)

    def test_weak_signal_floor_inequality(self):
        for s in range(20, 201):
            assert s * (0.25 - 2.0 * math.exp(-s / 8.0)) > 0.085 * s

    def test_monotone_in_separation(self):
        n, s = 200, 20
        start = 2.0 * math.sqrt(math.log(n / s - 1.0))
        grid = np.linspace(start, 40.0, 60)
        vals = [
            hamming_risk_lower_bound(BoundQuery(n=n, s=s, a=float(a), sigma=1.0)).value
            for a in grid
        ]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_query_validation(self):
        with pytest.raises(DomainError):
            BoundQuery(n=10, s=10, a=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            BoundQuery(n=10, s=3, a=0.0, sigma=1.0)
        with pytest.raises(DomainError):
            BoundQuery(n=10, s=3, a=1.0, sigma=1.0, s_prime=4.0)


class TestPhaseTable:
    def test_regime_labels(self):
        rows = phase_table([1000], [20], [0.5, 2.0, 16.0], 1.0)
        by_level = {r.level: r for r in rows}
        # weak signal: inside the impossibility region
        weak = by_level[0.5]
        assert weak.a**2 <= 2.0 * math.log(1000 / 20 - 1)
        assert weak.regime == "inconsistent"
        # moderate signal: informative positive bound
        assert by_level[2.0].regime == "lower-bounded"
        assert by_level[2.0].lower_bound > 0
        # strong signal: the bound degenerates
        assert by_level[16.0].regime == "vacuous"
        assert by_level[16.0].lower_bound <= 0

    def test_separation_parameterization(self):
        a = separation_for_level(1000, 10, 8.0, 2.0)
        assert a == pytest.approx(2.0 * math.sqrt(8.0 * math.log(math.e * 100)), rel=1e-15)
        # the edges of the domain: level 0, and s = n
        assert separation_for_level(10, 2, 0.0, 1.0) == 0.0
        assert separation_for_level(10, 10, 4.0, 1.0) == 2.0

    @pytest.mark.parametrize("n, s, level, sigma", [
        (0, 1, 1.0, 1.0), (10, 0, 1.0, 1.0), (10, 11, 1.0, 1.0),
        (10, 2, -1.0, 1.0), (10, 2, math.nan, 1.0), (10, 2, math.inf, 1.0),
        (10, 2, 1.0, 0.0), (10, 2, 1.0, -1.0), (10, 2, 1.0, math.nan), (10, 2, 1.0, math.inf),
    ])
    def test_separation_domain(self, n, s, level, sigma):
        with pytest.raises(DomainError):
            separation_for_level(n, s, level, sigma)

    def test_grid_product(self):
        rows = phase_table([500, 1000], [10, 20, 40], [1.0, 4.0], 1.0)
        assert len(rows) == 12
        assert {(r.n, r.s, r.level) for r in rows} == {
            (n, s, a) for n in (500, 1000) for s in (10, 20, 40) for a in (1.0, 4.0)
        }

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            phase_table([], [10], [1.0], 1.0)
