import math

import numpy as np
import pytest

from hullselect import (
    ConfidenceBall,
    DimensionError,
    DomainError,
    SelectionMask,
    UqConfig,
    confidence_radius,
    evaluate_uq_counts,
    hamming_distance,
)


class TestRadius:
    def test_empty_preselector(self):
        assert confidence_radius(0, 100, 1.0) == 1.0

    def test_linear_exponent(self):
        assert confidence_radius(10, 100, 1.0) == 10.0

    def test_zero_exponent_full_ball(self):
        for size in (0, 3, 100):
            assert confidence_radius(size, 100, 0.0) == 100.0

    def test_monotone_in_size_and_capped(self):
        for alpha in (0.25, 0.5, 1.0, 2.0):
            vals = [confidence_radius(s, 50, alpha) for s in range(51)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert all(0 < v <= 50 for v in vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            confidence_radius(-1, 10, 1.0)
        with pytest.raises(DomainError):
            confidence_radius(11, 10, 1.0)
        for n in (0, -3):
            with pytest.raises(DomainError, match="n must be >= 1"):
                confidence_radius(0, n, 1.0)
        for alpha in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                confidence_radius(2, 10, alpha)


class TestBall:
    def test_center_always_inside(self):
        ball = ConfidenceBall(SelectionMask((1, 3), 5), 0.0)
        assert ball.contains(SelectionMask((1, 3), 5))

    def test_real_radius_vs_integer_distance(self):
        ball = ConfidenceBall(SelectionMask((1,), 3), 1.5)
        assert not ball.contains(SelectionMask((2,), 3))  # distance 2
        assert ball.contains(SelectionMask((1, 2), 3))  # distance 1

    def test_diameter_radius_contains_everything(self):
        rng = np.random.default_rng(0)
        center = SelectionMask((2, 4), 6)
        ball = ConfidenceBall(center, 6.0)
        for _ in range(50):
            size = int(rng.integers(0, 7))
            eta = SelectionMask.from_indices(rng.choice(6, size, replace=False) + 1, 6)
            assert ball.contains(eta)

    def test_dimension_error(self):
        ball = ConfidenceBall(SelectionMask.empty(3), 1.0)
        with pytest.raises(DimensionError):
            ball.contains(SelectionMask.empty(4))

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            ConfidenceBall(SelectionMask.empty(3), -0.1)


class TestEvaluate:
    def test_perfect_recovery_covers(self):
        n = 20
        m = SelectionMask((1, 2, 3), n)
        reps = [(len(m), hamming_distance(m, m), len(m))] * 10
        cover_fail, _ = evaluate_uq_counts(reps, n, UqConfig(alpha4_prime=1.0, m1_prime=4.0))
        assert cover_fail == 0.0

    def test_degenerate_exponent_identities(self):
        # alpha' = 0 makes both radii the full ball: coverage never fails and
        # the size check trips exactly when m1' <= 1
        n = 15
        rng = np.random.default_rng(1)
        records = [
            (int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1)))
            for _ in range(40)
        ]
        for m1 in (0.5, 1.0, 2.0):
            cover_fail, size_exceed = evaluate_uq_counts(
                records, n, UqConfig(alpha4_prime=0.0, m1_prime=m1)
            )
            assert cover_fail == 0.0
            assert size_exceed == (1.0 if m1 <= 1.0 else 0.0)

    def test_coverage_fail_monotone_in_alpha(self):
        n = 30
        rng = np.random.default_rng(2)
        records = []
        for _ in range(60):
            presize = int(rng.integers(0, n + 1))
            ham = int(rng.integers(0, n + 1))
            records.append((presize, ham, int(rng.integers(0, n + 1))))
        rates = [
            evaluate_uq_counts(records, n, UqConfig(alpha4_prime=a, m1_prime=4.0))[0]
            for a in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_count_columns_equal_tuples(self):
        # the harness passes its count array's (preselector, hamming, active)
        # columns as lists of Python ints; tuples of the same ints agree, and
        # so does a loop that takes both radii of every record
        n = 25
        rng = np.random.default_rng(3)
        counts = rng.integers(0, n + 1, size=(80, 7))
        tuples = [(int(row[4]), int(row[6]), int(row[5])) for row in counts]
        for a in (0.0, 0.5, 1.0):
            cfg = UqConfig(alpha4_prime=a, m1_prime=2.0)
            got = evaluate_uq_counts(counts[:, [4, 6, 5]].tolist(), n, cfg)
            assert got == evaluate_uq_counts(tuples, n, cfg)
            assert got == evaluate_uq_counts(iter(tuples), n, cfg)
            radii = [(confidence_radius(p, n, a), confidence_radius(act, n, a))
                     for p, _, act in tuples]
            cover = sum(ham > r_hat for (_, ham, _), (r_hat, _) in zip(tuples, radii))
            size = sum(r_hat >= 2.0 * r_bench for r_hat, r_bench in radii)
            assert got == (cover / 80, size / 80)

    def test_radii_not_interchanged(self):
        # preselector size drives coverage, active size drives the benchmark:
        # swapping them must change the outcome in this asymmetric setup
        n = 100
        cfg = UqConfig(alpha4_prime=1.0, m1_prime=2.0)
        rec = [(50, 10, 5)]  # r_hat = 50 covers ham=10; 50 >= 2 * 5 trips size
        assert evaluate_uq_counts(rec, n, cfg) == (0.0, 1.0)
        swapped = [(5, 10, 50)]  # r_hat = 5 misses ham=10; 5 < 2 * 50 passes
        assert evaluate_uq_counts(swapped, n, cfg) == (1.0, 0.0)

    def test_empty_error(self):
        with pytest.raises(DomainError):
            evaluate_uq_counts([], 5, UqConfig())


class TestUqConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            UqConfig(alpha4_prime=-0.1)
        with pytest.raises(DomainError):
            UqConfig(m1_prime=0.0)
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError):
                UqConfig(alpha4_prime=value)
            with pytest.raises(DomainError):
                UqConfig(m1_prime=value)
        assert UqConfig(alpha4_prime=0.0).alpha4_prime == 0.0
