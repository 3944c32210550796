import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hullselect import (
    DimensionError,
    DomainError,
    ObservationVector,
    Q_DEFAULT,
    SelectionMask,
    hamming_distance,
    sparsity_penalty,
)


def equal_n_mask_triples(max_n=10):
    def build(n):
        one = st.sets(st.integers(1, n)).map(lambda s: SelectionMask(tuple(sorted(s)), n))
        return st.tuples(one, one, one)

    return st.integers(1, max_n).flatmap(build)


class TestSparsityPenalty:
    def test_zero_convention(self):
        assert sparsity_penalty(0, 4) == 0.0

    def test_full_set(self):
        # k = n gives k * log(q) = 2k for the default q
        assert sparsity_penalty(4, 4) == pytest.approx(8.0, abs=0)

    def test_singleton(self):
        assert sparsity_penalty(1, 4) == pytest.approx(2.0 + math.log(4.0), rel=1e-15)

    def test_matches_direct_formula(self):
        for n in (1, 2, 7, 500):
            for k in range(1, n + 1, max(1, n // 7)):
                assert sparsity_penalty(k, n) == k * math.log(Q_DEFAULT * n / k)

    def test_strictly_increasing_large_sweep(self):
        n = 10**6
        k = np.arange(0, n + 1, dtype=float)
        vals = np.zeros(n + 1)
        vals[1:] = k[1:] * np.log(Q_DEFAULT * n / k[1:])
        assert np.all(np.diff(vals) > 0)
        assert vals[0] == 0.0 < vals[1]
        # the vectorized sweep mirrors the scalar function exactly
        for kk in (1, 2, 3, 1000, n // 2, n - 1, n):
            assert vals[kk] == sparsity_penalty(kk, n)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sparsity_penalty(-1, 4)
        with pytest.raises(DomainError):
            sparsity_penalty(5, 4)
        for k in (0, 1, 2):  # q*n overflows; checked before the k = 0 convention
            with pytest.raises(DomainError):
                sparsity_penalty(k, 2, 1e308)


class TestSelectionMask:
    def test_validation(self):
        with pytest.raises(DomainError):
            SelectionMask((0,), 3)
        with pytest.raises(DomainError):
            SelectionMask((4,), 3)
        with pytest.raises(DomainError):
            SelectionMask((2, 2), 3)
        with pytest.raises(DomainError):
            SelectionMask((3, 1), 3)
        with pytest.raises(DomainError, match="increasing"):
            SelectionMask((1, 3, 2), 4)
        with pytest.raises(DomainError, match="increasing"):
            SelectionMask((1, 2, 2, 3), 4)
        with pytest.raises(DomainError, match="outside"):
            SelectionMask((2, 5), 4)
        with pytest.raises(DomainError, match="dimension"):
            SelectionMask((), 0)

    def test_json_form(self):
        assert SelectionMask((2, 5), 6).to_json() == [2, 5]

    def test_from_indices_sorts_dedups_and_yields_python_ints(self):
        for raw in ([3, 1, 3], np.array([3, 1, 3]), np.array([2, 0, 2]) + 1):
            m = SelectionMask.from_indices(raw, 4)
            assert m == SelectionMask((1, 3), 4)
            assert all(type(i) is int for i in m.indices)
        assert SelectionMask.from_indices(np.array([], dtype=np.int64), 4) == SelectionMask.empty(4)
        with pytest.raises(DomainError):
            SelectionMask.from_indices([0, 1], 4)


class TestHamming:
    def test_examples(self):
        a = SelectionMask((1, 2), 4)
        b = SelectionMask((2, 3), 4)
        assert hamming_distance(a, b) == 2
        assert hamming_distance(a, a) == 0
        assert hamming_distance(SelectionMask.empty(7), SelectionMask.full(7)) == 7

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            hamming_distance(SelectionMask.empty(3), SelectionMask.empty(4))

    def test_matches_set_decomposition(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            a = SelectionMask.from_indices(rng.choice(n, rng.integers(0, n + 1), replace=False) + 1, n)
            b = SelectionMask.from_indices(rng.choice(n, rng.integers(0, n + 1), replace=False) + 1, n)
            lhs = hamming_distance(a, b)
            assert lhs == len(a.as_set() - b.as_set()) + len(b.as_set() - a.as_set())
            assert lhs == sum((i in a) != (i in b) for i in range(1, n + 1))

    @given(equal_n_mask_triples())
    def test_metric_axioms(self, triple):
        a, b, c = triple
        assert hamming_distance(a, b) >= 0
        assert (hamming_distance(a, b) == 0) == (a == b)
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestObservationVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            ObservationVector(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(DomainError):
            ObservationVector(np.array([1.0]), 0.0)
        with pytest.raises(DomainError):
            ObservationVector(np.array([]), 1.0)

    def test_basic(self):
        obs = ObservationVector([1.0, -2.0], 0.5)
        assert obs.n == 2
        assert obs.x.dtype == float
