import math

import numpy as np
import pytest

from hullselect import (
    ObservationVector,
    Q_DEFAULT,
    SelectionMask,
    SelectorConfig,
    mallows_cp,
    preselect,
    select,
    sparsity_penalty,
)
from hullselect import selector

from conftest import brute_force_argmin, brute_force_mallows


def obs(x, sigma=1.0):
    return ObservationVector(np.asarray(x, dtype=float), sigma)


class TestPreselect:
    def test_zero_data(self):
        mask, crit = preselect(obs([0.0, 0.0, 0.0]), SelectorConfig(K=1.0, sigma=1.0))
        assert mask == SelectionMask.empty(3)
        assert crit == 0.0

    def test_two_point_example(self):
        # candidates: empty costs 9, {1} costs log(2 e^2), both costs penalty(2)
        mask, crit = preselect(obs([3.0, 0.0]), SelectorConfig(K=1.0, sigma=1.0))
        assert mask == SelectionMask((1,), 2)
        assert crit == pytest.approx(2.0 + math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("k_const", [0.5, 1.0, 4.0])
    def test_matches_brute_force(self, k_const):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(1, 13))
            x = rng.uniform(-5, 5, n)
            sigma = float(rng.uniform(0.3, 2.0))
            mask, crit = preselect(obs(x, sigma), SelectorConfig(K=k_const, sigma=sigma))
            expect, expect_crit = brute_force_argmin(
                x**2, k_const * sigma**2, Q_DEFAULT, prefer_small=False
            )
            assert mask == expect
            assert crit == pytest.approx(expect_crit, rel=1e-12)

    def test_tied_scores_enter_together(self):
        # the penalty is strictly concave in k, so an exactly tied score
        # group is never split by the argmin; check across a K sweep
        x = np.array([2.0, 1.0, 1.0, 0.0])
        for k_const in [0.1, 0.5, 1.0, 2.0, 8.0]:
            mask, _ = preselect(obs(x), SelectorConfig(K=k_const, sigma=1.0))
            expect, _ = brute_force_argmin(x**2, k_const, Q_DEFAULT, prefer_small=False)
            assert mask == expect
            assert (2 in mask) == (3 in mask)

    def test_exact_cross_cardinality_tie_takes_bigger_weight(self):
        # craft x1^2 equal to the float penalty of a singleton: empty set and
        # {1} tie exactly, and sum(n - i) favors the nonempty candidate
        w = 1.0
        x1 = math.sqrt(w * sparsity_penalty(1, 2))
        assert x1**2 == w * sparsity_penalty(1, 2)  # exact tie precondition
        cfg = SelectorConfig(K=w, sigma=1.0)
        mask, _ = preselect(obs([x1, 0.0]), cfg)
        expect, _ = brute_force_argmin(np.array([x1**2, 0.0]), w, Q_DEFAULT, prefer_small=False)
        assert mask == expect == SelectionMask((1,), 2)

    def test_exact_tie_with_equal_weight_sum_takes_larger_set(self):
        # {1} vs {1,2}: adding index n contributes nothing to sum(n - i), and
        # x2^2 is crafted so the criteria tie exactly (Sterbenz subtraction)
        w = 1.0
        p1 = w * sparsity_penalty(1, 2)
        p2 = w * sparsity_penalty(2, 2)
        x2sq = p2 - p1
        assert x2sq + p1 == p2  # exact in floats
        x = [10.0, math.sqrt(x2sq)]
        assert x[1] ** 2 == x2sq  # exact tie precondition
        mask, _ = preselect(obs(x), SelectorConfig(K=w, sigma=1.0))
        expect, _ = brute_force_argmin(
            np.array([100.0, x2sq]), w, Q_DEFAULT, prefer_small=False
        )
        assert mask == expect == SelectionMask((1, 2), 2)

    def test_criterion_monotone_and_size_antitone_in_K(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            x = rng.normal(0, 3, n)
            crits, sizes = [], []
            for k_const in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]:
                mask, crit = preselect(obs(x), SelectorConfig(K=k_const, sigma=1.0))
                crits.append(crit)
                sizes.append(len(mask))
            assert all(a <= b for a, b in zip(crits, crits[1:]))
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_permutation_equivariance_on_tie_free_input(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            x = rng.uniform(1, 5, n) * rng.choice([-1, 1], n)
            perm = rng.permutation(n)
            cfg = SelectorConfig(K=1.0, sigma=1.0)
            base, _ = preselect(obs(x), cfg)
            permuted, _ = preselect(obs(x[perm]), cfg)
            # position j of the permuted vector holds old coordinate perm[j]
            expected = sorted(int(np.flatnonzero(perm == i - 1)[0]) + 1 for i in base.indices)
            assert list(permuted.indices) == expected

    def test_scale_relation(self):
        rng = np.random.default_rng(3)
        for c in [0.5, 2.0, 7.5]:
            x = rng.normal(0, 2, 20)
            base, _ = preselect(obs(x, 1.0), SelectorConfig(K=2.0, sigma=1.0))
            scaled, _ = preselect(obs(c * x, c), SelectorConfig(K=2.0, sigma=c))
            assert base == scaled


class TestSelect:
    def test_continues_preselect_example(self):
        res = select(obs([3.0, 0.0]), SelectorConfig(K=1.0, sigma=1.0))
        assert res.preselector == SelectionMask((1,), 2)
        assert res.threshold == pytest.approx(math.log(2.0 * math.e**2), rel=1e-15)
        assert res.selected == SelectionMask((1,), 2)

    def test_empty_preselector_selects_nothing(self):
        res = select(obs([0.0, 0.0, 0.0]), SelectorConfig(K=1.0, sigma=1.0))
        assert res.preselector == SelectionMask.empty(3)
        assert res.threshold == math.inf
        assert res.selected == SelectionMask.empty(3)
        assert res.to_dict()["threshold"] is None

    def test_matches_direct_indicator(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            x = rng.uniform(-5, 5, n)
            sigma = float(rng.uniform(0.5, 1.5))
            cfg = SelectorConfig(K=2.0, sigma=sigma)
            res = select(obs(x, sigma), cfg)
            size = len(res.preselector)
            if size == 0:
                assert len(res.selected) == 0
                continue
            t = cfg.K * sigma**2 * math.log(Q_DEFAULT * n / size)
            expect = tuple(i + 1 for i in range(n) if x[i] ** 2 >= t)
            assert res.selected.indices == expect

    def test_selected_subset_of_preselector_many_runs(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            x = rng.normal(0, rng.uniform(0.5, 4.0), n)
            res = select(obs(x), SelectorConfig(K=float(rng.uniform(0.2, 8.0)), sigma=1.0))
            assert res.selected.as_set() <= res.preselector.as_set()

    def test_selected_outside_preselector_is_runtime_error(self, monkeypatch):
        real = selector.sweep_argmin

        def one_chosen(v, weight, q, prefer_small):
            # a preselector of size 1, while the threshold at k = 1 still
            # selects both strong coordinates
            return (1, *real(v, weight, q, prefer_small)[1:])

        monkeypatch.setattr(selector, "sweep_argmin", one_chosen)
        with pytest.raises(RuntimeError) as info:
            select(obs([9.0, 8.0, 0.0, 0.0, 0.0]), SelectorConfig(K=1.0, sigma=1.0))
        assert str(info.value) == "selector produced a coordinate outside the preselector"


class TestMallowsCp:
    def test_examples(self):
        assert mallows_cp(obs([2.0, 0.0])) == SelectionMask((1,), 2)
        assert mallows_cp(obs([0.0] * 5)) == SelectionMask.empty(5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(1, 12))
            x = rng.uniform(-4, 4, n)
            sigma = float(rng.uniform(0.5, 2.0))
            got = mallows_cp(obs(x, sigma)).indices
            assert got in brute_force_mallows(x, sigma)

    def test_tie_at_threshold_excluded(self):
        sigma = 3.5
        x = [math.sqrt(2.0 * sigma**2), 10.0]
        assert x[0] ** 2 == 2.0 * sigma**2  # exact tie precondition
        mask = mallows_cp(obs(x, sigma))
        assert mask == SelectionMask((2,), 2)
        assert mask.indices in brute_force_mallows(x, sigma)
