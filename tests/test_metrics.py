import numpy as np
import pytest

from hullselect import (
    ConfusionCounts,
    DimensionError,
    DomainError,
    SelectionMask,
    aggregate,
    confusion,
    hamming_distance,
    proportions,
)


def random_mask(rng, n):
    size = int(rng.integers(0, n + 1))
    return SelectionMask.from_indices(rng.choice(n, size, replace=False) + 1, n)


class TestConfusion:
    def test_identical_masks(self):
        m = SelectionMask((2, 3), 5)
        c = confusion(m, m)
        assert (c.false_pos, c.false_neg, c.selected_size, c.active_size, c.n) == (0, 0, 2, 2, 5)

    def test_partial_overlap(self):
        c = confusion(SelectionMask((1, 2), 4), SelectionMask((2, 3), 4))
        assert (c.false_pos, c.false_neg, c.selected_size, c.active_size, c.n) == (1, 1, 2, 2, 4)

    def test_missed_single(self):
        c = confusion(SelectionMask.empty(6), SelectionMask((1,), 6))
        assert (c.false_pos, c.false_neg) == (0, 1)

    def test_hamming_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            a, b = random_mask(rng, n), random_mask(rng, n)
            c = confusion(a, b)
            assert c.hamming == hamming_distance(a, b)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            confusion(SelectionMask.empty(3), SelectionMask.empty(4))

    def test_count_validation(self):
        with pytest.raises(DomainError):
            ConfusionCounts(false_pos=3, false_neg=0, selected_size=2, active_size=0, n=5)


class TestProportions:
    def test_empty_selection_controls_fdp(self):
        c = confusion(SelectionMask.empty(5), SelectionMask((1, 2), 5))
        assert proportions(c).fdp == 0.0

    def test_full_selection_controls_ndp(self):
        c = confusion(SelectionMask.full(5), SelectionMask((1, 2), 5))
        assert proportions(c).ndp == 0.0

    def test_balanced_example(self):
        p = proportions(ConfusionCounts(1, 1, 2, 2, 4))
        assert (p.fdp, p.fpp, p.ndp, p.fnp, p.hamming_loss) == (0.5, 0.5, 0.5, 0.5, 2)

    def test_zero_over_zero_everywhere(self):
        # empty active set and empty selection: every ratio degenerates to 0
        p = proportions(confusion(SelectionMask.empty(3), SelectionMask.empty(3)))
        assert (p.fdp, p.fpp, p.ndp, p.fnp) == (0.0, 0.0, 0.0, 0.0)
        # full active set: fpp denominator is 0
        p = proportions(confusion(SelectionMask.full(3), SelectionMask.full(3)))
        assert p.fpp == 0.0 and p.fnp == 0.0

    def test_fdp_fpp_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            c = confusion(random_mask(rng, n), random_mask(rng, n))
            p = proportions(c)
            if c.selected_size > 0:
                assert p.fdp == pytest.approx(
                    p.fpp * (c.n - c.active_size) / c.selected_size, abs=1e-15
                )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            a, b = random_mask(rng, n), random_mask(rng, n)
            perm = rng.permutation(n) + 1
            relabel = lambda m: SelectionMask.from_indices(
                [int(perm[i - 1]) for i in m.indices], n
            )
            assert proportions(confusion(a, b)) == proportions(confusion(relabel(a), relabel(b)))


class TestAggregate:
    def test_single_replication_equals_proportions(self):
        c = ConfusionCounts(1, 1, 2, 2, 4)
        r = aggregate([c])
        p = proportions(c)
        assert (r.fdr, r.fpr, r.ndr, r.fnr) == (p.fdp, p.fpp, p.ndp, p.fnp)
        assert r.hamming_risk == p.hamming_loss
        assert r.replications == 1
        assert r.stderr["fdr"] == 0.0

    def test_hamming_risk_mean(self):
        a = ConfusionCounts(0, 0, 2, 2, 4)
        b = ConfusionCounts(1, 1, 2, 2, 4)
        assert aggregate([a, b]).hamming_risk == 1.0

    def test_kfwer_exceedance(self):
        reps = [ConfusionCounts(fp, 0, fp, 0, 8) for fp in (0, 1, 2, 2)]
        r = aggregate(reps, ks=[1, 2])
        assert r.kfwer[2] == 0.5
        assert r.kfwer[1] == 0.75

    def test_k1_always_present(self):
        r = aggregate([ConfusionCounts(0, 0, 0, 0, 4)], ks=[5])
        assert 1 in r.kfwer and 1 in r.kfwnr

    def test_kfwer_non_increasing_in_k(self):
        rng = np.random.default_rng(3)
        reps = [
            confusion(random_mask(rng, 10), random_mask(rng, 10)) for _ in range(200)
        ]
        r = aggregate(reps, ks=[1, 2, 3, 5, 8])
        vals = [r.kfwer[k] for k in sorted(r.kfwer)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_mtr_composition_exact(self):
        rng = np.random.default_rng(4)
        reps = [confusion(random_mask(rng, 9), random_mask(rng, 9)) for _ in range(57)]
        r = aggregate(reps)
        assert r.mtr == (r.fdr + r.ndr, r.fdr + r.fnr, r.fpr + r.ndr, r.fpr + r.fnr)

    def test_markov_bound_on_kfwer(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            reps = [
                confusion(random_mask(rng, 12), random_mask(rng, 12))
                for _ in range(int(rng.integers(1, 80)))
            ]
            r = aggregate(reps, ks=[1, 2, 3, 4])
            mean_fp = sum(c.false_pos for c in reps) / len(reps)
            mean_fn = sum(c.false_neg for c in reps) / len(reps)
            for k, p in r.kfwer.items():
                assert p <= mean_fp / k + 1e-15
            for k, p in r.kfwnr.items():
                assert p <= mean_fn / k + 1e-15

    def test_errors(self):
        with pytest.raises(DomainError):
            aggregate([])
        with pytest.raises(DimensionError):
            aggregate([ConfusionCounts(0, 0, 0, 0, 3), ConfusionCounts(0, 0, 0, 0, 4)])
        with pytest.raises(DomainError):
            aggregate([ConfusionCounts(0, 0, 0, 0, 3)], ks=[0])
