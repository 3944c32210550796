"""Exact-reference checks of the sort-and-sweep kernel.

The reference orders coordinates by descending score with ascending index on
ties, evaluates the criterion of every top-k set in Fraction arithmetic over
the rounded inputs (scores, float weight, float penalty), and applies the
documented across-k tie rules to the exact tie set. It shares no code with
the kernel beyond ``sparsity_penalty``.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullselect import (
    DomainError,
    Q_DEFAULT,
    SelectorConfig,
    active_set,
    sparsity_penalty,
)
from hullselect import _sweep
from hullselect.core import ROOT_MAX
from hullselect._sweep import penalty_vector, sweep_argmin, sweep_argmin_block


def exact_reference(v, weight, q, prefer_small):
    """(k, chosen 0-based coordinates in descending score order)."""
    n = len(v)
    order = sorted(range(n), key=lambda i: (-v[i], i))
    scores = [Fraction(float(x)) for x in v]
    total = sum(scores, Fraction(0))
    crit, taken = [], Fraction(0)
    for k in range(n + 1):
        if k:
            taken += scores[order[k - 1]]
        crit.append(total - taken + Fraction(weight) * Fraction(sparsity_penalty(k, n, q)))
    best = min(crit)
    ties = [k for k in range(n + 1) if crit[k] == best]
    if prefer_small:
        k = ties[0]
    else:
        k = max(ties, key=lambda k: (k * n - sum(i + 1 for i in order[:k]), k))
    return k, order[:k]


def assert_matches_reference(v, weight, q=Q_DEFAULT):
    v = np.asarray(v, dtype=float)
    for prefer_small in (True, False):
        k, order, _ = sweep_argmin(v, weight, q, prefer_small)
        ref_k, ref_chosen = exact_reference(v, weight, q, prefer_small)
        assert (k, order[:k].tolist()) == (ref_k, ref_chosen), (v.tolist(), weight, prefer_small)


def step(k, n, q=Q_DEFAULT):
    return sparsity_penalty(k, n, q) - sparsity_penalty(k - 1, n, q)


small_int_scores = st.integers(0, 9).map(float)
dyadic_scores = st.tuples(st.integers(0, 64), st.integers(-4, 4)).map(lambda t: math.ldexp(*t))
# Few distinct values, so most scores are duplicated.
duplicated_scores = st.sampled_from([0.0, 0.5, 1.0, 2.25, 7.0, 30.0])
small_ints = st.lists(small_int_scores, min_size=1, max_size=60)
dyadics = st.lists(dyadic_scores, min_size=1, max_size=60)
duplicated = st.lists(duplicated_scores, min_size=1, max_size=60)
dyadic_weights = st.integers(-3, 3).map(lambda j: 2.0**j) | st.just(0.0)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_ints, dyadics, duplicated), dyadic_weights | st.floats(0.0, 40.0))
def test_tie_heavy_scores_match_exact_reference(v, weight):
    assert_matches_reference(v, weight)


def near_tie_weight(v, i, k, nudge):
    """w = v_i / (p[k] - p[k-1]), moved by ``nudge`` ulps.

    It puts C(k) and C(k-1) within an ulp of each other, or on an exact
    tie, which only the rational re-decision settles.
    """
    weight = v[i] / step(k, len(v))
    for _ in range(abs(nudge)):
        weight = math.nextafter(weight, math.copysign(math.inf, nudge))
    return weight


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_ints, dyadics, duplicated), st.data())
def test_near_tie_weights_match_exact_reference(v, data):
    n = len(v)
    i = data.draw(st.integers(0, n - 1))
    if v[i] > 0:
        k, nudge = data.draw(st.integers(1, n)), data.draw(st.integers(-2, 2))
        assert_matches_reference(v, near_tie_weight(v, i, k, nudge))


def test_near_tie_weights_seeded_sweep():
    # About 1% of these cases defeat a float sweep, so a fixed seeded batch
    # exercises the rational re-decision on every run.
    rng = np.random.default_rng(5)
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        v = rng.integers(0, 6, n) * 2.0 ** int(rng.integers(-2, 3))
        i = int(rng.integers(0, n))
        if v[i] > 0:
            k, nudge = int(rng.integers(1, n + 1)), int(rng.integers(-1, 2))
            assert_matches_reference(v, near_tie_weight(v, i, k, nudge))


@pytest.mark.parametrize(
    "v, weight",
    [
        # the compensated float sweep picked the wrong cardinality here
        ([5.0, 2.0], 1.5303942190345023),
        ([1.0, 3.0, 4.0, 5.0, 5.0], 0.9029950401615163),
        ([0.0, 0.0, 1.0], 0.3227251126761117),
        ([5.0, 3.0, 5.0, 2.0], 1.7590864558696648),
        # a plain cumsum float sweep picks the wrong cardinality here
        ([16.0, 4.0, 16.0], 3.3639741372216405),
        ([2.0, 0.5], 0.3825985547586256),
    ],
)
def test_float_sweep_misses_match_exact_reference(v, weight):
    assert_matches_reference(v, weight)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 60), st.integers(-3, 3), st.lists(st.integers(1, 60), max_size=4),
       st.lists(st.integers(0, 9).map(float), min_size=60, max_size=60))
def test_crafted_cross_cardinality_ties(n, j, steps, fill):
    # With w a power of two, w * (p[k] - p[k-1]) is exact (Sterbenz), so a
    # score equal to it ties C(k) and C(k-1) exactly.
    weight = 2.0**j
    v = fill[:n]
    for pos, k in enumerate(steps):
        v[pos % n] = weight * step(min(k, n), n)
    assert_matches_reference(v, weight)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
@pytest.mark.parametrize("weight", [0.25, 1.0, 4.0])
def test_scores_at_and_one_ulp_below_the_floor(n, weight):
    floor = weight * min(step(k, n) for k in range(1, n + 1))
    below = math.nextafter(floor, 0.0)
    for v in ([floor] * n, [below] * n, [floor, below] * n, [9.0, floor, below, 0.0] * n):
        assert_matches_reference(v[:n], weight)


def test_crafted_ties_from_the_selector_suite():
    w = 1.0
    p1, p2 = sparsity_penalty(1, 2), sparsity_penalty(2, 2)
    assert_matches_reference([p1, 0.0], w)  # empty set ties {1}
    assert_matches_reference([100.0, p2 - p1], w)  # {1} ties {1, 2}


def test_level_zero_returns_support_without_rational_work(monkeypatch):
    v = np.zeros(1000)
    v[[3, 500, 999]] = [4.0, 1e-300, 7.0]

    def no_ints(values):
        raise AssertionError("zero-bound candidates must compare as floats")

    monkeypatch.setattr(_sweep, "_as_ints", no_ints)
    # every k from 3 to 1000 is a candidate with bound 0, so none needs exact integers
    k, order, value = sweep_argmin(v, 0.0, Q_DEFAULT, prefer_small=True)
    assert (k, sorted(order[:k].tolist()), value) == (3, [3, 500, 999], 0.0)
    # a tie with nonzero bounds does reach the patched _as_ints
    p1 = sparsity_penalty(1, 2)
    with pytest.raises(AssertionError, match="zero-bound"):
        sweep_argmin(np.array([p1, 0.0]), 1.0, Q_DEFAULT, prefer_small=True)


def assert_block_matches_reference(rows, weight, q=Q_DEFAULT):
    """Each row's k from the block form equals the exact reference."""
    v = np.array(rows, dtype=float).reshape(len(rows), -1)
    k = sweep_argmin_block(v, weight, q)
    assert k.shape == (len(v),)
    for row, k_row in zip(v, k.tolist()):
        assert k_row == exact_reference(row, weight, q, prefer_small=False)[0], (
            row.tolist(), weight)


def blocks(scores):
    """1 to 6 rows of one common length from 1 to 20."""
    return st.integers(1, 20).flatmap(
        lambda n: st.lists(st.lists(scores, min_size=n, max_size=n), min_size=1, max_size=6))


stacked_rows = st.one_of(blocks(small_int_scores), blocks(dyadic_scores), blocks(duplicated_scores))


@settings(max_examples=150, deadline=None)
@given(stacked_rows, dyadic_weights | st.floats(0.0, 40.0))
def test_block_rows_match_exact_reference(rows, weight):
    assert_block_matches_reference(rows, weight)


@settings(max_examples=150, deadline=None)
@given(stacked_rows, st.data())
def test_block_rows_at_near_tie_weights_match_exact_reference(rows, data):
    # the weight puts one row's C(k) and C(k-1) within ulps; the other rows
    # share it as the harness's rows share K*sigma^2
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    i = data.draw(st.integers(0, len(row) - 1))
    if row[i] > 0:
        k, nudge = data.draw(st.integers(1, len(row))), data.draw(st.integers(-2, 2))
        assert_block_matches_reference(rows, near_tie_weight(row, i, k, nudge))


@pytest.mark.parametrize("rows", [
    [[0.0]], [[5.0]], [[0.0], [5.0], [1e-300]],  # n = 1
    [[0.0, 0.0, 0.0]],  # B = 1 and k = 0
    [[0.0, 0.5, 0.0], [9.0, 30.0, 1.0], [0.0, 0.0, 0.0]],  # rows with k = 0 among others
])
@pytest.mark.parametrize("weight", [0.0, 1.0, 4.0])
def test_block_edge_shapes(rows, weight):
    assert_block_matches_reference(rows, weight)


def test_block_matches_row_kernel_on_gaussian_rows():
    rng = np.random.default_rng(12)
    theta = np.zeros(1000)
    theta[:10] = 6.0
    v = (theta + rng.standard_normal((70, 1000))) ** 2
    for weight in (0.5, 4.0):
        k = sweep_argmin_block(v, weight, Q_DEFAULT)
        for row, k_row in zip(v, k.tolist()):
            assert k_row == sweep_argmin(row, weight, Q_DEFAULT, prefer_small=False)[0]


def recording_row_kernel(monkeypatch):
    """Patch the row kernel that open rows go to; return the list of rows it gets."""
    seen = []

    def recording(v, weight, q, prefer_small):
        seen.append(np.asarray(v).tolist())
        return sweep_argmin(v, weight, q, prefer_small)

    monkeypatch.setattr(_sweep, "sweep_argmin", recording)
    return seen


def test_block_hands_an_exact_tie_row_to_the_row_kernel(monkeypatch):
    # w a power of two makes w * (p[2] - p[1]) exact, so a score equal to it
    # ties C(2) and C(1) exactly: two candidates, an open row
    n, weight = 6, 0.5
    tied = [30.0, weight * step(2, n), 0.0, 0.0, 0.0, 0.0]
    plain = [30.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    seen = recording_row_kernel(monkeypatch)
    assert_block_matches_reference([plain, tied, plain], weight)
    assert seen == [tied]
    assert sweep_argmin_block(np.array([tied]), weight, Q_DEFAULT).tolist() == [2]


def test_block_hands_a_near_tie_row_to_the_row_kernel(monkeypatch):
    # one ulp off the exact tie, so only the rational re-decision tells C(1) from C(2)
    n, weight = 6, 0.5
    for nudge in (-1, 1):
        near = [30.0, math.nextafter(weight * step(2, n), nudge * math.inf), 0.0, 0.0, 0.0, 0.0]
        seen = recording_row_kernel(monkeypatch)
        assert_block_matches_reference([near], weight)
        assert seen == [near]


def test_block_hands_an_overflow_guard_row_to_the_row_kernel(monkeypatch):
    # 3 * 1e308 overflows the guard's bound, but the scaled sum of the row
    # fits, so the row kernel decides it
    big = [1e308, 1e307, 1e307, 0.0]
    seen = recording_row_kernel(monkeypatch)
    assert_block_matches_reference([[1.0, 9.0, 0.0, 4.0], big], 1.0)
    assert seen == [big]


def test_block_raises_the_row_kernel_domain_errors():
    v = np.array([[1.0, 9.0, 0.0], [4.0, 0.0, 0.0]])
    for weight in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="penalty weight must be finite"):
            sweep_argmin_block(v, weight, Q_DEFAULT)
    huge = np.array([[1.0, 9.0, 0.0], [ROOT_MAX**2, ROOT_MAX**2, 0.0]])
    with pytest.raises(DomainError, match="overflows"):
        sweep_argmin(huge[1], 1.0, Q_DEFAULT, prefer_small=False)
    with pytest.raises(DomainError, match="overflows"):
        sweep_argmin_block(huge, 1.0, Q_DEFAULT)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 1000, 100_000])
@pytest.mark.parametrize("q", [math.e**2, 3.0, 1.5])
def test_penalty_vector_bytes_equal_sparsity_penalty(n, q):
    expect = np.array([sparsity_penalty(k, n, q) for k in range(n + 1)])
    assert penalty_vector.__wrapped__(n, q).tobytes() == expect.tobytes()


@pytest.mark.parametrize(
    "build",
    [
        lambda: SelectorConfig(K=math.inf, sigma=1.0),
        lambda: SelectorConfig(K=math.nan, sigma=1.0),
        lambda: SelectorConfig(K=1.0, sigma=math.inf),
        lambda: SelectorConfig(K=1.0, sigma=math.nan),
        lambda: SelectorConfig(K=1.0, sigma=1.0, q=math.inf),
        lambda: SelectorConfig(K=1.0, sigma=1.0, q=math.nan),
        lambda: active_set([1.0, 2.0], math.nan, 1.0),
        lambda: active_set([1.0, 2.0], math.inf, 1.0),
        lambda: active_set([1.0, 2.0], 1.0, math.nan),
        lambda: active_set([1.0, 2.0], 1.0, math.inf),
        lambda: active_set([1.0, 2.0], 1.0, 1.0, q=math.nan),
        lambda: active_set([1.0, 2.0], 1.0, 1.0, q=math.inf),
    ],
)
def test_non_finite_parameters_raise_domain_error(build):
    with pytest.raises(DomainError):
        build()
