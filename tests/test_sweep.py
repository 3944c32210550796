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
from hullselect._sweep import exact_minimizers, sweep_argmin


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


small_ints = st.lists(st.integers(0, 9).map(float), min_size=1, max_size=60)
dyadics = st.lists(
    st.tuples(st.integers(0, 64), st.integers(-4, 4)).map(lambda t: math.ldexp(t[0], t[1])),
    min_size=1,
    max_size=60,
)
# Few distinct values, so most scores are duplicated.
duplicated = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.25, 7.0, 30.0]), min_size=1, max_size=60)
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


def test_level_zero_returns_support_without_rational_work():
    v = np.zeros(1000)
    v[[3, 500, 999]] = [4.0, 1e-300, 7.0]

    def no_exact(cands):
        raise AssertionError("zero-bound candidates must compare as floats")

    k, order, value = sweep_argmin(v, 0.0, Q_DEFAULT, prefer_small=True)
    assert (k, sorted(order[:k].tolist()), value) == (3, [3, 500, 999], 0.0)
    suffix = np.cumsum(v[order][::-1])[::-1]
    approx = np.append(suffix, 0.0)
    err = approx * 2.0**-40
    assert exact_minimizers(approx, err, no_exact).tolist() == list(range(3, 1001))


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
