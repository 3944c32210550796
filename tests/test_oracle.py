import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullselect import (
    DomainError,
    Q_DEFAULT,
    SelectionMask,
    active_set,
    active_set_path,
    has_distinct_active_set,
    path_lookup,
    sparsity_penalty,
    strong_signal_vector,
    variable_selection_path,
)

from conftest import brute_force_argmin

signed_ints = st.lists(st.integers(-9, 9).map(float), min_size=1, max_size=40)
signed_dyadics = st.lists(
    st.tuples(st.integers(-64, 64), st.integers(-4, 4)).map(lambda t: math.ldexp(t[0], t[1])),
    min_size=1,
    max_size=40,
)
# Few distinct magnitudes, so most coordinates tie.
duplicated = st.lists(st.sampled_from([0.0, 0.5, -1.0, 1.5, 2.0, -2.0]), min_size=1, max_size=40)
sigmas = st.integers(-3, 3).map(lambda j: 2.0**j) | st.floats(0.1, 10.0)


def assert_exact_at_breakpoints(theta, sigma, entries, q=Q_DEFAULT):
    """path_lookup equals the exact active_set at every a_low and one ulp below it."""
    for e in entries:
        for level in (e.a_low, math.nextafter(e.a_low, 0.0)):
            expect = active_set(theta, level, sigma, q).active
            assert path_lookup(entries, level) == expect, (list(theta), sigma, level)


class TestActiveSet:
    def test_zero_signal(self):
        res = active_set(np.zeros(6), 2.0, 1.0)
        assert res.active == SelectionMask.empty(6)
        assert res.r_squared == 0.0

    def test_single_strong_coordinate(self):
        res = active_set([10.0, 0.0, 0.0, 0.0], 1.0, 1.0)
        assert res.active == SelectionMask((1,), 4)
        assert res.r_squared == pytest.approx(2.0 + math.log(4.0), rel=1e-15)

    def test_level_zero_returns_support(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            theta = rng.normal(0, 2, n) * rng.integers(0, 2, n)
            res = active_set(theta, 0.0, 1.0)
            support = tuple(i + 1 for i in np.flatnonzero(theta != 0))
            assert res.active.indices == support

    @pytest.mark.parametrize("level", [0.5, 1.0, 4.0])
    def test_matches_brute_force(self, level):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(1, 13))
            theta = rng.uniform(-5, 5, n)
            sigma = float(rng.uniform(0.3, 2.0))
            res = active_set(theta, level, sigma)
            expect, expect_val = brute_force_argmin(
                theta**2, level * sigma**2, Q_DEFAULT, prefer_small=True
            )
            assert res.active == expect
            assert res.r_squared == pytest.approx(expect_val, rel=1e-12)

    def test_strong_block_recovered_exactly(self):
        # squared magnitudes just above level * penalty-per-coordinate pin
        # the active set to the support (brute-force checked)
        n, s, level = 8, 2, 1.0
        mag = math.sqrt(level * math.log(Q_DEFAULT * n / s) + 1e-6)
        theta = np.zeros(n)
        theta[:s] = mag
        res = active_set(theta, level, 1.0)
        expect, _ = brute_force_argmin(theta**2, level, Q_DEFAULT, prefer_small=True)
        assert res.active == expect == SelectionMask((1, 2), n)

    def test_exact_tie_prefers_smallest_index_sum(self):
        # empty set vs {1} tie exactly (probed float identity); the index-sum
        # rule keeps the empty set
        w = 1.0
        t = w * sparsity_penalty(1, 2)
        x1 = math.sqrt(t)
        assert x1**2 == t  # exact tie precondition
        res = active_set([x1, 0.0], w, 1.0)
        expect, _ = brute_force_argmin(np.array([x1**2, 0.0]), w, Q_DEFAULT, prefer_small=True)
        assert res.active == expect == SelectionMask.empty(2)

    def test_nesting_in_level_and_support(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            n = int(rng.integers(1, 14))
            theta = rng.normal(0, 2, n) * rng.integers(0, 2, n)
            levels = sorted(rng.uniform(0, 8, 2))
            lo = active_set(theta, levels[0], 1.0).active
            hi = active_set(theta, levels[1], 1.0).active
            support = set(np.flatnonzero(theta != 0) + 1)
            assert hi.as_set() <= lo.as_set() <= support

    def test_membership_bounds(self):
        # lower bound: theta_i^2 >= w*log(qn/(size+1)) forces membership;
        # necessary bound: members have theta_i^2 >= w*log(e n / size)
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 14))
            theta = rng.normal(0, 3, n)
            for level in rng.uniform(0.1, 6, 3):
                active = active_set(theta, level, 1.0).active
                size = len(active)
                inside = active.as_set()
                force = level * math.log(Q_DEFAULT * n / (size + 1))
                for i in range(1, n + 1):
                    if theta[i - 1] ** 2 >= force:
                        assert i in inside
                if size:
                    necessary = level * math.log(math.e * n / size)
                    for i in active.indices:
                        assert theta[i - 1] ** 2 >= necessary - 1e-12

    def test_depends_on_level_sigma_product(self):
        rng = np.random.default_rng(10)
        theta = rng.normal(0, 2, 20)
        for c in [0.5, 2.0, 3.0]:
            base = active_set(theta, 2.0, 1.0).active
            alt = active_set(theta, 2.0 * c**2, 1.0 / c).active
            assert base == alt

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            active_set([1.0], -1.0, 1.0)
        with pytest.raises(DomainError):
            active_set([1.0], 1.0, 0.0)
        with pytest.raises(DomainError):
            active_set([np.nan], 1.0, 1.0)


class TestVariableSelectionPath:
    def test_all_zero(self):
        path = variable_selection_path([0.0, 0.0])
        assert [m.to_json() for m in path] == [[], [1, 2]]

    def test_three_levels(self):
        path = variable_selection_path([3.0, 1.0, 0.0])
        assert [m.to_json() for m in path] == [[], [1], [1, 2], [1, 2, 3]]

    def test_distinct_squares_give_full_chain(self):
        rng = np.random.default_rng(11)
        theta = rng.permutation(np.arange(1.0, 8.0))
        path = variable_selection_path(theta)
        assert len(path) == 8
        for a, b in zip(path, path[1:]):
            assert a.as_set() < b.as_set()
            assert len(b) == len(a) + 1

    def test_support_is_last_before_full(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            theta = rng.normal(0, 2, n) * rng.integers(0, 2, n)
            path = variable_selection_path(theta)
            support = frozenset(np.flatnonzero(theta != 0) + 1)
            if len(support) == n:
                assert path[-1].as_set() == support
            elif support:
                assert path[-2].as_set() == support
            else:
                assert len(path) == 2  # empty set and [n] only

    def test_active_sets_lie_on_path(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            theta = rng.normal(0, 2, n) * rng.integers(0, 2, n)
            members = {m.as_set() for m in variable_selection_path(theta)}
            for level in rng.uniform(0, 10, 8):
                assert active_set(theta, level, 1.0).active.as_set() in members


class TestActiveSetPath:
    def test_zero_signal_single_entry(self):
        entries = active_set_path(np.zeros(5), 1.0)
        assert len(entries) == 1
        assert entries[0].a_low == 0.0 and math.isinf(entries[0].a_high)
        assert entries[0].active == SelectionMask.empty(5)

    def test_single_coordinate_breakpoint(self):
        entries = active_set_path([10.0, 0.0, 0.0, 0.0], 1.0)
        expect_break = 100.0 / sparsity_penalty(1, 4)
        assert len(entries) == 2
        assert entries[0].active == SelectionMask((1,), 4)
        assert entries[0].a_high == pytest.approx(expect_break, rel=1e-12)
        assert entries[1].a_low == entries[0].a_high
        assert entries[1].active == SelectionMask.empty(4)

    def test_structure_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(80):
            n = int(rng.integers(1, 14))
            theta = rng.normal(0, 2, n) * rng.integers(0, 2, n)
            sigma = float(rng.uniform(0.4, 2.0))
            entries = active_set_path(theta, sigma)
            assert entries[0].a_low == 0.0
            assert math.isinf(entries[-1].a_high)
            for a, b in zip(entries, entries[1:]):
                assert a.a_high == b.a_low
                assert a.a_low < a.a_high
                assert len(b.active) < len(a.active)  # strictly shrinking
            vsp = {m.as_set() for m in variable_selection_path(theta)}
            assert all(e.active.as_set() in vsp for e in entries)

    def test_agrees_with_pointwise_on_grid(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            theta = rng.normal(0, 3, n) * rng.integers(0, 2, n)
            sigma = float(rng.uniform(0.4, 2.0))
            entries = active_set_path(theta, sigma)
            top = entries[-1].a_low * 1.5 + 1.0
            for level in rng.uniform(0, top, 400):
                assert path_lookup(entries, level) == active_set(theta, level, sigma).active

    def test_exact_float_breakpoint_tie(self):
        # all-equal signals make the penalty rational (log(q) is exactly 2 in
        # floats), so the single breakpoint c^2/(2 sigma^2) and both line
        # values at it are exact: the pointwise tie rule and the interval
        # decomposition must agree right at the breakpoint
        assert sparsity_penalty(2, 2) == 4.0
        for n in (2, 5, 17):
            theta = np.full(n, 2.0)
            entries = active_set_path(theta, 1.0)
            assert len(entries) == 2
            assert entries[0].a_high == 2.0
            at = active_set(theta, 2.0, 1.0).active
            assert at == entries[1].active == SelectionMask.empty(n)
            assert path_lookup(entries, 2.0) == at
            below = math.nextafter(2.0, 0.0)
            assert path_lookup(entries, below) == active_set(theta, below, 1.0).active
            assert path_lookup(entries, below) == SelectionMask.full(n)

    def test_agrees_near_breakpoints(self):
        rng = np.random.default_rng(16)
        cases = [(rng.normal(0, 3, int(rng.integers(2, 13))), 1.0) for _ in range(40)]
        cases += [(rng.normal(0, 1, n), float(rng.uniform(0.2, 3.0))) for n in (100, 300, 500)]
        for theta, sigma in cases:
            entries = active_set_path(theta, sigma)
            assert_exact_at_breakpoints(theta, sigma, entries)
            for e in entries[1:]:
                at = e.a_low
                assert path_lookup(entries, at) == e.active
                for level in (at * (1 - 1e-9), at * (1 + 1e-9)):
                    assert path_lookup(entries, level) == active_set(theta, level, sigma).active

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(signed_ints, signed_dyadics, duplicated), sigmas)
    def test_agrees_at_breakpoints_tie_heavy(self, theta, sigma):
        assert_exact_at_breakpoints(theta, sigma, active_set_path(theta, sigma))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "theta, sigma, sets",
        [
            ([1.0, 2.0], 1e154, [(1, 2), (2,), ()]),  # sigma^2 * penalty overflows
            ([1.0, 2.0], 1e-160, [(1, 2)]),  # sigma^2 subnormal: no finite level empties it
            ([1.0, 2.0], 1e-300, [(1, 2)]),  # sigma^2 is 0
            # the crossing weight 2^-1075 is a rounding midpoint: at A = 2^-1073 the
            # weight A * sigma^2 rounds to the even 0, so a_low is one ulp higher
            ([2.0**-537], 0.5, [(1,), ()]),
        ],
    )
    def test_extreme_inputs(self, theta, sigma, sets):
        entries = active_set_path(theta, sigma)
        assert [e.active.indices for e in entries] == sets
        assert entries[0].a_low == 0.0 and math.isinf(entries[-1].a_high)
        assert_exact_at_breakpoints(theta, sigma, entries)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_square_is_domain_error(self):
        for call in (
            lambda: active_set_path([1e200, 1.0], 1.0),
            lambda: active_set([1e200, 1.0], 1.0, 1.0),
            lambda: variable_selection_path([1.0, -1e155]),
        ):
            with pytest.raises(DomainError):
                call()

    def test_falling_penalty_is_domain_error(self):
        # for q in (1, e) the float penalty k*log(q*n/k) falls beyond k = q*n/e
        theta = np.random.default_rng(18).normal(0, 1, 8)
        with pytest.raises(DomainError):
            active_set_path(theta, 1.0, q=1.5)
        # with n = 1 the penalty [0, log(1.5)] still increases
        entries = active_set_path([2.0], 1.0, q=1.5)
        assert [e.active.indices for e in entries] == [(1,), ()]
        assert_exact_at_breakpoints([2.0], 1.0, entries, q=1.5)

    def test_lookup_domain(self):
        entries = active_set_path([1.0, 0.0], 1.0)
        for level in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                path_lookup(entries, level)


class TestDistinctActiveSet:
    def test_zero_signal_always_distinct(self):
        assert has_distinct_active_set(np.zeros(4), 1.0, 0.5, 8.0)

    def test_strong_signal_distinct(self):
        theta = strong_signal_vector(20, 4, 6.0, 1.0)
        for lo in [0.0, 1.0, 3.0]:
            assert has_distinct_active_set(theta, 1.0, lo, 6.0)

    def test_breakpoint_separates(self):
        # put a breakpoint for coordinate 2 strictly between the two levels
        theta = np.array([10.0, 2.0, 0.0, 0.0])
        entries = active_set_path(theta, 1.0)
        cut = entries[1].a_low  # level where {1,2} degrades to {1}
        assert not has_distinct_active_set(theta, 1.0, cut * 0.5, cut * 1.5)

    def test_order_check(self):
        with pytest.raises(DomainError):
            has_distinct_active_set([1.0], 1.0, 2.0, 1.0)


class TestStrongSignalVector:
    def test_full_support(self):
        theta = strong_signal_vector(5, 5, 3.0, 1.0)
        expect = math.sqrt(3.0 * math.log(Q_DEFAULT) * (1 + 1e-9))
        assert np.allclose(np.abs(theta), expect, rtol=0, atol=0)

    def test_frozen_magnitude_example(self):
        theta = strong_signal_vector(8, 2, 4.0, 1.0)
        expect_sq = 4.0 * math.log(4.0 * math.e**2) * (1 + 1e-9)
        assert theta[0] ** 2 == pytest.approx(expect_sq, rel=1e-12)
        assert theta[1] ** 2 == pytest.approx(13.5451774, rel=1e-7)
        assert np.all(theta[2:] == 0)

    def test_pins_active_set_below_level(self):
        for n, s, level in [(8, 2, 4.0), (30, 7, 2.0), (12, 12, 1.0)]:
            theta = strong_signal_vector(n, s, level, 1.5)
            for frac in [0.1, 0.5, 1.0]:
                res = active_set(theta, level * frac, 1.5)
                assert res.active == SelectionMask(tuple(range(1, s + 1)), n)
            assert has_distinct_active_set(theta, 1.5, 0.0, level)

    def test_sign_patterns(self):
        alt = strong_signal_vector(6, 4, 1.0, 1.0, signs="alternating")
        assert np.all(np.sign(alt[:4]) == [1, -1, 1, -1])
        explicit = strong_signal_vector(6, 3, 1.0, 1.0, signs=[-1, -1, 1])
        assert np.all(np.sign(explicit[:3]) == [-1, -1, 1])
        rng = np.random.default_rng(17)
        random_signs = strong_signal_vector(50, 50, 1.0, 1.0, signs=rng)
        assert set(np.sign(random_signs)) == {-1.0, 1.0}
        with pytest.raises(DomainError):
            strong_signal_vector(6, 3, 1.0, 1.0, signs=[2, 1, 1])
        with pytest.raises(DomainError):
            strong_signal_vector(6, 3, 1.0, 1.0, signs="sideways")
