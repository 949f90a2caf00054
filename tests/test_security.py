import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eolsec import (
    DemandProfile,
    ModelVariant,
    NonIntegerRpRatio,
    assemble_generator,
    attack_success_probability,
    build_state_space,
    count_states,
    observable_fraction,
    pattern_size,
    per_state_attack_success,
    solve_stationary,
)
from eolsec.link import pattern, token_spans
from eolsec.security import WindowSurvival, _outside_split_prefix
from oracles import (
    ObservationWindow,
    _outside_split_count,
    count_matching_rearrangements,
    enumerated_matching_count,
    group_table_attack_success,
    inside_pattern,
)


def brute_force_matches(arr, window, profile):
    """Oracle: walk every ordering of the token multiset via itertools."""
    n_in, _ = inside_pattern(arr, window, profile)
    seen = set(permutations(arr))
    count = 0
    for tokens in seen:
        spans = token_spans(tokens, profile.demands)
        straddle = any(
            s < window.start <= e or s <= window.last < e for _, s, e in spans
        )
        if straddle:
            continue
        inside = [0] * profile.num_classes
        for k, s, e in spans:
            if s >= window.start and e <= window.last:
                inside[k - 1] += 1
        if tuple(inside) == n_in:
            count += 1
    return count, len(seen)


class TestTotalRearrangements:
    def test_empty_pattern(self, profile7):
        assert pattern_size((0, 0), profile7) == 1

    def test_full_link_pair(self, profile7, space7):
        assert pattern_size((1, 1), profile7) == 2
        assert pattern_size((1, 1), profile7) == len(space7.pattern_groups[(1, 1)])

    def test_three_class_instance(self, profile14):
        # 5 free slots + 3 distinct connections: 8!/5! orderings
        assert pattern_size((1, 1, 1), profile14) == 336

    def test_matches_enumeration(self, profile14):
        seen = set(permutations((0, 0, 0, 0, 0, 1, 2, 3)))
        assert pattern_size((1, 1, 1), profile14) == len(seen)

    def test_exact_for_large_counts(self):
        profile = DemandProfile(60, (1,), (1.0,), (1.0,))
        assert pattern_size((30,), profile) == math.comb(60, 30)


class TestInsidePattern:
    def test_window_fixture(self, profile14):
        arr = (1, 0, 0, 0, 2, 0, 3, 0)
        n_in, straddle = inside_pattern(arr, ObservationWindow(6, 4), profile14)
        assert n_in == (0, 1, 0)
        assert not straddle

    def test_full_link_window(self, profile14):
        arr = (1, 0, 0, 0, 2, 0, 3, 0)
        window = ObservationWindow(1, 14)
        n_in, straddle = inside_pattern(arr, window, profile14)
        assert n_in == pattern(arr, profile14)
        assert not straddle

    def test_straddling_connection(self, profile7):
        arr = (2, 1)  # 4-slot then 3-slot connection
        n_in, straddle = inside_pattern(arr, ObservationWindow(1, 3), profile7)
        assert n_in == (0, 0)
        assert straddle

    def test_rejects_out_of_range_window(self, profile7):
        with pytest.raises(ValueError):
            inside_pattern((0,) * profile7.capacity, ObservationWindow(6, 3), profile7)


class TestCountMatching:
    def test_window_fixture_both_methods(self, profile14):
        arr = (1, 0, 0, 0, 2, 0, 3, 0)
        window = ObservationWindow(6, 4)
        assert count_matching_rearrangements(arr, window, profile14) == 32
        assert enumerated_matching_count(arr, window, profile14) == 32

    def test_window_fixture_factors(self, profile14):
        # inside: one 3-slot connection and one free slot; outside: multiset
        # {1,1,1,1,2,4} split 5|5 two ways with 4*2 orderings each
        window_profile = DemandProfile(4, (2, 3, 4), (1.0,) * 3, (1.0,) * 3)
        assert pattern_size((0, 1, 0), window_profile) == 2
        assert _outside_split_count((1, 0, 1), 4, 5, (2, 3, 4)) == 16

    def test_full_window_counts_whole_group(self, profile7, space7):
        window = ObservationWindow(1, 7)
        for idx, arr in enumerate(space7.arrangements):
            expected = len(space7.pattern_groups[space7.state_patterns[idx]])
            assert count_matching_rearrangements(arr, window, profile7) == expected

    def test_pinned_original_only(self, profile7):
        arr = (1, 2)  # 3-slot on slots 1..3, 4-slot on 4..7
        window = ObservationWindow(1, 3)
        assert count_matching_rearrangements(arr, window, profile7) == 1

    def test_infeasible_inside_needs_more_frees_than_exist(self, profile7):
        arr = (2, 1)  # full link, no free slot
        # a 3-wide window over a full link can never be straddle-free near the seam
        window = ObservationWindow(3, 3)
        n_in, straddle = inside_pattern(arr, window, profile7)
        assert straddle and n_in == (0, 0)
        assert count_matching_rearrangements(arr, window, profile7) == 0
        assert enumerated_matching_count(arr, window, profile7) == 0

    def test_methods_agree_across_worked_example(self, profile7, space7):
        for width in range(1, 8):
            for start in range(1, 7 - width + 2):
                window = ObservationWindow(start, width)
                for arr in space7.arrangements:
                    a = count_matching_rearrangements(arr, window, profile7)
                    b = enumerated_matching_count(arr, window, profile7)
                    assert a == b

    def test_count_never_exceeds_group_size(self, profile7, space7):
        for width in (2, 4, 6):
            for start in range(1, 7 - width + 2):
                window = ObservationWindow(start, width)
                for idx, arr in enumerate(space7.arrangements):
                    count = count_matching_rearrangements(arr, window, profile7)
                    r_n = pattern_size(space7.state_patterns[idx], profile7)
                    assert 0 <= count <= r_n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partition_matches_brute_force(data):
    capacity = data.draw(st.integers(4, 9))
    k = data.draw(st.integers(1, 3))
    demands = tuple(data.draw(st.integers(1, min(4, capacity))) for _ in range(k))
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    tokens = []
    room = capacity
    while room > 0:
        fitting = [0] + [c for c in range(1, k + 1) if demands[c - 1] <= room]
        t = data.draw(st.sampled_from(fitting))
        tokens.append(t)
        room -= 1 if t == 0 else demands[t - 1]
    arr = tuple(tokens)
    width = data.draw(st.integers(1, capacity))
    start = data.draw(st.integers(1, capacity - width + 1))
    window = ObservationWindow(start, width)
    expected, _ = brute_force_matches(arr, window, profile)
    assert count_matching_rearrangements(arr, window, profile) == expected
    assert enumerated_matching_count(arr, window, profile) == expected


class TestWindowSurvival:
    @pytest.mark.parametrize("fixture", ["profile7", "profile14"])
    def test_matches_group_tables(self, fixture, request):
        profile = request.getfixturevalue(fixture)
        space = build_state_space(profile)
        for width in range(1, profile.capacity + 1):
            expected = group_table_attack_success(space, width)
            got = per_state_attack_success(space, width)
            assert np.abs(got - expected).max() <= 1e-12, width

    def test_prefix_sums_the_split_counts(self):
        demands = (2, 3, 4)
        n_out, frees_out = (2, 1, 1), 3
        prefix = _outside_split_prefix(n_out, frees_out, demands)
        width = frees_out + 2 * 2 + 3 + 4
        assert len(prefix) == width + 2
        for cap_left in range(width + 1):
            step = prefix[cap_left + 1] - prefix[cap_left]
            assert step == _outside_split_count(n_out, frees_out, cap_left, demands)

    def test_empty_link_always_survives(self, profile14):
        kernel = WindowSurvival(profile14)
        for width in (1, 5, 14):
            assert kernel.expected([], (0, 0, 0), width) == 1.0

    def test_one_kernel_serves_every_width(self, profile7):
        space = build_state_space(profile7)
        per_state_attack_success(space, 2)
        kernel = space.survival_memo.kernel
        prefixes = len(kernel._prefix)
        per_state_attack_success(space, 3)
        assert space.survival_memo.kernel is kernel
        assert len(kernel._prefix) >= prefixes > 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_window_survival_matches_group_tables(data):
    capacity = data.draw(st.integers(4, 10))
    k = data.draw(st.integers(1, 3))
    demands = tuple(data.draw(st.integers(1, min(4, capacity))) for _ in range(k))
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    assume(count_states(profile) <= 3000)
    space = build_state_space(profile)
    width = data.draw(st.integers(1, capacity))
    expected = group_table_attack_success(space, width)
    assert np.abs(per_state_attack_success(space, width) - expected).max() <= 1e-12


class TestAttackProbability:
    def test_full_width_is_certain(self, space7, profile7):
        rm = assemble_generator(space7, profile7, ModelVariant.randomized(1.0, 10.0))
        dist = solve_stationary(rm)
        assert attack_success_probability(dist.pi, space7, 7) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_on_full_link_state(self, space7, profile7):
        # pi concentrated on one full-link state: compare to a direct
        # enumeration over both arrangements and all window positions
        members = space7.pattern_groups[(1, 1)]
        target = members[0]
        pi = np.zeros(space7.num_regular + space7.num_raas)
        pi[target] = 1.0
        width = 3
        arr = space7.arrangements[target]
        total = 0
        positions = 7 - width + 1
        for start in range(1, positions + 1):
            total += brute_force_matches(arr, ObservationWindow(start, width), profile7)[0]
        expected = total / (2 * positions)  # group size is 2
        assert attack_success_probability(pi, space7, width) == pytest.approx(expected, abs=1e-12)

    def test_per_state_values_are_probabilities(self, space7):
        for width in (2, 5, 7):
            values = per_state_attack_success(space7, width)
            assert values.min() >= 0.0
            assert values.max() <= 1.0

    def test_requires_occupied_mass(self, space7):
        pi = np.zeros(space7.num_regular)
        pi[0] = 1.0
        with pytest.raises(ValueError):
            attack_success_probability(pi, space7, 3)


class TestObservableFraction:
    def test_certain_attack_sees_everything(self):
        _, frac = observable_fraction(1.0, randomization_rate=5.0, service_rate=1.0)
        assert frac == pytest.approx(1.0)

    def test_zero_attack_sees_first_segment_only(self):
        _, frac = observable_fraction(0.0, randomization_rate=4.0, service_rate=1.0)
        assert frac == pytest.approx(1.0 / 4.0)

    def test_single_round_sees_everything(self):
        for p in (0.0, 0.3, 0.99, 1.0):
            _, frac = observable_fraction(p, randomization_rate=2.0, service_rate=2.0)
            assert frac == pytest.approx(1.0)

    def test_amount_scales_with_data_rate(self):
        amount1, frac1 = observable_fraction(0.5, 4.0, 1.0, data_rate=1.0)
        amount2, frac2 = observable_fraction(0.5, 4.0, 1.0, data_rate=7.0)
        assert amount2 == pytest.approx(7.0 * amount1)
        assert frac2 == pytest.approx(frac1)

    def test_geometric_sum_value(self):
        # four rounds at p=1/2: (1/4) * (1 - 1/16) / (1/2) = 15/32
        _, frac = observable_fraction(0.5, randomization_rate=4.0, service_rate=1.0)
        assert frac == pytest.approx((1 - 0.5**4) / (4 * 0.5))

    def test_rejects_non_integer_ratio(self):
        with pytest.raises(NonIntegerRpRatio):
            observable_fraction(0.5, randomization_rate=2.5, service_rate=1.0)

    def test_rejects_zero_randomization_rate(self):
        with pytest.raises(ValueError):
            observable_fraction(0.5, randomization_rate=0.0, service_rate=1.0)


def test_security_columns_by_width(space7, profile7):
    variant = ModelVariant.randomized(2.0, 10.0)
    rm = assemble_generator(space7, profile7, variant)
    dist = solve_stationary(rm)
    probs = [attack_success_probability(dist.pi, space7, w) for w in (3, 5, 7)]
    assert probs == sorted(probs)  # wider windows are easier to attack
    _, fraction = observable_fraction(probs[-1], 2.0, 1.0)
    assert fraction == pytest.approx(1.0)
