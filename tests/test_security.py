import math
import random
from fractions import Fraction
from itertools import permutations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eolsec import (
    DemandProfile,
    ModelVariant,
    NonIntegerRpRatio,
    SimConfig,
    assemble_generator,
    attack_success_probability,
    build_state_space,
    count_states,
    observable_fraction,
    pattern_size,
    per_state_attack_success,
    run_simulation,
    solve_stationary,
)
from eolsec import security
from eolsec.link import pattern, shuffle
from eolsec.security import WindowSurvival, _outside_splits
from oracles import (
    ObservationWindow,
    ScalarWindowSurvival,
    _outside_split_count,
    arrangements,
    count_matching_rearrangements,
    enumerated_matching_count,
    group_table_attack_success,
    inside_pattern,
    lump,
    scalar_attack_success,
    state_attack_success,
    token_spans,
)


def score_groups(kernel, groups, width):
    """The scorer's values for (pattern, token rows) groups, row by row in group order."""
    return kernel.scores(kernel.chunks(groups), (width,))[width]


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
        for arr in arrangements(space7):
            expected = len(space7.pattern_groups[pattern(arr, profile7)])
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
                for arr in arrangements(space7):
                    a = count_matching_rearrangements(arr, window, profile7)
                    b = enumerated_matching_count(arr, window, profile7)
                    assert a == b

    def test_count_never_exceeds_group_size(self, profile7, space7):
        for width in (2, 4, 6):
            for start in range(1, 7 - width + 2):
                window = ObservationWindow(start, width)
                for arr in arrangements(space7):
                    count = count_matching_rearrangements(arr, window, profile7)
                    r_n = pattern_size(pattern(arr, profile7), profile7)
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
            got = state_attack_success(space, width)
            assert np.abs(got - expected).max() <= 1e-12, width

    def test_outside_splits_are_the_split_counts(self):
        demands = (2, 3, 4)
        n_out, frees_out = (2, 1, 1), 3
        counts = _outside_splits(n_out, frees_out, demands)
        width = frees_out + 2 * 2 + 3 + 4
        assert len(counts) == width + 1
        for cap_left in range(width + 1):
            assert counts[cap_left] == _outside_split_count(n_out, frees_out, cap_left, demands)

    def test_empty_link_always_survives(self, profile14):
        kernel = WindowSurvival(profile14)
        for width in (1, 5, 14):
            assert score_groups(kernel, [((0, 0, 0), np.zeros((2, 14), np.int8))], width).tolist() == [1.0, 1.0]

    def test_one_kernel_serves_every_width(self, profile7):
        space = build_state_space(profile7)
        per_state_attack_success(space, 2)
        kernel = space.survival[0]
        runs = kernel._runs[2]
        codes = runs.codes.copy()
        per_state_attack_success(space, 3)
        assert space.survival[0] is kernel
        assert set(kernel._runs) == {2, 3} and len(codes) > 0
        # the first width's runs are kept, not rebuilt
        assert kernel._runs[2] is runs
        assert np.array_equal(runs.codes, codes)

    @pytest.mark.parametrize("capacity, demands, widths", [
        (24, (4, 6, 8), (10, 15, 20)),
        (14, (2, 3, 4), (1, 3, 7, 14)),
    ])
    def test_whole_space_equals_the_scalar_kernel(self, capacity, demands, widths):
        space = build_state_space(DemandProfile.with_uniform_load(capacity, demands, 1.0))
        for width in widths:
            assert np.array_equal(state_attack_success(space, width), scalar_attack_success(space, width))

    def test_cached_scores_are_read_only(self, profile7):
        space = build_state_space(profile7)
        scores = per_state_attack_success(space, 3)
        with pytest.raises(ValueError):
            scores[0] = 0.5
        assert per_state_attack_success(space, 3) is scores

    def test_denominator_must_be_exact_in_float64(self):
        # Past 2**53 arrangements x positions the scorer divides Python ints.
        # (8, 4, 3) has 731,517,998,211,000 arrangements on 60 slots.
        profile = DemandProfile.with_uniform_load(60, (2, 3, 4), 30.0)
        pat = (8, 4, 3)
        assert pattern_size(pat, profile) * 31 >= 2**53
        rng = random.Random(3)
        rows = []
        for _ in range(5):
            tokens = [0] * 20 + [1] * 8 + [2] * 4 + [3] * 3
            shuffle(tokens, rng.getrandbits)
            rows.append(tokens)
        oracle = ScalarWindowSurvival(profile)
        for width in (10, 30, 60):
            got = score_groups(WindowSurvival(profile), [(pat, np.array(rows, np.int8))], width)
            assert got.tolist() == [oracle.expected(token_spans(row, profile.demands), pat, width) for row in rows]
        # the simulator on that link gives the floats it gave when it scored
        # each randomization with the scalar kernel
        result = run_simulation(SimConfig(
            profile=profile, variant=ModelVariant.randomized_defrag(5.0, 1000.0), arrivals=5000,
            warmup=10.0, replications=2, seed=1, window_widths=(10, 30, 60),
        ))
        means = {w: e.mean for w, e in result.attack_success.items()}
        assert means == {10: 0.07860966367301195, 30: 0.031700200259399666, 60: 1.0}

    def test_inexact_pattern_scores_exactly(self, profile14, monkeypatch):
        # the largest (2,3,4) pattern at C=14 has 504 arrangements, so the
        # first bound sends its chunks to Python ints at width 1 only, and
        # the second sends every chunk there
        for bound in (504 * 14, 1):
            monkeypatch.setattr(security, "_FLOAT_EXACT", bound)
            space = build_state_space(profile14)
            for width in (1, 2, 7, 14):
                assert np.array_equal(state_attack_success(space, width), scalar_attack_success(space, width))


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
    assert np.abs(state_attack_success(space, width) - expected).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_whole_space_scores_equal_the_scalar_kernel(data):
    # unsorted demands with repeats: the mixed-radix place of a class
    # depends on its index
    capacity = data.draw(st.integers(1, 14))
    k = data.draw(st.integers(1, 3))
    demands = tuple(data.draw(st.integers(1, capacity)) for _ in range(k))
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    assume(count_states(profile) <= 2000)
    # small chunks split the space the way a large one is split
    with patch.object(security, "_CHUNK_CELLS", data.draw(st.integers(1, 20_000))):
        space = build_state_space(profile)
        per_state_attack_success(space, 1)
    for width in range(1, capacity + 1):
        assert np.array_equal(state_attack_success(space, width), scalar_attack_success(space, width))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_window_survival_is_exact_at_scale(data):
    # links up to the C=100 benchmark link; a width-1 class has the largest
    # mixed radix of the kernel's inside key
    capacity = data.draw(st.integers(20, 100))
    others = data.draw(st.lists(st.integers(2, 15), max_size=2))
    demands = tuple(data.draw(st.permutations([1, *others])))
    k = len(demands)
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    widths = sorted({1, capacity, *data.draw(st.lists(st.integers(1, capacity), max_size=2))})
    shared = WindowSurvival(profile)
    for _ in range(2):
        # at most 7 connections keep the oracle's outside-split product small
        tokens, room = [], capacity
        for _ in range(data.draw(st.integers(0, 7))):
            c = data.draw(st.integers(1, k))
            if demands[c - 1] <= room:
                tokens.append(c)
                room -= demands[c - 1]
        arr = tuple(data.draw(st.permutations(tokens + [0] * room)))
        pat = pattern(arr, profile)
        group = [(pat, np.array([arr], np.int8))]
        for width in widths:
            positions = capacity - width + 1
            matches = sum(
                count_matching_rearrangements(arr, ObservationWindow(s, width), profile)
                for s in range(1, positions + 1)
            )
            exact = float(Fraction(matches, pattern_size(pat, profile) * positions))
            assert score_groups(WindowSurvival(profile), group, width).tolist() == [exact]
            # a kernel already used on other patterns and widths agrees
            assert score_groups(shared, group, width).tolist() == [exact]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partial_groups_score_as_their_states(data):
    # A batch of the simulator holds some rows of each pattern, repeated and
    # in event order; its scores must equal those of the states in the whole
    # space, also when earlier batches left runs in the kernel.
    capacity = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 3))
    demands = tuple(data.draw(st.integers(1, capacity)) for _ in range(k))
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    assume(count_states(profile) <= 2000)
    space = build_state_space(profile)
    states = [(pat, row) for pat, block in zip(space.pattern_groups, space.blocks) for row in block]
    kernel = WindowSurvival(profile)
    with patch.object(security, "_CHUNK_CELLS", data.draw(st.integers(1, 20_000))):
        for _ in range(4):
            # a batch may meet a width for the first time after its patterns
            widths = data.draw(st.lists(st.integers(1, capacity), min_size=1, max_size=2))
            picks = data.draw(st.lists(st.integers(0, len(states) - 1), min_size=1, max_size=40))
            members = {}
            for i in picks:
                members.setdefault(states[i][0], []).append(i)
            groups = [(pat, np.array([states[i][1] for i in rows])) for pat, rows in members.items()]
            order = [i for rows in members.values() for i in rows]
            for width in widths:
                expected = state_attack_success(space, width)[order]
                assert np.array_equal(score_groups(kernel, groups, width), expected)


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
        pi = lump(space7, pi)
        width = 3
        arr = arrangements(space7)[target]
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
        pi = np.zeros(space7.num_mirror_classes)
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


@pytest.mark.parametrize("load", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("variant", [
    ModelVariant.randomized(1.0, 10.0),
    ModelVariant.randomized_defrag(5.0, 100.0),
], ids=["randomized", "randomized-defrag"])
def test_attack_success_is_a_probability(load, variant):
    profile = DemandProfile.with_uniform_load(9, (2, 3), load)
    space = build_state_space(profile)
    pi = solve_stationary(assemble_generator(space, profile, variant)).pi
    probs = [attack_success_probability(pi, space, w) for w in range(1, 10)]
    assert probs[-1] == 1.0  # a window over the whole link sees every connection
    assert all(0.0 <= p <= 1.0 for p in probs)
