import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eolsec import DemandProfile, pattern
from eolsec.link import check_arrangement, fit_runs, random_fit, shuffle
from oracles import (
    Classification,
    classify,
    free_fragments,
    is_defragmented,
    placement_count,
    placements,
    removals,
    token_spans,
)


def slot_occupancy(arr, profile):
    """Independent slot-level expansion used as the oracle in these tests."""
    slots = []
    for t in arr:
        if t == 0:
            slots.append(0)
        else:
            slots.extend([t] * profile.demands[t - 1])
    return slots


def free_runs_from_slots(slots):
    runs, run = [], 0
    for s in slots:
        if s == 0:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    if run:
        runs.append(run)
    return runs


@st.composite
def profile_and_arrangement(draw):
    capacity = draw(st.integers(2, 9))
    k = draw(st.integers(1, 3))
    demands = tuple(draw(st.integers(1, capacity)) for _ in range(k))
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    tokens = []
    room = capacity
    while room > 0:
        fitting = [0] + [c for c in range(1, k + 1) if demands[c - 1] <= room]
        t = draw(st.sampled_from(fitting))
        tokens.append(t)
        room -= 1 if t == 0 else demands[t - 1]
    return profile, tuple(tokens)


class TestDemandProfile:
    def test_rejects_oversized_demand(self):
        with pytest.raises(ValueError):
            DemandProfile(3, (4,), (1.0,), (1.0,))

    def test_rejects_zero_service_rate(self):
        with pytest.raises(ValueError):
            DemandProfile(3, (2,), (1.0,), (0.0,))

    @pytest.mark.parametrize("arrival, service, message", [
        (math.nan, 1.0, "arrival rate of class 1 must be finite, got nan"),
        (math.inf, 1.0, "arrival rate of class 1 must be finite, got inf"),
        (-math.inf, 1.0, "arrival rate of class 1 must be >= 0, got -inf"),
        (1.0, math.nan, "service rate of class 1 must be finite, got nan"),
        (1.0, math.inf, "service rate of class 1 must be finite, got inf"),
    ])
    def test_rejects_non_finite_rates(self, arrival, service, message):
        with pytest.raises(ValueError) as error:
            DemandProfile(3, (2,), (arrival,), (service,))
        assert str(error.value) == message

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DemandProfile(5, (2, 3), (1.0,), (1.0, 1.0))

    def test_uniform_load_split(self):
        p = DemandProfile.with_uniform_load(20, (4, 6, 8), 18.0)
        load = sum(l * d / m for l, d, m in zip(p.arrival_rates, p.demands, p.service_rates))
        assert load == pytest.approx(18.0)
        assert len(set(p.arrival_rates)) == 1


class TestPattern:
    def test_empty_link(self, profile7):
        assert pattern((0,) * profile7.capacity, profile7) == (0, 0)

    def test_single_class1(self, profile7):
        arr = (1, 0, 0, 0, 0)
        assert pattern(arr, profile7) == (1, 0)

    def test_full_link(self, profile7):
        assert pattern((1, 2), profile7) == (1, 1)


class TestFreeFragments:
    def test_all_free(self, profile7):
        assert free_fragments((0,) * profile7.capacity) == [7]

    def test_conn_at_3_5(self, profile7):
        # class 1 on slots 3..5 leaves slots {1,2} and {6,7} free
        arr = (0, 0, 1, 0, 0)
        assert free_fragments(arr) == [2, 2]
        assert free_runs_from_slots(slot_occupancy(arr, profile7)) == [2, 2]

    def test_conn_at_2_4(self, profile7):
        arr = (0, 1, 0, 0, 0)
        assert free_fragments(arr) == [1, 3]
        assert free_runs_from_slots(slot_occupancy(arr, profile7)) == [1, 3]


class TestClassify:
    def test_fragmented_for_both_classes(self, profile7):
        arr = (0, 0, 1, 0, 0)  # class 1 on slots 3..5
        assert classify(arr, 2, profile7) is Classification.FRAG_BLOCKED
        assert classify(arr, 1, profile7) is Classification.FRAG_BLOCKED

    def test_accept(self, profile7):
        arr = (1, 0, 0, 0, 0)  # slots 4..7 free
        assert classify(arr, 2, profile7) is Classification.ACCEPT

    def test_resource_blocked(self, profile7):
        arr = (1, 1, 0)  # one free slot
        assert classify(arr, 1, profile7) is Classification.RESOURCE_BLOCKED


class TestPlacements:
    def test_empty_link_counts(self, profile7):
        empty = (0,) * profile7.capacity
        assert len(placements(empty, 1, profile7)) == 5
        assert len(placements(empty, 2, profile7)) == 4

    def test_single_position(self, profile7):
        arr = (1, 0, 0, 0, 0)
        targets = placements(arr, 2, profile7)
        assert targets == [(1, 2)]

    def test_rejects_blocked(self, profile7):
        arr = (0, 0, 1, 0, 0)
        with pytest.raises(ValueError):
            placements(arr, 2, profile7)


class TestRemovals:
    def test_single_connection(self, profile7):
        arr = (1, 0, 0, 0, 0)
        assert removals(arr, 1, profile7) == [((0,) * profile7.capacity, 1)]

    def test_two_distinct_targets(self, profile7):
        arr = (1, 1, 0)
        result = removals(arr, 1, profile7)
        assert len(result) == 2
        assert all(mult == 1 for _, mult in result)

    def test_full_link_class2(self, profile7):
        arr = (1, 2)
        assert removals(arr, 2, profile7) == [((1, 0, 0, 0, 0), 1)]

    def test_rejects_absent_class(self, profile7):
        with pytest.raises(ValueError):
            removals((0,) * profile7.capacity, 1, profile7)


class TestIsDefragmented:
    def test_single_block(self, profile7):
        assert is_defragmented((1, 0, 0, 0, 0))

    def test_split_free_space(self, profile7):
        assert not is_defragmented((0, 0, 1, 0, 0))

    def test_full_link(self, profile7):
        assert is_defragmented((1, 2))


class TestConnectionSpans:
    def test_spans(self, profile7):
        arr = (0, 1, 0, 2)
        assert token_spans(arr, profile7.demands) == [(1, 2, 4), (2, 6, 9)]


@settings(max_examples=200, deadline=None)
@given(profile_and_arrangement())
def test_classification_matches_slot_oracle(pa):
    profile, arr = pa
    slots = slot_occupancy(arr, profile)
    runs = free_runs_from_slots(slots)
    total_free = sum(runs)
    largest = max(runs, default=0)
    for k in range(1, profile.num_classes + 1):
        need = profile.demands[k - 1]
        got = classify(arr, k, profile)
        if largest >= need:
            assert got is Classification.ACCEPT
        elif total_free >= need:
            assert got is Classification.FRAG_BLOCKED
        else:
            assert got is Classification.RESOURCE_BLOCKED


@settings(max_examples=200, deadline=None)
@given(profile_and_arrangement())
def test_free_fragments_match_slot_oracle(pa):
    profile, arr = pa
    assert free_fragments(arr) == free_runs_from_slots(slot_occupancy(arr, profile))


@settings(max_examples=200, deadline=None)
@given(profile_and_arrangement())
def test_placements_shift_pattern_and_round_trip(pa):
    profile, arr = pa
    base = pattern(arr, profile)
    for k in range(1, profile.num_classes + 1):
        if classify(arr, k, profile) is not Classification.ACCEPT:
            continue
        targets = placements(arr, k, profile)
        assert len(targets) == placement_count(arr, k, profile)
        assert len(set(targets)) == len(targets)
        for target in targets:
            check_arrangement(target, profile)
            shifted = pattern(target, profile)
            assert shifted[k - 1] == base[k - 1] + 1
            assert all(
                shifted[c] == base[c] for c in range(profile.num_classes) if c != k - 1
            )
            # removing the freshly placed connection reaches the origin again
            assert arr in [t for t, _ in removals(target, k, profile)]


@settings(max_examples=200, deadline=None)
@given(profile_and_arrangement())
def test_removals_multiplicity_and_pattern(pa):
    profile, arr = pa
    base = pattern(arr, profile)
    for k in range(1, profile.num_classes + 1):
        if base[k - 1] == 0:
            continue
        result = removals(arr, k, profile)
        assert sum(mult for _, mult in result) == base[k - 1]
        for target, _ in result:
            check_arrangement(target, profile)
            shifted = pattern(target, profile)
            assert shifted[k - 1] == base[k - 1] - 1


@settings(max_examples=200, deadline=None)
@given(profile_and_arrangement())
def test_defragmented_states_never_frag_block(pa):
    profile, arr = pa
    if is_defragmented(arr):
        for k in range(1, profile.num_classes + 1):
            assert classify(arr, k, profile) is not Classification.FRAG_BLOCKED


@settings(max_examples=100, deadline=None)
@given(profile_and_arrangement())
def test_empty_link_placement_count(pa):
    profile, _ = pa
    empty = (0,) * profile.capacity
    for k in range(1, profile.num_classes + 1):
        assert placement_count(empty, k, profile) == profile.capacity - profile.demands[k - 1] + 1


@settings(max_examples=200, deadline=None)
@given(profile_and_arrangement())
def test_widths_always_sum_to_capacity(pa):
    profile, arr = pa
    check_arrangement(arr, profile)  # raises unless the widths sum to capacity


# tokens up to 300, past what one byte holds; class k has demand 1 + (k - 1) % 3
WIDE = (
    DemandProfile(12, tuple(1 + k % 3 for k in range(300)), (1.0,) * 300, (1.0,) * 300),
    (0, 300, 0, 0, 256, 0, 0, 0, 1, 0),
)


@settings(max_examples=200, deadline=None)
@given(profile_and_arrangement())
@example(WIDE)
def test_random_fit_walks_placements_in_slot_order(pa):
    profile, arr = pa
    tokens = arr
    slots = slot_occupancy(arr, profile)
    for k in range(1, profile.num_classes + 1):
        need = profile.demands[k - 1]
        m = sum(r - need + 1 for r in free_runs_from_slots(slots) if r >= need)
        # the i-th draw lands in the middle of the i-th of m equal bins
        draws = [(i + 0.5) / m for i in range(m)]
        calls = []

        def uniform():
            calls.append(None)
            return draws[len(calls) - 1]

        if m == 0:
            assert random_fit(tokens, need, uniform) is None
            assert calls == []
            continue
        picked = []
        for i in range(m):
            pos = random_fit(tokens, need, uniform)
            assert len(calls) == i + 1
            first_slot = sum(1 if t == 0 else profile.demands[t - 1] for t in tokens[:pos])
            assert slots[first_slot:first_slot + need] == [0] * need
            picked.append(tokens[:pos] + (k,) + tokens[pos + need:])
        assert picked == placements(arr, k, profile)


def test_fit_runs_reads_any_token_sequence():
    # a list, a tuple, bytes, an int64 row (eight bytes a token) and tokens
    # past 255 give the same runs
    small = [0, 1, 0, 0, 2, 0, 0, 0]
    for tokens in (small, tuple(small), bytes(small), np.array(small), [t and t + 298 for t in small]):
        assert fit_runs(tokens, 1) == [(0, 1), (2, 2), (5, 3)]
        assert fit_runs(tokens, 2) == [(2, 1), (5, 2)]
        assert fit_runs(tokens, 4) == []
    assert fit_runs([], 1) == []


def test_shuffle_replays_random_shuffle():
    # same permutation and same generator state afterwards, so the next draw agrees
    for seed in range(40):
        for n in range(61):
            reference, inlined = random.Random(seed), random.Random(seed)
            expected, got = list(range(n)), list(range(n))
            reference.shuffle(expected)
            shuffle(got, inlined.getrandbits)
            assert got == expected
            assert inlined.random() == reference.random()
