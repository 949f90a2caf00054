import io
import math

import pytest

from eolsec import (
    DemandProfile,
    SpaceOptions,
    StateBudgetExceeded,
    build_state_space,
    count_states,
    dump_states,
    pattern_size,
)
from eolsec.statespace import feasible_patterns


class TestWorkedExample:
    def test_regular_state_count(self, space7):
        assert space7.num_regular == 15

    def test_reconfig_state_counts(self, space7):
        assert space7.num_raas == 4
        assert space7.num_daas == 2

    def test_group_sizes(self, space7):
        sizes = {p: len(m) for p, m in space7.pattern_groups.items()}
        assert sizes == {(0, 0): 1, (1, 0): 5, (0, 1): 4, (2, 0): 3, (1, 1): 2}

    def test_frag_blocked_sets(self, space7):
        assert len(space7.frag_blocked[0]) == 3
        assert len(space7.frag_blocked[1]) == 3
        shared = space7.frag_blocked[0] & space7.frag_blocked[1]
        assert len(shared) == 1
        # the shared state is the centered 3-slot connection
        assert space7.arrangements[next(iter(shared))] == (0, 0, 1, 0, 0)

    def test_defrag_targets(self, space7):
        assert [len(t) for t in space7.defrag_targets] == [2, 2]
        for targets, pat in zip(space7.defrag_targets, space7.daas_patterns):
            assert set(targets) <= set(space7.pattern_groups[pat])

    def test_gamma_of(self, space7):
        assert len(space7.pattern_groups[(1, 1)]) == 2
        assert space7.pattern_groups[(0, 0)] == (0,)
        assert len(space7.pattern_groups[(2, 0)]) == 3
        assert space7.pattern_groups.get((9, 9), ()) == ()

    def test_empty_state_is_index_zero(self, space7):
        assert space7.arrangements[0] == (0,) * space7.profile.capacity


class TestCanonicalOrder:
    def test_patterns_then_tokens_ascending(self, space7):
        keys = [(space7.state_patterns[i], space7.arrangements[i]) for i in range(space7.num_regular)]
        assert keys == sorted(keys)

    def test_states_pairwise_distinct(self, space7):
        assert len(set(space7.arrangements)) == space7.num_regular


def multiset_permutation_count(pat, profile):
    """Closed-form count, recomputed independently of the library."""
    frees = profile.capacity - sum(n * d for n, d in zip(pat, profile.demands))
    total = math.factorial(frees + sum(pat)) // math.factorial(frees)
    for n in pat:
        total //= math.factorial(n)
    return total


@pytest.mark.parametrize(
    "capacity,demands",
    [(7, (3, 4)), (6, (2, 3)), (9, (2, 3, 4)), (5, (1, 5)), (4, (2, 2))],
)
def test_group_sizes_match_closed_form(capacity, demands):
    k = len(demands)
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    space = build_state_space(profile)
    total = 0
    for pat, members in space.pattern_groups.items():
        assert len(members) == multiset_permutation_count(pat, profile)
        assert len(members) == pattern_size(pat, profile)
        total += len(members)
    assert total == space.num_regular == count_states(profile)


@pytest.mark.parametrize(
    "capacity,demands",
    [(7, (3, 4)), (9, (2, 3, 4)), (6, (2, 3))],
)
def test_defrag_target_counts_match_closed_form(capacity, demands):
    # single-free-block arrangements: orderings of the connections times the
    # free-block position; with a full link every arrangement qualifies
    k = len(demands)
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    space = build_state_space(profile)
    for v, pat in enumerate(space.daas_patterns):
        frees = capacity - sum(n * d for n, d in zip(pat, demands))
        conn_orders = math.factorial(sum(pat))
        for n in pat:
            conn_orders //= math.factorial(n)
        if frees >= 1:
            expected = conn_orders * (sum(pat) + 1)
        else:
            expected = len(space.pattern_groups[pat])
        assert len(space.defrag_targets[v]) == expected


@pytest.mark.parametrize("capacity,demands", [(7, (3, 4)), (9, (2, 3, 4))])
def test_blocking_sets_disjoint(capacity, demands):
    k = len(demands)
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    space = build_state_space(profile)
    for c in range(k):
        assert not (space.frag_blocked[c] & space.resource_blocked[c])


def test_randomize_empty_flag(profile7):
    base = build_state_space(profile7)
    with_empty = build_state_space(profile7, SpaceOptions(randomize_empty=True))
    assert with_empty.num_raas == base.num_raas + 1
    assert (0, 0) in with_empty.raas_patterns
    assert (0, 0) not in base.raas_patterns


def test_state_budget_enforced(profile7):
    with pytest.raises(StateBudgetExceeded) as err:
        build_state_space(profile7, SpaceOptions(state_budget=10))
    assert err.value.predicted_states == 15


def test_budget_checked_before_enumeration():
    big = DemandProfile(100, (5, 10, 15), (1.0,) * 3, (1.0,) * 3)
    with pytest.raises(StateBudgetExceeded):
        build_state_space(big)  # finishes fast because nothing is enumerated


def test_feasible_patterns_lexicographic(profile7):
    pats = list(feasible_patterns(profile7))
    assert pats == sorted(pats)
    assert pats[0] == (0, 0)


def test_dump_format():
    profile = DemandProfile(3, (2,), (1.0,), (1.0,))
    space = build_state_space(profile)
    out = io.StringIO()
    dump_states(space, out)
    assert out.getvalue().splitlines() == [
        "0\t(0)\tF F F",
        "1\t(1)\tF C1",
        "2\t(1)\tC1 F",
        "3\t(1)\t-",
    ]
