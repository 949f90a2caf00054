import hashlib
import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eolsec import (
    DemandProfile,
    SpaceOptions,
    StateBudgetExceeded,
    build_state_space,
    count_states,
    dump_states,
    pattern_size,
)
from eolsec.statespace import RankOverflow, _chunks, feasible_patterns, multiset_ranks
from oracles import (
    arrangements,
    class_members,
    lumped_transitions,
    mirror_classes,
    mirror_images,
    multiset_rank,
    scalar_state_space,
    scalar_transitions,
)


def rows(t):
    """The source state of every entry of ``t``."""
    return np.repeat(np.arange(len(t.indptr) - 1), np.diff(t.indptr))


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
        frag = [class_members(space7, classes) for classes in space7.frag_blocked]
        assert len(frag[0]) == 3
        assert len(frag[1]) == 3
        shared = np.intersect1d(frag[0], frag[1])
        assert len(shared) == 1
        # the shared state is the centered 3-slot connection
        assert arrangements(space7)[shared[0]] == (0, 0, 1, 0, 0)
        # the blocked sets list its mirror class, a palindrome's
        assert np.array_equal(np.intersect1d(*space7.frag_blocked), mirror_classes(space7)[shared])

    def test_defrag_targets(self, space7):
        assert [len(t) for t in space7.defrag_targets] == [2, 2]
        for targets, pat in zip(space7.defrag_targets, space7.daas_patterns):
            assert set(targets.tolist()) <= set(space7.pattern_groups[pat])

    def test_gamma_of(self, space7):
        assert len(space7.pattern_groups[(1, 1)]) == 2
        assert list(space7.pattern_groups[(0, 0)]) == [0]
        assert len(space7.pattern_groups[(2, 0)]) == 3
        assert (9, 9) not in space7.pattern_groups

    def test_empty_state_is_index_zero(self, space7):
        assert arrangements(space7)[0] == (0,) * space7.profile.capacity


class TestCanonicalOrder:
    def test_patterns_then_tokens_ascending(self, space7):
        keys = [
            (pat, arr)
            for pat, block in zip(space7.pattern_groups, space7.blocks)
            for arr in map(tuple, block.tolist())
        ]
        assert len(keys) == space7.num_regular
        assert keys == sorted(keys)

    def test_states_pairwise_distinct(self, space7):
        assert len(set(arrangements(space7))) == space7.num_regular


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
        assert len(np.intersect1d(space.frag_blocked[c], space.resource_blocked[c])) == 0


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


def test_long_link_builds_without_deep_recursion():
    # 1,100 free tokens in one row: block building must not recurse per token
    profile = DemandProfile(1100, (1100,), (1.0,), (1.0,))
    space = build_state_space(profile)
    assert space.num_regular == 2
    assert [block.shape for block in space.blocks] == [(1, 1100), (1, 1)]
    # arrival, departure, randomization and its return; both states are palindromes
    t = space.transitions
    assert list(zip(rows(t).tolist(), t.col.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1)]


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


@st.composite
def small_space_options(draw):
    capacity = draw(st.integers(1, 9))
    k = draw(st.integers(1, 3))
    demands = tuple(draw(st.integers(1, capacity)) for _ in range(k))
    profile = DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k)
    options = SpaceOptions(randomize_empty=draw(st.booleans()))
    # C=9 with demands (1, 1, 1), 262,144 states, is the one profile here
    # over this cap, which keeps the state-by-state oracle to seconds
    assume(count_states(profile) <= 163_312)
    return profile, options


@settings(max_examples=200, deadline=None)
@given(small_space_options())
def test_array_state_space_matches_scalar_oracle(po):
    profile, options = po
    space = build_state_space(profile, options)
    expected = scalar_state_space(profile, options)
    for name in ("pattern_groups", "raas_patterns", "daas_patterns"):
        assert getattr(space, name) == expected[name], name
    assert list(space.pattern_groups) == list(expected["pattern_groups"])
    for name in ("frag_blocked", "resource_blocked", "defrag_targets", "blocks"):
        got, want = getattr(space, name), expected[name]
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            if name.endswith("blocked"):
                # mirror classes: blocking is mirror-invariant, so their
                # members are the blocked states
                assert a.dtype == np.int64 and np.array_equal(a, np.unique(mirror_classes(space)[b])), name
                a = class_members(space, a)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert space.num_regular == sum(map(len, expected["pattern_groups"].values()))
    assert space.lumped.dtype == np.int32 and np.array_equal(space.lumped, mirror_classes(space))
    loop = scalar_transitions(space)
    assert (loop["mult"] == 1).all()  # no two departures ever reach the same state
    # the loop's entries over the mirror classes, by row and then by column
    lumped = lumped_transitions(space, loop)
    t = space.transitions
    assert (t.indptr.dtype, t.col.dtype, t.kind.dtype, t.div.dtype, t.diagonal.dtype) == (
        np.int64, np.int32, np.uint8, np.int32, np.int64)
    assert t.regular == space.lumped.max() + 1
    for name, got in (("row", rows(t)), ("col", t.col), ("kind", t.kind), ("div", t.div)):
        assert np.array_equal(got, lumped[name]), name
    lower = np.bincount(rows(t), weights=t.col < rows(t), minlength=len(t.indptr) - 1)
    assert np.array_equal(t.diagonal, t.indptr[:-1] + lower)


@settings(max_examples=100, deadline=None)
@given(small_space_options())
def test_rows_rank_to_their_index(po):
    # the closed-form rank of a row is its index in its block, padded in a
    # chunk or not, and the rank of its reverse the index of its mirror image
    profile, _ = po
    space = build_state_space(profile)
    ranks = multiset_ranks(profile)
    for block in space.blocks:
        assert np.array_equal(ranks.rank(block.T), np.arange(len(block)))
    starts = np.array([group.start for group in space.pattern_groups.values()])
    mirror = mirror_images(space)
    at = 0
    for tokens, block in _chunks(space.blocks, 64, profile.num_classes + 1):
        state = np.arange(at, at + tokens.shape[1])
        assert np.array_equal(ranks.rank(tokens), state - starts[block])
        assert np.array_equal(ranks.rank(tokens[::-1]), mirror[state] - starts[block])
        at += tokens.shape[1]
    assert at == space.num_regular


def test_ranks_past_int32_match_python_integers():
    # pattern (10, 10) of C=40, demands (1, 2): 30! / (10!)^3 orderings
    profile = DemandProfile(40, (1, 2), (1.0, 1.0), (1.0, 1.0))
    size = pattern_size((10, 10), profile)
    assert size == math.factorial(30) // math.factorial(10) ** 3 > 2**31
    ranks = multiset_ranks(profile)
    assert ranks.terms.dtype == np.int64
    tokens = [0] * 10 + [1] * 10 + [2] * 10
    rng = np.random.default_rng(2016)
    rows = [sorted(tokens), sorted(tokens, reverse=True)]
    rows += [rng.permutation(tokens).tolist() for _ in range(200)]
    got = ranks.rank(np.array(rows, np.int8).T).tolist()
    assert got == [multiset_rank(row) for row in rows]
    assert got[:2] == [0, size - 1]


def test_ranks_are_int32_where_they_fit(profile7):
    ranks = multiset_ranks(profile7)
    assert (ranks.terms.dtype, ranks.weight.dtype) == (np.int32, np.int32)


def test_rank_past_int64_is_a_typed_error():
    # C(100, 50) orderings of 50 frees and 50 one-slot connections
    profile = DemandProfile(100, (1,), (1.0,), (1.0,))
    with pytest.raises(RankOverflow) as err:
        build_state_space(profile, SpaceOptions(state_budget=2**100))
    assert err.value.states == math.comb(100, 50)
    assert pickle.loads(pickle.dumps(err.value)).states == err.value.states


def assembly_order(t, num_classes):
    """The entries of ``t`` (a ``scalar_transitions`` dict) in the order
    the pins below were recorded in.

    Per source state: for each class its arrivals in slot order, its
    fragmentation-blocked arrival and its departures in token order, then
    the move into the randomization state.  A later slot gives a lesser
    target, so arrivals go by falling column and all else by rising column.
    """
    K = num_classes
    group = np.concatenate([3 * np.arange(K), 3 * np.arange(K) + 1, 3 * np.arange(K) + 2, [3 * K] * 3])
    col = t["col"]
    return np.lexsort((np.where(t["kind"] < K, -col, col), group[t["kind"]], t["row"]))


# SHA-256 of the unlumped transition arrays, recorded from the
# state-by-state loop that built them before the array layout
# (scalar_transitions in oracles); each array in assembly order and as int64
TRANSITION_PINS = {
    (14, (2, 3, 4)): {
        "row": "2654c7893762af09ceca777c770901f3462f34dd5c1d981d3f14e92e294e4654",
        "col": "49926143d7e9ab070f500fdda7a21100599879aa926082b0c2d9ed31fe81d39d",
        "kind": "a5c4e1e0d83afe03cd9ae03df2cf415ee2a2cbe9837f97009420d687a88cebbf",
        "div": "2c5cabe6f2d8766d955f59837b299610c08cd484fab93b6be3205992db6f2b88",
    },
    (24, (4, 6, 8)): {
        "row": "8de104f4becc31a59b5e88ec0321c0cd50e4f479425ef0aad210bcb1ddf8aad6",
        "col": "8ec9f3925218ab6bd1d8b8d8ce93a4ee4bc196e57681fae71a5f0803bb59caaa",
        "kind": "55170a1bba60cd1a97b7db478f961f9922a0c1f614c7c7c87227b850456d427a",
        "div": "d0307dfae49b72e7dcbf3604fb1ea36d2693b18212585adaf28eb92a854a19fe",
    },
    (28, (4, 6, 8)): {
        "row": "c38cc1cef74d08b54eab5c9fa274907717bad354790eb8ee5c1a737445ebad1e",
        "col": "725e63ccc75bf6793c6ebd93417bb04cd0ebcf42d57595b218cb641f9a4fc734",
        "kind": "c83a6c0f0a844fb1b37175b9b4a7c6e9949d8a110e5c98f7a4098b3a1f7168be",
        "div": "d5b5023449dbb900d0215e4e9090b0603ff06879cba0a7fff985d894388fa05d",
    },
}


@pytest.mark.parametrize("capacity,demands", list(TRANSITION_PINS))
def test_transition_arrays_match_pins(capacity, demands):
    # the pinned loop, and the structure its lumping
    k = len(demands)
    space = build_state_space(DemandProfile(capacity, demands, (1.0,) * k, (1.0,) * k))
    pins = TRANSITION_PINS[capacity, demands]
    loop = scalar_transitions(space)
    order = assembly_order(loop, k)
    assert {name: hashlib.sha256(loop[name][order].astype(np.int64).tobytes()).hexdigest()
            for name in pins} == pins
    lumped = lumped_transitions(space, loop)
    t = space.transitions
    for name, got in (("row", rows(t)), ("col", t.col), ("kind", t.kind), ("div", t.div)):
        assert np.array_equal(got, lumped[name]), name
