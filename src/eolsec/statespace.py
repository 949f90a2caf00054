"""Enumeration of all occupancy states of a link plus derived index sets.

Regular states are every token sequence of total width ``capacity``.  For
each connection pattern there may additionally be one randomization state
(reconfiguration triggered proactively) and, when some state of the pattern
is fragmentation-blocked, one defragmentation state.

Canonical order: patterns ascending lexicographically, then token sequences
ascending lexicographically within a pattern.  Index 0 is therefore always
the all-free state.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, TextIO

import numpy as np

from .link import (
    Classification,
    DemandProfile,
    classify,
    is_defragmented,
    placements,
    removals,
)

# Regular states the exact engine is known to finish: one randomized-defrag
# cell (enumerate, transitions, power solve, three window widths) takes 13 s
# and 275 MB at C=32, demands (4,6,8), 163,312 states, and 12 s and 258 MB
# at C=19, demands (2,3,4), 147,312 states (2-core VM).  Beyond it analytic
# falls back to Monte Carlo.
DEFAULT_STATE_BUDGET = 163_312


class StateBudgetExceeded(RuntimeError):
    """Enumeration would produce more regular states than the budget allows."""

    def __init__(self, predicted_states: int, budget: int):
        self.predicted_states = predicted_states
        self.budget = budget
        super().__init__(
            f"state space would hold {predicted_states} regular states, budget is {budget}; "
            "use the Monte Carlo engine instead"
        )

    def __reduce__(self):
        return type(self), (self.predicted_states, self.budget)


@dataclass(frozen=True)
class SpaceOptions:
    # randomize_empty: also create a randomization state for the empty pattern,
    # so randomization requests arriving at an idle link still block it.
    randomize_empty: bool = False
    state_budget: int = DEFAULT_STATE_BUDGET


def feasible_patterns(profile: DemandProfile) -> Iterator[tuple[int, ...]]:
    """All patterns with total demand <= capacity, lexicographically ascending."""

    def rec(k: int, room: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if k == profile.num_classes:
            yield prefix
            return
        d = profile.demands[k]
        for count in range(room // d + 1):
            yield from rec(k + 1, room - count * d, prefix + (count,))

    yield from rec(0, profile.capacity, ())


def _permutation_count(frees: int, counts: tuple[int, ...]) -> int:
    """Distinct orderings of ``frees`` free slots and ``counts`` connections."""
    total = math.factorial(frees + sum(counts)) // math.factorial(frees)
    for n in counts:
        total //= math.factorial(n)
    return total


def pattern_size(pat: tuple[int, ...], profile: DemandProfile) -> int:
    """Number of distinct states realizing ``pat`` (multiset permutations)."""
    used = sum(n * d for n, d in zip(pat, profile.demands))
    if used > profile.capacity:
        return 0
    return _permutation_count(profile.capacity - used, pat)


def count_states(profile: DemandProfile) -> int:
    """Number of regular states, computed without enumerating them."""
    return sum(pattern_size(p, profile) for p in feasible_patterns(profile))


def _token_sequences(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Multiset permutations of tokens {t: counts[t]}, lexicographically ascending."""
    total = sum(counts)
    seq: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(seq) == total:
            yield tuple(seq)
            return
        for t, c in enumerate(counts):
            if c:
                counts[t] -= 1
                seq.append(t)
                yield from rec()
                seq.pop()
                counts[t] += 1

    yield from rec()


@dataclass(frozen=True)
class TransitionStructure:
    """Rate-free transitions of every model variant over one state space.

    Entry ``e`` moves state ``row[e]`` to state ``col[e]`` at rate
    ``base[kind[e]] * mult[e] / div[e]``; ``rates`` lays out ``base``.
    Entries are in assembly order; global indices follow the full
    [regular | randomization | defrag] layout.
    """

    row: np.ndarray
    col: np.ndarray
    kind: np.ndarray
    mult: np.ndarray
    div: np.ndarray

    def rates(
        self,
        arrival: np.ndarray,
        defrag_arrival: np.ndarray,
        service: np.ndarray,
        randomization: float,
        randomization_return: float,
        defrag_return: float,
    ) -> np.ndarray:
        """Rate of every entry; a zero rate means the transition is absent.

        Per class: accepted arrivals, fragmentation-blocked arrivals (which
        enter a defrag state) and departures; then the rate into
        randomization states and the rates out of randomization and
        defrag states.
        """
        base = np.concatenate([
            arrival, defrag_arrival, service, [randomization, randomization_return, defrag_return],
        ])
        return base[self.kind] * self.mult / self.div


@dataclass
class StateSpace:
    """Indexed regular states plus the derived randomization/defrag structure.

    Global state indices follow the layout [regular | randomization | defrag]:
    randomization state ``v`` has index ``num_regular + v`` and defrag state
    ``v`` has index ``num_regular + num_raas + v`` (when the model variant
    instantiates them).
    """

    profile: DemandProfile
    arrangements: tuple[tuple[int, ...], ...]
    state_patterns: tuple[tuple[int, ...], ...]
    pattern_groups: dict[tuple[int, ...], tuple[int, ...]]
    frag_blocked: tuple[frozenset[int], ...]
    resource_blocked: tuple[frozenset[int], ...]
    raas_patterns: tuple[tuple[int, ...], ...]
    daas_patterns: tuple[tuple[int, ...], ...]
    defrag_targets: tuple[tuple[int, ...], ...]
    # security.SurvivalMemo of this space, created on first use
    survival_memo: object = field(default=None, repr=False, compare=False)

    @property
    def num_regular(self) -> int:
        return len(self.arrangements)

    @property
    def num_raas(self) -> int:
        return len(self.raas_patterns)

    @property
    def num_daas(self) -> int:
        return len(self.daas_patterns)

    @cached_property
    def transitions(self) -> TransitionStructure:
        """The transition structure, derived on first use."""
        profile = self.profile
        K = profile.num_classes
        randomize, return_raas, return_daas = 3 * K, 3 * K + 1, 3 * K + 2
        n_sa = self.num_regular
        n_r = self.num_raas
        index_of = {arr: i for i, arr in enumerate(self.arrangements)}
        raas_index = {pat: v for v, pat in enumerate(self.raas_patterns)}
        daas_index = {pat: v for v, pat in enumerate(self.daas_patterns)}
        entries = array("q")  # flat (row, col, kind, mult, div) records
        for i, arr in enumerate(self.arrangements):
            pat = self.state_patterns[i]
            for k in range(1, K + 1):
                # build_state_space classified every state; reuse its sets
                if i in self.frag_blocked[k - 1]:
                    entries.extend((i, n_sa + n_r + daas_index[pat], K + k - 1, 1, 1))
                elif i not in self.resource_blocked[k - 1]:
                    targets = placements(arr, k, profile)
                    for target in targets:
                        entries.extend((i, index_of[target], k - 1, 1, len(targets)))
                if pat[k - 1]:
                    for target, mult in removals(arr, k, profile):
                        entries.extend((i, index_of[target], 2 * K + k - 1, mult, 1))
            if pat in raas_index:
                entries.extend((i, n_sa + raas_index[pat], randomize, 1, 1))
        for v, pat in enumerate(self.raas_patterns):
            members = self.pattern_groups[pat]
            for j in members:
                entries.extend((n_sa + v, j, return_raas, 1, len(members)))
        for v, targets in enumerate(self.defrag_targets):
            for j in targets:
                entries.extend((n_sa + n_r + v, j, return_daas, 1, len(targets)))
        row, col, kind, mult, div = np.frombuffer(entries, dtype=np.int64).reshape(-1, 5).T.copy()
        return TransitionStructure(row=row, col=col, kind=kind, mult=mult, div=div)


def build_state_space(profile: DemandProfile, options: SpaceOptions | None = None) -> StateSpace:
    """Enumerate the full state space for ``profile``.

    Raises StateBudgetExceeded before doing any enumeration work if the
    closed-form state count is over ``options.state_budget``.
    """
    options = options or SpaceOptions()
    predicted = count_states(profile)
    if predicted > options.state_budget:
        raise StateBudgetExceeded(predicted, options.state_budget)

    K = profile.num_classes
    arrangements: list[tuple[int, ...]] = []
    state_patterns: list[tuple[int, ...]] = []
    pattern_groups: dict[tuple[int, ...], tuple[int, ...]] = {}
    frag: list[set[int]] = [set() for _ in range(K)]
    res: list[set[int]] = [set() for _ in range(K)]
    daas_patterns: list[tuple[int, ...]] = []  # patterns with a fragmentation-blocked state

    for pat in feasible_patterns(profile):
        used = sum(n * d for n, d in zip(pat, profile.demands))
        counts = [profile.capacity - used] + list(pat)
        members: list[int] = []
        fragmentable = False
        for tokens in _token_sequences(counts):
            idx = len(arrangements)
            arrangements.append(tokens)
            state_patterns.append(pat)
            members.append(idx)
            for k in range(1, K + 1):
                c = classify(tokens, k, profile)
                if c is Classification.FRAG_BLOCKED:
                    frag[k - 1].add(idx)
                    fragmentable = True
                elif c is Classification.RESOURCE_BLOCKED:
                    res[k - 1].add(idx)
        pattern_groups[pat] = tuple(members)
        if fragmentable:
            daas_patterns.append(pat)

    raas_patterns = tuple(
        pat for pat in pattern_groups
        if sum(pat) >= 1 or options.randomize_empty
    )
    defrag_targets = tuple(
        tuple(i for i in pattern_groups[pat] if is_defragmented(arrangements[i]))
        for pat in daas_patterns
    )

    return StateSpace(
        profile=profile,
        arrangements=tuple(arrangements),
        state_patterns=tuple(state_patterns),
        pattern_groups=pattern_groups,
        frag_blocked=tuple(frozenset(s) for s in frag),
        resource_blocked=tuple(frozenset(s) for s in res),
        raas_patterns=raas_patterns,
        daas_patterns=tuple(daas_patterns),
        defrag_targets=defrag_targets,
    )


def _render_tokens(tokens: tuple[int, ...]) -> str:
    return " ".join("F" if t == 0 else f"C{t}" for t in tokens)


def _render_pattern(pat: tuple[int, ...]) -> str:
    return "(" + ",".join(str(n) for n in pat) + ")"


def dump_states(space: StateSpace, out: TextIO) -> None:
    """Line-oriented debug dump: ``index<TAB>pattern<TAB>token-sequence``.

    Randomization and defrag states carry no token sequence and are listed
    after the regular states with ``-`` in the token column.
    """
    for i, arr in enumerate(space.arrangements):
        out.write(f"{i}\t{_render_pattern(space.state_patterns[i])}\t{_render_tokens(arr)}\n")
    for v, pat in enumerate(space.raas_patterns + space.daas_patterns, start=space.num_regular):
        out.write(f"{v}\t{_render_pattern(pat)}\t-\n")
