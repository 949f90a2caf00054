"""Enumeration of all occupancy states of a link plus derived index sets.

Regular states are every token sequence of total width ``capacity``.  For
each connection pattern there may additionally be one randomization state
(reconfiguration triggered proactively) and, when some state of the pattern
is fragmentation-blocked, one defragmentation state.

Canonical order: patterns ascending lexicographically, then token sequences
ascending lexicographically within a pattern.  Index 0 is therefore always
the all-free state.

Layout: the states of one pattern form one block of consecutive indices,
held as an ``int8`` array of token rows (``StateSpace.blocks``), the only
per-state data; every index set is an ascending ``int64`` array.  A block
is the lexicographic multiset permutations of its tokens (Knuth, TAOCP
4A, 7.2.1.2): each token prefixed to the block of the multiset without
it.  Sub-multisets are built in lexicographic order, so each block is
made from blocks already built, without recursion, and a memo shares them
between patterns.  Classification and transitions are array operations on
whole blocks.  The length of the free run ending at each token gives the
windows where an arrival fits, and a departure replaces one class-k token
by ``d_k`` frees.  The rows of one block share one length and are sorted,
so read as byte strings they rank a target row with one binary search.

Reversing the slot order maps every transition, every blocked set and
every defrag target set onto itself, so the chain is ordinarily lumpable
over mirror classes (Kemeny & Snell, *Finite Markov Chains*, 1960, 6.3):
a state and its mirror image form one class, a palindrome a class of one.
``StateSpace.lumped`` numbers the classes, the blocked sets list
classes, and ``transitions`` lays out the lumped chain, one row per class
from its lesser member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from typing import Iterator, TextIO

import numpy as np

from .link import DemandProfile

# Regular states the exact engine is known to finish: one randomized-defrag
# cell (enumerate, transitions, solve, three window widths) takes 2.4-2.5 s
# and 180 MB at C=34, demands (4,6,8), 364,606 states, and 1.8 s and 152 MB
# at C=20, demands (2,3,4), 283,953 states, through `eolsec run` (jobs: 1)
# on a 2-core VM; C=35 (544,785 states) takes 3.4 s and 246 MB, C=38
# (1,817,347) 12 s and 730 MB.  Pool workers share the parent's space, but
# each solves and scores its own cells: two C=34 cells with jobs: 2 peak at
# 298 MB of proportional set size over the parent and both workers (463 MB
# summed RSS), against 199 MB with jobs: 1.  Beyond the budget analytic
# falls back to Monte Carlo.
DEFAULT_STATE_BUDGET = 364_606


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


def _permutations(counts: tuple[int, ...], memo: dict) -> np.ndarray:
    """Multiset permutations of tokens {t: counts[t]} as rows, lexicographically ascending."""
    # each sub-multiset without one token comes before it in this order
    for sub in product(*(range(c + 1) for c in counts)):
        if sub in memo:
            continue
        parts = []
        for t, c in enumerate(sub):
            if c:
                tail = memo[sub[:t] + (c - 1,) + sub[t + 1:]]
                part = np.empty((len(tail), tail.shape[1] + 1), np.int8)
                part[:, 0] = t
                part[:, 1:] = tail
                parts.append(part)
        memo[sub] = np.concatenate(parts) if parts else np.zeros((1, 0), np.int8)
    return memo[counts]


def _free_runs(block: np.ndarray) -> np.ndarray:
    """Length of the free run ending at each token of every row, 0 at a connection."""
    runs = np.zeros(block.shape, np.int16)
    run = np.zeros(len(block), np.int16)
    for j, free in enumerate((block == 0).T):
        run = (run + 1) * free
        runs[:, j] = run
    return runs


def _keys(rows: np.ndarray) -> np.ndarray:
    """Token rows of one length as byte strings, which sort as the rows do.

    NumPy ignores trailing zero bytes when it compares byte strings; as 0
    is the least token, that keeps the order of rows of one length.
    """
    return np.ascontiguousarray(rows).view(f"S{rows.shape[1]}").ravel()


@dataclass(frozen=True)
class TransitionStructure:
    """Rate-free transitions of every model variant over the mirror-lumped
    chain of one state space, laid out as a CSR matrix.

    Row ``a`` of the first ``regular`` rows is mirror class ``a`` (see
    ``StateSpace.lumped``); its entries, ``indptr[a]:indptr[a + 1]``, are
    the transitions of the class's lesser member, each to the class of its
    target.  Entry ``e`` moves the chain to ``col[e]`` at rate
    ``base[kind[e]] / div[e]``, and ``rates`` lays out ``base``.  Within a
    row the columns ascend.  A column repeats where a row enters it more
    than once, and assembly sums those rates left to right: a defrag
    state, entered once per fragmentation-blocked class in class order, or
    a mirror class both of whose members one class's arrivals or
    departures reach.  Row ``a``'s diagonal would go before entry
    ``diagonal[a]``.  The randomization and defrag states follow the
    classes, in that order.
    """

    regular: int  # mirror classes of regular states
    indptr: np.ndarray  # int64
    col: np.ndarray  # int32
    kind: np.ndarray  # the least unsigned type that holds 3K + 4
    div: np.ndarray  # int32
    diagonal: np.ndarray  # int64

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
        defrag states, into a class of one and of two.  Doubling is exact,
        so a return into a mirror pair is the sum of its members' rates.
        """
        base = np.concatenate([
            arrival, defrag_arrival, service,
            [randomization, randomization_return, defrag_return,
             2.0 * randomization_return, 2.0 * defrag_return],
        ])
        rates = base[self.kind]
        rates /= self.div
        return rates


@dataclass(eq=False)
class StateSpace:
    """Indexed regular states plus the derived randomization/defrag structure.

    Regular states are indexed in canonical order: ``blocks`` holds the
    token rows of each pattern in ``pattern_groups`` order, and
    ``pattern_groups`` maps a pattern to the range of its indices.
    ``lumped`` gives each regular state its mirror class: a state and its
    mirror image (its token row reversed) share one, and a palindrome is a
    class of its own.  Classes are numbered in the order of their lesser
    member, the representative, so the classes of one pattern are
    consecutive and the all-free state is class 0.  The chain's rows follow
    the layout [classes | randomization | defrag]: randomization state
    ``v`` is row ``num_mirror_classes + v`` and defrag state ``v`` row
    ``num_mirror_classes + num_raas + v`` (when the model variant
    instantiates them).  The blocked sets, one per demand class, list
    mirror classes, and the defrag targets, one per ``daas_patterns``
    entry, list states; both are ascending ``int64`` arrays.
    """

    profile: DemandProfile
    pattern_groups: dict[tuple[int, ...], range]
    frag_blocked: tuple[np.ndarray, ...]
    resource_blocked: tuple[np.ndarray, ...]
    raas_patterns: tuple[tuple[int, ...], ...]
    daas_patterns: tuple[tuple[int, ...], ...]
    defrag_targets: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    lumped: np.ndarray = field(repr=False)  # int32
    # (security.WindowSurvival, its chunks of the representatives' rows, scores
    # by width), made on first use
    survival: object = field(default=None, repr=False)

    @property
    def num_regular(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def num_raas(self) -> int:
        return len(self.raas_patterns)

    @property
    def num_daas(self) -> int:
        return len(self.daas_patterns)

    @property
    def num_mirror_classes(self) -> int:
        return int(self.lumped.max()) + 1

    def representatives(self) -> Iterator[np.ndarray]:
        """Per block, the rows of its mirror classes' representatives, ascending."""
        for group in self.pattern_groups.values():
            yield np.unique(self.lumped[group.start:group.stop], return_index=True)[1]

    @cached_property
    def transitions(self) -> TransitionStructure:
        """The transition structure, derived on first use."""
        demands = self.profile.demands
        K = len(demands)
        lumped = self.lumped
        n_sa, n_r = self.num_mirror_classes, self.num_raas
        keys = {pat: _keys(block) for pat, block in zip(self.pattern_groups, self.blocks)}
        raas_index = {pat: v for v, pat in enumerate(self.raas_patterns)}
        daas_index = {pat: v for v, pat in enumerate(self.daas_patterns)}
        # The entries of the unlumped chain in closed form bound the ones
        # written: a (row, slot) where class k fits is a row of the pattern
        # with d_k of its free slots merged into one token; the blocked sets
        # count the rows that enter a defrag state.  Pages past the last
        # entry written are never touched, and the arrays shrink to it.
        size = sum(map(len, self.frag_blocked)) + sum(map(len, self.defrag_targets))
        for pat, group in self.pattern_groups.items():
            frees = self.profile.capacity - sum(n * d for n, d in zip(pat, demands))
            size += len(group) * (sum(pat) + 2 * (pat in raas_index))
            size += sum(_permutation_count(frees - d, pat + (1,)) for d in demands if frees >= d)
        col, div = np.empty(size, np.int32), np.empty(size, np.int32)
        kind = np.empty(size, np.min_scalar_type(3 * K + 4))
        states = n_sa + n_r + self.num_daas
        indptr = np.zeros(states + 1, np.int64)  # first the entries of each state
        diagonal = np.zeros(states, np.int64)  # first the entries of each state into a lesser one

        at = 0
        for (pat, group), whole, reps in zip(self.pattern_groups.items(), self.blocks, self.representatives()):
            block = whole[reps]
            first = int(lumped[group.start])  # a block's first row is its least
            length = block.shape[1]
            frees = length - sum(pat)
            runs = _free_runs(block)
            # Groups of (row, col, kind, div) in the order of their columns'
            # patterns: the departures of class 1..K (into the patterns
            # below this one), the arrivals of class K..1 (above it), the
            # randomization state, then the defrag state once per blocked
            # class.  Each target row becomes its class.
            departures, arrivals, blocked = [], [], []
            for k, d in enumerate(demands, start=1):
                if frees >= d:
                    # fits[r, s]: the d tokens from s on are free in row r; a
                    # later slot gives a lesser row, so the slots go last
                    # first, and the binary searches meet their keys in order
                    fits = runs[:, d - 1:][:, ::-1] >= d
                    n_fits = fits.sum(axis=1)
                    r, s = np.nonzero(fits)
                    s = length - d - s
                    cols = np.arange(length - d + 1)
                    target = block[r[:, None], cols + (d - 1) * (cols > s[:, None])]
                    target[np.arange(len(r)), s] = k
                    up = pat[:k - 1] + (pat[k - 1] + 1,) + pat[k:]
                    to = self.pattern_groups[up].start + np.searchsorted(keys[up], _keys(target))
                    arrivals.insert(0, (r, lumped[to], k - 1, n_fits[r]))
                    stuck = np.flatnonzero(n_fits == 0)
                    if len(stuck):
                        blocked.append((stuck, n_sa + n_r + daas_index[pat], K + k - 1, 1))
                if pat[k - 1]:
                    # an earlier token gives a lesser row
                    r, s = np.nonzero(block == k)
                    cols = np.arange(length + d - 1)
                    target = block[r[:, None], cols - np.clip(cols - s[:, None], 0, d - 1)]
                    target[(cols >= s[:, None]) & (cols < s[:, None] + d)] = 0
                    down = pat[:k - 1] + (pat[k - 1] - 1,) + pat[k:]
                    to = self.pattern_groups[down].start + np.searchsorted(keys[down], _keys(target))
                    departures.append((r, lumped[to], 2 * K + k - 1, 1))
            groups = departures + arrivals
            if pat in raas_index:
                groups.append((np.arange(len(block)), n_sa + raas_index[pat], 3 * K, 1))
            groups += blocked
            row, to, how, share = (np.concatenate(a) for a in zip(*(np.broadcast_arrays(*g) for g in groups)))
            # by row, then by column; a stable sort keeps a repeated
            # column's entries in group order, so blocked classes in class order
            order = np.argsort(row * states + to, kind="stable")
            entries = slice(at, at + len(row))
            col[entries], kind[entries], div[entries] = to[order], how[order], share[order]
            indptr[first + 1:first + len(block) + 1] = np.bincount(row, minlength=len(block))
            diagonal[first:first + len(block)] = np.bincount(row[to < first + row], minlength=len(block))
            at += len(row)

        # The randomization states return to the classes of their pattern,
        # the defrag states to those of their targets, each member at the
        # same rate: a class of two takes the doubled return kind.
        groups = (self.pattern_groups[pat] for pat in self.raas_patterns)
        returns = chain((lumped[g.start:g.stop] for g in groups), (lumped[t] for t in self.defrag_targets))
        for v, classes in enumerate(returns):
            into, members = np.unique(classes, return_counts=True)
            entries = slice(at, at + len(into))
            col[entries] = into
            kind[entries] = 3 * K + 1 + (v >= n_r) + 2 * (members - 1)
            div[entries] = len(classes)
            indptr[n_sa + v + 1] = diagonal[n_sa + v] = len(into)
            at += len(into)
        col, kind, div = col[:at], kind[:at], div[:at]
        np.cumsum(indptr, out=indptr)
        diagonal += indptr[:-1]
        return TransitionStructure(regular=n_sa, indptr=indptr, col=col, kind=kind, div=div,
                                   diagonal=diagonal)


def build_state_space(profile: DemandProfile, options: SpaceOptions | None = None) -> StateSpace:
    """Enumerate the full state space for ``profile``.

    Raises StateBudgetExceeded before doing any enumeration work if the
    closed-form state count is over ``options.state_budget``.
    """
    options = options or SpaceOptions()
    predicted = count_states(profile)
    if predicted > options.state_budget:
        raise StateBudgetExceeded(predicted, options.state_budget)

    demands = profile.demands
    memo: dict = {}
    blocks: list[np.ndarray] = []
    pattern_groups: dict[tuple[int, ...], range] = {}
    lumped = np.empty(predicted, np.int32)
    frees: list[np.ndarray] = []  # per pattern, the free slots of each mirror class
    longest: list[np.ndarray] = []  # per pattern, the longest free run of each mirror class
    daas_patterns: list[tuple[int, ...]] = []
    defrag_targets: list[np.ndarray] = []
    first = classes = 0

    for pat in feasible_patterns(profile):
        free = profile.capacity - sum(n * d for n, d in zip(pat, demands))
        block = _permutations((free,) + pat, memo)
        runs = _free_runs(block)
        longest_run = runs.max(axis=1)
        # a row and its reverse share the class of the lesser of the two
        rows = np.arange(len(block))
        lesser = np.minimum(rows, np.searchsorted(_keys(block), _keys(block[:, ::-1])))
        representative = lesser == rows
        number = np.cumsum(representative) - 1
        lumped[first:first + len(block)] = classes + number[lesser]
        classes += int(number[-1]) + 1
        blocks.append(block)
        pattern_groups[pat] = range(first, first + len(block))
        # a state and its mirror image have the same free runs
        longest.append(longest_run[representative])
        frees.append(np.full(len(longest[-1]), free))
        if any(d <= free and (longest_run < d).any() for d in demands):  # a state is frag-blocked
            daas_patterns.append(pat)
            # at most one free run: the free tokens start one run, or there are none
            defrag_targets.append(first + np.flatnonzero((runs == 1).sum(axis=1) <= 1))
        first += len(block)

    free_slots, longest_run = np.concatenate(frees), np.concatenate(longest)
    return StateSpace(
        profile=profile,
        pattern_groups=pattern_groups,
        # no free run fits the arrival: fragmentation with enough free slots, resources without
        frag_blocked=tuple(np.flatnonzero((longest_run < d) & (free_slots >= d)) for d in demands),
        resource_blocked=tuple(np.flatnonzero(free_slots < d) for d in demands),
        raas_patterns=tuple(pat for pat in pattern_groups if sum(pat) >= 1 or options.randomize_empty),
        daas_patterns=tuple(daas_patterns),
        defrag_targets=tuple(defrag_targets),
        blocks=tuple(blocks),
        lumped=lumped,
    )


def _render_tokens(tokens: list[int]) -> str:
    return " ".join("F" if t == 0 else f"C{t}" for t in tokens)


def _render_pattern(pat: tuple[int, ...]) -> str:
    return "(" + ",".join(str(n) for n in pat) + ")"


def dump_states(space: StateSpace, out: TextIO) -> None:
    """Line-oriented debug dump: ``index<TAB>pattern<TAB>token-sequence``.

    Randomization and defrag states carry no token sequence and are listed
    after the regular states with ``-`` in the token column.
    """
    for (pat, group), block in zip(space.pattern_groups.items(), space.blocks):
        for i, tokens in zip(group, block.tolist()):
            out.write(f"{i}\t{_render_pattern(pat)}\t{_render_tokens(tokens)}\n")
    for v, pat in enumerate(space.raas_patterns + space.daas_patterns, start=space.num_regular):
        out.write(f"{v}\t{_render_pattern(pat)}\t-\n")
