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
slot-major chunks of rows, padded to the chunk's longest row
(``_chunks``).  The length of the free run ending at each token gives the
windows where an arrival fits, and a departure replaces one class-k token
by ``d_k`` frees.  A row's index in its block is its lexicographic rank
among the orderings of its multiset, a sum of one table term per slot
(``MultisetRanks``).  So the target of a move, which differs from its row
at one slot, is ranked from the row's own sums without being written out,
and a row's mirror image is the rank of its reverse.

Reversing the slot order maps every transition, every blocked set and
every defrag target set onto itself, so the chain is ordinarily lumpable
over mirror classes (Kemeny & Snell, *Finite Markov Chains*, 1960, 6.3):
a state and its mirror image form one class, a palindrome a class of one.
``StateSpace.lumped`` numbers the classes, the blocked sets list
classes, and ``transitions`` lays out the lumped chain, one row per class
from its lesser member.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, TextIO

import numpy as np

from .link import DemandProfile

log = logging.getLogger(__name__)

# Regular states the exact engine is known to finish: one randomized-defrag
# cell (enumerate, transitions, solve, three window widths) takes 2.4-2.9 s
# and 175-180 MB at C=34, demands (4,6,8), 364,606 states, and 2.2 s and
# 151 MB at C=20, demands (2,3,4), 283,953 states, through `eolsec run`
# (jobs: 1) on a 2-core VM; C=35 (544,785 states) takes 3.1-4.0 s and
# 240-243 MB, over a 3 s and 230 MB envelope, and C=38 (1,817,347) 13 s and
# 701 MB.  The solve sets the peak from C=34 on.  Pool workers share the
# parent's space, but each solves and scores its own cells: two C=34 cells
# with jobs: 2 peak at 298 MB of proportional set size over the parent and
# both workers (463 MB summed RSS), against 199 MB with jobs: 1.  Beyond the
# budget analytic falls back to Monte Carlo.
DEFAULT_STATE_BUDGET = 364_606

# Rows per chunk of the transition build (four times as many for the
# lighter work of enumeration): every slot of a chunk costs a few numpy
# calls, so a chunk needs many rows, yet its arrays should stay in cache.
_CHUNK_ROWS = 1 << 11


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


def _free_runs(tokens: np.ndarray) -> np.ndarray:
    """Length of the free run ending at each token, 0 at a connection, of
    slot-major token rows (``tokens[j]`` is slot ``j`` of every row)."""
    runs = np.zeros(tokens.shape, np.int16)
    run = np.zeros(tokens.shape[1:], np.int16)
    for j, free in enumerate(tokens == 0):
        run = (run + 1) * free
        runs[j] = run
    return runs


def _accumulate(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.cumsum(terms, axis=0)`` into ``out``, a slot at a time: on a
    slot-major array one add per slot beats numpy's element-wise scan."""
    if len(terms):
        out[0] = terms[0]
    for j in range(1, len(terms)):
        np.add(out[j - 1], terms[j], out=out[j])
    return out


def _chunks(blocks: Iterable[np.ndarray], rows: int, pad: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of ``blocks`` in order, in slot-major chunks of ``rows``
    rows (the last may hold fewer), each with the block of every row.

    A chunk is padded with token ``pad`` to its longest row and one slot
    more, so a row's last token is followed by a slot in every chunk.
    """
    pieces: list[tuple[int, np.ndarray]] = []

    def pack() -> tuple[np.ndarray, np.ndarray]:
        width = max(piece.shape[1] for _, piece in pieces) + 1
        tokens = np.full((width, count), pad, np.int8)
        at = 0
        for _, piece in pieces:
            tokens[:piece.shape[1], at:at + len(piece)] = piece.T
            at += len(piece)
        return tokens, np.repeat([b for b, _ in pieces], [len(piece) for _, piece in pieces])

    count = 0
    for b, block in enumerate(blocks):
        start = 0
        while start < len(block):
            pieces.append((b, block[start:start + rows - count]))
            start += len(pieces[-1][1])
            count += len(pieces[-1][1])
            if count == rows:
                yield pack()
                pieces, count = [], 0
    if pieces:
        yield pack()


class RankOverflow(OverflowError):
    """A pattern has more states than an ``int64`` rank can number."""

    def __init__(self, states: int):
        self.states = states
        super().__init__(
            f"a connection pattern has {states} states, more than an int64 rank can number; "
            "use the Monte Carlo engine instead"
        )

    def __reduce__(self):
        return type(self), (self.states,)


def _index_type(bound: int) -> type:
    """``int32`` where every value up to ``bound`` fits, else ``int64``."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class MultisetRanks:
    """Lexicographic ranks of token rows among the orderings of their
    multiset (Kreher & Stinson, *Combinatorial Algorithms*, 1999, ch. 2;
    Knuth, TAOCP 4A, 7.2.1.2).

    A row ``x`` ranks sum_j sum_{t < x_j} N(R_j - e_t) in its block, where
    ``R_j`` is the multiset of its tokens from slot ``j`` on and ``N`` the
    number of orderings of a multiset (0 where a count would be negative).
    A multiset of a link is numbered by the mixed-radix code of its counts
    (frees, n_1, .., n_K), frees the lowest digit, so the code of ``R_j``
    is the sum of the weights of the tokens from slot ``j`` on.  ``terms``
    holds sum_{t < x} N(M - e_t) at ``code(M) * (K + 2) + x``, zero where
    ``M`` is wider than the link.  Token ``K + 1`` pads a row: it weighs
    nothing and adds nothing.  Every sum of terms is a rank or part of one,
    so below the largest pattern's count: ranks are ``int32`` where that
    fits, else ``int64``, and codes are typed by the table's size the same
    way.
    """

    weight: np.ndarray  # code of each token, the pad's last
    terms: np.ndarray  # flat (codes, K + 2)

    @property
    def stride(self) -> int:
        return len(self.weight)

    def prefix(self, index: np.ndarray) -> np.ndarray:
        """At each slot, the sum of the terms at ``index`` of the slots
        before it; an index outside the table is clipped to it."""
        out = np.empty(index.shape, self.terms.dtype)
        out[0] = 0
        _accumulate(self.terms.take(index[:-1], mode="clip"), out[1:])
        return out

    def rank(self, tokens: np.ndarray) -> np.ndarray:
        """The index in its block of every row of slot-major ``tokens``
        (``tokens[j]`` is slot ``j`` of every row)."""
        code = np.zeros(tokens.shape[1], self.weight.dtype)
        rank = np.zeros(tokens.shape[1], self.terms.dtype)
        for slot in tokens[::-1]:
            code += self.weight.take(slot)
            rank += self.terms.take(code * self.stride + slot)
        return rank


def multiset_ranks(profile: DemandProfile) -> MultisetRanks:
    """The rank table of a link; raises RankOverflow when a pattern has
    more states than ``int64`` holds."""
    capacity, demands = profile.capacity, profile.demands
    K = len(demands)
    largest = max(pattern_size(p, profile) for p in feasible_patterns(profile))
    if largest > np.iinfo(np.int64).max:
        raise RankOverflow(largest)
    rank_type = _index_type(largest)
    radix = (capacity + 1,) + tuple(capacity // d + 1 for d in demands)
    codes = math.prod(radix)
    # a shifted code of a row may fall one radix step outside the table
    code_type = _index_type(2 * codes * (K + 2))
    weight = np.zeros(K + 2, code_type)
    weight[:K + 1] = np.cumprod((1,) + radix[:-1])
    digits = np.indices(radix[::-1]).reshape(K + 1, codes)[::-1]
    feasible = np.flatnonzero(digits[0] + np.dot(demands, digits[1:]) <= capacity)
    # N = prod_k C(f + n_1 + .. + n_k, n_k) on the multisets that fit the
    # link: each factor and partial product is at most N, so at most the
    # largest pattern's count
    top = capacity // min(demands)
    int64_max = np.iinfo(np.int64).max
    binomial = np.array([[min(math.comb(s, n), int64_max) for n in range(top + 1)]
                         for s in range(capacity + 1)], np.int64)
    counts = digits[:, feasible]
    total = counts[0].copy()
    size = np.ones(len(feasible), np.int64)
    for n in counts[1:]:
        total += n
        size *= binomial[total, n]
    orderings = np.zeros(codes, rank_type)
    orderings[feasible] = size
    # removal[:, t] = N(M - e_t) where M holds a token t
    removal = np.zeros((codes, K), rank_type)
    for t in range(K):
        holds = feasible[counts[t] > 0]
        removal[holds, t] = orderings[holds - weight[t]]
    terms = np.zeros((codes, K + 2), rank_type)
    np.cumsum(removal, axis=1, out=terms[:, 1:K + 1])
    weight.flags.writeable = terms.flags.writeable = False
    return MultisetRanks(weight=weight, terms=terms.ravel())


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
    entry, list states; both are ascending ``int64`` arrays.  ``ranks``
    gives a token row its index in its block.
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
    ranks: MultisetRanks = field(repr=False)
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
        """Per block, the rows of its mirror classes' representatives, ascending.

        Classes are numbered in the order of their representatives, so a
        state represents its class where its class exceeds every one before it.
        """
        lumped = self.lumped
        new = np.ones(len(lumped), bool)
        new[1:] = lumped[1:] > np.maximum.accumulate(lumped)[:-1]
        for group in self.pattern_groups.values():
            yield np.flatnonzero(new[group.start:group.stop])

    @cached_property
    def transitions(self) -> TransitionStructure:
        """The transition structure, derived on first use."""
        began = time.perf_counter()
        demands = self.profile.demands
        K = len(demands)
        ranks = self.ranks
        lumped = self.lumped
        n_sa, n_r, n_d = self.num_mirror_classes, self.num_raas, self.num_daas
        states = n_sa + n_r + n_d
        groups = list(self.pattern_groups.values())
        raas_index = {pat: v for v, pat in enumerate(self.raas_patterns)}
        daas_index = {pat: v for v, pat in enumerate(self.daas_patterns)}
        # Per pattern: its free slots, its randomization and defrag states
        # (-1: none), and per class k the first state of the pattern with one
        # class-k connection more (up) and less (down), where there is one.
        frees = np.empty(len(groups), np.int64)
        raas, daas = np.full(len(groups), -1, np.int64), np.full(len(groups), -1, np.int64)
        up, down = np.zeros((K, len(groups)), np.int64), np.zeros((K, len(groups)), np.int64)
        # The entries of the unlumped chain in closed form bound the ones
        # written: a (row, slot) where class k fits is a row of the pattern
        # with d_k of its free slots merged into one token; the blocked sets
        # count the rows that enter a defrag state.  Pages past the last
        # entry written are never touched, and the arrays shrink to it.
        size = sum(map(len, self.frag_blocked)) + sum(map(len, self.defrag_targets))
        for p, (pat, group) in enumerate(self.pattern_groups.items()):
            frees[p] = self.profile.capacity - sum(n * d for n, d in zip(pat, demands))
            if pat in raas_index:
                raas[p] = n_sa + raas_index[pat]
            if pat in daas_index:
                daas[p] = n_sa + n_r + daas_index[pat]
            for k in range(K):
                up[k, p] = self.pattern_groups.get(pat[:k] + (pat[k] + 1,) + pat[k + 1:], group).start
                down[k, p] = self.pattern_groups.get(pat[:k] + (pat[k] - 1,) + pat[k + 1:], group).start
            size += len(group) * (sum(pat) + 2 * (pat in raas_index))
            size += sum(_permutation_count(frees[p] - d, pat + (1,)) for d in demands if frees[p] >= d)
        col, div = np.empty(size, np.int32), np.empty(size, np.int32)
        kind = np.empty(size, np.min_scalar_type(3 * K + 4))
        kinds = 3 * K + 5
        indptr = np.zeros(states + 1, np.int64)  # first the entries of each state
        diagonal = np.zeros(states, np.int64)  # first the entries of each state into a lesser one

        # The rows of the classes go in slot-major chunks.  A move changes a
        # row at one slot s, so the rank of its target needs no target row:
        # the sum of the rank terms before s under the multiset the move
        # leaves, the inserted token's term (an inserted free adds nothing),
        # and the row's own terms after the slots it replaces.  Where class k
        # fits at s, the arrival's code at s is the shifted code at s.  A
        # shifted code is meaningless past the slots where the move is
        # possible, but no target reads it.
        at = first = 0
        representatives = (block[reps] for block, reps in zip(self.blocks, self.representatives()))
        for tokens, pattern in _chunks(representatives, _CHUNK_ROWS, K + 1):
            width, n = tokens.shape
            # the term index of each slot (code of the tokens from it on, and
            # its token), and the sum of the terms from each slot on
            codes = np.empty(tokens.shape, ranks.weight.dtype)
            index = _accumulate(ranks.weight.take(tokens[::-1]), codes[::-1])[::-1] * ranks.stride + tokens
            suffix = np.empty(tokens.shape, ranks.terms.dtype)
            _accumulate(ranks.terms.take(index)[::-1], suffix[::-1])
            suffix = suffix.ravel()
            runs = _free_runs(tokens)
            # Each entry is keyed (row * states + col) * kinds + kind: sorted,
            # the entries go by row, then by column, and a row's defrag
            # entries by class.  divisors[kind, row] is an entry's divisor.
            keys = []
            divisors = np.ones((kinds, n), np.int32)
            for k, d in enumerate(demands, start=1):
                weight = int(ranks.weight[k])
                # flat (s, r) where the d slots from s on are free in row r
                fits = np.flatnonzero(runs[d - 1:width - 1] >= d)
                r = fits - fits // n * n
                divisors[k - 1] = np.bincount(r, minlength=n)
                if len(fits):
                    # the arrival's multiset: d frees fewer, one class-k token more
                    shift = (weight - d) * ranks.stride
                    rank = ranks.prefix(index[:width - d] + shift).ravel().take(fits)
                    rank += suffix[d * n:].take(fits)
                    rank += ranks.terms.take(index.ravel().take(fits) + (shift + k))
                    to = lumped.take(up[k - 1].take(pattern.take(r)) + rank)
                    keys.append((r * states + to) * kinds + (k - 1))
                stuck = np.flatnonzero((divisors[k - 1] == 0) & (frees.take(pattern) >= d))
                keys.append((stuck * states + daas.take(pattern.take(stuck))) * kinds + (K + k - 1))
                # flat (s, r) where slot s of row r holds a class-k token
                leaves = np.flatnonzero(tokens == k)
                if len(leaves):
                    r = leaves - leaves // n * n
                    rank = ranks.prefix(index[:-1] + (d - weight) * ranks.stride).ravel().take(leaves)
                    rank += suffix[n:].take(leaves)
                    to = lumped.take(down[k - 1].take(pattern.take(r)) + rank)
                    keys.append((r * states + to) * kinds + (2 * K + k - 1))
            randomized = np.flatnonzero(raas.take(pattern) >= 0)
            keys.append((randomized * states + raas.take(pattern.take(randomized))) * kinds + 3 * K)
            key = np.sort(np.concatenate(keys))
            to = key // kinds
            how = key - to * kinds
            row = to // states
            to -= row * states
            entries = slice(at, at + len(key))
            col[entries], kind[entries], div[entries] = to, how, divisors.ravel().take(how * n + row)
            indptr[first + 1:first + n + 1] = np.bincount(row, minlength=n)
            diagonal[first:first + n] = np.bincount(row[to < first + row], minlength=n)
            at += len(key)
            first += n

        # The randomization states return to the classes of their pattern,
        # the defrag states to those of their targets, each member at the
        # same rate: a class of two takes the doubled return kind.
        classes = np.diff(np.append(lumped[[g.start for g in groups]], n_sa))  # of each pattern
        randomized = raas >= 0
        into = np.flatnonzero(np.repeat(randomized, classes))
        members = np.bincount(lumped, minlength=n_sa).take(into)
        sizes = np.array(list(map(len, groups)))
        returns = [(into, 3 * K + 1 + 2 * (members - 1), np.repeat(sizes[randomized], classes[randomized]),
                    classes[randomized])]
        targets = np.array(list(map(len, self.defrag_targets)), np.int64)
        key = np.repeat(np.arange(n_d), targets) * n_sa
        key += lumped.take(np.concatenate([np.zeros(0, np.int64), *self.defrag_targets]))
        key, members = np.unique(key, return_counts=True)
        v = key // n_sa
        returns.append((key - v * n_sa, 3 * K + 2 + 2 * (members - 1), targets.take(v),
                        np.bincount(v, minlength=n_d)))
        row = n_sa
        for into, how, share, spans in returns:
            entries = slice(at, at + len(into))
            col[entries], kind[entries], div[entries] = into, how, share
            indptr[row + 1:row + len(spans) + 1] = diagonal[row:row + len(spans)] = spans
            at += len(into)
            row += len(spans)
        col, kind, div = col[:at], kind[:at], div[:at]
        np.cumsum(indptr, out=indptr)
        diagonal += indptr[:-1]
        log.debug("transitions: %d entries over %d rows in %.3f s", at, states, time.perf_counter() - began)
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
    ranks = multiset_ranks(profile)
    memo: dict = {}
    blocks: list[np.ndarray] = []
    pattern_groups: dict[tuple[int, ...], range] = {}
    frees: list[int] = []  # per pattern
    first = 0
    for pat in feasible_patterns(profile):
        frees.append(profile.capacity - sum(n * d for n, d in zip(pat, demands)))
        blocks.append(_permutations((frees[-1],) + pat, memo))
        pattern_groups[pat] = range(first, first + len(blocks[-1]))
        first += len(blocks[-1])
    del memo  # frees the blocks of the sub-multisets that are no pattern

    # Per state: the classes it is frag-blocked for (no free run fits the
    # arrival, though enough slots are free), whether its frees form at most
    # one run (the free tokens start one run, or there are none), and the
    # lesser of it and its mirror image, the rank of its reversed row.
    starts = np.array([g.start for g in pattern_groups.values()])
    frag = np.empty((len(demands), first), bool)
    single_run = np.empty(first, bool)
    lesser = np.empty(first, _index_type(first))
    at = 0
    for tokens, block in _chunks(blocks, _CHUNK_ROWS * 4, len(demands) + 1):
        rows = slice(at, at + tokens.shape[1])
        runs = _free_runs(tokens)
        longest_run, free = runs.max(axis=0), np.take(frees, block)
        for k, d in enumerate(demands):
            frag[k, rows] = (longest_run < d) & (free >= d)
        single_run[rows] = (runs == 1).sum(axis=0) <= 1
        lesser[rows] = np.minimum(np.arange(rows.start, rows.stop), starts[block] + ranks.rank(tokens[::-1]))
        at = rows.stop
    # a state and its mirror image share the class of the lesser of the two,
    # and the same free runs
    representative = lesser == np.arange(first, dtype=lesser.dtype)
    lumped = (np.cumsum(representative, dtype=np.int32) - 1)[lesser]
    free_slots = np.repeat(frees, np.add.reduceat(representative, starts, dtype=np.int64))  # of each class
    # the patterns where a state is frag-blocked get a defrag state
    daas = np.logical_or.reduceat(frag.any(axis=0), starts)
    daas_patterns = tuple(pat for pat, has in zip(pattern_groups, daas) if has)
    return StateSpace(
        profile=profile,
        pattern_groups=pattern_groups,
        frag_blocked=tuple(np.flatnonzero(blocked[representative]) for blocked in frag),
        resource_blocked=tuple(np.flatnonzero(free_slots < d) for d in demands),
        raas_patterns=tuple(pat for pat in pattern_groups if sum(pat) >= 1 or options.randomize_empty),
        daas_patterns=daas_patterns,
        defrag_targets=tuple(g.start + np.flatnonzero(single_run[g.start:g.stop])
                             for g in map(pattern_groups.get, daas_patterns)),
        blocks=tuple(blocks),
        lumped=lumped,
        ranks=ranks,
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
