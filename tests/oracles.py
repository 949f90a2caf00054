"""Independent reference implementations the engines are checked against,
and the link helpers that only tests use."""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, product

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from eolsec.ctmc import ModelVariant, RateMatrix
from eolsec.link import FREE, DemandProfile, fit_runs, pattern
from eolsec.security import _outside_splits, per_state_attack_success
from eolsec.statespace import (
    SpaceOptions,
    StateSpace,
    _permutation_count,
    feasible_patterns,
    pattern_size,
)

DEFAULT_ENUMERATION_BUDGET = 2_000_000


class Classification(Enum):
    """Outcome of offering one class-k arrival to a state."""

    ACCEPT = "accept"
    FRAG_BLOCKED = "frag-blocked"
    RESOURCE_BLOCKED = "resource-blocked"


def classify(tokens: Sequence[int], k: int, profile: DemandProfile) -> Classification:
    """Accept, fragmentation-blocked or resource-blocked for a class-k arrival."""
    need = profile.demands[k - 1]
    if fit_runs(tokens, need):
        return Classification.ACCEPT
    if tokens.count(FREE) >= need:
        return Classification.FRAG_BLOCKED
    return Classification.RESOURCE_BLOCKED


def placements(tokens: Sequence[int], k: int, profile: DemandProfile) -> list[tuple[int, ...]]:
    """All states reachable by admitting one class-k connection.

    One result per admissible slot position, in slot order.  Under the
    random-fit policy each result is chosen with probability 1/len(result).
    """
    need = profile.demands[k - 1]
    runs = fit_runs(tokens, need)
    if not runs:
        raise ValueError(f"class {k} is not acceptable in this state")
    tokens = tuple(tokens)
    return [
        tokens[:off] + (k,) + tokens[off + need:]
        for start, c in runs
        for off in range(start, start + c)
    ]


def removals(tokens: Sequence[int], k: int, profile: DemandProfile) -> list[tuple[tuple[int, ...], int]]:
    """States reachable by one class-k departure, with multiplicities.

    Each of the n_k class-k connections is removed in turn; identical
    results are merged and their multiplicities summed, so the total
    multiplicity is n_k.
    """
    tokens = tuple(tokens)
    frees = (FREE,) * profile.demands[k - 1]
    merged: dict[tuple[int, ...], int] = {}
    for i, t in enumerate(tokens):
        if t == k:
            target = tokens[:i] + frees + tokens[i + 1:]
            merged[target] = merged.get(target, 0) + 1
    if not merged:
        raise ValueError(f"no class-{k} connection to remove")
    return list(merged.items())


def is_defragmented(tokens: Sequence[int]) -> bool:
    """True iff all free slots form at most one contiguous block."""
    return len(fit_runs(tokens, 1)) <= 1


def multiset_rank(tokens: Sequence[int]) -> int:
    """The number of orderings of the multiset of ``tokens`` that come
    before ``tokens`` lexicographically, counted in Python integers: at each
    slot, the orderings that share the slots before it and hold a lesser
    token there."""
    left = [tokens.count(t) for t in range(max(tokens) + 1)]
    rank = 0
    for x in tokens:
        for t in range(x):
            if left[t]:
                left[t] -= 1
                rank += _permutation_count(0, tuple(left))
                left[t] += 1
        left[x] -= 1
    return rank


def token_sequences(counts: list[int]) -> Iterator[tuple[int, ...]]:
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


def arrangements(space: StateSpace) -> list[tuple[int, ...]]:
    """Every regular state's token tuple, in index order, listed from ``space.blocks``."""
    return [tuple(row) for block in space.blocks for row in block.tolist()]


def scalar_state_space(profile: DemandProfile, options: SpaceOptions | None = None) -> dict:
    """The public ``StateSpace`` fields, enumerated and classified state by state."""
    options = options or SpaceOptions()
    K = profile.num_classes
    rows: list[tuple[int, ...]] = []
    blocks: list[np.ndarray] = []
    pattern_groups: dict[tuple[int, ...], range] = {}
    frag: list[list[int]] = [[] for _ in range(K)]
    res: list[list[int]] = [[] for _ in range(K)]
    daas_patterns: list[tuple[int, ...]] = []

    for pat in feasible_patterns(profile):
        used = sum(n * d for n, d in zip(pat, profile.demands))
        first = len(rows)
        fragmentable = False
        for tokens in token_sequences([profile.capacity - used] + list(pat)):
            idx = len(rows)
            rows.append(tokens)
            for k in range(1, K + 1):
                c = classify(tokens, k, profile)
                if c is Classification.FRAG_BLOCKED:
                    frag[k - 1].append(idx)
                    fragmentable = True
                elif c is Classification.RESOURCE_BLOCKED:
                    res[k - 1].append(idx)
        pattern_groups[pat] = range(first, len(rows))
        blocks.append(np.array(rows[first:], dtype=np.int8))
        if fragmentable:
            daas_patterns.append(pat)

    def indices(members) -> np.ndarray:
        return np.array(members, dtype=np.int64)

    return {
        "pattern_groups": pattern_groups,
        "frag_blocked": tuple(map(indices, frag)),
        "resource_blocked": tuple(map(indices, res)),
        "raas_patterns": tuple(
            pat for pat in pattern_groups if sum(pat) >= 1 or options.randomize_empty
        ),
        "daas_patterns": tuple(daas_patterns),
        "defrag_targets": tuple(
            indices([i for i in pattern_groups[pat] if is_defragmented(rows[i])])
            for pat in daas_patterns
        ),
        "blocks": tuple(blocks),
    }


def scalar_transitions(space: StateSpace) -> dict[str, np.ndarray]:
    """``row``, ``col``, ``kind``, ``mult`` and ``div`` of every transition, state by state.

    Entry ``e`` has rate ``base[kind[e]] * mult[e] / div[e]`` in the layout
    of ``TransitionStructure.rates``; ``mult`` counts the departures that
    ``removals`` merged into one entry.
    """
    profile = space.profile
    K = profile.num_classes
    randomize, return_raas, return_daas = 3 * K, 3 * K + 1, 3 * K + 2
    n_sa = space.num_regular
    n_r = space.num_raas
    states = arrangements(space)
    index_of = {arr: i for i, arr in enumerate(states)}
    raas_index = {pat: v for v, pat in enumerate(space.raas_patterns)}
    daas_index = {pat: v for v, pat in enumerate(space.daas_patterns)}
    frag_blocked = [set(class_members(space, s).tolist()) for s in space.frag_blocked]
    resource_blocked = [set(class_members(space, s).tolist()) for s in space.resource_blocked]
    entries = array("q")  # flat (row, col, kind, mult, div) records
    for i, arr in enumerate(states):
        pat = pattern(arr, profile)
        for k in range(1, K + 1):
            if i in frag_blocked[k - 1]:
                entries.extend((i, n_sa + n_r + daas_index[pat], K + k - 1, 1, 1))
            elif i not in resource_blocked[k - 1]:
                targets = placements(arr, k, profile)
                for target in targets:
                    entries.extend((i, index_of[target], k - 1, 1, len(targets)))
            if pat[k - 1]:
                for target, mult in removals(arr, k, profile):
                    entries.extend((i, index_of[target], 2 * K + k - 1, mult, 1))
        if pat in raas_index:
            entries.extend((i, n_sa + raas_index[pat], randomize, 1, 1))
    for v, pat in enumerate(space.raas_patterns):
        members = space.pattern_groups[pat]
        for j in members:
            entries.extend((n_sa + v, j, return_raas, 1, len(members)))
    for v, targets in enumerate(space.defrag_targets):
        for j in targets.tolist():
            entries.extend((n_sa + n_r + v, j, return_daas, 1, len(targets)))
    columns = np.frombuffer(entries, dtype=np.int64).reshape(-1, 5).T.copy()
    return dict(zip(("row", "col", "kind", "mult", "div"), columns))


def mirror_images(space: StateSpace) -> np.ndarray:
    """The index of each regular state's mirror image: its token tuple reversed."""
    states = arrangements(space)
    index = {tokens: i for i, tokens in enumerate(states)}
    return np.array([index[tokens[::-1]] for tokens in states], np.int64)


def mirror_classes(space: StateSpace) -> np.ndarray:
    """Each regular state's mirror class, found state by state: a token
    tuple and its reverse share one, numbered in the order of their lesser
    member."""
    lesser = np.minimum(mirror_images(space), np.arange(space.num_regular)).tolist()
    number = {i: n for n, i in enumerate(sorted(set(lesser)))}
    return np.array([number[i] for i in lesser], np.int64)


def lumped_rows(space: StateSpace) -> np.ndarray:
    """The lumped row of every state of the [regular | randomization |
    defrag] layout: its mirror class, or, past the regular states, its own."""
    classes = mirror_classes(space)
    extra = np.arange(space.num_raas + space.num_daas)
    return np.concatenate([classes, classes.max() + 1 + extra])


def class_members(space: StateSpace, classes: np.ndarray) -> np.ndarray:
    """The regular states of the given mirror classes, ascending."""
    return np.flatnonzero(np.isin(mirror_classes(space), classes))


def expand(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """A distribution over the rows of a lumped generator as one over the
    states of the [regular | randomization | defrag] layout: each member of
    a class gets an equal share, exactly, as a class has one or two."""
    rows = lumped_rows(space)
    rows = rows[rows < len(pi)]
    return pi[rows] / np.bincount(rows)[rows]


def lump(space: StateSpace, pi: np.ndarray) -> np.ndarray:
    """A distribution over the states as one over the rows of the lumped generator."""
    return np.bincount(lumped_rows(space)[:len(pi)], weights=pi)


def state_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """``per_state_attack_success`` on every regular state: its mirror class's score."""
    return per_state_attack_success(space, width)[mirror_classes(space)]


def lumped_generator(space: StateSpace, rm: RateMatrix) -> RateMatrix:
    """A generator over every state of ``space`` lumped over mirror classes.

    Row ``a`` is the row of class ``a``'s lesser member with the columns of
    each class added up; the diagonal is minus the row sum, taken as
    ``loop_generator`` takes it.
    """
    q = rm.matrix
    rows = lumped_rows(space)[:q.shape[0]]
    dim = int(rows.max()) + 1
    first = np.unique(rows, return_index=True)[1]
    members = sp.csr_matrix((np.ones(len(rows)), (np.arange(len(rows)), rows)), shape=(len(rows), dim))
    off = (q - sp.diags(q.diagonal())).tocsr()[first] @ members
    off.sum_duplicates()  # sorted columns, which the row sums add in
    off = off + sp.diags(-np.asarray(off.sum(axis=1)).ravel(), format="csr")
    return RateMatrix(off)


def lumped_transitions(space: StateSpace, loop: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``scalar_transitions`` over the mirror classes, ordered by row, then
    by column, as ``TransitionStructure`` lays them out.

    The entries of each class's lesser member, and of every
    reconfiguration state, go to the classes of their targets.  The
    returns of a reconfiguration state into both members of a class merge
    into one entry of the doubled kind, 3K + 3 or 3K + 4.
    """
    K = space.profile.num_classes
    rows = lumped_rows(space)
    first = set(np.unique(rows, return_index=True)[1].tolist())
    entries: list[tuple[int, int, int, int]] = []
    returns: dict[tuple[int, int, int, int], int] = {}
    for i, j, kind, mult, div in zip(*(loop[name].tolist() for name in ("row", "col", "kind", "mult", "div"))):
        assert mult == 1  # no two departures ever reach the same state
        entry = (int(rows[i]), int(rows[j]), kind, div)
        if kind > 3 * K:
            returns[entry] = returns.get(entry, 0) + 1
        elif i in first:
            entries.append(entry)
    entries += [(a, b, kind + 2 * (n - 1), div) for (a, b, kind, div), n in returns.items()]
    # a stable sort keeps the entries into one defrag state in class order
    entries.sort(key=lambda e: e[:2])
    columns = np.array(entries, np.int64).reshape(-1, 4).T
    return dict(zip(("row", "col", "kind", "div"), columns))


def free_fragments(arr: tuple[int, ...]) -> list[int]:
    """Sizes of maximal free-slot runs, in slot order."""
    return [size for _, size in fit_runs(arr, 1)]


def placement_count(arr: tuple[int, ...], k: int, profile: DemandProfile) -> int:
    """Number of distinct slot positions where a class-k block fits."""
    return sum(c for _, c in fit_runs(arr, profile.demands[k - 1]))


def token_spans(tokens: Sequence[int], demands: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Connections of ``tokens`` as (class, first_slot, last_slot), 1-based slots."""
    spans: list[tuple[int, int, int]] = []
    slot = 1
    for t in tokens:
        if t != FREE:
            w = demands[t - 1]
            spans.append((t, slot, slot + w - 1))
            slot += w
        else:
            slot += 1
    return spans


@dataclass(frozen=True)
class ObservationWindow:
    """``width`` contiguous slots starting at 1-based slot ``start``."""

    start: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("window width must be >= 1")
        if self.start < 1:
            raise ValueError("window start must be >= 1")

    @property
    def last(self) -> int:
        return self.start + self.width - 1


def _check_window(w: ObservationWindow, profile: DemandProfile) -> None:
    if w.last > profile.capacity:
        raise ValueError(f"window [{w.start}, {w.last}] exceeds capacity {profile.capacity}")


def _inside_of_spans(
    spans: list[tuple[int, int, int]], start: int, last: int, num_classes: int
) -> tuple[tuple[int, ...], bool]:
    counts = [0] * num_classes
    straddle = False
    for k, s, e in spans:
        if s >= start and e <= last:
            counts[k - 1] += 1
        elif s <= last and e >= start:
            straddle = True
    return tuple(counts), straddle


def inside_pattern(
    arr: tuple[int, ...], window: ObservationWindow, profile: DemandProfile
) -> tuple[tuple[int, ...], bool]:
    """Pattern of connections fully inside the window, plus a straddle flag.

    Connections overlapping a window edge set the flag and are excluded
    from the pattern.
    """
    _check_window(window, profile)
    spans = token_spans(arr, profile.demands)
    return _inside_of_spans(spans, window.start, window.last, profile.num_classes)


def _outside_split_count(
    n_out: tuple[int, ...],
    frees_out: int,
    cap_left: int,
    demands: tuple[int, ...],
) -> int:
    """Ways to order the outside tokens onto the two sides of the window.

    Sums, over every multiset split whose left side fills exactly
    ``cap_left`` slots, the orderings of each side.
    """
    total = 0
    for m in product(*(range(n + 1) for n in n_out)):
        f_left = cap_left - sum(c * d for c, d in zip(m, demands))
        if 0 <= f_left <= frees_out:
            right = tuple(n - c for n, c in zip(n_out, m))
            total += _permutation_count(f_left, m) * _permutation_count(frees_out - f_left, right)
    return total


def count_matching_rearrangements(
    arr: tuple[int, ...], window: ObservationWindow, profile: DemandProfile
) -> int:
    """Arrangements of ``arr``'s pattern indistinguishable inside the window.

    Counts the arrangements with the same full pattern whose fully-inside
    pattern equals the one observed in ``arr`` and which leave no connection
    straddling a window edge: the inside orderings times the outside splits.
    """
    _check_window(window, profile)
    pat = pattern(arr, profile)
    n_in, _ = inside_pattern(arr, window, profile)

    frees_total = profile.capacity - sum(n * d for n, d in zip(pat, profile.demands))
    frees_in = window.width - sum(n * d for n, d in zip(n_in, profile.demands))
    if frees_in > frees_total:
        return 0
    n_out = tuple(n - i for n, i in zip(pat, n_in))
    inside = _permutation_count(frees_in, n_in)
    outside = _outside_split_count(n_out, frees_total - frees_in, window.start - 1, profile.demands)
    return inside * outside


def loop_generator(space: StateSpace, profile: DemandProfile, variant: ModelVariant) -> RateMatrix:
    """Generator assembled transition by transition, one Python call each."""
    n_sa = space.num_regular
    n_r = space.num_raas if variant.has_randomization else 0
    n_d = space.num_daas if variant.has_defrag else 0
    dim = n_sa + n_r + n_d
    lam = profile.arrival_rates
    mu = profile.service_rates
    lam_s = variant.randomization_rate
    mu_d = variant.reconfig_rate
    states = arrangements(space)
    index_of = {arr: i for i, arr in enumerate(states)}
    raas_index = {pat: v for v, pat in enumerate(space.raas_patterns)}
    daas_index = {pat: v for v, pat in enumerate(space.daas_patterns)}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(i: int, j: int, rate: float) -> None:
        if rate != 0.0:
            rows.append(i)
            cols.append(j)
            vals.append(rate)

    for i, arr in enumerate(states):
        pat = pattern(arr, profile)
        for k in range(1, profile.num_classes + 1):
            outcome = classify(arr, k, profile)
            if outcome is Classification.ACCEPT:
                targets = placements(arr, k, profile)
                rate = lam[k - 1] / len(targets)
                for target in targets:
                    add(i, index_of[target], rate)
            elif outcome is Classification.FRAG_BLOCKED and variant.has_defrag:
                add(i, n_sa + n_r + daas_index[pat], lam[k - 1])
            if pat[k - 1]:
                for target, mult in removals(arr, k, profile):
                    add(i, index_of[target], mu[k - 1] * mult)
        if variant.has_randomization and pat in raas_index:
            add(i, n_sa + raas_index[pat], lam_s)

    if variant.has_randomization:
        for v, pat in enumerate(space.raas_patterns):
            members = space.pattern_groups[pat]
            rate = mu_d / len(members)
            for j in members:
                add(n_sa + v, j, rate)

    if variant.has_defrag:
        for v in range(space.num_daas):
            targets = space.defrag_targets[v]
            rate = mu_d / len(targets)
            for j in targets.tolist():
                add(n_sa + n_r + v, j, rate)

    q = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    q = q + sp.diags(-np.asarray(q.sum(axis=1)).ravel(), format="csr")
    return RateMatrix(q)


def lil_bordered_matrix(q: sp.csr_matrix) -> sp.csc_matrix:
    """Q^T with its last row replaced by ones, built through a LIL matrix."""
    m = q.shape[0]
    a = q.transpose().tolil()
    a[m - 1, :] = np.ones(m)
    return a.tocsc()


def lu_stationary(rm: RateMatrix) -> np.ndarray:
    """Independent sparse solve: an LU of the bordered balance system.

    With one closed class the balance equations have rank n - 1 and the
    normalization row is not orthogonal to pi, so the bordered matrix is
    nonsingular even with transient states.  The minimum-degree ordering on
    A^T + A keeps the factors near the size of Q.
    """
    n = rm.dimension
    b = np.zeros(n)
    b[n - 1] = 1.0
    x = splu(lil_bordered_matrix(rm.matrix), permc_spec="MMD_AT_PLUS_A").solve(b)
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def is_strongly_connected(rm: RateMatrix) -> bool:
    adjacency = rm.matrix.copy()
    adjacency.setdiag(0)
    n_comp, _ = connected_components(adjacency, directed=True, connection="strong")
    return n_comp == 1


def closed_classes(q: sp.csr_matrix) -> list[np.ndarray]:
    """The closed communicating classes of a generator: the strongly
    connected components that no edge leaves."""
    adjacency = q.copy()
    adjacency.setdiag(0)
    adjacency.eliminate_zeros()
    n_comp, labels = connected_components(adjacency, directed=True, connection="strong")
    edges = adjacency.tocoo()
    left = labels[edges.row[labels[edges.row] != labels[edges.col]]]
    return [np.flatnonzero(labels == c) for c in np.setdiff1d(np.arange(n_comp), left)]


def dense_stationary_oracle(rm: RateMatrix) -> np.ndarray:
    """Independent dense solve: least squares on [Q^T; 1] x = [0; 1]."""
    q = rm.matrix.toarray()
    n = q.shape[0]
    a = np.vstack([q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    x, *_ = scipy.linalg.lstsq(a, b, lapack_driver="gelsy")
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def group_table_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """Per-state attack survival by tabulating, for every window start, the
    inside patterns of all straddle-free members of each pattern group."""
    profile = space.profile
    positions = profile.capacity - width + 1
    numerators = [0] * space.num_regular
    denominators = [0] * space.num_regular
    states = arrangements(space)
    for pat, members in space.pattern_groups.items():
        spans_of = {i: token_spans(states[i], profile.demands) for i in members}
        r_n = pattern_size(pat, profile)
        for start in range(1, positions + 1):
            last = start + width - 1
            table: dict[tuple[int, ...], int] = {}
            insides: dict[int, tuple[int, ...]] = {}
            for i in members:
                n_in, straddle = _inside_of_spans(spans_of[i], start, last, profile.num_classes)
                insides[i] = n_in
                if not straddle:
                    table[n_in] = table.get(n_in, 0) + 1
            for i in members:
                numerators[i] += table.get(insides[i], 0)
        for i in members:
            denominators[i] = r_n * positions
    return np.array([n / d for n, d in zip(numerators, denominators)])


class ScalarWindowSurvival:
    """The window survival of one pre-state at a time, from its connection spans.

    Spans are sorted and disjoint, so the fully-inside pattern changes only
    at two breakpoints per span, and the entry and exit breakpoints are each
    nondecreasing: two pointers merge them without a sort.  The inside
    counts are one mixed-radix integer, updated with one addition per
    breakpoint and decoded only on a cache miss.  Each run of window starts
    with one inside pattern costs one prefix-sum difference of the
    outside-split counts, times its inside orderings (``_run``).  The sums
    are Python ints, divided once.

    An instance caches per link structure, so it serves one profile.
    """

    def __init__(self, profile: DemandProfile):
        self.capacity = profile.capacity
        self.demands = profile.demands
        # class k (1-based) holds at most capacity // d_k connections, so its
        # digit has radix capacity // d_k + 1 and place value _place[k]
        self._radix = [self.capacity // d + 1 for d in self.demands]
        self._place = [0, 1]
        for r in self._radix[:-1]:
            self._place.append(self._place[-1] * r)
        # (outside pattern, outside frees) -> prefix sums over cap_left
        self._prefix: dict[tuple[tuple[int, ...], int], list[int]] = {}
        # (pattern, width) -> ({inside key: (inside orderings, prefix) or ()},
        #                      arrangements of the pattern * window positions)
        self._runs: dict[tuple[tuple[int, ...], int], tuple[dict, int]] = {}

    def expected(self, spans: list[tuple[int, int, int]], pat: tuple[int, ...], width: int) -> float:
        """E[survival | spans] for a window of ``width`` slots; ``pat`` is the spans' pattern."""
        positions = self.capacity - width + 1
        table = self._runs.get((pat, width))
        if table is None:
            total = _permutation_count(self._frees(pat), pat)
            table = self._runs[(pat, width)] = ({}, total * positions)
        runs, denominator = table
        # A span (k, s, e) lies fully inside the windows starting in
        # [e - width + 1, s]: it enters there and leaves after s.
        place = self._place
        enters = []
        leaves = []
        steps = []
        for k, s, e in spans:
            lo = e - width + 1 if e > width else 1
            hi = s if s < positions else positions
            if lo <= hi:
                enters.append(lo)
                leaves.append(hi + 1)
                steps.append(place[k])
        enters.append(positions + 1)  # sentinels: past the last window start
        leaves.append(positions + 1)

        numerator = 0
        key = 0
        i = j = 0
        first = 1
        while first <= positions:
            while enters[i] == first:
                key += steps[i]
                i += 1
            while leaves[j] == first:
                key -= steps[j]
                j += 1
            nxt = enters[i] if enters[i] < leaves[j] else leaves[j]
            run = runs.get(key)
            if run is None:
                run = runs[key] = self._run(pat, self._decode(key), width)
            if run:
                inside, prefix = run
                # window start s leaves cap_left = s - 1 slots on the left
                numerator += inside * (prefix[nxt - 1] - prefix[first - 1])
            first = nxt
        return numerator / denominator

    def _decode(self, key: int) -> tuple[int, ...]:
        return tuple(key // p % r for p, r in zip(self._place[1:], self._radix))

    def _frees(self, pat: tuple[int, ...]) -> int:
        return self.capacity - sum(n * d for n, d in zip(pat, self.demands))

    def _run(self, pat: tuple[int, ...], n_in: tuple[int, ...], width: int):
        """(inside orderings, outside prefix sums) of one inside pattern, or () if infeasible."""
        frees_total = self._frees(pat)
        frees_in = width - sum(n * d for n, d in zip(n_in, self.demands))
        if frees_in > frees_total:
            return ()
        key = (tuple(p - n for p, n in zip(pat, n_in)), frees_total - frees_in)
        prefix = self._prefix.get(key)
        if prefix is None:
            prefix = self._prefix[key] = list(accumulate(_outside_splits(*key, self.demands), initial=0))
        return _permutation_count(frees_in, n_in), prefix


def scalar_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """Per-state attack survival from ``ScalarWindowSurvival.expected``, one state at a time."""
    kernel = ScalarWindowSurvival(space.profile)
    return np.array([
        kernel.expected(token_spans(tokens, space.profile.demands), pat, width)
        for pat, block in zip(space.pattern_groups, space.blocks)
        for tokens in block.tolist()
    ])


@lru_cache(maxsize=4096)
def _match_table(
    profile: DemandProfile, pat: tuple[int, ...], start: int, width: int
) -> dict[tuple[int, ...], int]:
    """For each inside pattern: how many straddle-free arrangements of ``pat`` show it."""
    frees = profile.capacity - sum(n * d for n, d in zip(pat, profile.demands))
    last = start + width - 1
    table: dict[tuple[int, ...], int] = {}
    for tokens in token_sequences([frees] + list(pat)):
        spans = token_spans(tokens, profile.demands)
        n_in, straddle = _inside_of_spans(spans, start, last, profile.num_classes)
        if not straddle:
            table[n_in] = table.get(n_in, 0) + 1
    return table


def enumerated_matching_count(
    arr: tuple[int, ...], window: ObservationWindow, profile: DemandProfile
) -> int:
    """``count_matching_rearrangements`` by enumerating every arrangement of the pattern."""
    pat = pattern(arr, profile)
    if pattern_size(pat, profile) > DEFAULT_ENUMERATION_BUDGET:
        raise RuntimeError("pattern too large for enumeration")
    n_in, _ = inside_pattern(arr, window, profile)
    return _match_table(profile, pat, window.start, window.width).get(n_in, 0)
