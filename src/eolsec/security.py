"""Eavesdropping metrics under spectrum randomization.

An attacker monitors a fixed window of ``width`` contiguous slots whose
position is uniform over the link.  An attack across one randomization
survives if the connection pattern lying fully inside the window is
unchanged and no connection straddles a window edge afterwards; straddling
spectrum is observationally distinct, so straddled placements never count
as the same observation.

``WindowSurvival`` is the one implementation of this rule: per window
position, the surviving arrangements are the inside orderings times the
ways to split the outside tokens onto the two sides of the window
(``_outside_split_prefix``), and the exact integer counts are divided once,
so each value is the correctly rounded probability.  The simulator scores
one state per measured randomization (``WindowSurvival.expected``); the
exact engine scores a whole state space at once with the same counting
(``per_state_attack_success``).  The references the tests check both
against, a per-position count and ``expected`` run state by state, live in
``tests/oracles.py``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .link import DemandProfile
from .statespace import StateSpace, _permutation_count


class NonIntegerRpRatio(ValueError):
    """randomization_rate / service_rate must be a positive integer."""


class NoOccupiedMass(ValueError):
    """The stationary distribution puts no mass on an occupied state, so no
    randomization is ever scored."""


def _outside_split_prefix(
    n_out: tuple[int, ...], frees_out: int, demands: tuple[int, ...]
) -> list[int]:
    """Prefix sums, over every ``cap_left``, of the ways to order the outside
    tokens onto the two sides of the window.

    The split count of one ``cap_left`` sums, over every multiset split whose
    left side fills exactly ``cap_left`` slots, the orderings of each side.
    Entry ``j`` sums the split counts of all ``cap_left < j``; the outside
    tokens fill ``frees_out + sum(n_out * demands)`` slots, so ``cap_left``
    runs over 0..that width.
    """
    outside_width = frees_out + sum(n * d for n, d in zip(n_out, demands))
    counts = [0] * (outside_width + 1)
    for m in product(*(range(n + 1) for n in n_out)):
        used = sum(c * d for c, d in zip(m, demands))
        right = tuple(n - c for n, c in zip(n_out, m))
        for f_left in range(frees_out + 1):
            counts[used + f_left] += (
                _permutation_count(f_left, m) * _permutation_count(frees_out - f_left, right)
            )
    prefix = [0]
    for c in counts:
        prefix.append(prefix[-1] + c)
    return prefix


class WindowSurvival:
    """Chance that a window observation survives one uniform redraw.

    ``expected`` scores one pre-state given by its connection spans.  Spans
    are sorted and disjoint, so the fully-inside pattern changes only at two
    breakpoints per span, and the entry and exit breakpoints are each
    nondecreasing: two pointers merge them without a sort.  The inside
    counts are one mixed-radix integer, updated with one addition per
    breakpoint and decoded only on a cache miss.  Each run of window starts
    with one inside pattern costs one prefix-sum difference of the
    outside-split counts, times its inside orderings (``_run``).

    An instance caches per link structure, so it serves one profile.
    """

    def __init__(self, profile: DemandProfile):
        self.capacity = profile.capacity
        self.demands = profile.demands
        # Inside counts are one integer in mixed radix: class k (1-based)
        # holds at most capacity // d_k connections, so its digit has radix
        # capacity // d_k + 1 and place value _place[k] (slot 0 unused).
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
        # [e - width + 1, s]: it enters there and leaves after s.  Spans are
        # sorted and disjoint, so both lists of breakpoints are nondecreasing.
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
        """Per-class inside counts of a mixed-radix key."""
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
            prefix = self._prefix[key] = _outside_split_prefix(*key, self.demands)
        return _permutation_count(frees_in, n_in), prefix


# Consecutive blocks are scored together while the chunk's (slots, states)
# and (patterns, inside keys) arrays each stay under this many elements.
_CHUNK_CELLS = 1 << 16
_FLOAT_EXACT = 2**53  # float64 holds every integer below this


class InexactScore(ArithmeticError):
    """A pattern's arrangements times the window positions reach 2**53, so a
    float64 quotient of the exact counts would not be correctly rounded."""


def _denominator(arrangements: int, positions: int) -> float:
    if arrangements * positions >= _FLOAT_EXACT:
        raise InexactScore(f"{arrangements} arrangements x {positions} window positions >= 2**53")
    return float(arrangements * positions)


class SpaceSurvival:
    """Per-state attack success of one state space, by window width.

    Chunks of consecutive blocks list each connection token once: its class
    and its last and first slot.  Per width, running sums over the slots of
    the counted spans' mixed-radix places give each (window start, state)
    its inside key: the spans ending by the window's last slot less those
    starting before its first.  Each (pattern, key) pair that occurs gets a
    row of surviving arrangements per start from ``WindowSurvival._run``.
    Every entry is at most its pattern's arrangements, and those times the
    positions are checked to stay below 2**53, so the sums and the float64
    quotient are exact.
    """

    def __init__(self, space: StateSpace):
        self.kernel = kernel = WindowSurvival(space.profile)
        self.by_width: dict[int, np.ndarray] = {}
        self.key_space = kernel._place[-1] * kernel._radix[-1]
        slots, widths = kernel.capacity + 1, np.array((1,) + kernel.demands)
        groups = list(zip(space.pattern_groups, space.blocks))
        self.chunks = []
        while groups:
            take, n = 1, len(groups[0][1])
            while (take < len(groups)
                   and max((n + len(groups[take][1])) * slots, (take + 1) * self.key_space) <= _CHUNK_CELLS):
                n += len(groups[take][1])
                take += 1
            chunk, groups = groups[:take], groups[take:]
            sizes = np.array([len(block) for _, block in chunk])
            tokens = []
            for offset, (_, block) in zip(np.cumsum(sizes) - sizes, chunk):
                col, row = np.nonzero(block.T)  # in slot order, which speeds the scatters
                k = block[row, col]
                end = np.cumsum(widths[block], axis=1)[row, col] * n + row + offset
                tokens.append((k, end.astype(np.int32), (end - (widths[k] - 1) * n).astype(np.int32)))
            self.chunks.append(([pat for pat, _ in chunk], sizes, *map(np.concatenate, zip(*tokens))))

    def score(self, width: int) -> np.ndarray:
        kernel, keys, slots = self.kernel, self.key_space, self.kernel.capacity + 1
        positions = slots - width
        # a class wider than the window is never inside it
        place = np.array(kernel._place, np.int32) * (np.array((0,) + kernel.demands) <= width)
        infeasible = (0, [0] * (positions + 1))
        scores = []
        for pats, sizes, cls, ends, firsts in self.chunks:
            denominators = [_denominator(size, positions) for size in sizes.tolist()]
            cum = np.zeros((2, slots * sizes.sum()), np.int32)
            cum[0, ends] = cum[1, firsts] = place[cls]
            cum = cum.reshape(2, slots, -1)
            for slot in range(1, slots):  # faster than cumsum along a row
                cum[:, slot] += cum[:, slot - 1]
            # key[s, r] of window start s + 1; a counted span starting before
            # the window also ends before its last slot
            key = cum[0, width:] - cum[1, :positions]
            del cum  # a chunk's temporaries are freed as they are used up
            key += np.repeat(np.arange(len(pats), dtype=np.int32) * keys, sizes)
            seen = np.zeros(len(pats) * keys, bool)  # numbers the pairs without a sort
            seen[key] = True
            runs = [kernel._run(pats[pair // keys], kernel._decode(pair % keys), width) or infeasible
                    for pair in np.flatnonzero(seen).tolist()]
            # window start s leaves cap_left = s - 1 slots on the left
            table = np.array([[inside] for inside, _ in runs], np.int64) * np.diff(
                np.array([prefix for _, prefix in runs], np.int64), axis=1)
            key = (np.cumsum(seen, dtype=np.int32) - 1)[key]
            key *= positions
            key += np.arange(positions, dtype=np.int32)[:, None]
            scores.append(table.ravel()[key].sum(axis=0) / np.repeat(denominators, sizes))
        return np.concatenate(scores)


def per_state_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """Per regular state: probability that an attack survives one randomization.

    Averages, over the uniformly placed window, the fraction of the
    pattern's rearrangements that leave the window's observation intact.
    The values are kept in the space's ``survival``, read-only because every
    cell of the link shares them.
    """
    capacity = space.profile.capacity
    if not 1 <= width <= capacity:
        raise ValueError(f"window width must be in 1..{capacity}")
    if space.survival is None:
        space.survival = SpaceSurvival(space)
    result = space.survival.by_width.get(width)
    if result is None:
        result = space.survival.by_width[width] = space.survival.score(width)
        result.flags.writeable = False
    return result


def attack_success_probability(pi: np.ndarray, space: StateSpace, width: int) -> float:
    """Stationary attack-success probability for one window width.

    The expectation runs over the occupied regular states only (the all-free
    state is excluded and the weights renormalized over the rest).
    """
    per_state = per_state_attack_success(space, width)
    weights = np.asarray(pi)[: space.num_regular].copy()
    weights[0] = 0.0  # the canonical state order puts the all-free state first
    mass = weights.sum()
    if mass <= 0:
        raise NoOccupiedMass("no stationary mass on occupied states")
    # both sums add in the same pairwise order and per_state <= 1 term by
    # term, so the ratio stays <= 1 (a BLAS dot product rounds differently)
    return float((per_state * weights).sum() / mass)


def observable_fraction(p_attack: float, randomization_rate: float,
                        service_rate: float) -> tuple[float, float]:
    """Observable data until the last randomization in a mean holding time.

    Returns ``(amount, fraction)``: the expected amount of data the attacker
    observes, at unit data rate, across the randomizations occurring during
    one mean holding time, and that amount as a fraction of all data sent.
    The number of randomizations per holding time must be a positive integer.
    """
    if not 0.0 <= p_attack <= 1.0 + 1e-12:
        raise ValueError(f"attack probability must be in [0, 1], got {p_attack}")
    if randomization_rate <= 0:
        raise ValueError("randomization rate must be > 0")
    ratio = randomization_rate / service_rate
    rounds = round(ratio)
    if rounds < 1 or abs(ratio - rounds) > 1e-9 * max(1.0, ratio):
        raise NonIntegerRpRatio(
            f"randomization_rate/service_rate = {ratio} is not a positive integer"
        )
    p = min(p_attack, 1.0)
    if p >= 1.0 - 1e-12:
        amount = rounds / randomization_rate
    else:
        amount = 1.0 / randomization_rate * (1.0 - p**rounds) / (1.0 - p)
    return amount, service_rate * amount
