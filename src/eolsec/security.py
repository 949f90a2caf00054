"""Eavesdropping metrics under spectrum randomization.

An attacker monitors a fixed window of ``width`` contiguous slots whose
position is uniform over the link.  An attack across one randomization
survives if the connection pattern lying fully inside the window is
unchanged and no connection straddles a window edge afterwards; straddling
spectrum is observationally distinct, so straddled placements never count
as the same observation.

``WindowSurvival.scores`` is the one implementation of this rule, for
groups of pre-states that each share a pattern.  Per window position, the
surviving arrangements are the inside orderings times the ways to split
the outside tokens onto the two sides of the window (``_outside_splits``),
and the exact integer counts are divided once, so each value is the
correctly rounded probability.  The exact engine scores its state space
(``per_state_attack_success``), the simulator its measured pre-states in
batches.  The references the tests check both against, a per-position
count and a scalar kernel that scores one state at a time, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from itertools import accumulate, product

import numpy as np

from .link import DemandProfile
from .statespace import StateSpace, _permutation_count

# Consecutive groups are scored together while the chunk's (slots, rows)
# and (patterns, inside keys) arrays each stay under this many elements.
_CHUNK_CELLS = 1 << 15
_FLOAT_EXACT = 2**53  # float64 holds every integer below this


class NonIntegerRpRatio(ValueError):
    """randomization_rate / service_rate must be a positive integer."""


class NoOccupiedMass(ValueError):
    """The stationary distribution puts no mass on an occupied state, so no
    randomization is ever scored."""


def _outside_splits(n_out: tuple[int, ...], frees_out: int, demands: tuple[int, ...]) -> list[int]:
    """Ways to order the outside tokens onto the two sides of the window,
    for every ``cap_left``.

    Entry ``cap_left`` sums, over every multiset split whose left side fills
    exactly ``cap_left`` slots, the orderings of each side.  The outside
    tokens fill ``frees_out + sum(n_out * demands)`` slots, so ``cap_left``
    runs over 0..that width.
    """
    counts = [0] * (frees_out + sum(n * d for n, d in zip(n_out, demands)) + 1)
    for m in product(*(range(n + 1) for n in n_out)):
        used = sum(c * d for c, d in zip(m, demands))
        left = _orderings(m, frees_out)
        right = _orderings(tuple(n - c for n, c in zip(n_out, m)), frees_out)
        for f_left in range(frees_out + 1):
            counts[used + f_left] += left[f_left] * right[frees_out - f_left]
    return counts


def _orderings(counts: tuple[int, ...], frees: int) -> list[int]:
    """``_permutation_count(f, counts)`` for every ``f`` in 0..frees."""
    out = [_permutation_count(0, counts)]
    for f in range(1, frees + 1):
        out.append(out[-1] * (f + sum(counts)) // f)
    return out


def _exact(values: list) -> np.ndarray:
    """``values`` as int64 when they all fit, else as Python ints."""
    try:
        return np.array(values, np.int64)
    except OverflowError:
        return np.array(values, object)


class _Runs:
    """The runs met so far at one width, by code (pattern id << 32 | inside
    key): inside orderings and row of ``splits``, the outside split counts
    per window start (row 0: none)."""

    def __init__(self, positions: int):
        self.codes, self.insides = np.zeros(0, np.int64), np.zeros(0, np.int64)
        self.rows, self.splits = np.zeros(0, np.int32), np.zeros((1, positions), np.int64)
        self.outside: dict[tuple[tuple[int, ...], int], int] = {}  # -> row of splits


class WindowSurvival:
    """Chance that a window observation survives one uniform redraw.

    Chunks of groups list each connection token once: its class and its
    last and first slot.  Per width, running sums over the slots give each
    (window start, row) its inside key, the inside counts in mixed radix
    (class k has radix pat[k] + 1).  The run of that key, its inside
    orderings times the outside split counts of the start, gives the
    surviving arrangements, at most the pattern's arrangements.  A chunk
    whose arrangements times positions stay below 2**53 sums them in int64
    and divides exactly in float64; any other chunk sums Python ints, whose
    quotient Python rounds correctly.  An instance caches per link
    structure, so it serves one profile: pattern ids, and runs per width.
    """

    def __init__(self, profile: DemandProfile):
        self.capacity = profile.capacity
        self.demands = profile.demands
        self._ids: dict[tuple[int, ...], int] = {}  # pattern -> id, in the order met
        self._runs: dict[int, _Runs] = {}  # by width

    def scores(self, chunks: Iterable[tuple], widths: Iterable[int]) -> dict[int, np.ndarray]:
        """Per width, E[survival] of each token row of the chunks, in order."""
        scores: dict[int, list] = {w: [] for w in widths}
        for chunk in chunks:
            for w, out in scores.items():
                out.append(self._score(chunk, w))
        return {w: np.concatenate(out) for w, out in scores.items()}

    def chunks(self, groups: Iterable[tuple[tuple[int, ...], np.ndarray]]) -> Iterator[tuple]:
        """The (pattern, token rows) groups, in chunks that bound ``scores``' arrays."""
        chunk, n, keys = [], 0, 0
        for pat, block in groups:
            span = math.prod(c + 1 for c in pat)
            if chunk and max((n + len(block)) * (self.capacity + 1), keys + span) > _CHUNK_CELLS:
                yield self._tokens(chunk, n)
                chunk, n, keys = [], 0, 0
            chunk.append((pat, block, span))
            n, keys = n + len(block), keys + span
        if chunk:
            yield self._tokens(chunk, n)

    def _tokens(self, chunk: list[tuple[tuple[int, ...], np.ndarray, int]], n: int) -> tuple:
        """Per pattern: id, arrangements, rows, key offset and places; per
        token: (pattern, class), last slot and first slot."""
        widths = np.array((1,) + self.demands)
        sizes = np.array([len(block) for _, block, _ in chunk])
        tokens = np.concatenate([block.ravel() for _, block, _ in chunk])
        row = np.repeat(np.arange(n), np.repeat([block.shape[1] for _, block, _ in chunk], sizes))
        # every row fills the link, so a running sum over all rows, less
        # capacity per row before, is each token's last slot in its row
        end = np.cumsum(widths[tokens]) - row * self.capacity
        at = np.flatnonzero(tokens)
        k = tokens[at]
        end = end[at] * n + row[at]
        cls = (np.repeat(np.arange(len(chunk)), sizes)[row[at]] * len(widths) + k).astype(np.int32)
        offsets = [0, *accumulate(span for _, _, span in chunk)]
        places = [[0, *accumulate((c + 1 for c in pat[:-1]), operator.mul, initial=1)] for pat, _, _ in chunk]
        ids = np.array([self._ids.setdefault(pat, len(self._ids)) for pat, _, _ in chunk])
        arrangements = [_permutation_count(block.shape[1] - sum(pat), pat) for pat, block, _ in chunk]
        return (ids, arrangements, sizes, offsets, places, cls,
                end.astype(np.int32), (end - (widths[k] - 1) * n).astype(np.int32))

    def _score(self, chunk: tuple, width: int) -> np.ndarray:
        ids, arrangements, sizes, offsets, places, cls, ends, firsts = chunk
        slots = self.capacity + 1
        positions = slots - width
        denominators = [a * positions for a in arrangements]
        exact = np.int64 if max(denominators) < _FLOAT_EXACT else object
        # a class wider than the window is never inside it; int32 keys while they fit
        index = np.int32 if offsets[-1] < 2**31 else np.int64
        place = (np.array(places, index) * (np.array((0,) + self.demands) <= width)).ravel()
        # key[s, r] of window start s + 1: the places of the spans ending by
        # slot s + width less those starting by slot s (no wider than the
        # window, these end by then too), as one running sum over the slots
        # of +place at each last slot and -place a width after each first
        n = sizes.sum()
        cum = np.zeros(slots * n, index)
        cum[ends] = place[cls]
        firsts = firsts + width * n
        kept = firsts < len(cum)
        cum[firsts[kept]] -= place[cls[kept]]
        cum = cum.reshape(slots, n)
        for slot in range(1, slots):  # faster than cumsum along a row
            cum[slot] += cum[slot - 1]
        key = cum[width:]
        key += np.repeat(np.array(offsets[:-1], index), sizes)
        seen = np.zeros(offsets[-1], bool)  # numbers the pairs without a sort
        seen[key] = True
        pairs = np.flatnonzero(seen)
        p = np.searchsorted(offsets, pairs, side="right") - 1
        runs, found = self._find(width, ids[p] << 32 | pairs - np.array(offsets)[p])
        # surviving arrangements per (pair, window start); window start s
        # leaves cap_left = s - 1 slots on the left
        inside = runs.insides[found].astype(exact)
        table = inside[:, None] * runs.splits[runs.rows[found]].astype(exact, copy=False)
        key = (np.cumsum(seen, dtype=np.int32) - 1)[key]
        del cum, seen  # the temporaries are freed as they are used up
        key *= positions
        key += np.arange(positions, dtype=np.int32)[:, None]
        numerators = table.ravel()[key].sum(axis=0)
        return (numerators / np.repeat(np.array(denominators, exact), sizes)).astype(float)

    def _find(self, width: int, codes: np.ndarray) -> tuple[_Runs, np.ndarray]:
        """The runs of ``width`` and the index of each code among them,
        after adding the runs not met yet."""
        runs = self._runs.get(width) or self._runs.setdefault(width, _Runs(self.capacity - width + 1))
        at = np.searchsorted(runs.codes, codes)
        new = np.sort(codes[runs.codes.take(at, mode="clip") != codes] if len(runs.codes) else codes)
        if len(new):
            patterns = list(self._ids)
            insides, rows, splits = [], [], []
            for code in new.tolist():
                pat, key, n_in = patterns[code >> 32], code & 0xFFFFFFFF, []
                for c in pat:
                    key, n = divmod(key, c + 1)
                    n_in.append(n)
                frees_in = width - sum(n * d for n, d in zip(n_in, self.demands))
                frees_out = self.capacity - sum(n * d for n, d in zip(pat, self.demands)) - frees_in
                outside = (tuple(p - n for p, n in zip(pat, n_in)), frees_out)
                row = runs.outside.get(outside, 0 if frees_out < 0 else None)
                if row is None:
                    row = runs.outside[outside] = len(runs.outside) + 1
                    splits.append(_outside_splits(*outside, self.demands))
                insides.append(_permutation_count(frees_in, tuple(n_in)) if row else 0)
                rows.append(row)
            at = np.searchsorted(runs.codes, new)
            runs.codes = np.insert(runs.codes, at, new)
            insides = _exact(insides)
            wide = runs.insides.astype(np.result_type(runs.insides, insides), copy=False)
            runs.insides = np.insert(wide, at, insides)
            runs.rows = np.insert(runs.rows, at, rows)
            if splits:
                runs.splits = np.concatenate([runs.splits, _exact(splits)])
            at = np.searchsorted(runs.codes, codes)
        return runs, at


def per_state_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """Per regular state: probability that an attack survives one randomization.

    Averages, over the uniformly placed window, the fraction of the
    pattern's rearrangements that leave the window's observation intact.
    A state and its mirror image score the same (the window's position is
    uniform, so mirroring maps every observation onto one of the mirror
    image), so only the representative of each mirror class is scored.
    The values are kept in the space's ``survival``, read-only because every
    cell of the link shares them.
    """
    capacity = space.profile.capacity
    if not 1 <= width <= capacity:
        raise ValueError(f"window width must be in 1..{capacity}")
    if space.survival is None:
        kernel = WindowSurvival(space.profile)
        rows = (block[reps] for block, reps in zip(space.blocks, space.representatives()))
        space.survival = (kernel, list(kernel.chunks(zip(space.pattern_groups, rows))), {})
    kernel, chunks, by_width = space.survival
    result = by_width.get(width)
    if result is None:
        result = by_width[width] = kernel.scores(chunks, (width,))[width][space.lumped]
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
