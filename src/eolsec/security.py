"""Eavesdropping metrics under spectrum randomization.

An attacker monitors a fixed window of ``width`` contiguous slots whose
position is uniform over the link.  An attack across one randomization
survives if the connection pattern lying fully inside the window is
unchanged and no connection straddles a window edge afterwards; straddling
spectrum is observationally distinct, so straddled placements never count
as the same observation.

``WindowSurvival`` is the one implementation of this rule.  For one
pre-state it averages, over every window position, the fraction of the
pattern's arrangements that keep the observation.  The surviving
arrangements of one position are counted in closed form: the inside
orderings times the ways to split the outside tokens onto the two sides of
the window (``_outside_split_prefix``).  One call sweeps the window starts
once: the spans' entry and exit breakpoints are merged without a sort, the
inside counts are one mixed-radix integer updated at each breakpoint, and
the denominator is cached per (pattern, width).  Numerator and denominator
stay exact integers and are divided once, so every value is the correctly
rounded probability.  The exact engine scores every regular state with it
(``per_state_attack_success``) and the simulator every measured
randomization.  A per-position reference that counts one window at a time,
which the tests check this kernel against, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .link import FREE, DemandProfile
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

    For a pre-state given by its connection spans, averages over every
    window position the fraction of the pattern's arrangements that keep
    the observation.  Spans are sorted and disjoint, so the fully-inside
    pattern changes only at two breakpoints per span, and the entry and
    exit breakpoints are each nondecreasing: two pointers merge them
    without a sort.  The inside counts are kept as one mixed-radix integer
    (class k's digit has radix ``capacity // d_k + 1``), updated with one
    addition per breakpoint and decoded only on a cache miss.  Each run of
    window starts with one inside pattern costs one prefix-sum difference
    of the outside-split counts, times its inside orderings.  The
    denominator, the pattern's arrangements times the window positions,
    is cached per (pattern, width).  The counts stay exact integers and
    are divided once, so the value is the correctly rounded exact
    probability.

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


class SurvivalMemo:
    """Per-state attack success of one state space, by window width.

    One ``WindowSurvival`` serves every width, so its prefix sums are
    shared, and each state's ``token_spans`` are listed once, per block.
    A span is looked up by its class and last slot, the running sum of the
    token widths, so equal spans of different states are one tuple.
    """

    def __init__(self, space: StateSpace):
        profile = space.profile
        self.kernel = WindowSurvival(profile)
        self.by_width: dict[int, np.ndarray] = {}
        table = np.empty((profile.capacity + 1, profile.num_classes + 1), object)
        for k, d in enumerate(profile.demands, start=1):
            for last in range(d, profile.capacity + 1):
                table[last, k] = (k, last - d + 1, last)
        widths = np.array((1,) + profile.demands)
        self.spans: list[list[list[tuple[int, int, int]]]] = []
        for block in space.blocks:
            lasts = np.cumsum(widths[block], axis=1)
            conn = block != FREE
            self.spans.append(table[lasts[conn], block[conn]].reshape(len(block), -1).tolist())


def per_state_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """Per regular state: probability that an attack survives one randomization.

    Averages, over the uniformly placed window, the fraction of the
    pattern's rearrangements that leave the window's observation intact
    (``WindowSurvival``, exact integer counts divided once per state).
    The values are kept in the space's ``survival_memo``.
    """
    capacity = space.profile.capacity
    if not 1 <= width <= capacity:
        raise ValueError(f"window width must be in 1..{capacity}")
    memo = space.survival_memo
    if memo is None:
        memo = space.survival_memo = SurvivalMemo(space)
    result = memo.by_width.get(width)
    if result is None:
        expected = memo.kernel.expected
        result = memo.by_width[width] = np.array([
            expected(spans, pat, width)
            for pat, block in zip(space.pattern_groups, memo.spans)
            for spans in block
        ])
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


def observable_fraction(
    p_attack: float,
    randomization_rate: float,
    service_rate: float,
    data_rate: float = 1.0,
) -> tuple[float, float]:
    """Observable data until the last randomization in a mean holding time.

    Returns ``(amount, fraction)``: the expected amount of data the attacker
    observes across the randomizations occurring during one mean holding
    time, and that amount as a fraction of all data sent.  The number of
    randomizations per holding time must be a positive integer.
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
        amount = data_rate * rounds / randomization_rate
    else:
        amount = data_rate / randomization_rate * (1.0 - p**rounds) / (1.0 - p)
    return amount, service_rate * amount / data_rate
