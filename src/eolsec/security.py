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
the window (``_outside_split_prefix``).  The exact engine scores every
regular state with it (``per_state_attack_success``) and the simulator
every measured randomization.  A per-position reference that counts one
window at a time, which the tests check this kernel against, lives in
``tests/oracles.py``.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .link import DemandProfile, token_spans
from .statespace import StateSpace, _permutation_count


class NonIntegerRpRatio(ValueError):
    """randomization_rate / service_rate must be a positive integer."""


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
    pattern changes only at two breakpoints per span; each run of window
    starts with one inside pattern costs one prefix-sum difference of the
    outside-split counts.
    The counts stay exact integers and are divided once, so the value is
    the correctly rounded exact probability.

    An instance caches per link structure, so it serves one profile.
    """

    def __init__(self, profile: DemandProfile):
        self.capacity = profile.capacity
        self.demands = profile.demands
        # (outside pattern, outside frees) -> prefix sums over cap_left
        self._prefix: dict[tuple[tuple[int, ...], int], list[int]] = {}
        # (pattern, width) -> {inside counts: (inside orderings, prefix) or ()}
        self._runs: dict[tuple[tuple[int, ...], int], dict] = {}

    def expected(self, spans: list[tuple[int, int, int]], pat: tuple[int, ...], width: int) -> float:
        """E[survival | spans] for a window of ``width`` slots; ``pat`` is the spans' pattern."""
        positions = self.capacity - width + 1
        runs = self._runs.get((pat, width))
        if runs is None:
            runs = self._runs[(pat, width)] = {}
        # A span (k, s, e) lies fully inside the windows starting in
        # [e - width + 1, s]: +k where it enters, -k after it leaves.
        events = []
        for k, s, e in spans:
            lo = e - width + 1 if e > width else 1
            hi = s if s < positions else positions
            if lo <= hi:
                events.append((lo, k))
                events.append((hi + 1, -k))
        events.sort()

        n_in = [0] * (len(self.demands) + 1)  # indexed by class; slot 0 unused
        numerator = 0
        i = 0
        first = 1
        while first <= positions:
            while i < len(events) and events[i][0] == first:
                k = events[i][1]
                if k > 0:
                    n_in[k] += 1
                else:
                    n_in[-k] -= 1
                i += 1
            last = events[i][0] - 1 if i < len(events) else positions
            key = tuple(n_in)
            run = runs.get(key)
            if run is None:
                run = runs[key] = self._run(pat, key[1:], width)
            if run:
                inside, prefix = run
                # window start s leaves cap_left = s - 1 slots on the left
                numerator += inside * (prefix[last] - prefix[first - 1])
            first = last + 1

        total = _permutation_count(self._frees(pat), pat)
        return numerator / (total * positions)

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

    One ``WindowSurvival`` serves every width, so its prefix sums are shared.
    """

    def __init__(self, profile: DemandProfile):
        self.kernel = WindowSurvival(profile)
        self.by_width: dict[int, np.ndarray] = {}


def per_state_attack_success(space: StateSpace, width: int) -> np.ndarray:
    """Per regular state: probability that an attack survives one randomization.

    Averages, over the uniformly placed window, the fraction of the
    pattern's rearrangements that leave the window's observation intact
    (``WindowSurvival``, exact integer counts divided once per state).
    The values are kept in the space's ``survival_memo``.
    """
    profile = space.profile
    capacity = profile.capacity
    if not 1 <= width <= capacity:
        raise ValueError(f"window width must be in 1..{capacity}")
    memo = space.survival_memo
    if memo is None:
        memo = space.survival_memo = SurvivalMemo(profile)
    result = memo.by_width.get(width)
    if result is None:
        kernel = memo.kernel
        result = memo.by_width[width] = np.array([
            kernel.expected(token_spans(arr, profile.demands), pat, width)
            for arr, pat in zip(space.arrangements, space.state_patterns)
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
        raise ValueError("no stationary mass on occupied states")
    return float(per_state @ weights / mass)


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
