"""Occupancy model of a single elastic optical link.

The link has ``capacity`` spectrum slots.  A class-k connection occupies
``demands[k-1]`` contiguous slots.  An occupancy state is an ordered
token sequence: token 0 is one free slot, token ``k >= 1`` is one class-k
connection (width ``demands[k-1]``).  Two adjacent equal tokens are two
distinct connections, so the token sequence fully determines the state.
The functions below take any sequence of tokens; the simulator edits one
list in place, and ``defragmented`` returns a new list.  The exact engine
holds its states as token rows of ``statespace.StateSpace.blocks``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

FREE = 0


@dataclass(frozen=True)
class DemandProfile:
    """Link capacity and per-class traffic parameters.

    Classes are numbered 1..K; ``demands[k-1]`` is the slot demand of
    class k.  Rates are per unit time.
    """

    capacity: int
    demands: tuple[int, ...]
    arrival_rates: tuple[float, ...]
    service_rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if len(self.demands) < 1:
            raise ValueError("at least one traffic class is required")
        if len(self.arrival_rates) != len(self.demands) or len(self.service_rates) != len(self.demands):
            raise ValueError("demands, arrival_rates and service_rates must have equal length")
        for k, d in enumerate(self.demands, start=1):
            if not 1 <= d <= self.capacity:
                raise ValueError(f"demand of class {k} must be in 1..{self.capacity}, got {d}")
        for k, rate in enumerate(self.arrival_rates, start=1):
            if rate < 0:
                raise ValueError(f"arrival rate of class {k} must be >= 0, got {rate}")
        for k, rate in enumerate(self.service_rates, start=1):
            if rate <= 0:
                raise ValueError(f"service rate of class {k} must be > 0, got {rate}")

    @property
    def num_classes(self) -> int:
        return len(self.demands)

    @classmethod
    def with_uniform_load(
        cls,
        capacity: int,
        demands: tuple[int, ...],
        load_erlang: float,
        service_rates: tuple[float, ...] | float = 1.0,
    ) -> "DemandProfile":
        """Profile whose total arrival rate is split uniformly across classes.

        ``load_erlang`` is the offered load sum(lambda_k * d_k / mu_k); with
        the uniform split lambda_k = lambda / K this pins every lambda_k.
        """
        if isinstance(service_rates, (int, float)):
            service_rates = (float(service_rates),) * len(demands)
        per_class = load_erlang / sum(d / m for d, m in zip(demands, service_rates))
        return cls(
            capacity=capacity,
            demands=tuple(demands),
            arrival_rates=(per_class,) * len(demands),
            service_rates=tuple(service_rates),
        )


def check_arrangement(tokens: Sequence[int], profile: DemandProfile) -> None:
    """Raise ValueError unless ``tokens`` is a valid state for ``profile``."""
    K = profile.num_classes
    width = 0
    for t in tokens:
        if not 0 <= t <= K:
            raise ValueError(f"unknown token {t}; expected 0 (free) or 1..{K}")
        width += 1 if t == FREE else profile.demands[t - 1]
    if width != profile.capacity:
        raise ValueError(f"token widths sum to {width}, capacity is {profile.capacity}")


def pattern(tokens: Sequence[int], profile: DemandProfile) -> tuple[int, ...]:
    """Per-class connection counts of ``tokens``."""
    counts = [0] * profile.num_classes
    for t in tokens:
        if t != FREE:
            counts[t - 1] += 1
    return tuple(counts)


def fit_runs(tokens: Sequence[int], need: int) -> list[tuple[int, int]]:
    """Free runs that fit a ``need``-slot block, in slot order.

    Each entry is ``(first_token, fitting_starts)``: the token index where
    the run begins and how many block positions it offers (run length minus
    ``need`` plus one).  Free tokens are one slot each, so the scan stops as
    soon as the free slots not yet visited cannot fit the block.
    """
    runs: list[tuple[int, int]] = []
    n = len(tokens)
    remaining = tokens.count(FREE)
    i = 0
    while remaining >= need:
        i = tokens.index(FREE, i)
        j = i + 1
        while j < n and tokens[j] == FREE:
            j += 1
        remaining -= j - i
        if j - i >= need:
            runs.append((i, j - i - need + 1))
        i = j
    return runs


def random_fit(tokens: Sequence[int], need: int, uniform: Callable[[], float]) -> int | None:
    """Token index where random fit places a ``need``-slot block, or None.

    Takes the ``floor(u * m)``-th of the ``m`` fitting starts in slot order
    with ``u = uniform()``.  ``uniform`` is called once, and only when the
    block fits.
    """
    runs = fit_runs(tokens, need)
    if not runs:
        return None
    m = sum(c for _, c in runs)
    pick = int(uniform() * m)
    if pick >= m:
        pick = m - 1
    for start, c in runs:
        if pick < c:
            return start + pick
        pick -= c


def shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """Shuffle ``x`` in place exactly as ``random.Random.shuffle`` does.

    The same Fisher-Yates walk as CPython 3.11, with its rejection sampling
    (``_randbelow_with_getrandbits``) inlined: for a generator ``rng``,
    ``shuffle(x, rng.getrandbits)`` draws the same bits and leaves the same
    permutation and the same generator state, at about half the cost.
    """
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def defragmented(tokens: Sequence[int], rng: random.Random) -> list[int]:
    """Uniform draw over the defragmented arrangements of ``tokens``' pattern.

    Shuffles the connections and drops the single free block into one of
    the gaps, which hits every single-free-block arrangement exactly once.
    """
    conns = [t for t in tokens if t != FREE]
    shuffle(conns, rng.getrandbits)
    gap = rng.randrange(len(conns) + 1) if conns else 0
    return conns[:gap] + [FREE] * (len(tokens) - len(conns)) + conns[gap:]


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
