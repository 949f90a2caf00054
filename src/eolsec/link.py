"""Occupancy model of a single elastic optical link.

The link has ``capacity`` spectrum slots.  A class-k connection occupies
``demands[k-1]`` contiguous slots.  An occupancy state is an ordered
token sequence: token 0 is one free slot, token ``k >= 1`` is one class-k
connection (width ``demands[k-1]``).  Two adjacent equal tokens are two
distinct connections, so the token sequence fully determines the state.
The functions below take any sequence of tokens; the simulator edits one
list in place, and ``defragmented`` returns a new list.  The exact engine
holds its states as token rows of ``statespace.StateSpace.blocks``.  Token
rows are also what ``security.WindowSurvival`` scores: the exact engine's
blocks, and the pre-states the simulator copies at its measured
randomizations.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

FREE = 0
_OCCUPIED = bytes([0] + [1] * 255)  # bytes.translate table: free token -> 0, connection -> 1


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
            if not math.isfinite(rate):
                raise ValueError(f"arrival rate of class {k} must be finite, got {rate}")
        for k, rate in enumerate(self.service_rates, start=1):
            if rate <= 0:
                raise ValueError(f"service rate of class {k} must be > 0, got {rate}")
            if not math.isfinite(rate):
                raise ValueError(f"service rate of class {k} must be finite, got {rate}")

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
    ``need`` plus one).  The runs come from one C-level pass: the tokens
    become an occupancy mask (byte 0 free, byte 1 a connection) that splits
    on the connections into the free runs, one slot per free token.  A
    token past 255, or a buffer wider than a byte per token such as an
    int64 row, takes a slower but equal path to the mask.
    """
    try:
        mask = bytes(tokens).translate(_OCCUPIED)
    except ValueError:  # a token past 255
        mask = b""
    if len(mask) != len(tokens):
        mask = bytes(map(bool, tokens))
    runs: list[tuple[int, int]] = []
    i = 0
    for free in mask.split(b"\x01"):
        n = len(free)
        if n >= need:
            runs.append((i, n - need + 1))
        i += n + 1
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
    m = 0
    for _, c in runs:  # cheaper than sum() over a generator on a few runs
        m += c
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

