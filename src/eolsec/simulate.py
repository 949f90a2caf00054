"""Discrete-event Monte Carlo simulation of the link models.

Covers capacities far beyond enumeration reach.  All sojourn clocks are
exponential, so the simulator advances with a single race over the active
rates instead of an event calendar: call arrivals and randomization
requests flow at all times, departures only while the link is serving, and
exactly one reconfiguration completion while it is reconfiguring.  Frozen
departure clocks during reconfiguration are therefore implicit, which
matches the analytic chain exactly.

Attack success is scored at the completion of every randomization requested
after the warmup on an occupied link, as the exact engine excludes the
all-free state; the request fixes the pre-state, so one requested during
the warmup is not scored.  A randomization redraws the arrangement
uniformly within its pattern, so it adds the exact survival given the
pre-state, averaged over all window positions: a conditional Monte Carlo
estimate with the same mean and less variance than checking the one
redraw.  The pre-states are recorded and scored in batches by the exact
engine's ``security.WindowSurvival``; adding the scores in event order
keeps the result independent of the batch size.  Defrag completions are
not scored.  Scoring draws no random numbers, so it never changes the
trajectory.

Confidence intervals come from independent replications, which differ only
in their seed-derived random streams; results are bit-for-bit reproducible
for a fixed config and seed.

Every draw of a replication comes from its one ``random.Random``, and the
hot ones are inlined in the event loop rather than called: the clock draws
``-log(1.0 - random()) / rate``, which is ``Random.expovariate(rate)`` in
CPython 3.10-3.13 (same number, same generator state afterwards), and the
scrambling redraw is ``link.shuffle``, which replays ``Random.shuffle``.
Placements take one ``random()`` in ``link.random_fit``, and a departure
takes one to pick among the class's connections, whose token it finds
with ``list.index``, so neither visits the tokens one by one in Python.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field, fields

import numpy as np

from .ctmc import ModelVariant, overall_blocking
from .link import (
    FREE,
    DemandProfile,
    check_arrangement,
    defragmented,
    pattern,
    random_fit,
    shuffle,
)
from .security import WindowSurvival

DEFAULT_SEED = 1729
DEFAULT_REPLICATIONS = 10
_NO_RECONFIG, _RANDOMIZING, _DEFRAGMENTING = 0, 1, 2
_SCORE_BATCH = 2048  # recorded pre-states scored together


@dataclass(frozen=True)
class SimConfig:
    profile: DemandProfile
    variant: ModelVariant
    arrivals: int | None = None        # measured arrivals per replication
    horizon: float | None = None       # simulated time per replication
    warmup: float = 0.0
    replications: int = DEFAULT_REPLICATIONS
    seed: int = DEFAULT_SEED
    window_widths: tuple[int, ...] = ()
    randomize_empty: bool = False
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.arrivals is None and self.horizon is None:
            raise ValueError("either an arrivals budget or a time horizon is required")
        if self.arrivals is not None:
            if self.arrivals < 1:
                raise ValueError("arrivals budget must be >= 1")
            if sum(self.profile.arrival_rates) <= 0:
                raise ValueError("arrivals budget needs a positive total arrival rate")
        if self.horizon is not None and self.warmup >= self.horizon:
            raise ValueError("warmup must be smaller than the horizon")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if not math.isfinite(self.warmup):
            raise ValueError(f"warmup must be finite, got {self.warmup}")
        if self.horizon is not None and not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
        if self.replications < 2:
            raise ValueError("replications must be >= 2")
        for w in self.window_widths:
            if not 1 <= w <= self.profile.capacity:
                raise ValueError(f"window width {w} not in 1..{self.profile.capacity}")


@dataclass(frozen=True)
class MetricEstimate:
    mean: float
    std_error: float
    ci_half_width: float


@dataclass(frozen=True)
class EventCounts:
    """Events after the warmup, summed over the replications."""

    arrivals: tuple[int, ...]
    resource_blocked: tuple[int, ...]
    frag_blocked: tuple[int, ...]
    reconfig_blocked: tuple[int, ...]
    randomizations_started: int
    randomizations_ignored_empty: int
    randomizations_discarded: int
    defrags_started: int
    reconfigs_completed: int


@dataclass(frozen=True)
class SimResult:
    resource_blocking: tuple[MetricEstimate, ...]
    fragmentation_blocking: tuple[MetricEstimate, ...]
    reconfiguration_blocking: MetricEstimate
    overall_blocking: MetricEstimate
    attack_success: dict[int, MetricEstimate]
    counts: EventCounts
    # measured randomizations behind ``attack_success`` (0 without windows)
    randomizations_scored: int


@dataclass
class _Replication:
    # The 4×K table's rows count the measured arrivals and the resource-,
    # fragmentation- and reconfiguration-blocked ones per class, the first
    # four EventCounts fields.  The counters are named after the other
    # fields.  Like the table, they skip the warmup.
    table: list[list[int]]
    randomizations_started: int = 0
    randomizations_ignored_empty: int = 0
    randomizations_discarded: int = 0
    defrags_started: int = 0
    reconfigs_completed: int = 0
    randomizations_scored: int = 0
    rp_success: dict[int, float] = field(default_factory=dict)


def _departure_rate(counts: list[int], mu: tuple[float, ...]) -> float:
    """Sum of ``counts[k] * mu[k]``, accumulated in class order like the departure scan.

    A plain loop, not ``sum()``: from Python 3.12 ``sum`` of floats is
    compensated, which would change the rate's last bits and the trajectory.
    """
    rate = 0.0
    for n, m in zip(counts, mu):
        rate += n * m
    return rate


def _score(survival: WindowSurvival, pending: dict, ids: array, rp_success: dict[int, float]) -> None:
    """Add the survival of each pending pre-state to ``rp_success`` per width, in event order."""
    order = np.argsort(ids, kind="stable") + 1  # the pending rows, pattern by pattern, in event order
    counts = np.bincount(ids).tolist()
    blocks = ((pat, np.asarray(rows).reshape(counts[pid], -1)) for pat, (pid, rows) in pending.items())
    for w, scores in survival.scores(survival.chunks(blocks), rp_success).items():
        sums = np.empty(len(ids) + 1)
        sums[0], sums[order] = rp_success[w], scores
        # one running sum in event order, as if each score were added on its own
        rp_success[w] = float(np.add.accumulate(sums)[-1])


def _simulate_replication(cfg: SimConfig, rep: int, survival: WindowSurvival) -> _Replication:
    profile = cfg.profile
    variant = cfg.variant
    capacity = profile.capacity
    demands = profile.demands
    K = profile.num_classes
    lam = profile.arrival_rates
    mu = profile.service_rates
    lam_total = sum(lam)
    lam_s = variant.randomization_rate
    mu_d = variant.reconfig_rate
    has_defrag = variant.has_defrag
    widths = cfg.window_widths
    warmup = cfg.warmup
    horizon = cfg.horizon if cfg.horizon is not None else math.inf
    budget = cfg.arrivals
    debug = cfg.debug_checks

    rng = random.Random(f"{cfg.seed}:{rep}")
    uniform = rng.random
    log = math.log
    getrandbits = rng.getrandbits

    rec = _Replication(table=[[0] * K for _ in range(4)], rp_success={w: 0.0 for w in widths})
    table = rec.table
    # measured pre-states not scored yet: pattern -> (id, token rows); ids in event order
    pending: dict[tuple[int, ...], tuple[int, bytearray]] = {}
    ids = array("q")
    rows_buffer = bytearray if K < 256 else lambda: array("q")  # bytearray.extend is fastest

    tokens = [0] * capacity
    counts = [0] * K
    free_total = capacity
    dep_rate = 0.0
    reconfig = _NO_RECONFIG
    request_measured = False  # the pending randomization was requested after the warmup
    t = 0.0
    measured_arrivals = 0

    def check_state() -> None:
        check_arrangement(tokens, profile)
        if list(pattern(tokens, profile)) != counts or tokens.count(FREE) != free_total:
            raise RuntimeError(
                f"tracked counts {counts} / {free_total} free disagree with tokens {tokens}"
            )

    while True:
        total = lam_total + lam_s + (mu_d if reconfig else dep_rate)
        if total <= 0.0:
            break  # nothing can ever happen again
        t += -log(1.0 - uniform()) / total  # rng.expovariate(total), inlined
        if t >= horizon:
            break
        measuring = t > warmup

        u = uniform() * total
        if u < lam_total:
            # call arrival
            k = 0
            acc = lam[0]
            while u >= acc:
                k += 1
                acc += lam[k]
            if measuring:
                measured_arrivals += 1
                table[0][k] += 1
            if reconfig:
                if measuring:
                    table[3][k] += 1
            else:
                dk = demands[k]
                pos = random_fit(tokens, dk, uniform)
                if pos is not None:
                    tokens[pos:pos + dk] = [k + 1]
                    counts[k] += 1
                    free_total -= dk
                    dep_rate = _departure_rate(counts, mu)
                    if debug:
                        check_state()
                elif free_total >= dk:
                    if measuring:
                        table[2][k] += 1
                    if has_defrag:
                        reconfig = _DEFRAGMENTING
                        if measuring:
                            rec.defrags_started += 1
                else:
                    if measuring:
                        table[1][k] += 1
            if budget is not None and measured_arrivals >= budget:
                break
        elif u < lam_total + lam_s:
            # randomization request
            if reconfig:
                if measuring:
                    rec.randomizations_discarded += 1
            elif free_total < capacity or cfg.randomize_empty:
                reconfig = _RANDOMIZING
                request_measured = measuring
                if measuring:
                    rec.randomizations_started += 1
            elif measuring:
                rec.randomizations_ignored_empty += 1
        elif reconfig:
            # reconfiguration completes: redraw the arrangement
            if reconfig == _RANDOMIZING:
                if widths and request_measured and free_total < capacity:
                    # the tokens are frozen since the request, so they are the
                    # pre-state; the shuffle redraws uniformly within the
                    # pattern, so score the exact survival given the pre-state
                    pat = tuple(counts)
                    pid, rows = pending.get(pat) or pending.setdefault(pat, (len(pending), rows_buffer()))
                    ids.append(pid)
                    rows.extend(tokens)
                    if len(ids) == _SCORE_BATCH:
                        _score(survival, pending, ids, rec.rp_success)
                        pending, ids = {}, array("q")
                    rec.randomizations_scored += 1
                shuffle(tokens, getrandbits)
            else:
                tokens = defragmented(tokens, rng)
            if debug:
                check_state()
            if measuring:
                rec.reconfigs_completed += 1
            reconfig = _NO_RECONFIG
        else:
            # departure
            v = u - lam_total - lam_s
            k = 0
            acc = counts[0] * mu[0]
            while v >= acc and k < K - 1:
                k += 1
                acc += counts[k] * mu[k]
            if counts[k] == 0:
                # rounding of v can carry it past the last interval (or below
                # zero); take the nearest class with connections
                live = [i for i in range(K) if counts[i]]
                k = live[-1] if v > 0 else live[0]
            pick = int(uniform() * counts[k])
            if pick >= counts[k]:
                pick = counts[k] - 1
            target = k + 1
            i = tokens.index(target)
            for _ in range(pick):
                i = tokens.index(target, i + 1)
            tokens[i:i + 1] = [0] * demands[k]
            counts[k] -= 1
            free_total += demands[k]
            dep_rate = _departure_rate(counts, mu)
            if debug:
                check_state()

    if ids:
        _score(survival, pending, ids, rec.rp_success)
    return rec


def _estimate(values: list[float], t_quantile: float) -> MetricEstimate:
    clean = [v for v in values if not math.isnan(v)]
    if not clean:
        return MetricEstimate(math.nan, math.nan, math.nan)
    mean = sum(clean) / len(clean)
    if len(clean) < 2:
        return MetricEstimate(mean, math.nan, math.nan)
    var = sum((v - mean) ** 2 for v in clean) / (len(clean) - 1)
    se = math.sqrt(var / len(clean))
    return MetricEstimate(mean, se, t_quantile * se)


def _t_quantile(n: int) -> float:
    # scipy.special imports in a fraction of the time scipy.stats takes
    from scipy.special import stdtrit

    return float(stdtrit(n - 1, 0.975)) if n >= 2 else math.nan


def _blocking_values(table: list[list[int]], lam: tuple[float, ...]) -> list[float]:
    """``[rb_1..rb_K, fb_1..fb_K, rcb, bp]`` of one 4×K count table."""
    arrivals, rb, fb, rcb = table
    K = len(lam)
    rb_hat = [rb[k] / arrivals[k] if arrivals[k] else 0.0 for k in range(K)]
    fb_hat = [fb[k] / arrivals[k] if arrivals[k] else 0.0 for k in range(K)]
    total_arrivals = sum(arrivals)
    rcb_hat = sum(rcb) / total_arrivals if total_arrivals else 0.0
    return [*rb_hat, *fb_hat, rcb_hat, overall_blocking(rb_hat, fb_hat, rcb_hat, lam)]


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run all replications and aggregate the estimates.

    Each replication gives one value of every metric; the estimate is
    their mean, with the Student-t 95% interval over them.
    """
    survival = WindowSurvival(cfg.profile)
    reps = [_simulate_replication(cfg, r, survival) for r in range(cfg.replications)]
    lam = cfg.profile.arrival_rates
    K = cfg.profile.num_classes

    values = [_blocking_values(r.table, lam) for r in reps]
    tq = _t_quantile(len(reps))
    est = [_estimate([v[j] for v in values], tq) for j in range(2 * K + 2)]

    attack = {}
    for w in cfg.window_widths:
        rp_vals = [
            r.rp_success[w] / r.randomizations_scored if r.randomizations_scored else math.nan
            for r in reps
        ]
        attack[w] = _estimate(rp_vals, tq)

    rows = zip(*(r.table for r in reps))
    counts = EventCounts(
        *(tuple(map(sum, zip(*row))) for row in rows),
        **{f.name: sum(getattr(r, f.name) for r in reps) for f in fields(EventCounts)[4:]},
    )
    return SimResult(
        resource_blocking=tuple(est[:K]),
        fragmentation_blocking=tuple(est[K:2 * K]),
        reconfiguration_blocking=est[2 * K],
        overall_blocking=est[2 * K + 1],
        attack_success=attack,
        counts=counts,
        randomizations_scored=sum(r.randomizations_scored for r in reps),
    )
