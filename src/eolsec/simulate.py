"""Discrete-event Monte Carlo simulation of the link models.

Covers capacities far beyond enumeration reach.  All sojourn clocks are
exponential, so the simulator advances with a single race over the active
rates instead of an event calendar: call arrivals and randomization
requests flow at all times, departures only while the link is serving, and
exactly one reconfiguration completion while it is reconfiguring.  Frozen
departure clocks during reconfiguration are therefore implicit, which
matches the analytic chain exactly.

Attack success is scored at every measured randomization completion on an
occupied link, as the exact engine excludes the all-free state.  A
randomization redraws the arrangement uniformly within its pattern, so it
adds the exact survival given the pre-state, averaged over all window
positions (``security.WindowSurvival``): a conditional Monte Carlo estimate
with the same mean and less variance than checking the one redraw.  Defrag
completions are not scored.  Scoring draws no random numbers, so it never
changes the trajectory.

Replications differ only in their seed-derived random streams; results are
bit-for-bit reproducible for a fixed config and seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .ctmc import ModelVariant, overall_blocking
from .link import (
    FREE,
    DemandProfile,
    check_arrangement,
    defragmented,
    pattern,
    random_fit,
    token_spans,
)
from .security import WindowSurvival

DEFAULT_SEED = 1729
_NO_RECONFIG, _RANDOMIZING, _DEFRAGMENTING = 0, 1, 2
_BATCH_COUNT = 10  # batch-means groups for single-replication CIs


@dataclass(frozen=True)
class SimConfig:
    profile: DemandProfile
    variant: ModelVariant
    arrivals: int | None = None        # measured arrivals per replication
    horizon: float | None = None       # simulated time per replication
    warmup: float = 0.0
    replications: int = 1
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
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
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


@dataclass
class _Replication:
    # One 4×K table per batch; rows count the measured arrivals and the
    # resource-, fragmentation- and reconfiguration-blocked ones per class.
    tables: list[list[list[int]]]
    rp_started: int = 0
    rp_ignored_empty: int = 0
    rp_discarded: int = 0
    defrags_started: int = 0
    completions: int = 0
    rp_events: int = 0
    rp_success: dict[int, float] = field(default_factory=dict)


def _sum_tables(tables: list[list[list[int]]]) -> list[list[int]]:
    """Entry-wise sum of 4×K count tables."""
    return [[sum(col) for col in zip(*rows)] for rows in zip(*tables)]


def _departure_rate(counts: list[int], mu: tuple[float, ...]) -> float:
    """Sum of ``counts[k] * mu[k]``, accumulated in class order like the departure scan."""
    rate = 0.0
    for n, m in zip(counts, mu):
        rate += n * m
    return rate


def _simulate_replication(
    cfg: SimConfig, rep: int, n_batches: int, survival: WindowSurvival
) -> _Replication:
    profile = cfg.profile
    variant = cfg.variant
    capacity = profile.capacity
    demands = profile.demands
    K = profile.num_classes
    lam = profile.arrival_rates
    mu = profile.service_rates
    lam_total = sum(lam)
    lam_s = variant.randomization_rate if variant.has_randomization else 0.0
    mu_d = variant.reconfig_rate
    has_defrag = variant.has_defrag
    widths = cfg.window_widths
    warmup = cfg.warmup
    horizon = cfg.horizon if cfg.horizon is not None else math.inf
    budget = cfg.arrivals
    debug = cfg.debug_checks

    rng = random.Random(f"{cfg.seed}:{rep}")
    expovariate = rng.expovariate
    uniform = rng.random

    rec = _Replication(
        tables=[[[0] * K for _ in range(4)] for _ in range(n_batches)],
        rp_success={w: 0.0 for w in widths},
    )
    table = rec.tables[0]
    if n_batches > 1:
        if budget is not None:
            batch_size = max(1, -(-budget // n_batches))
        else:
            batch_span = (horizon - warmup) / n_batches

    tokens = [0] * capacity
    counts = [0] * K
    free_total = capacity
    dep_rate = 0.0
    reconfig = _NO_RECONFIG
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
        t += expovariate(total)
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
                if n_batches > 1:
                    if budget is not None:
                        b = min((measured_arrivals - 1) // batch_size, n_batches - 1)
                    else:
                        b = min(int((t - warmup) / batch_span), n_batches - 1)
                    table = rec.tables[b]
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
                        rec.defrags_started += 1
                else:
                    if measuring:
                        table[1][k] += 1
            if budget is not None and measured_arrivals >= budget:
                break
        elif u < lam_total + lam_s:
            # randomization request
            if reconfig:
                rec.rp_discarded += 1
            elif free_total < capacity or cfg.randomize_empty:
                reconfig = _RANDOMIZING
                rec.rp_started += 1
            else:
                rec.rp_ignored_empty += 1
        elif reconfig:
            # reconfiguration completes: redraw the arrangement
            if reconfig == _RANDOMIZING:
                if widths and measuring and free_total < capacity:
                    # the tokens are frozen since the request, so they are the
                    # pre-state; the shuffle redraws uniformly within the
                    # pattern, so score the exact survival given the pre-state
                    spans = token_spans(tokens, demands)
                    pat = tuple(counts)
                    for w in widths:
                        rec.rp_success[w] += survival.expected(spans, pat, w)
                    rec.rp_events += 1
                rng.shuffle(tokens)
            else:
                tokens = defragmented(tokens, rng)
            if debug:
                check_state()
            rec.completions += 1
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
            seen = 0
            for i, x in enumerate(tokens):
                if x == target:
                    if seen == pick:
                        break
                    seen += 1
            tokens[i:i + 1] = [0] * demands[k]
            counts[k] -= 1
            free_total += demands[k]
            dep_rate = _departure_rate(counts, mu)
            if debug:
                check_state()

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

    Confidence half-widths use the Student-t 95% interval over replication
    values; a single replication falls back to batch means around its
    whole-run value for the blocking metrics (security metrics then carry no
    interval).
    """
    n_batches = _BATCH_COUNT if cfg.replications == 1 else 1
    survival = WindowSurvival(cfg.profile)
    reps = [
        _simulate_replication(cfg, r, n_batches, survival)
        for r in range(cfg.replications)
    ]
    lam = cfg.profile.arrival_rates
    K = cfg.profile.num_classes
    totals = _sum_tables([t for r in reps for t in r.tables])

    if cfg.replications >= 2:
        samples = [_sum_tables(r.tables) for r in reps]
    else:
        samples = [t for t in reps[0].tables if sum(t[0]) > 0]
    values = [_blocking_values(t, lam) for t in samples]
    tq = _t_quantile(len(samples))
    est = [_estimate([v[j] for v in values], tq) for j in range(2 * K + 2)]
    if cfg.replications == 1:
        est = [
            MetricEstimate(point, e.std_error, e.ci_half_width)
            for point, e in zip(_blocking_values(totals, lam), est)
        ]

    attack = {}
    for w in cfg.window_widths:
        rp_vals = [r.rp_success[w] / r.rp_events if r.rp_events else math.nan for r in reps]
        # unreplicated, this is one value: no interval, whatever tq is
        attack[w] = _estimate(rp_vals, tq)

    counts = EventCounts(
        *(tuple(row) for row in totals),
        randomizations_started=sum(r.rp_started for r in reps),
        randomizations_ignored_empty=sum(r.rp_ignored_empty for r in reps),
        randomizations_discarded=sum(r.rp_discarded for r in reps),
        defrags_started=sum(r.defrags_started for r in reps),
        reconfigs_completed=sum(r.completions for r in reps),
    )
    return SimResult(
        resource_blocking=tuple(est[:K]),
        fragmentation_blocking=tuple(est[K:2 * K]),
        reconfiguration_blocking=est[2 * K],
        overall_blocking=est[2 * K + 1],
        attack_success=attack,
        counts=counts,
    )
