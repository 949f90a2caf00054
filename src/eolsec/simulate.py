"""Discrete-event Monte Carlo simulation of the link models.

Covers capacities far beyond enumeration reach.  All sojourn clocks are
exponential, so the simulator advances with a single race over the active
rates instead of an event calendar: call arrivals and randomization
requests flow at all times, departures only while the link is serving, and
exactly one reconfiguration completion while it is reconfiguring.  Frozen
departure clocks during reconfiguration are therefore implicit, which
matches the analytic chain exactly.

Attack success is scored at every measured randomization completion.  A
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

from .ctmc import ModelVariant
from .link import (
    FREE,
    Arrangement,
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
    reconfig_time_fraction: MetricEstimate
    counts: EventCounts


@dataclass
class _Replication:
    arrivals: list[int]
    resource_blocked: list[int]
    frag_blocked: list[int]
    reconfig_blocked: list[int]
    rp_started: int = 0
    rp_ignored_empty: int = 0
    rp_discarded: int = 0
    defrags_started: int = 0
    completions: int = 0
    measured_time: float = 0.0
    reconfig_time: float = 0.0
    rp_events: int = 0
    rp_success: dict[int, float] = field(default_factory=dict)
    batches: list[list[list[int]]] = field(default_factory=list)


def _simulate_replication(
    cfg: SimConfig, rep: int, track_batches: bool, survival: WindowSurvival
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
    budget = cfg.arrivals if cfg.arrivals is not None else None
    debug = cfg.debug_checks

    rng = random.Random(f"{cfg.seed}:{rep}")
    expovariate = rng.expovariate
    uniform = rng.random

    rec = _Replication(
        arrivals=[0] * K,
        resource_blocked=[0] * K,
        frag_blocked=[0] * K,
        reconfig_blocked=[0] * K,
        rp_success={w: 0.0 for w in widths},
    )
    n_batches = _BATCH_COUNT if track_batches else 0
    if n_batches:
        rec.batches = [[[0] * K for _ in range(4)] for _ in range(n_batches)]
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
        arr = Arrangement(tuple(tokens))
        check_arrangement(arr, profile)
        if list(pattern(arr, profile)) != counts or tokens.count(FREE) != free_total:
            raise RuntimeError(
                f"tracked counts {counts} / {free_total} free disagree with tokens {tokens}"
            )

    while True:
        total = lam_total + lam_s + (mu_d if reconfig else dep_rate)
        if total <= 0.0:
            # nothing can ever happen again; jump to the end of the run
            if horizon < math.inf:
                t = horizon
            break
        t_next = t + expovariate(total)
        if t_next >= horizon:
            if reconfig and horizon > warmup:
                rec.reconfig_time += horizon - max(t, warmup)
            t = horizon
            break
        if reconfig and t_next > warmup:
            rec.reconfig_time += t_next - max(t, warmup)
        t = t_next
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
                rec.arrivals[k] += 1
                measured_arrivals += 1
                if n_batches:
                    if budget is not None:
                        b = min((measured_arrivals - 1) // batch_size, n_batches - 1)
                    else:
                        b = min(int((t - warmup) / batch_span), n_batches - 1)
                    batch = rec.batches[b]
                    batch[0][k] += 1
            if reconfig:
                if measuring:
                    rec.reconfig_blocked[k] += 1
                    if n_batches:
                        batch[3][k] += 1
            else:
                dk = demands[k]
                pos = random_fit(tokens, dk, uniform)
                if pos is not None:
                    tokens[pos:pos + dk] = [k + 1]
                    counts[k] += 1
                    free_total -= dk
                    dep_rate += mu[k]
                    if debug:
                        check_state()
                elif free_total >= dk:
                    if measuring:
                        rec.frag_blocked[k] += 1
                        if n_batches:
                            batch[2][k] += 1
                    if has_defrag:
                        reconfig = _DEFRAGMENTING
                        rec.defrags_started += 1
                else:
                    if measuring:
                        rec.resource_blocked[k] += 1
                        if n_batches:
                            batch[1][k] += 1
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
                if widths and measuring:
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
                # incremental dep_rate can drift by one ulp; land on a real class
                k = next(i for i in range(K) if counts[i])
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
            dep_rate -= mu[k]
            if free_total == capacity:
                dep_rate = 0.0  # kill accumulated float drift at the empty state
            if debug:
                check_state()

    rec.measured_time = max(0.0, t - warmup)
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


def _blocking_values(
    arrivals: list[int],
    rb: list[int],
    fb: list[int],
    rcb: list[int],
    lam: tuple[float, ...],
) -> tuple[list[float], list[float], float, float]:
    K = len(lam)
    rb_hat = [rb[k] / arrivals[k] if arrivals[k] else 0.0 for k in range(K)]
    fb_hat = [fb[k] / arrivals[k] if arrivals[k] else 0.0 for k in range(K)]
    total_arrivals = sum(arrivals)
    rcb_hat = sum(rcb) / total_arrivals if total_arrivals else 0.0
    lam_total = sum(lam)
    if lam_total > 0:
        weighted = sum(l * (r + f) for l, r, f in zip(lam, rb_hat, fb_hat)) / lam_total
    else:
        weighted = 0.0
    return rb_hat, fb_hat, rcb_hat, rcb_hat + weighted


def run_simulation(cfg: SimConfig) -> SimResult:
    """Run all replications and aggregate the estimates.

    Confidence half-widths use the Student-t 95% interval over replication
    means; a single replication falls back to batch means for the blocking
    metrics (security metrics then carry no interval).
    """
    track_batches = cfg.replications == 1
    survival = WindowSurvival(cfg.profile)
    reps = [
        _simulate_replication(cfg, r, track_batches, survival)
        for r in range(cfg.replications)
    ]
    lam = cfg.profile.arrival_rates
    K = cfg.profile.num_classes

    per_rep = [
        _blocking_values(r.arrivals, r.resource_blocked, r.frag_blocked, r.reconfig_blocked, lam)
        for r in reps
    ]

    if cfg.replications >= 2:
        tq = _t_quantile(cfg.replications)
        rb_est = tuple(_estimate([p[0][k] for p in per_rep], tq) for k in range(K))
        fb_est = tuple(_estimate([p[1][k] for p in per_rep], tq) for k in range(K))
        rcb_est = _estimate([p[2] for p in per_rep], tq)
        bp_est = _estimate([p[3] for p in per_rep], tq)
    else:
        # batch-means interval around the whole-run point estimate
        rb_hat, fb_hat, rcb_hat, bp_hat = per_rep[0]
        batches = reps[0].batches
        batch_vals = [
            _blocking_values(b[0], b[1], b[2], b[3], lam)
            for b in batches
            if sum(b[0]) > 0
        ]
        tq = _t_quantile(len(batch_vals))

        def with_batch_ci(point: float, values: list[float]) -> MetricEstimate:
            est = _estimate(values, tq)
            return MetricEstimate(point, est.std_error, est.ci_half_width)

        rb_est = tuple(with_batch_ci(rb_hat[k], [v[0][k] for v in batch_vals]) for k in range(K))
        fb_est = tuple(with_batch_ci(fb_hat[k], [v[1][k] for v in batch_vals]) for k in range(K))
        rcb_est = with_batch_ci(rcb_hat, [v[2] for v in batch_vals])
        bp_est = with_batch_ci(bp_hat, [v[3] for v in batch_vals])

    tq = _t_quantile(cfg.replications)
    attack = {}
    for w in cfg.window_widths:
        rp_vals = [r.rp_success[w] / r.rp_events if r.rp_events else math.nan for r in reps]
        attack[w] = _estimate(rp_vals, tq)

    frac_vals = [r.reconfig_time / r.measured_time if r.measured_time > 0 else math.nan for r in reps]
    counts = EventCounts(
        arrivals=tuple(sum(r.arrivals[k] for r in reps) for k in range(K)),
        resource_blocked=tuple(sum(r.resource_blocked[k] for r in reps) for k in range(K)),
        frag_blocked=tuple(sum(r.frag_blocked[k] for r in reps) for k in range(K)),
        reconfig_blocked=tuple(sum(r.reconfig_blocked[k] for r in reps) for k in range(K)),
        randomizations_started=sum(r.rp_started for r in reps),
        randomizations_ignored_empty=sum(r.rp_ignored_empty for r in reps),
        randomizations_discarded=sum(r.rp_discarded for r in reps),
        defrags_started=sum(r.defrags_started for r in reps),
        reconfigs_completed=sum(r.completions for r in reps),
    )
    return SimResult(
        resource_blocking=rb_est,
        fragmentation_blocking=fb_est,
        reconfiguration_blocking=rcb_est,
        overall_blocking=bp_est,
        attack_success=attack,
        reconfig_time_fraction=_estimate(frac_vals, tq),
        counts=counts,
    )
