"""Config-driven sweep runner producing CSV grids and a comparison summary.

A run evaluates the cartesian product of (variant, load, lambda_S, mu_d)
with the analytic engine, the Monte Carlo engine, or both, and writes one
CSV row per (cell, engine).  When both engines run, a JSON summary flags
every cell whose Monte Carlo estimate misses the exact value by more than
the estimate's confidence half-width.

Config files are YAML (shipped schema_version: 1); see the README for the
full schema.  Cells are independent and may run in a process pool; output
order is the deterministic grid order regardless of completion order.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, product
from pathlib import Path

import yaml

from .ctmc import (
    DEFAULT_SOLVER_TOL,
    ModelVariant,
    StationaryDistribution,
    VariantKind,
    assemble_generator,
    blocking_report,
    rescale_reconfiguration,
    solve_stationary,
)
from .link import DemandProfile
from .security import NonIntegerRpRatio, attack_success_probability, observable_fraction
from .simulate import DEFAULT_SEED, SimConfig, run_simulation
from .statespace import (
    DEFAULT_STATE_BUDGET,
    SpaceOptions,
    StateBudgetExceeded,
    build_state_space,
    count_states,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
VARIANT_NAMES = tuple(v.value for v in VariantKind)


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    capacity: int
    demands: tuple[int, ...]
    service_rates: tuple[float, ...]
    loads: tuple[float, ...] | None
    arrival_rates: tuple[float, ...] | None
    variants: tuple[str, ...]
    randomization_rates: tuple[float, ...]
    reconfig_rates: tuple[float, ...]
    window_widths: tuple[int, ...]
    engine: str
    state_budget: int
    randomize_empty: bool
    sim_arrivals: int | None
    sim_horizon: float | None
    sim_warmup: float
    sim_replications: int
    seed: int
    out_dir: Path
    basename: str
    timestamp: bool
    jobs: int


def _get(node: dict, path: str, key: str, kind, required: bool = False, default=None):
    where = f"{path}.{key}" if path else key
    if key not in node:
        if required:
            raise ConfigError(f"missing required field {where}")
        return default
    value = node[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"field {where} must be {getattr(kind, '__name__', kind)}, got {value!r}")
    return value


def _known_fields(node: dict, path: str, known: tuple[str, ...]) -> None:
    for key in node:
        if key not in known:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(f"unknown field {where} (known: {', '.join(known)})")


def _num_list(node: dict, path: str, key: str, required: bool = False, default=(),
              integers: bool = False):
    value = _get(node, path, key, list, required=required, default=list(default))
    if not all(isinstance(v, (int, float)) and (not integers or float(v).is_integer())
               for v in value):
        where = f"{path}.{key}" if path else key
        kind = "integers" if integers else "numbers"
        raise ConfigError(f"field {where} must be a list of {kind}")
    return tuple(int(v) if integers else float(v) for v in value)


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Parse a YAML experiment config; keyword overrides win over file values."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")

    version = _get(doc, "", "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version} is not supported (expected {SCHEMA_VERSION})")
    _known_fields(doc, "", (
        "schema_version", "profile", "traffic", "sweep", "window_widths", "engine",
        "state_budget", "randomize_empty", "sim", "output", "jobs",
    ))

    profile = _get(doc, "", "profile", dict, required=True)
    _known_fields(profile, "profile", ("capacity", "demands", "service_rates"))
    capacity = _get(profile, "profile", "capacity", int, required=True)
    demands = _num_list(profile, "profile", "demands", required=True, integers=True)
    service = profile.get("service_rates", 1.0)
    if isinstance(service, (int, float)):
        service_rates = (float(service),) * len(demands)
    else:
        service_rates = _num_list(profile, "profile", "service_rates")
        if len(service_rates) != len(demands):
            raise ConfigError("field profile.service_rates must match profile.demands in length")

    traffic = _get(doc, "", "traffic", dict, required=True)
    _known_fields(traffic, "traffic", ("loads", "arrival_rates"))
    loads = _num_list(traffic, "traffic", "loads") if "loads" in traffic else None
    arrival_rates = (
        _num_list(traffic, "traffic", "arrival_rates") if "arrival_rates" in traffic else None
    )
    if loads is not None and arrival_rates is not None:
        raise ConfigError("traffic.loads and traffic.arrival_rates are mutually exclusive")
    if loads is None and arrival_rates is None:
        raise ConfigError("traffic needs either loads or arrival_rates")
    if arrival_rates is not None and len(arrival_rates) != len(demands):
        raise ConfigError("field traffic.arrival_rates must match profile.demands in length")

    sweep = _get(doc, "", "sweep", dict, default={})
    _known_fields(sweep, "sweep", ("variants", "randomization_rates", "reconfig_rates"))
    variants = sweep.get("variants", ["regular"])
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise ConfigError("field sweep.variants must be a list of strings")
    randomization_rates = _num_list(sweep, "sweep", "randomization_rates", default=(0.0,))
    reconfig_rates = _num_list(sweep, "sweep", "reconfig_rates", default=(1.0,))

    window_widths = _num_list(doc, "", "window_widths", integers=True)

    engine = _get(doc, "", "engine", str, default="analytic")
    if engine not in ("analytic", "mc", "both"):
        raise ConfigError(f"field engine must be analytic, mc or both, got {engine!r}")

    sim = _get(doc, "", "sim", dict, default={})
    _known_fields(sim, "sim", ("arrivals", "horizon", "warmup", "replications", "seed"))
    sim_arrivals = _get(sim, "sim", "arrivals", int, default=None)
    sim_horizon = _get(sim, "sim", "horizon", float, default=None)
    output = _get(doc, "", "output", dict, default={})
    _known_fields(output, "output", ("dir", "basename", "timestamp"))

    cfg = ExperimentConfig(
        capacity=capacity,
        demands=demands,
        service_rates=service_rates,
        loads=loads,
        arrival_rates=arrival_rates,
        variants=tuple(variants),
        randomization_rates=randomization_rates,
        reconfig_rates=reconfig_rates,
        window_widths=window_widths,
        engine=engine,
        state_budget=_get(doc, "", "state_budget", int, default=DEFAULT_STATE_BUDGET),
        randomize_empty=_get(doc, "", "randomize_empty", bool, default=False),
        sim_arrivals=sim_arrivals,
        sim_horizon=sim_horizon,
        sim_warmup=_get(sim, "sim", "warmup", float, default=0.0),
        sim_replications=_get(sim, "sim", "replications", int, default=10),
        seed=_get(sim, "sim", "seed", int, default=DEFAULT_SEED),
        out_dir=Path(_get(output, "output", "dir", str, default=".")),
        basename=_get(output, "output", "basename", str, default="results"),
        timestamp=_get(output, "output", "timestamp", bool, default=True),
        jobs=_get(doc, "", "jobs", int, default=1),
    )
    cfg = replace(cfg, **overrides)

    for v in cfg.variants:
        if v not in VARIANT_NAMES:
            raise ConfigError(f"field sweep.variants: unknown variant {v!r} (choose from {VARIANT_NAMES})")
    if len(set(cfg.window_widths)) < len(cfg.window_widths):
        raise ConfigError("field window_widths must not repeat a width")
    for w in cfg.window_widths:
        if not 1 <= w <= cfg.capacity:
            raise ConfigError(f"field window_widths: width {w} not in 1..{cfg.capacity}")
    try:
        structure_profile(cfg)
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from exc
    if cfg.engine != "analytic" and cfg.sim_arrivals is None and cfg.sim_horizon is None:
        raise ConfigError("sim.arrivals or sim.horizon is required when the mc engine can run")
    if cfg.jobs < 1:
        raise ConfigError("field jobs must be >= 1")
    try:
        points = _traffic(cfg)
    except ValueError as exc:
        raise ConfigError(f"traffic: {exc}") from exc
    for _, profile in points:
        if cfg.sim_arrivals is not None or cfg.sim_horizon is not None:
            # the simulator's own checks, on what each mc cell would run
            try:
                _sim_config(cfg, profile, ModelVariant.regular(), cfg.seed)
            except ValueError as exc:
                raise ConfigError(f"sim: {exc}") from exc
    return cfg


def structure_profile(cfg: ExperimentConfig) -> DemandProfile:
    """The config's link without traffic (zero arrival rates).

    The state space and its size depend on nothing else.
    """
    return DemandProfile(cfg.capacity, cfg.demands, (0.0,) * len(cfg.demands), cfg.service_rates)


def _traffic(cfg: ExperimentConfig) -> list[tuple[float, DemandProfile]]:
    """``(load, profile)`` of each traffic point, in grid order."""
    if cfg.arrival_rates is not None:
        profile = DemandProfile(cfg.capacity, cfg.demands, cfg.arrival_rates, cfg.service_rates)
        load = sum(
            l * d / m for l, d, m in zip(cfg.arrival_rates, cfg.demands, cfg.service_rates)
        )
        return [(load, profile)]
    return [
        (load, DemandProfile.with_uniform_load(cfg.capacity, cfg.demands, load, cfg.service_rates))
        for load in cfg.loads or ()
    ]


def _variant_for(name: str, lambda_s: float, mu_d: float) -> ModelVariant:
    kind = VariantKind(name)
    if kind is VariantKind.REGULAR:
        return ModelVariant.regular()
    return ModelVariant(kind, lambda_s, mu_d)


@dataclass(frozen=True)
class CellSpec:
    ordinal: int
    variant: str
    load: float
    lambda_s: float
    mu_d: float
    engines: tuple[str, ...]
    config: ExperimentConfig
    profile: DemandProfile
    model: ModelVariant
    fallback: str  # why the analytic engine cannot run, or ""


def cell_specs(cfg: ExperimentConfig) -> tuple[list[CellSpec], int | None]:
    """The sweep grid in run order (variant, traffic point, lambda_S, mu_d)
    and the number of regular states of its link.

    The states are counted once per grid, and only when an analytic cell
    runs (``None`` otherwise).  Over ``state_budget`` every analytic cell
    falls back to mc, or StateBudgetExceeded is raised when the config has
    no Monte Carlo budget (``sim.arrivals`` or ``sim.horizon``) to fall back
    on.
    """
    engines = ("analytic", "mc") if cfg.engine == "both" else (cfg.engine,)
    points = list(product(
        cfg.variants, _traffic(cfg), cfg.randomization_rates, cfg.reconfig_rates
    ))
    states = None
    fallback = ""
    if "analytic" in engines and points:
        states = count_states(structure_profile(cfg))
        if states > cfg.state_budget:
            exc = StateBudgetExceeded(states, cfg.state_budget)
            if cfg.sim_arrivals is None and cfg.sim_horizon is None:
                raise exc
            engines, fallback = ("mc",), str(exc)
    try:
        return [
            CellSpec(i, name, load, lambda_s, mu_d, engines, cfg, profile,
                     _variant_for(name, lambda_s, mu_d), fallback)
            for i, (name, (load, profile), lambda_s, mu_d) in enumerate(points)
        ], states
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc


def _chain(spec: CellSpec) -> tuple[DemandProfile, ModelVariant]:
    """The chain whose one exact solve serves ``spec``: its profile, and
    its model at the reference rate mu_ref = ``reconfig_rates[0]``.

    A reconfiguration state leaves at rate mu_d and does nothing else, so
    the distribution at any mu_d follows from the one at mu_ref in closed
    form (``ctmc.rescale_reconfiguration``), and the regular model depends
    on neither lambda_S nor mu_d.  mu_d is the innermost grid axis: the
    cells of one chain are adjacent, and a randomized chain spans
    ``len(reconfig_rates)`` cells.
    """
    model = spec.model
    if model.has_randomization:
        model = replace(model, reconfig_rate=spec.config.reconfig_rates[0])
    return spec.profile, model


def exact_solves(specs: list[CellSpec]) -> int:
    """The number of exact solves a grid takes: one per chain of its analytic cells."""
    return len({_chain(spec) for spec in specs if "analytic" in spec.engines})


@lru_cache(maxsize=1)
def _reference(cfg: ExperimentConfig, profile: DemandProfile,
               model: ModelVariant) -> StationaryDistribution:
    """The solved chain; one entry suffices, as a chain's cells are adjacent."""
    return solve_stationary(assemble_generator(state_space(cfg), profile, model))


def state_space(cfg: ExperimentConfig):
    """The config's state space, enumerated once per process and link."""
    return _shared_space(structure_profile(cfg), cfg.randomize_empty, cfg.state_budget)


@lru_cache(maxsize=8)
def _shared_space(profile: DemandProfile, randomize_empty: bool, budget: int):
    return build_state_space(profile, SpaceOptions(randomize_empty, budget))


@dataclass(frozen=True)
class EngineResult:
    """One engine's numbers for one cell, one ``p_sa``/``lambda_frac`` per window width.

    ``residual_or_ci`` is the solver residual (analytic) or the 95%
    half-width of ``bp`` (mc), as in the CSV column.  Analytic results also
    carry the ``solver`` diagnostics, Monte Carlo results the ``half_widths``
    of ``rcb`` and the summed ``fb`` and the simulator's ``events`` counts.
    """

    engine: str
    rb: tuple[float, ...]
    fb: tuple[float, ...]
    rcb: float
    bp: float
    p_sa: tuple[float, ...]
    residual_or_ci: float
    lambda_frac: tuple[float, ...] = ()
    wall_ms: float = 0.0
    solver: dict | None = None
    half_widths: dict | None = None
    events: dict | None = None

    def summary(self) -> dict:
        block = {"rb": list(self.rb), "fb": list(self.fb)}
        if self.engine == "analytic":
            return {**block, "rcb": self.rcb, "bp": self.bp,
                    "residual": self.residual_or_ci, "solver": self.solver}
        hw = self.half_widths
        return {
            **block,
            "rcb": {"mean": self.rcb, "ci_half_width": hw["rcb"]},
            "bp": {"mean": self.bp, "ci_half_width": self.residual_or_ci},
            "fb_sum": {"mean": sum(self.fb), "ci_half_width": hw["fb_sum"]},
            "events": self.events,
        }


@dataclass(frozen=True)
class CellResult:
    """Everything one grid cell reports: a CSV row per engine and one summary block."""

    spec: CellSpec
    engines: tuple[EngineResult, ...]  # ("analytic", "mc") order when both ran
    warnings: tuple[str, ...]

    def summary(self) -> dict:
        spec = self.spec
        doc = {"variant": spec.variant, "load_erlang": spec.load, "lambda_S": spec.lambda_s,
               "mu_d": spec.mu_d, "warnings": list(self.warnings)}
        for result in self.engines:
            doc[result.engine] = result.summary()
        if len(self.engines) == 2:
            exact, mc = self.engines
            hw = mc.half_widths
            within = {
                "bp": abs(mc.bp - exact.bp) <= mc.residual_or_ci,
                "rcb": abs(mc.rcb - exact.rcb) <= hw["rcb"],
                "fb_sum": abs(sum(mc.fb) - sum(exact.fb)) <= hw["fb_sum"],
            }
            doc["within_ci"] = within
            doc["disagreements"] = sorted(k for k, ok in within.items() if not ok)
        return doc

    def csv_rows(self) -> list[str]:
        spec = self.spec
        cfg = spec.config
        rows = []
        for r in self.engines:
            values = [
                float(spec.load), float(spec.lambda_s), float(spec.mu_d),
                *chain.from_iterable(zip(r.rb, r.fb)), r.rcb, r.bp,
                *chain.from_iterable(zip(r.p_sa, r.lambda_frac)),
                r.residual_or_ci, r.wall_ms if cfg.timestamp else 0.0,
            ]
            rows.append(",".join([spec.variant, r.engine, str(cfg.capacity), *map(_fmt, values)]))
        return rows


def _sim_config(cfg: ExperimentConfig, profile: DemandProfile, variant: ModelVariant, seed: int):
    return SimConfig(
        profile=profile,
        variant=variant,
        arrivals=cfg.sim_arrivals,
        horizon=cfg.sim_horizon,
        warmup=cfg.sim_warmup,
        replications=cfg.sim_replications,
        seed=seed,
        window_widths=cfg.window_widths if variant.has_randomization else (),
        randomize_empty=cfg.randomize_empty,
    )


def _analytic(spec: CellSpec, space) -> EngineResult:
    """Exact numbers of one cell from its chain's solve.

    A randomized cell at mu_d != mu_ref rescales the reference; its
    residual is measured on its own generator, and a direct solve takes
    over where that residual misses the gate.
    """
    cfg, profile, variant = spec.config, spec.profile, spec.model
    _, ref_model = _chain(spec)
    dist = _reference(cfg, profile, ref_model)
    mu_ref = None
    if ref_model != variant:
        rm = assemble_generator(space, profile, variant)
        dist = rescale_reconfiguration(
            dist, rm, space.num_regular, ref_model.reconfig_rate / variant.reconfig_rate
        )
        if dist.residual > DEFAULT_SOLVER_TOL:
            dist = solve_stationary(rm)
        else:
            mu_ref = ref_model.reconfig_rate
    report = blocking_report(dist, space, profile, variant)
    solver = dist.diagnostics()
    if mu_ref is not None:
        solver["mu_ref"] = mu_ref
    return EngineResult(
        engine="analytic",
        rb=tuple(report.resource_blocking),
        fb=tuple(report.fragmentation_blocking),
        rcb=report.reconfiguration_blocking,
        bp=report.overall_blocking,
        p_sa=tuple(
            attack_success_probability(dist.pi, space, w) if variant.has_randomization
            else math.nan
            for w in cfg.window_widths
        ),
        residual_or_ci=dist.residual,
        solver=solver,
    )


def _monte_carlo(spec: CellSpec) -> EngineResult:
    cfg = spec.config
    result = run_simulation(_sim_config(cfg, spec.profile, spec.model, cfg.seed + spec.ordinal))
    attack = result.attack_success
    return EngineResult(
        engine="mc",
        rb=tuple(e.mean for e in result.resource_blocking),
        fb=tuple(e.mean for e in result.fragmentation_blocking),
        rcb=result.reconfiguration_blocking.mean,
        bp=result.overall_blocking.mean,
        p_sa=tuple(attack[w].mean if w in attack else math.nan for w in cfg.window_widths),
        residual_or_ci=result.overall_blocking.ci_half_width,
        half_widths={
            "rcb": result.reconfiguration_blocking.ci_half_width,
            "fb_sum": sum(e.ci_half_width for e in result.fragmentation_blocking),
        },
        events={**asdict(result.counts), "randomizations_scored": result.randomizations_scored},
    )


def _lambda_frac(p_sa: float, spec: CellSpec, warnings: list[str]) -> float:
    """Observable fraction of one p_sa; a non-integer rate ratio is warned once per cell."""
    if math.isnan(p_sa) or spec.lambda_s <= 0:
        return math.nan
    try:
        return observable_fraction(p_sa, spec.lambda_s, spec.config.service_rates[0])[1]
    except NonIntegerRpRatio as exc:
        if str(exc) not in warnings:
            warnings.append(str(exc))
        return math.nan


def _compute_cell(spec: CellSpec) -> CellResult:
    cfg = spec.config
    warnings = [f"analytic engine unavailable: {spec.fallback}"] if spec.fallback else []
    if "analytic" in spec.engines:
        space = state_space(cfg)
        space.transitions  # shared by every cell of the link: built outside the timer

    results = []
    for engine in spec.engines:
        # times the engine and its security columns, not the shared state space
        start = time.perf_counter()
        if engine == "analytic":
            result = _analytic(spec, space)
        else:
            result = _monte_carlo(spec)
        fractions = tuple(_lambda_frac(p, spec, warnings) for p in result.p_sa)
        wall_ms = (time.perf_counter() - start) * 1000.0
        results.append(replace(result, lambda_frac=fractions, wall_ms=wall_ms))
    return CellResult(spec, tuple(results), tuple(warnings))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentOutcome:
    csv_path: Path
    summary_path: Path
    num_rows: int
    num_disagreements: int


def run_experiments(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Evaluate the whole grid and write the CSV and JSON summary files."""
    specs, _ = cell_specs(cfg)
    if specs and specs[0].fallback:
        log.warning("%s; falling back to mc in all %d cells", specs[0].fallback, len(specs))
    log.info("%d grid cells, %d exact solves", len(specs), exact_solves(specs))

    if cfg.jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            # one chunk per randomized chain keeps its cells in one worker
            results = list(pool.map(_compute_cell, specs, chunksize=len(cfg.reconfig_rates)))
    else:
        results = [_compute_cell(spec) for spec in specs]

    K = len(cfg.demands)
    header = ["variant", "engine", "C", "load_erlang", "lambda_S", "mu_d"]
    for k in range(1, K + 1):
        header += [f"rb_{k}", f"fb_{k}"]
    header += ["rcb", "bp"]
    for w in cfg.window_widths:
        header += [f"p_sa_{w}", f"lambda_frac_{w}"]
    header += ["residual_or_ci", "wall_ms"]

    lines = []
    if cfg.timestamp:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(header))
    rows = [row for result in results for row in result.csv_rows()]
    lines += rows
    num_rows = len(rows)

    summaries = [r.summary() for r in results]
    disagreements = sum(len(s.get("disagreements", ())) for s in summaries)
    summary_doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": cfg.engine,
        "num_cells": len(specs),
        "num_rows": num_rows,
        "num_compared": sum("within_ci" in s for s in summaries),
        "num_disagreements": disagreements,
        "cells": summaries,
    }
    if cfg.timestamp:
        summary_doc["generated"] = datetime.now(timezone.utc).isoformat()

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / f"{cfg.basename}.csv"
    summary_path = cfg.out_dir / f"{cfg.basename}_summary.json"
    csv_path.write_text("\n".join(lines) + "\n")
    summary_path.write_text(json.dumps(summary_doc, indent=2, sort_keys=True) + "\n")
    return ExperimentOutcome(csv_path, summary_path, num_rows, disagreements)
