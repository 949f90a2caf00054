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
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import yaml

from .ctmc import (
    ModelVariant,
    VariantKind,
    assemble_generator,
    blocking_report,
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
    solver_tol: float
    state_budget: int
    randomize_empty: bool
    data_rate: float
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


def _num_list(node: dict, path: str, key: str, required: bool = False, default=()):
    where = f"{path}.{key}" if path else key
    if key not in node:
        if required:
            raise ConfigError(f"missing required field {where}")
        return tuple(default)
    value = node[key]
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) for v in value):
        raise ConfigError(f"field {where} must be a list of numbers")
    return tuple(float(v) for v in value)


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

    profile = _get(doc, "", "profile", dict, required=True)
    capacity = _get(profile, "profile", "capacity", int, required=True)
    demands_f = _num_list(profile, "profile", "demands", required=True)
    demands = tuple(int(d) for d in demands_f)
    if any(d != int(d) for d in demands_f):
        raise ConfigError("field profile.demands must contain integers")
    service = profile.get("service_rates", 1.0)
    if isinstance(service, (int, float)):
        service_rates = (float(service),) * len(demands)
    else:
        service_rates = _num_list(profile, "profile", "service_rates")
        if len(service_rates) != len(demands):
            raise ConfigError("field profile.service_rates must match profile.demands in length")

    traffic = _get(doc, "", "traffic", dict, required=True)
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
    variants = sweep.get("variants", ["regular"])
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise ConfigError("field sweep.variants must be a list of strings")
    for v in variants:
        if v not in VARIANT_NAMES:
            raise ConfigError(f"field sweep.variants: unknown variant {v!r} (choose from {VARIANT_NAMES})")
    randomization_rates = _num_list(sweep, "sweep", "randomization_rates", default=(0.0,))
    reconfig_rates = _num_list(sweep, "sweep", "reconfig_rates", default=(1.0,))

    widths_f = _num_list(doc, "", "window_widths", default=())
    window_widths = tuple(int(w) for w in widths_f)
    for w in window_widths:
        if not 1 <= w <= capacity:
            raise ConfigError(f"field window_widths: width {w} not in 1..{capacity}")

    engine = _get(doc, "", "engine", str, default="analytic")
    if engine not in ("analytic", "mc", "both"):
        raise ConfigError(f"field engine must be analytic, mc or both, got {engine!r}")

    sim = _get(doc, "", "sim", dict, default={})
    sim_arrivals = _get(sim, "sim", "arrivals", int, default=None)
    sim_horizon = _get(sim, "sim", "horizon", float, default=None)
    output = _get(doc, "", "output", dict, default={})

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
        solver_tol=_get(doc, "", "solver_tol", float, default=1e-10),
        state_budget=_get(doc, "", "state_budget", int, default=DEFAULT_STATE_BUDGET),
        randomize_empty=_get(doc, "", "randomize_empty", bool, default=False),
        data_rate=_get(doc, "", "data_rate", float, default=1.0),
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

    try:
        DemandProfile(capacity, demands, (0.0,) * len(demands), service_rates)
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from exc
    if cfg.engine != "analytic" and cfg.sim_arrivals is None and cfg.sim_horizon is None:
        raise ConfigError("sim.arrivals or sim.horizon is required when the mc engine can run")
    if cfg.jobs < 1:
        raise ConfigError("field jobs must be >= 1")
    return cfg


def _profile_for_load(cfg: ExperimentConfig, load: float) -> DemandProfile:
    if cfg.arrival_rates is not None:
        return DemandProfile(cfg.capacity, cfg.demands, cfg.arrival_rates, cfg.service_rates)
    return DemandProfile.with_uniform_load(cfg.capacity, cfg.demands, load, cfg.service_rates)


def _traffic_points(cfg: ExperimentConfig) -> list[float]:
    if cfg.arrival_rates is not None:
        load = sum(
            l * d / m for l, d, m in zip(cfg.arrival_rates, cfg.demands, cfg.service_rates)
        )
        return [load]
    return list(cfg.loads or ())


def _variant_for(name: str, lambda_s: float, mu_d: float) -> ModelVariant:
    if name == VariantKind.REGULAR.value:
        return ModelVariant.regular()
    if name == VariantKind.RANDOMIZED.value:
        return ModelVariant.randomized(lambda_s, mu_d)
    return ModelVariant.randomized_defrag(lambda_s, mu_d)


@dataclass(frozen=True)
class CellSpec:
    ordinal: int
    variant: str
    load: float
    lambda_s: float
    mu_d: float
    engines: tuple[str, ...]
    config: ExperimentConfig


def cell_specs(cfg: ExperimentConfig) -> list[CellSpec]:
    """The sweep grid in run order: variant, traffic point, lambda_S, mu_d."""
    engines = ("analytic", "mc") if cfg.engine == "both" else (cfg.engine,)
    specs: list[CellSpec] = []
    for variant in cfg.variants:
        for load in _traffic_points(cfg):
            for lambda_s in cfg.randomization_rates:
                for mu_d in cfg.reconfig_rates:
                    specs.append(CellSpec(len(specs), variant, load, lambda_s, mu_d, engines, cfg))
    return specs


def fall_back_or_raise(cfg: ExperimentConfig, exc: StateBudgetExceeded) -> None:
    """Return if analytic cells over the state budget can fall back to mc.

    Re-raises ``exc`` when the config has no Monte Carlo budget
    (``sim.arrivals`` or ``sim.horizon``) to fall back on.
    """
    if cfg.sim_arrivals is None and cfg.sim_horizon is None:
        raise exc


@lru_cache(maxsize=8)
def _shared_space(capacity: int, demands: tuple[int, ...], randomize_empty: bool, budget: int):
    profile = DemandProfile(capacity, demands, (0.0,) * len(demands), (1.0,) * len(demands))
    return build_state_space(profile, SpaceOptions(randomize_empty, budget))


def _security_columns(
    p_sa: float, lambda_s: float, mu: float, data_rate: float, warnings: list[str]
) -> tuple[float, float]:
    """(p_sa, observable fraction); a non-integer rate ratio is warned once per cell."""
    if math.isnan(p_sa) or lambda_s <= 0:
        return p_sa, math.nan
    try:
        _, fraction = observable_fraction(p_sa, lambda_s, mu, data_rate)
        return p_sa, fraction
    except NonIntegerRpRatio as exc:
        if str(exc) not in warnings:
            warnings.append(str(exc))
        return p_sa, math.nan


def _compute_cell(spec: CellSpec) -> dict:
    cfg = spec.config
    profile = _profile_for_load(cfg, spec.load)
    variant = _variant_for(spec.variant, spec.lambda_s, spec.mu_d)
    mu_ref = cfg.service_rates[0]
    rows: list[dict] = []
    summary: dict = {
        "variant": spec.variant,
        "load_erlang": spec.load,
        "lambda_S": spec.lambda_s,
        "mu_d": spec.mu_d,
        "warnings": [],
    }

    engines = list(spec.engines)
    if "analytic" in engines:
        try:
            space = _shared_space(
                cfg.capacity, cfg.demands, cfg.randomize_empty, cfg.state_budget
            )
        except StateBudgetExceeded as exc:
            fall_back_or_raise(cfg, exc)
            log.warning("cell %d: %s; falling back to mc", spec.ordinal, exc)
            summary["warnings"].append(f"analytic engine unavailable: {exc}")
            engines = ["mc"]
            space = None

    for engine in engines:
        start = time.perf_counter()
        if engine == "analytic":
            generator = assemble_generator(space, profile, variant)
            dist = solve_stationary(generator, cfg.solver_tol)
            report = blocking_report(dist, space, profile, variant)
            security = []
            for w in cfg.window_widths:
                if variant.has_randomization:
                    p = attack_success_probability(dist.pi, space, w)
                    security.append(_security_columns(
                        p, spec.lambda_s, mu_ref, cfg.data_rate, summary["warnings"]
                    ))
                else:
                    security.append((math.nan, math.nan))
            quality = dist.residual
            summary["analytic"] = {
                "rb": list(report.resource_blocking),
                "fb": list(report.fragmentation_blocking),
                "rcb": report.reconfiguration_blocking,
                "bp": report.overall_blocking,
                "residual": dist.residual,
                "solver": {
                    "method": dist.method,
                    "dimension": dist.dimension,
                    "nnz": dist.nnz,
                    "lu_nnz": dist.lu_nnz,
                    "refinements": dist.refinements,
                },
            }
            row_metrics = {
                "rb": report.resource_blocking,
                "fb": report.fragmentation_blocking,
                "rcb": report.reconfiguration_blocking,
                "bp": report.overall_blocking,
            }
        else:
            sim_cfg = SimConfig(
                profile=profile,
                variant=variant,
                arrivals=cfg.sim_arrivals,
                horizon=cfg.sim_horizon,
                warmup=cfg.sim_warmup,
                replications=cfg.sim_replications,
                seed=cfg.seed + spec.ordinal,
                window_widths=cfg.window_widths if variant.has_randomization else (),
                randomize_empty=cfg.randomize_empty,
            )
            result = run_simulation(sim_cfg)
            security = []
            for w in cfg.window_widths:
                est = result.attack_success.get(w)
                p = est.mean if est is not None else math.nan
                security.append(_security_columns(
                    p, spec.lambda_s, mu_ref, cfg.data_rate, summary["warnings"]
                ))
            quality = result.overall_blocking.ci_half_width
            summary["mc"] = {
                "rb": [e.mean for e in result.resource_blocking],
                "fb": [e.mean for e in result.fragmentation_blocking],
                "rcb": {"mean": result.reconfiguration_blocking.mean,
                        "ci_half_width": result.reconfiguration_blocking.ci_half_width},
                "bp": {"mean": result.overall_blocking.mean,
                       "ci_half_width": result.overall_blocking.ci_half_width},
                "fb_sum": {"mean": sum(e.mean for e in result.fragmentation_blocking),
                           "ci_half_width": sum(e.ci_half_width for e in result.fragmentation_blocking)},
            }
            row_metrics = {
                "rb": tuple(e.mean for e in result.resource_blocking),
                "fb": tuple(e.mean for e in result.fragmentation_blocking),
                "rcb": result.reconfiguration_blocking.mean,
                "bp": result.overall_blocking.mean,
            }
        wall_ms = (time.perf_counter() - start) * 1000.0
        rows.append({
            "engine": engine,
            "metrics": row_metrics,
            "security": security,
            "quality": quality,
            "wall_ms": wall_ms,
        })

    if "analytic" in summary and "mc" in summary:
        exact = summary["analytic"]
        mc = summary["mc"]
        exact_fb_sum = sum(exact["fb"])
        within = {
            "bp": abs(mc["bp"]["mean"] - exact["bp"]) <= mc["bp"]["ci_half_width"],
            "rcb": abs(mc["rcb"]["mean"] - exact["rcb"]) <= mc["rcb"]["ci_half_width"],
            "fb_sum": abs(mc["fb_sum"]["mean"] - exact_fb_sum) <= mc["fb_sum"]["ci_half_width"],
        }
        summary["within_ci"] = within
        summary["disagreements"] = sorted(k for k, ok in within.items() if not ok)

    return {"ordinal": spec.ordinal, "spec_row": {
        "variant": spec.variant,
        "load": spec.load,
        "lambda_s": spec.lambda_s,
        "mu_d": spec.mu_d,
    }, "rows": rows, "summary": summary}


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
    specs = cell_specs(cfg)

    if cfg.jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_compute_cell, specs))
    else:
        results = [_compute_cell(spec) for spec in specs]
    results.sort(key=lambda r: r["ordinal"])

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
    num_rows = 0
    for result in results:
        base = result["spec_row"]
        for row in result["rows"]:
            cells = [
                base["variant"], row["engine"], str(cfg.capacity),
                _fmt(float(base["load"])), _fmt(float(base["lambda_s"])), _fmt(float(base["mu_d"])),
            ]
            metrics = row["metrics"]
            for k in range(K):
                cells += [_fmt(metrics["rb"][k]), _fmt(metrics["fb"][k])]
            cells += [_fmt(metrics["rcb"]), _fmt(metrics["bp"])]
            for p, frac in row["security"]:
                cells += [_fmt(p), _fmt(frac)]
            wall = 0.0 if not cfg.timestamp else row["wall_ms"]
            cells += [_fmt(row["quality"]), _fmt(wall)]
            lines.append(",".join(cells))
            num_rows += 1

    summaries = [r["summary"] for r in results]
    disagreements = sum(len(s.get("disagreements", ())) for s in summaries)
    compared = [s for s in summaries if "within_ci" in s]
    summary_doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": cfg.engine,
        "num_cells": len(specs),
        "num_rows": num_rows,
        "num_compared": len(compared),
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
