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
import multiprocessing
import os
import stat
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, product
from pathlib import Path
from typing import Iterator, TextIO

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
from .security import (
    NonIntegerRpRatio,
    NoOccupiedMass,
    attack_success_probability,
    observable_fraction,
)
from .simulate import DEFAULT_REPLICATIONS, DEFAULT_SEED, SimConfig, run_simulation
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
_REQUIRED_SECTIONS = ("profile", "traffic")


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


def _key(path: str, kind, default=MISSING):
    """A field read from config key ``path`` as ``kind``; one without a default is required."""
    return field(metadata={"key": path, "kind": kind, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep config: each field declares its YAML key path, kind and default once.

    A kind is a type, a list kind (``"integers"``, ``"numbers"`` or
    ``"strings"``) or ``"number or numbers"``, a scalar or a list.
    ``load_config`` walks the fields in order, which is the README's schema
    order; the constructor has no defaults.
    """

    capacity: int = _key("profile.capacity", int)
    demands: tuple[int, ...] = _key("profile.demands", "integers")
    service_rates: tuple[float, ...] = _key("profile.service_rates", "number or numbers", 1.0)
    loads: tuple[float, ...] | None = _key("traffic.loads", "numbers", None)
    arrival_rates: tuple[float, ...] | None = _key("traffic.arrival_rates", "numbers", None)
    variants: tuple[str, ...] = _key("sweep.variants", "strings", ("regular",))
    randomization_rates: tuple[float, ...] = _key("sweep.randomization_rates", "numbers", (0.0,))
    reconfig_rates: tuple[float, ...] = _key("sweep.reconfig_rates", "numbers", (1.0,))
    window_widths: tuple[int, ...] = _key("window_widths", "integers", ())
    engine: str = _key("engine", str, "analytic")
    state_budget: int = _key("state_budget", int, DEFAULT_STATE_BUDGET)
    randomize_empty: bool = _key("randomize_empty", bool, False)
    sim_arrivals: int | None = _key("sim.arrivals", int, None)
    sim_horizon: float | None = _key("sim.horizon", float, None)
    sim_warmup: float = _key("sim.warmup", float, 0.0)
    sim_replications: int = _key("sim.replications", int, DEFAULT_REPLICATIONS)
    seed: int = _key("sim.seed", int, DEFAULT_SEED)
    out_dir: Path = _key("output.dir", Path, Path("."))
    basename: str = _key("output.basename", str, "results")
    timestamp: bool = _key("output.timestamp", bool, True)
    jobs: int = _key("jobs", int, 1)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse(value, where: str, kind):
    """``value`` of key ``where`` as its field holds it; ConfigError if not of ``kind``."""
    if kind == "number or numbers":
        return float(value) if _is_number(value) else _parse(value, where, "numbers")
    if kind == "strings":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"field {where} must be a list of strings")
        return tuple(value)
    if kind in ("integers", "numbers"):
        integers = kind == "integers"
        value = _parse(value, where, list)
        if not all(_is_number(v) and (not integers or float(v).is_integer()) for v in value):
            raise ConfigError(f"field {where} must be a list of {kind}")
        return tuple(int(v) if integers else float(v) for v in value)
    if kind is Path:
        return Path(_parse(value, where, str))
    if kind is float and _is_number(value):
        return float(value)
    # bool subclasses int, but a YAML true/false is no number
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(f"field {where} must be {kind.__name__}, got {value!r}")
    return value


def _read(node: dict, where: str, kind, default=MISSING):
    """The value of key path ``where``, whose last part keys ``node``, or its default."""
    key = where.rpartition(".")[2]
    if key in node:
        return _parse(node[key], where, kind)
    if default is MISSING:
        raise ConfigError(f"missing required field {where}")
    return default


def _known_keys() -> dict[str, list[str]]:
    """Each section's keys ("" is the root), in field order: schema order."""
    known: dict[str, list[str]] = {"": ["schema_version"]}
    for f in fields(ExperimentConfig):
        section, _, key = f.metadata["key"].rpartition(".")
        if section and section not in known:
            known[""].append(section)
        known.setdefault(section, []).append(key)
    return known


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

    version = _read(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version} is not supported (expected {SCHEMA_VERSION})")
    nodes = {"": doc}
    for section, known in _known_keys().items():
        if section:
            default = MISSING if section in _REQUIRED_SECTIONS else {}
            nodes[section] = _read(doc, section, dict, default)
        for key in nodes[section]:
            if key not in known:
                where = f"{section}.{key}" if section else str(key)
                raise ConfigError(f"unknown field {where} (known: {', '.join(known)})")
    values = {}
    for f in fields(ExperimentConfig):
        where = f.metadata["key"]
        node = nodes[where.rpartition(".")[0]]
        values[f.name] = _read(node, where, f.metadata["kind"], f.metadata["default"])
    cfg = replace(ExperimentConfig(**values), **overrides)

    if _is_number(cfg.service_rates):
        cfg = replace(cfg, service_rates=(float(cfg.service_rates),) * len(cfg.demands))
    elif len(cfg.service_rates) != len(cfg.demands):
        raise ConfigError("field profile.service_rates must match profile.demands in length")
    if cfg.loads is not None and cfg.arrival_rates is not None:
        raise ConfigError("traffic.loads and traffic.arrival_rates are mutually exclusive")
    if cfg.loads is None and cfg.arrival_rates is None:
        raise ConfigError("traffic needs either loads or arrival_rates")
    if cfg.arrival_rates is not None and len(cfg.arrival_rates) != len(cfg.demands):
        raise ConfigError("field traffic.arrival_rates must match profile.demands in length")
    if cfg.engine not in ("analytic", "mc", "both"):
        raise ConfigError(f"field engine must be analytic, mc or both, got {cfg.engine!r}")
    for v in cfg.variants:
        if v not in VARIANT_NAMES:
            raise ConfigError(f"field sweep.variants: unknown variant {v!r} (choose from {VARIANT_NAMES})")
    # every rate, whatever the variants: a regular cell's row still carries them
    for lambda_s, mu_d in product(cfg.randomization_rates, cfg.reconfig_rates):
        try:
            ModelVariant.randomized(lambda_s, mu_d)
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
    if len(set(cfg.window_widths)) < len(cfg.window_widths):
        raise ConfigError("field window_widths must not repeat a width")
    for w in cfg.window_widths:
        if not 1 <= w <= cfg.capacity:
            raise ConfigError(f"field window_widths: width {w} not in 1..{cfg.capacity}")
    try:
        structure_profile(cfg)
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}") from exc
    if cfg.jobs < 1:
        raise ConfigError("field jobs must be >= 1")
    try:
        _traffic(cfg)
    except ValueError as exc:
        raise ConfigError(f"traffic: {exc}") from exc
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


@dataclass(frozen=True)
class CellSpec:
    """One grid cell and what its engines run.

    ``chain`` is the model whose one exact solve, with ``profile``, serves
    this cell: ``model`` at the reference rate mu_ref = ``reconfig_rates[0]``.
    A reconfiguration state leaves at rate mu_d and does nothing else, so
    the distribution at any mu_d follows from the one at mu_ref in closed
    form (``ctmc.rescale_reconfiguration``), and the regular model depends
    on neither lambda_S nor mu_d.  mu_d is the innermost grid axis: the
    cells of one chain are adjacent, and a randomized chain spans
    ``len(reconfig_rates)`` cells.  ``sim`` is the simulator config of a
    cell that runs the mc engine, and ``None`` otherwise.
    """

    ordinal: int
    load: float
    lambda_s: float
    mu_d: float
    engines: tuple[str, ...]
    config: ExperimentConfig
    profile: DemandProfile
    model: ModelVariant
    chain: ModelVariant
    sim: SimConfig | None
    fallback: str  # why the analytic engine cannot run, or ""


def cell_specs(cfg: ExperimentConfig) -> tuple[list[CellSpec], int | None]:
    """The sweep grid in run order (variant, traffic point, lambda_S, mu_d)
    and the number of regular states of its link.

    The states are counted once per grid, and only when an analytic cell
    runs (``None`` otherwise).  Over ``state_budget`` every analytic cell
    falls back to mc.  Where the mc engine runs, the config needs a Monte
    Carlo budget (``sim.arrivals`` or ``sim.horizon``), or else
    StateBudgetExceeded (after a fallback) or ConfigError is raised, and
    its ``sim`` block must pass the simulator's own checks in every cell.
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
            over_budget = StateBudgetExceeded(states, cfg.state_budget)
            engines, fallback = ("mc",), str(over_budget)
    if "mc" in engines and cfg.sim_arrivals is None and cfg.sim_horizon is None:
        # no Monte Carlo budget to run on, or to fall back on
        raise over_budget if fallback else ConfigError(
            "sim.arrivals or sim.horizon is required when the mc engine can run")

    specs = []
    for i, (name, (load, profile), lambda_s, mu_d) in enumerate(points):
        kind = VariantKind(name)
        model = (ModelVariant(kind, lambda_s, mu_d) if kind is not VariantKind.REGULAR
                 else ModelVariant.regular())
        chain_model = model
        if model.has_randomization:
            chain_model = replace(model, reconfig_rate=cfg.reconfig_rates[0])
        sim = None
        if "mc" in engines:
            try:
                sim = SimConfig(
                    profile=profile,
                    variant=model,
                    arrivals=cfg.sim_arrivals,
                    horizon=cfg.sim_horizon,
                    warmup=cfg.sim_warmup,
                    replications=cfg.sim_replications,
                    seed=cfg.seed + i,
                    window_widths=cfg.window_widths if model.has_randomization else (),
                    randomize_empty=cfg.randomize_empty,
                )
            except ValueError as exc:
                raise ConfigError(f"sim: {exc}") from exc
        specs.append(CellSpec(i, load, lambda_s, mu_d, engines, cfg, profile, model,
                              chain_model, sim, fallback))
    return specs, states


def exact_solves(specs: list[CellSpec]) -> int:
    """The number of exact solves a grid takes: one per chain of its analytic cells."""
    return len({(spec.profile, spec.chain) for spec in specs if "analytic" in spec.engines})


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
        doc = {"variant": spec.model.kind.value, "load_erlang": spec.load,
               "lambda_S": spec.lambda_s, "mu_d": spec.mu_d, "warnings": list(self.warnings)}
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
            rows.append(",".join(
                [spec.model.kind.value, r.engine, str(cfg.capacity), *map(str, values)]
            ))
        return rows


def _analytic(spec: CellSpec, space, warnings: list[str]) -> EngineResult:
    """Exact numbers of one cell from its chain's solve.

    A randomized cell at mu_d != mu_ref rescales the reference; its
    residual is measured on its own generator, and a direct solve takes
    over where that residual misses the gate.  A chain that never leaves
    the empty link scores no randomization: its ``p_sa`` is NaN, as in the
    Monte Carlo engine, with one cell warning.
    """
    cfg, profile, variant, ref_model = spec.config, spec.profile, spec.model, spec.chain
    dist = _reference(cfg, profile, ref_model)
    mu_ref = None
    if ref_model != variant:
        rm = assemble_generator(space, profile, variant)
        dist = rescale_reconfiguration(
            dist, rm, space.num_mirror_classes, ref_model.reconfig_rate / variant.reconfig_rate
        )
        if dist.residual > DEFAULT_SOLVER_TOL:
            dist = solve_stationary(rm)
        else:
            mu_ref = ref_model.reconfig_rate
    report = blocking_report(dist.pi, space, profile, variant)
    solver = dist.diagnostics()
    if mu_ref is not None:
        solver["mu_ref"] = mu_ref
    p_sa = (math.nan,) * len(cfg.window_widths)
    if variant.has_randomization:
        try:
            p_sa = tuple(attack_success_probability(dist.pi, space, w) for w in cfg.window_widths)
        except NoOccupiedMass as exc:
            warnings.append(f"p_sa: {exc}")
    return EngineResult(
        engine="analytic",
        rb=tuple(report.resource_blocking),
        fb=tuple(report.fragmentation_blocking),
        rcb=report.reconfiguration_blocking,
        bp=report.overall_blocking,
        p_sa=p_sa,
        residual_or_ci=dist.residual,
        solver=solver,
    )


def _monte_carlo(spec: CellSpec) -> EngineResult:
    result = run_simulation(spec.sim)
    attack = result.attack_success
    widths = spec.config.window_widths
    return EngineResult(
        engine="mc",
        rb=tuple(e.mean for e in result.resource_blocking),
        fb=tuple(e.mean for e in result.fragmentation_blocking),
        rcb=result.reconfiguration_blocking.mean,
        bp=result.overall_blocking.mean,
        p_sa=tuple(attack[w].mean if w in attack else math.nan for w in widths),
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
            result = _analytic(spec, space, warnings)
        else:
            result = _monte_carlo(spec)
        fractions = tuple(_lambda_frac(p, spec, warnings) for p in result.p_sa)
        wall_ms = (time.perf_counter() - start) * 1000.0
        results.append(replace(result, lambda_frac=fractions, wall_ms=wall_ms))
    return CellResult(spec, tuple(results), tuple(warnings))


@dataclass(frozen=True)
class ExperimentOutcome:
    csv_path: Path
    summary_path: Path
    num_rows: int
    num_disagreements: int


@contextmanager
def replaced_output(path: str | os.PathLike) -> Iterator[TextIO]:
    """Open a text handle whose contents replace the file at ``path``.

    A missing or regular file is replaced: the text goes to
    ``<path>.partial`` in the same directory, created with the permissions
    ``open(path, "w")`` gives, and once that is closed the old file is
    unlinked and the partial file renamed into place.  Neither truncating
    a non-empty file nor renaming over one is done: on ext4
    (``auto_da_alloc``) both make the kernel write the old file's pages
    back, and a rewrite within a fraction of a second waits tens of ms.
    If anything fails, the partial file is removed and the error
    propagates; the old file is left as it was or, if the rename itself
    failed, gone.

    Any other path (a symlink, a FIFO, a device such as ``/dev/null`` or
    a ``/dev/fd/N`` pipe) is opened with ``open(path, "w")`` and written
    through.  There is no fsync.
    """
    path = Path(path)
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w") as handle:
            yield handle
        return
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w") as handle:
            yield handle
        path.unlink(missing_ok=True)
        os.rename(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def run_experiments(cfg: ExperimentConfig) -> ExperimentOutcome:
    """Evaluate the whole grid and write the CSV and JSON summary files."""
    specs, _ = cell_specs(cfg)
    if specs and specs[0].fallback:
        log.warning("%s; falling back to mc in all %d cells", specs[0].fallback, len(specs))
    log.info("%d grid cells, %d exact solves", len(specs), exact_solves(specs))
    # a directory that cannot be made fails the run before the grid, not after
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.jobs > 1 and len(specs) > 1:
        # On Linux, forked workers share the parent's space and its
        # transitions copy on write, through the cache of state_space: one
        # copy per run.  Elsewhere fork is unsafe or missing, so workers
        # spawn and each builds its own.
        context = None
        if sys.platform.startswith("linux"):
            context = multiprocessing.get_context("fork")
            if any("analytic" in spec.engines for spec in specs):
                state_space(cfg).transitions
        with ProcessPoolExecutor(max_workers=cfg.jobs, mp_context=context) as pool:
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

    generated = datetime.now(timezone.utc).isoformat() if cfg.timestamp else None
    lines = []
    if generated:
        lines.append(f"# generated: {generated}")
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
    if generated:
        summary_doc["generated"] = generated

    csv_path = cfg.out_dir / f"{cfg.basename}.csv"
    summary_path = cfg.out_dir / f"{cfg.basename}_summary.json"
    with replaced_output(csv_path) as handle:
        handle.write("\n".join(lines) + "\n")
    with replaced_output(summary_path) as handle:
        handle.write(json.dumps(summary_doc, indent=2, sort_keys=True) + "\n")
    return ExperimentOutcome(csv_path, summary_path, num_rows, disagreements)
