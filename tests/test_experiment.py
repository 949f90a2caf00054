import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

from eolsec import ctmc, experiment
from eolsec.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main
from eolsec.ctmc import (
    NegativeStationaryMass,
    assemble_generator,
    blocking_report,
    solve_stationary,
)
from eolsec.experiment import (
    ConfigError,
    ExperimentConfig,
    cell_specs,
    exact_solves,
    load_config,
    replaced_output,
    run_experiments,
)
from eolsec.link import DemandProfile
from eolsec.security import attack_success_probability
from eolsec.statespace import StateBudgetExceeded

SRC = Path(__file__).resolve().parents[1] / "src"

BASE_CONFIG = """\
schema_version: 1
profile:
  capacity: 7
  demands: [3, 4]
  service_rates: 1.0
traffic:
  loads: [2.0, 3.5]
sweep:
  variants: [regular, randomized, randomized-defrag]
  randomization_rates: [1.0]
  reconfig_rates: [10.0]
window_widths: [3, 7]
engine: analytic
sim:
  arrivals: 4000
  warmup: 10.0
  replications: 2
  seed: 424242
output:
  dir: "{out_dir}"
  basename: grid
  timestamp: false
"""


@pytest.fixture
def config_path(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "config.yaml"
    path.write_text(BASE_CONFIG.format(out_dir=out))
    return path


# one wrong type per key path; "" is the root, a bare section name its mapping
TYPE_ERRORS = [
    ("", [1], "config root must be a mapping"),
    ("schema_version", "1", "field schema_version must be int, got '1'"),
    ("profile", 5, "field profile must be dict, got 5"),
    ("profile.capacity", 7.5, "field profile.capacity must be int, got 7.5"),
    ("profile.demands", 3, "field profile.demands must be list, got 3"),
    ("profile.service_rates", "fast", "field profile.service_rates must be list, got 'fast'"),
    ("traffic", [2.0], "field traffic must be dict, got [2.0]"),
    ("traffic.loads", [2.0, "x"], "field traffic.loads must be a list of numbers"),
    ("traffic.arrival_rates", 1.0, "field traffic.arrival_rates must be list, got 1.0"),
    ("sweep", "all", "field sweep must be dict, got 'all'"),
    ("sweep.variants", "regular", "field sweep.variants must be a list of strings"),
    ("sweep.randomization_rates", 1.0, "field sweep.randomization_rates must be list, got 1.0"),
    ("sweep.reconfig_rates", ["fast"], "field sweep.reconfig_rates must be a list of numbers"),
    ("window_widths", [3.5], "field window_widths must be a list of integers"),
    ("engine", 1, "field engine must be str, got 1"),
    ("state_budget", 1e6, "field state_budget must be int, got 1000000.0"),
    ("randomize_empty", 0, "field randomize_empty must be bool, got 0"),
    ("sim", 200, "field sim must be dict, got 200"),
    ("sim.arrivals", 200.0, "field sim.arrivals must be int, got 200.0"),
    ("sim.horizon", "long", "field sim.horizon must be float, got 'long'"),
    ("sim.warmup", None, "field sim.warmup must be float, got None"),
    ("sim.replications", "10", "field sim.replications must be int, got '10'"),
    ("sim.seed", 1.5, "field sim.seed must be int, got 1.5"),
    ("output", "out", "field output must be dict, got 'out'"),
    ("output.dir", 5, "field output.dir must be str, got 5"),
    ("output.basename", ["a"], "field output.basename must be str, got ['a']"),
    ("output.timestamp", "yes", "field output.timestamp must be bool, got 'yes'"),
    ("jobs", 2.0, "field jobs must be int, got 2.0"),
]


class TestLoadConfig:
    def test_roundtrip(self, config_path):
        cfg = load_config(config_path)
        assert cfg.capacity == 7
        assert cfg.demands == (3, 4)
        assert cfg.loads == (2.0, 3.5)
        assert cfg.engine == "analytic"
        assert not cfg.timestamp

    def test_missing_field_names_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("schema_version: 1\nprofile:\n  demands: [3]\ntraffic:\n  loads: [1]\n")
        with pytest.raises(ConfigError, match="profile.capacity"):
            load_config(path)

    def test_unknown_variant(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            "sweep: {variants: [turbo]}\n"
        )
        with pytest.raises(ConfigError, match="turbo"):
            load_config(path)

    def test_loads_and_rates_are_exclusive(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0], arrival_rates: [1.0, 1.0]}\n"
        )
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config(path)

    def test_negative_load_is_a_traffic_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0, -1.0]}\n"
        )
        with pytest.raises(ConfigError, match="traffic: arrival rate of class 1 must be >= 0"):
            load_config(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "schema_version: 9\n"
            "profile: {capacity: 7, demands: [3]}\n"
            "traffic: {loads: [1.0]}\n"
        )
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_minimal_config_loads_every_default(self, tmp_path):
        path = tmp_path / "minimal.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2]}\n"
        )
        assert load_config(path) == ExperimentConfig(
            capacity=7, demands=(3, 4), service_rates=(1.0, 1.0), loads=(2.0,),
            arrival_rates=None, variants=("regular",), randomization_rates=(0.0,),
            reconfig_rates=(1.0,), window_widths=(), engine="analytic", state_budget=364_606,
            randomize_empty=False, sim_arrivals=None, sim_horizon=None, sim_warmup=0.0,
            sim_replications=10, seed=1729, out_dir=Path("."), basename="results",
            timestamp=True, jobs=1,
        )

    @pytest.mark.parametrize("where, value, message", TYPE_ERRORS)
    def test_type_error_names_key_and_value(self, tmp_path, where, value, message):
        doc = {
            "schema_version": 1,
            "profile": {"capacity": 7, "demands": [3, 4], "service_rates": 1.0},
            "traffic": {"loads": [2.0]},
            "sweep": {"variants": ["regular"]},
            "sim": {"arrivals": 200},
            "output": {"dir": str(tmp_path / "out")},
        }
        *parents, key = where.split(".")
        node = doc
        for name in parents:
            node = node[name]
        if key:
            node[key] = value
        else:
            doc = value
        path = tmp_path / "typed.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == message

    def test_type_errors_cover_every_key(self):
        paths = {f.metadata["key"] for f in fields(ExperimentConfig)}
        sections = {p.split(".")[0] for p in paths if "." in p}
        expected = paths | sections | {"", "schema_version"}
        assert sorted(where for where, _, _ in TYPE_ERRORS) == sorted(expected)

    def test_overrides_win(self, config_path):
        cfg = load_config(config_path, engine="mc", seed=1)
        assert cfg.engine == "mc"
        assert cfg.seed == 1

    @pytest.mark.parametrize("widths", [(3, 3), (8,)])
    def test_overridden_widths_are_checked(self, config_path, widths):
        with pytest.raises(ConfigError, match="field window_widths"):
            load_config(config_path, window_widths=widths)

    def test_overridden_variants_are_checked(self, config_path):
        with pytest.raises(ConfigError, match="unknown variant 'turbo'"):
            load_config(config_path, variants=("turbo",))

    def test_overridden_engine_is_checked(self, config_path):
        with pytest.raises(ConfigError, match="field engine must be analytic, mc or both"):
            load_config(config_path, engine="turbo")


class TestRunExperiments:
    def test_analytic_grid(self, config_path, tmp_path):
        cfg = load_config(config_path)
        outcome = run_experiments(cfg)
        lines = outcome.csv_path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "variant", "engine", "C", "load_erlang", "lambda_S", "mu_d",
            "rb_1", "fb_1", "rb_2", "fb_2", "rcb", "bp",
            "p_sa_3", "lambda_frac_3", "p_sa_7", "lambda_frac_7",
            "residual_or_ci", "wall_ms",
        ]
        # 3 variants x 2 loads x 1 lambda_S x 1 mu_d, analytic only
        assert outcome.num_rows == 6
        assert len(lines) == 7
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "analytic"
            assert float(fields[16]) <= 1e-10  # solver residual
            assert fields[17] == "0.0"         # wall_ms zeroed without timestamps
        full_width = [line.split(",") for line in lines[1:] if line.split(",")[0] == "randomized"]
        for fields in full_width:
            assert float(fields[14]) == pytest.approx(1.0)  # p_sa at W = C
            assert float(fields[15]) == pytest.approx(1.0)  # fraction observed

    def test_regular_rows_have_nan_security(self, config_path):
        cfg = load_config(config_path)
        outcome = run_experiments(cfg)
        rows = [
            line.split(",")
            for line in outcome.csv_path.read_text().splitlines()[1:]
            if line.startswith("regular,")
        ]
        assert rows
        for fields in rows:
            assert math.isnan(float(fields[12]))
            assert float(fields[10]) == 0.0  # rcb

    def test_byte_identical_reruns(self, config_path, tmp_path):
        cfg = load_config(config_path)
        first = run_experiments(cfg).csv_path.read_bytes()
        second = run_experiments(cfg).csv_path.read_bytes()
        assert first == second

    def test_both_engines_and_comparison(self, config_path):
        cfg = load_config(config_path, engine="both")
        outcome = run_experiments(cfg)
        assert outcome.num_rows == 12
        summary = json.loads(outcome.summary_path.read_text())
        assert summary["num_compared"] == 6
        compared = [c for c in summary["cells"] if "within_ci" in c]
        assert all(set(c["within_ci"]) == {"bp", "rcb", "fb_sum"} for c in compared)

    def test_mc_summary_carries_event_counts(self, config_path):
        cfg = load_config(config_path, engine="mc")
        summary = json.loads(run_experiments(cfg).summary_path.read_text())
        for cell in summary["cells"]:
            events = cell["mc"]["events"]
            assert sum(events["arrivals"]) == cfg.sim_arrivals * cfg.sim_replications
            assert 0 <= events["randomizations_scored"] <= events["randomizations_started"]
            if cell["variant"] == "regular":
                assert events["randomizations_started"] == 0
            else:
                assert events["randomizations_scored"] > 0

    @pytest.mark.parametrize("state_budget", [35000, 5], ids=["both-engines", "mc-fallback"])
    def test_csv_rows_match_summary_blocks(self, config_path, state_budget):
        cfg = load_config(config_path, engine="both", state_budget=state_budget)
        outcome = run_experiments(cfg)
        lines = outcome.csv_path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        cells = json.loads(outcome.summary_path.read_text())["cells"]
        blocks = {
            (c["variant"], c["load_erlang"], c["lambda_S"], c["mu_d"], engine): c[engine]
            for c in cells for engine in ("analytic", "mc") if engine in c
        }
        assert len(rows) == len(blocks) == outcome.num_rows
        assert any(math.isnan(float(row["p_sa_3"])) for row in rows)  # regular variant

        def same(a: float, b: float) -> bool:
            return a == b or (math.isnan(a) and math.isnan(b))

        for row in rows:
            key = (row["variant"], float(row["load_erlang"]), float(row["lambda_S"]),
                   float(row["mu_d"]), row["engine"])
            block = blocks[key]
            rcb, bp = block["rcb"], block["bp"]
            if row["engine"] == "analytic":
                expected = {"rcb": rcb, "bp": bp, "residual_or_ci": block["residual"]}
            else:
                expected = {"rcb": rcb["mean"], "bp": bp["mean"], "residual_or_ci": bp["ci_half_width"]}
            for k, (rb, fb) in enumerate(zip(block["rb"], block["fb"]), start=1):
                expected[f"rb_{k}"], expected[f"fb_{k}"] = rb, fb
            for column, value in expected.items():
                assert same(float(row[column]), value), (key, column)
        engines = {key[-1] for key in blocks}
        assert engines == ({"analytic", "mc"} if state_budget > 5 else {"mc"})

    def test_budget_fallback_to_mc(self, config_path):
        cfg = load_config(config_path, state_budget=5)
        outcome = run_experiments(cfg)
        lines = outcome.csv_path.read_text().splitlines()
        engines = {line.split(",")[1] for line in lines[1:]}
        assert engines == {"mc"}
        summary = json.loads(outcome.summary_path.read_text())
        assert any(cell["warnings"] for cell in summary["cells"])

    def test_fallback_is_decided_once_per_grid(self, config_path, caplog):
        cfg = load_config(
            config_path, engine="both", state_budget=5, randomization_rates=(1.0, 2.0)
        )
        with caplog.at_level(logging.WARNING, logger="eolsec.experiment"):
            outcome = run_experiments(cfg)
        fallbacks = [r for r in caplog.records if "falling back to mc" in r.getMessage()]
        assert len(fallbacks) == 1
        cells = json.loads(outcome.summary_path.read_text())["cells"]
        assert len(cells) == 12
        message = (
            "analytic engine unavailable: state space would hold 15 regular states, "
            "budget is 5; use the Monte Carlo engine instead"
        )
        assert all(cell["warnings"] == [message] for cell in cells)

    def test_cells_carry_their_chain(self, config_path):
        cfg = load_config(config_path, randomization_rates=(1.0, 2.0))
        specs, _ = cell_specs(cfg)
        assert len(specs) == 12
        # the regular cells at one load share one chain, whatever lambda_S
        assert len({(spec.profile, spec.model) for spec in specs}) == 10
        for spec in specs:
            assert spec.profile == DemandProfile.with_uniform_load(7, (3, 4), spec.load)

    def test_sim_configs_only_where_mc_runs(self, config_path):
        cfg = load_config(config_path)
        specs, _ = cell_specs(cfg)
        assert all(spec.sim is None for spec in specs)
        for overrides in ({"engine": "both"}, {"engine": "mc"}, {"state_budget": 5}):
            cfg = load_config(config_path, **overrides)
            specs, _ = cell_specs(cfg)
            assert len(specs) == 6
            for spec in specs:
                assert "mc" in spec.engines
                assert spec.sim.seed == cfg.seed + spec.ordinal
                assert (spec.sim.profile, spec.sim.variant) == (spec.profile, spec.model)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_without_mc_budget_is_an_error(self, tmp_path, jobs):
        config = BASE_CONFIG.format(out_dir=tmp_path / "out").split("sim:")[0]
        path = tmp_path / "no_sim.yaml"
        path.write_text(config + f"output: {{dir: '{tmp_path / 'out'}'}}\n")
        cfg = load_config(path, state_budget=5, jobs=jobs)
        with pytest.raises(StateBudgetExceeded, match="15 regular states, budget is 5"):
            run_experiments(cfg)

    def test_non_integer_rate_ratio_warned_once_per_cell(self, config_path):
        cfg = load_config(
            config_path, engine="both", variants=("randomized",), loads=(2.0,),
            randomization_rates=(2.5,), window_widths=(3, 5, 7),
        )
        summary = json.loads(run_experiments(cfg).summary_path.read_text())
        (cell,) = summary["cells"]
        message = "randomization_rate/service_rate = 2.5 is not a positive integer"
        assert cell["warnings"] == [message]

    def test_summary_carries_solver_diagnostics(self, config_path, tmp_path):
        # every chain of a C=7 and of a C=22, demands (4,6,8) link
        c22 = tmp_path / "c22.yaml"
        c22.write_text(
            config_path.read_text()
            .replace("capacity: 7", "capacity: 22")
            .replace("demands: [3, 4]", "demands: [4, 6, 8]")
            .replace("window_widths: [3, 7]", "window_widths: [10, 22]")
        )
        # the 15 regular states of C=7 form 9 mirror classes
        dims = {"regular": 9, "randomized": 9 + 4, "randomized-defrag": 9 + 4 + 2}
        for path in (config_path, c22):
            summary = json.loads(run_experiments(load_config(path)).summary_path.read_text())
            assert len(summary["cells"]) == 6
            for cell in summary["cells"]:
                solver = cell["analytic"]["solver"]
                assert set(solver) == {"method", "dimension", "nnz", "iterations", "sweeps"}
                assert solver["method"] == ctmc.SOLVER_METHOD
                if path == config_path:
                    assert solver["dimension"] == dims[cell["variant"]]
                assert 0 < solver["dimension"] < solver["nnz"]
                assert 0 < solver["iterations"] <= ctmc.KRYLOV_MAX_ITERATIONS
                assert solver["sweeps"] % ctmc.POWER_CHECK_EVERY == 0
                assert cell["analytic"]["residual"] <= 1e-10 / ctmc.POWER_TOL_MARGIN

    def test_summary_names_the_power_route(self, config_path):
        summary = json.loads(run_experiments(load_config(config_path)).summary_path.read_text())
        for cell in summary["cells"]:
            solver = cell["analytic"]["solver"]
            assert set(solver) == {"method", "dimension", "nnz", "iterations", "sweeps"}
            assert solver["method"] == "bicgstab+power:jacobi-scaled"
            assert solver["iterations"] > 0 and solver["sweeps"] >= 0
            assert cell["analytic"]["residual"] <= 1e-10

    def test_wall_ms_excludes_the_shared_transitions(self, config_path, monkeypatch):
        # a fresh space, so that no earlier test has built its transitions
        experiment._shared_space.cache_clear()
        experiment._reference.cache_clear()
        timed = []
        real = experiment._analytic

        def analytic(spec, space, warnings):
            timed.append("transitions" in vars(space))
            return real(spec, space, warnings)

        monkeypatch.setattr(experiment, "_analytic", analytic)
        run_experiments(load_config(config_path))
        assert timed == [True] * 6

    def test_empty_load_list_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: []}\n"
            f"output: {{dir: '{tmp_path / 'out'}', timestamp: false}}\n"
        )
        outcome = run_experiments(load_config(path))
        assert outcome.num_rows == 0
        lines = outcome.csv_path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("variant,engine,")

    def test_parallel_jobs_match_serial(self, config_path):
        cfg = load_config(config_path)
        serial = run_experiments(cfg).csv_path.read_bytes()
        parallel_cfg = load_config(config_path, jobs=2)
        parallel = run_experiments(parallel_cfg).csv_path.read_bytes()
        assert serial == parallel

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="workers fork, and share the parent's space, only on Linux")
    def test_pool_workers_share_the_parents_space(self, config_path, tmp_path, monkeypatch):
        # a forked worker that enumerated a space would record its own pid
        calls = tmp_path / "build_calls"
        build = experiment.build_state_space

        def recorded(*args, **kwargs):
            with open(calls, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return build(*args, **kwargs)

        monkeypatch.setattr(experiment, "build_state_space", recorded)
        experiment._shared_space.cache_clear()
        outcome = run_experiments(load_config(config_path, jobs=2))
        assert outcome.num_rows == 6
        assert calls.read_text().split() == [str(os.getpid())]
        experiment._shared_space.cache_clear()

    def test_explicit_arrival_rates_mode(self, tmp_path):
        path = tmp_path / "explicit.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {arrival_rates: [0.5, 0.25]}\n"
            f"output: {{dir: '{tmp_path / 'out'}', timestamp: false}}\n"
        )
        outcome = run_experiments(load_config(path))
        line = outcome.csv_path.read_text().splitlines()[1]
        load = float(line.split(",")[3])
        assert load == pytest.approx(0.5 * 3 + 0.25 * 4)


@pytest.fixture
def multi_rate_path(tmp_path):
    """2 loads x 3 variants x 2 lambda_S x 2 mu_d = 24 cells on 2 + 2 * 2 * 2 = 10 chains."""
    path = tmp_path / "multi_rate.yaml"
    path.write_text(
        BASE_CONFIG.format(out_dir=tmp_path / "out")
        .replace("randomization_rates: [1.0]", "randomization_rates: [1.0, 2.0]")
        .replace("reconfig_rates: [10.0]", "reconfig_rates: [10.0, 100.0]")
    )
    return path


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = experiment.solve_stationary

    def counted(rm):
        calls.append(rm.dimension)
        return solve(rm)

    monkeypatch.setattr(experiment, "solve_stationary", counted)
    experiment._reference.cache_clear()
    return calls


class TestChainSolves:
    """Each exact chain is solved once; other mu_d follow from that solve."""

    @pytest.mark.parametrize("reconfig_rates", [
        (1.0, 10.0, 1000.0),
        pytest.param((1000.0, 10.0, 1.0), marks=pytest.mark.slow),  # about 15 s
    ])
    def test_rescaled_cells_match_direct_solves(self, tmp_path, profile14, reconfig_rates):
        path = tmp_path / "c14.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 14, demands: [2, 3, 4]}\n"
            "traffic: {arrival_rates: [1.0, 1.0, 1.0]}\n"
            "sweep: {variants: [regular, randomized, randomized-defrag], "
            "randomization_rates: [0, 1, 5]}\n"
            "window_widths: [3, 7, 14]\n"
        )
        cfg = load_config(path, reconfig_rates=reconfig_rates)
        specs, _ = cell_specs(cfg)
        assert len(specs) == 27
        space = experiment.state_space(cfg)
        derived = 0
        for spec in specs:
            assert spec.profile == profile14
            (result,) = experiment._compute_cell(spec).engines
            assert result.residual_or_ci <= 1e-10
            if not spec.model.has_randomization or spec.mu_d == reconfig_rates[0]:
                # the chain's own solve, reported unchanged
                assert "mu_ref" not in result.solver
                reference = experiment._reference(cfg, spec.profile, spec.model)
                assert result.residual_or_ci == reference.residual
                continue
            derived += 1
            assert result.solver["mu_ref"] == reconfig_rates[0]
            direct = solve_stationary(assemble_generator(space, spec.profile, spec.model))
            report = blocking_report(direct.pi, space, spec.profile, spec.model)
            expected = (
                *report.resource_blocking, *report.fragmentation_blocking,
                report.reconfiguration_blocking, report.overall_blocking,
                *(attack_success_probability(direct.pi, space, w) for w in cfg.window_widths),
            )
            got = (*result.rb, *result.fb, result.rcb, result.bp, *result.p_sa)
            assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-12
        assert derived == 2 * 3 * 2

    def test_regular_cells_are_equal_across_rates(self, multi_rate_path):
        summary = json.loads(run_experiments(load_config(multi_rate_path)).summary_path.read_text())
        regular = [c for c in summary["cells"] if c["variant"] == "regular"]
        assert len(regular) == 8
        for load in (2.0, 3.5):
            blocks = {json.dumps(c["analytic"]) for c in regular if c["load_erlang"] == load}
            assert len(blocks) == 1

    def test_one_solve_per_chain(self, multi_rate_path, monkeypatch, caplog, capsys):
        cfg = load_config(multi_rate_path)
        specs, _ = cell_specs(cfg)
        assert (len(specs), exact_solves(specs)) == (24, 10)
        calls = _count_solves(monkeypatch)
        with caplog.at_level(logging.INFO, logger="eolsec.experiment"):
            summary = json.loads(run_experiments(cfg).summary_path.read_text())
        assert len(calls) == 10
        assert [r.getMessage() for r in caplog.records] == ["24 grid cells, 10 exact solves"]
        derived = [c for c in summary["cells"] if "mu_ref" in c["analytic"]["solver"]]
        assert len(derived) == 8
        assert all(c["mu_d"] == 100.0 and c["analytic"]["solver"]["mu_ref"] == 10.0 for c in derived)
        assert main(["validate", "--config", str(multi_rate_path)]) == EXIT_OK
        assert "24 grid cells, 10 exact solves" in capsys.readouterr().out

    def test_rescale_that_misses_the_gate_is_solved_directly(self, multi_rate_path, monkeypatch):
        cfg = load_config(multi_rate_path, variants=("randomized",), loads=(2.0,))
        specs, _ = cell_specs(cfg)
        calls = _count_solves(monkeypatch)
        reference = experiment._reference

        def off_balance(*chain):
            dist = reference(*chain)
            pi = dist.pi.copy()
            pi[0] *= 1 + 1e-6
            return replace(dist, pi=pi / pi.sum())

        monkeypatch.setattr(experiment, "_reference", off_balance)
        space = experiment.state_space(cfg)
        for spec in specs:
            (result,) = experiment._compute_cell(spec).engines
            if spec.mu_d == 100.0:
                direct = solve_stationary(assemble_generator(space, spec.profile, spec.model))
                assert "mu_ref" not in result.solver
                assert result.residual_or_ci == direct.residual <= 1e-10
                assert result.bp == blocking_report(direct.pi, space, spec.profile, spec.model).overall_blocking
        # a reference per lambda_S, a direct solve per mu_d = 100 cell
        assert len(calls) == 2 + 2

    def test_multi_rate_grid_is_deterministic(self, multi_rate_path):
        def outputs(**overrides):
            outcome = run_experiments(load_config(multi_rate_path, **overrides))
            return outcome.csv_path.read_bytes(), outcome.summary_path.read_bytes()

        serial = outputs(jobs=1)
        assert outputs(jobs=2) == serial
        assert outputs(jobs=1) == serial
        assert outputs(jobs=2) == serial


class TestOutputs:
    def test_rerun_replaces_each_output_with_a_new_file(self, config_path):
        # the outputs are renamed into place, never truncated and rewritten
        cfg = load_config(config_path)
        first = run_experiments(cfg)
        paths = (first.csv_path, first.summary_path)
        before = [(os.stat(p).st_ino, p.read_bytes()) for p in paths]
        run_experiments(cfg)
        after = [(os.stat(p).st_ino, p.read_bytes()) for p in paths]
        for (ino, data), (new_ino, new_data) in zip(before, after):
            assert new_ino != ino
            assert new_data == data

    def test_rerun_over_a_bigger_grid_leaves_no_stale_tail(self, config_path, tmp_path):
        big = run_experiments(load_config(config_path, loads=(2.0, 3.5, 5.0)))
        paths = (big.csv_path, big.summary_path)
        big_sizes = [p.stat().st_size for p in paths]
        run_experiments(load_config(config_path))
        fresh = run_experiments(load_config(config_path, out_dir=tmp_path / "fresh"))
        for path, fresh_path, big_size in zip(paths, (fresh.csv_path, fresh.summary_path), big_sizes):
            assert path.read_bytes() == fresh_path.read_bytes()
            assert path.stat().st_size < big_size

    def test_no_partial_file_is_left(self, config_path):
        cfg = load_config(config_path)
        run_experiments(cfg)
        run_experiments(cfg)
        assert sorted(p.name for p in cfg.out_dir.iterdir()) == ["grid.csv", "grid_summary.json"]

    def test_failed_replace_leaves_no_partial_file(self, config_path):
        cfg = load_config(config_path)
        blocker = cfg.out_dir / "grid.csv"
        blocker.mkdir(parents=True)
        with pytest.raises(OSError):
            run_experiments(cfg)
        assert blocker.is_dir()
        assert [p.name for p in cfg.out_dir.iterdir()] == ["grid.csv"]

    def test_unmakeable_out_dir_fails_before_any_cell(self, config_path, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "_compute_cell", calls.append)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        with pytest.raises(OSError):
            run_experiments(load_config(config_path, out_dir=not_a_dir / "out"))
        with pytest.raises(OSError):
            run_experiments(load_config(config_path, out_dir=not_a_dir))
        assert calls == []

    def test_one_timestamp_per_run(self, config_path):
        outcome = run_experiments(load_config(config_path, timestamp=True))
        first_line = outcome.csv_path.read_text().splitlines()[0]
        assert first_line.startswith("# generated: ")
        generated = json.loads(outcome.summary_path.read_text())["generated"]
        assert first_line == f"# generated: {generated}"

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        ino = target.stat().st_ino
        with pytest.raises(OSError, match="disk full"):
            with replaced_output(target) as handle:
                handle.write("new")
                raise OSError("disk full")
        assert target.read_text() == "old\n"
        assert target.stat().st_ino == ino
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_stale_partial_file_is_replaced(self, tmp_path):
        target = tmp_path / "out.txt"
        (tmp_path / "out.txt.partial").write_text("left by a killed run, and longer\n")
        with replaced_output(target) as handle:
            handle.write("new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_permissions_follow_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "w") as handle:
                handle.write("x")
            with replaced_output(tmp_path / "replaced") as handle:
                handle.write("x")
        finally:
            os.umask(old)
        modes = [(tmp_path / name).stat().st_mode for name in ("plain", "replaced")]
        assert modes[0] == modes[1] == 0o100640


def test_readme_schema_loads(tmp_path):
    # every key the README documents is one the loader reads, since unknown
    # keys are config errors
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    doc = yaml.safe_load(block)
    doc["output"]["dir"] = str(tmp_path / "out")
    path = tmp_path / "readme.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = load_config(path)
    assert cfg.capacity == doc["profile"]["capacity"]
    assert cfg.sim_replications == doc["sim"]["replications"]


class TestCli:
    def test_validate_ok(self, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "15 regular states (budget 364606)" in out

    def test_shipped_configs_validate(self, capsys):
        configs = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))
        assert configs
        for path in configs:
            assert main(["validate", "--config", str(path)]) == EXIT_OK, path.name
            assert capsys.readouterr().out.startswith("config ok: "), path.name

    def test_validate_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("schema_version: 1\n")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_run_writes_files(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "cli-out"
        code = main([
            "run", "--config", str(config_path),
            "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == EXIT_OK
        assert (out_dir / "grid.csv").exists()
        assert (out_dir / "grid_summary.json").exists()

    def test_run_into_a_file_is_io_error(self, config_path, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code = main(["run", "--config", str(config_path), "--out-dir", str(not_a_dir)])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert not_a_dir.read_text() == ""

    def test_run_over_budget_without_mc_budget(self, tmp_path, capsys):
        path = tmp_path / "no_sim.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            "engine: analytic\n"
            "state_budget: 5\n"
            f"output: {{dir: '{tmp_path / 'out'}'}}\n"
        )
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "budget is 5" in capsys.readouterr().err

    def test_run_rank_overflow_is_config_error(self, tmp_path, capsys):
        # a budget of 2**100 admits C=100 with one-slot connections, whose
        # middle pattern has more states than an int64 rank numbers
        path = tmp_path / "wide.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 100, demands: [1]}\n"
            "traffic: {loads: [2.0]}\n"
            "sweep: {variants: [regular]}\n"
            "engine: analytic\n"
            f"state_budget: {2**100}\n"
            f"output: {{dir: '{tmp_path / 'out'}'}}\n"
        )
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "more than an int64 rank can number" in capsys.readouterr().err

    @staticmethod
    def _over_budget_config(tmp_path, sim_block: str):
        path = tmp_path / "over_budget.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            "engine: analytic\n"
            "state_budget: 5\n"
            + sim_block
            + f"output: {{dir: '{tmp_path / 'out'}', timestamp: false}}\n"
        )
        return path

    def test_validate_over_budget_without_mc_budget(self, tmp_path, capsys):
        path = self._over_budget_config(tmp_path, "")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert "budget is 5" in captured.err
        # validate refuses exactly what run refuses
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_validate_over_budget_with_mc_fallback(self, tmp_path, capsys):
        path = self._over_budget_config(tmp_path, "sim: {arrivals: 200, seed: 3}\n")
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "15 regular states (budget 5)" in out
        assert "fall back to mc" in out
        assert main(["run", "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("sim_block, message", [
        ("sim: {horizon: 10, warmup: 20}", "sim: warmup must be smaller than the horizon"),
        ("sim: {arrivals: 200, replications: 0}", "sim: replications must be >= 2"),
        ("sim: {arrivals: 200, replications: 1}", "sim: replications must be >= 2"),
    ])
    def test_sim_block_the_simulator_rejects(self, tmp_path, capsys, sim_block, message):
        out_dir = tmp_path / "out"
        path = tmp_path / "bad_sim.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            "engine: both\n"
            f"{sim_block}\n"
            f"output: {{dir: '{out_dir}'}}\n"
        )
        with pytest.raises(ConfigError, match=message):
            cell_specs(load_config(path))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert f"config error: {message}" in captured.err
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()  # refused before any cell ran

    @pytest.mark.parametrize("extra, where", [
        ("sim: {arrivals: 200, replicatons: 2}\n", "sim.replicatons"),
        ("data_rate: 1.0\n", "data_rate"),
        ("solver_tol: 1.0e-10\n", "solver_tol"),
    ])
    def test_unknown_field_is_config_error(self, tmp_path, capsys, extra, where):
        out_dir = tmp_path / "out"
        path = tmp_path / "unknown.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            + extra
            + f"output: {{dir: '{out_dir}'}}\n"
        )
        with pytest.raises(ConfigError, match=f"unknown field {where} "):
            load_config(path)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "config ok" not in captured.out
            assert f"config error: unknown field {where} " in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra, message", [
        ("window_widths: [2.5, 3.9]\n", "field window_widths must be a list of integers"),
        ("window_widths: [3, 3]\n", "field window_widths must not repeat a width"),
    ])
    def test_invalid_window_widths(self, tmp_path, capsys, extra, message):
        out_dir = tmp_path / "out"
        path = tmp_path / "widths.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            "sweep: {variants: [randomized], randomization_rates: [1.0]}\n"
            + extra
            + f"output: {{dir: '{out_dir}'}}\n"
        )
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            assert f"config error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("where, value", [
        ("schema_version", True),
        ("profile.capacity", True),
        ("profile.demands", [True, 4]),
        ("profile.service_rates", True),
        ("profile.service_rates", [1.0, False]),
        ("traffic.loads", [True]),
        ("sim.arrivals", True),
        ("sim.horizon", True),
        ("sim.warmup", False),
        ("sim.replications", True),
        ("state_budget", True),
        ("jobs", True),
    ])
    def test_boolean_is_no_number(self, tmp_path, capsys, where, value):
        # bool subclasses int, so a YAML true/false must be refused by name
        out_dir = tmp_path / "out"
        doc = {
            "schema_version": 1,
            "profile": {"capacity": 7, "demands": [3, 4], "service_rates": 1.0},
            "traffic": {"loads": [2.0]},
            "engine": "both",
            "sim": {"arrivals": 200, "warmup": 1.0, "replications": 2},
            "output": {"dir": str(out_dir)},
            "jobs": 1,
        }
        *parents, key = where.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        path = tmp_path / "boolean.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=f"field {where} must be"):
            load_config(path)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "config ok" not in captured.out
            assert f"config error: field {where} must be" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra, message", [
        ({"engine": "mc", "sim": {"arrivals": 200, "warmup": math.inf}},
         "sim: warmup must be finite, got inf"),
        ({"engine": "mc", "sim": {"arrivals": 200, "warmup": math.nan}},
         "sim: warmup must be finite, got nan"),
        ({"engine": "mc", "sim": {"horizon": math.inf}}, "sim: horizon must be finite, got inf"),
        ({"traffic": {"loads": [math.nan]}},
         "traffic: arrival rate of class 1 must be finite, got nan"),
        ({"sweep": {"variants": ["randomized"], "randomization_rates": [math.nan]}},
         "sweep: randomization and reconfiguration rates must be finite, got nan and 1.0"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, extra, message):
        # validate only: without these checks a run on the sim inputs never ends
        path = tmp_path / "non_finite.yaml"
        doc = {"schema_version": 1, "profile": {"capacity": 7, "demands": [3, 4]},
               "traffic": {"loads": [2.0]}, **extra}
        path.write_text(yaml.safe_dump(doc))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config ok" not in captured.out
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize("rates, message", [
        ({"randomization_rates": [math.nan], "reconfig_rates": [math.inf]},
         "sweep: randomization and reconfiguration rates must be finite, got nan and inf"),
        ({"randomization_rates": [-1.0], "reconfig_rates": [0.0]},
         "sweep: randomization rate must be >= 0"),
        ({"randomization_rates": [1.0], "reconfig_rates": [10.0, 0.0]},
         "sweep: reconfiguration rate must be > 0"),
    ], ids=["non-finite", "negative", "zero"])
    def test_sweep_rates_checked_without_randomized_variants(self, tmp_path, capsys, rates, message):
        # a regular cell's row carries lambda_S and mu_d as labels
        out_dir = tmp_path / "out"
        path = tmp_path / "regular.yaml"
        path.write_text(yaml.safe_dump({
            "schema_version": 1, "profile": {"capacity": 7, "demands": [3, 4]},
            "traffic": {"loads": [2.0]}, "sweep": {"variants": ["regular"], **rates},
            "output": {"dir": str(out_dir)},
        }))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "config ok" not in captured.out
            assert captured.err == f"config error: {message}\n"
        assert not out_dir.exists()

    def test_output_does_not_depend_on_blas_threads(self, tmp_path):
        # 14,676 regular states: OpenBLAS splits a dot product this long
        # across its threads, so a BLAS inner product would show here
        path = tmp_path / "c26.yaml"
        path.write_text(yaml.safe_dump({
            "schema_version": 1, "profile": {"capacity": 26, "demands": [4, 6, 8]},
            "traffic": {"loads": [14.0]},
            "sweep": {"variants": ["randomized-defrag"], "randomization_rates": [5.0],
                      "reconfig_rates": [100.0]},
            "window_widths": [10], "output": {"timestamp": False},
        }))
        path_var = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-c", "import sys; from eolsec.cli import main; sys.exit(main())",
                 "run", "--config", str(path), "--out-dir", str(out_dir)],
                env={**os.environ, "PYTHONPATH": path_var, "OPENBLAS_NUM_THREADS": threads},
                check=True, timeout=300,
            )
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("results.csv", "results_summary.json")])
        assert outputs[0] == outputs[1]

    def test_engines_run_without_scipy_linalg(self, tmp_path):
        # scipy.sparse.csgraph would load scipy.sparse.linalg and
        # scipy.linalg, some 11 MB that neither engine uses
        path = tmp_path / "both.yaml"
        path.write_text(yaml.safe_dump({
            "schema_version": 1, "profile": {"capacity": 7, "demands": [3, 4]},
            "traffic": {"loads": [2.0]},
            "sweep": {"variants": ["randomized-defrag"], "randomization_rates": [1.0],
                      "reconfig_rates": [10.0]},
            "window_widths": [3], "engine": "both",
            "sim": {"arrivals": 2000, "warmup": 10.0, "replications": 2, "seed": 7},
            "output": {"dir": str(tmp_path / "out"), "timestamp": False},
        }))
        script = (
            "import sys, eolsec\n"
            "from eolsec.experiment import load_config, run_experiments\n"
            f"print(run_experiments(load_config({str(path)!r})).num_rows)\n"
            "print(*sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse.linalg',"
            " 'scipy.sparse.csgraph'))))\n"
        )
        path_var = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path_var},
                             capture_output=True, text=True, check=True, timeout=300)
        assert run.stdout == "2\n\n"

    def test_zero_load_cell_reports_nan_security(self, tmp_path, capsys):
        # at load 0 the link stays empty, so no randomization is ever scored
        def run(loads):
            out_dir = tmp_path / f"out{len(loads)}"
            path = tmp_path / f"loads{len(loads)}.yaml"
            path.write_text(
                "schema_version: 1\n"
                "profile: {capacity: 7, demands: [3, 4]}\n"
                f"traffic: {{loads: {loads}}}\n"
                "sweep: {variants: [randomized], randomization_rates: [1.0]}\n"
                "window_widths: [3]\n"
                f"output: {{dir: '{out_dir}', timestamp: false}}\n"
            )
            assert main(["run", "--config", str(path)]) == EXIT_OK
            rows = (out_dir / "results.csv").read_text().splitlines()
            summary = json.loads((out_dir / "results_summary.json").read_text())
            return rows, [cell["warnings"] for cell in summary["cells"]]

        (header, zero, loaded), warnings = run([0.0, 2.0])
        row = dict(zip(header.split(","), zero.split(",")))
        assert row["load_erlang"] == "0.0"
        assert row["p_sa_3"] == row["lambda_frac_3"] == "nan"
        assert warnings == [["p_sa: no stationary mass on occupied states"], []]
        (_, alone), _ = run([2.0])
        assert loaded == alone

    @staticmethod
    def _zero_load_sim_config(tmp_path, extra: str = ""):
        out_dir = tmp_path / "out"
        path = tmp_path / "zero_load_sim.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [0.0, 2.0]}\n"
            "sweep: {variants: [randomized], randomization_rates: [1.0]}\n"
            "window_widths: [3]\n"
            "engine: analytic\n"
            "sim: {arrivals: 200}\n"
            + extra
            + f"output: {{dir: '{out_dir}', timestamp: false}}\n"
        )
        return path, out_dir

    def test_sim_block_unchecked_where_no_mc_cell_runs(self, tmp_path):
        # the simulator refuses load 0 under an arrivals budget, but no mc cell runs
        path, out_dir = self._zero_load_sim_config(tmp_path)
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert main(["run", "--config", str(path)]) == EXIT_OK
        header, zero, _ = (out_dir / "results.csv").read_text().splitlines()
        row = dict(zip(header.split(","), zero.split(",")))
        assert (row["engine"], row["load_erlang"], row["p_sa_3"]) == ("analytic", "0.0", "nan")

    def test_sim_block_checked_on_budget_fallback(self, tmp_path, capsys):
        path, out_dir = self._zero_load_sim_config(tmp_path, "state_budget: 5\n")
        message = "config error: sim: arrivals budget needs a positive total arrival rate"
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "config ok" not in captured.out
            assert message in captured.err
        assert not out_dir.exists()

    def test_mc_engine_without_sim_block(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = tmp_path / "mc_no_sim.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            "engine: mc\n"
            f"output: {{dir: '{out_dir}'}}\n"
        )
        message = "config error: sim.arrivals or sim.horizon is required when the mc engine can run"
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "config ok" not in captured.out
            assert message in captured.err
        assert not out_dir.exists()

    def test_invalid_sweep_rate_is_config_error(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        path = tmp_path / "sweep.yaml"
        path.write_text(
            "schema_version: 1\n"
            "profile: {capacity: 7, demands: [3, 4]}\n"
            "traffic: {loads: [2.0]}\n"
            "sweep: {variants: [randomized], reconfig_rates: [0.0]}\n"
            f"output: {{dir: '{out_dir}'}}\n"
        )
        message = "config error: sweep: reconfiguration rate must be > 0"
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert "config ok" not in captured.out
            assert message in captured.err
        assert not out_dir.exists()

    def test_negative_mass_is_numerical_failure(self, config_path, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise NegativeStationaryMass(3, -1e-6)

        monkeypatch.setattr("eolsec.experiment.solve_stationary", fail)
        code = main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert "negative" in capsys.readouterr().err

    def test_power_sweep_cap_is_numerical_failure(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ctmc, "KRYLOV_MAX_ITERATIONS", 1)
        monkeypatch.setattr(ctmc, "POWER_MAX_SWEEPS", 1)
        code = main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL
        assert "after 1 BiCGSTAB iterations and 1 power sweeps" in capsys.readouterr().err

    @pytest.mark.parametrize("level, shown", [(None, True), ("WARNING", False)])
    def test_run_log_level(self, config_path, tmp_path, caplog, level, shown):
        argv = ["run", "--config", str(config_path), "--out-dir", str(tmp_path / "o")]
        if level:
            argv += ["--log-level", level]
        try:
            with caplog.at_level(logging.DEBUG):
                assert main(argv) == EXIT_OK
        finally:
            logging.getLogger("eolsec").setLevel(logging.NOTSET)
        messages = [r.getMessage() for r in caplog.records]
        assert ("6 grid cells, 6 exact solves" in messages) == shown

    def test_debug_log_keeps_outputs_byte_identical(self, config_path, tmp_path, caplog):
        # the transition build is logged at DEBUG, and no log level changes
        # a byte of the --no-timestamp outputs
        experiment._shared_space.cache_clear()  # build the space in this test
        outputs = []
        try:
            for n, level in enumerate(("DEBUG", "INFO", "DEBUG")):
                out = tmp_path / str(n)
                with caplog.at_level(logging.DEBUG):
                    assert main(["run", "--config", str(config_path), "--out-dir", str(out),
                                 "--no-timestamp", "--log-level", level]) == EXIT_OK
                outputs.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        finally:
            logging.getLogger("eolsec").setLevel(logging.NOTSET)
        assert outputs[0] == outputs[1] == outputs[2]
        assert [name for name, _ in outputs[0]] == ["grid.csv", "grid_summary.json"]
        built = [r for r in caplog.records if r.name == "eolsec.statespace"]
        assert len(built) == 1 and built[0].levelno == logging.DEBUG
        assert built[0].getMessage().startswith("transitions: ")

    def test_run_engine_override(self, config_path, tmp_path):
        out_dir = tmp_path / "cli-mc"
        code = main([
            "run", "--config", str(config_path), "--engine", "mc",
            "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == EXIT_OK
        lines = (out_dir / "grid.csv").read_text().splitlines()
        assert {line.split(",")[1] for line in lines[1:]} == {"mc"}

    def test_dump_states(self, config_path, capsys):
        assert main(["dump-states", "--config", str(config_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 15 + 4 + 2
        assert out[0] == "0\t(0,0)\tF F F F F F F"

    def test_dump_states_to_file(self, config_path, tmp_path):
        target = tmp_path / "states.tsv"
        assert main(["dump-states", "--config", str(config_path), "--out", str(target)]) == EXIT_OK
        assert target.read_text().count("\n") == 21

    def test_dump_states_replaces_a_longer_file(self, config_path, tmp_path):
        target = tmp_path / "states.tsv"
        target.write_text("stale\n" * 100)
        ino = target.stat().st_ino
        assert main(["dump-states", "--config", str(config_path), "--out", str(target)]) == EXIT_OK
        assert target.read_text().count("\n") == 21
        assert target.stat().st_ino != ino
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "states.tsv"]

    def test_dump_states_writes_through_a_symlink(self, config_path, tmp_path):
        real = tmp_path / "real.tsv"
        real.write_text("stale\n" * 100)
        link = tmp_path / "link.tsv"
        link.symlink_to(real)
        assert main(["dump-states", "--config", str(config_path), "--out", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert real.read_text().count("\n") == 21
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "link.tsv", "real.tsv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_dump_states_writes_into_a_fifo(self, config_path, tmp_path):
        # a pipe, like a device or a /dev/fd path, is written, never replaced
        fifo = tmp_path / "states.fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        try:
            code = main(["dump-states", "--config", str(config_path), "--out", str(fifo)])
            out, _ = reader.communicate(timeout=30)
        finally:
            reader.kill()
            reader.wait()
        assert code == EXIT_OK
        assert out.count(b"\n") == 21
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "states.fifo"]
