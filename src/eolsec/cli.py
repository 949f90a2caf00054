"""Command-line entry point.

Subcommands:
  run         -- evaluate the sweep grid from a config file
  dump-states -- write the enumerated state space as tab-separated lines
  validate    -- parse and check a config file, then exit

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .ctmc import NegativeStationaryMass, NoConvergence, NotIrreducible
from .experiment import (
    ConfigError,
    cell_specs,
    exact_solves,
    load_config,
    replaced_output,
    run_experiments,
    state_space,
)
from .statespace import RankOverflow, StateBudgetExceeded, dump_states

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eolsec",
        description="Blocking and eavesdropping-security analysis of an elastic optical link",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment grid from a config file")
    run.add_argument("--config", required=True, help="path to the YAML config")
    run.add_argument("--engine", choices=["analytic", "mc", "both"], help="override the engine")
    run.add_argument("--seed", type=int, help="override the base RNG seed")
    run.add_argument("--out-dir", help="override the output directory")
    run.add_argument("--jobs", type=int, help="worker processes for grid cells")
    run.add_argument(
        "--no-timestamp",
        action="store_true",
        help="suppress the timestamp header and zero the wall_ms column for byte-identical reruns",
    )
    run.add_argument(
        "--log-level",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        default="INFO",
        help="least severe log message to show (default INFO)",
    )

    dump = sub.add_parser("dump-states", help="dump the enumerated state space")
    dump.add_argument("--config", required=True, help="path to the YAML config")
    dump.add_argument("--out", help="output file (default: stdout)")

    check = sub.add_parser("validate", help="check a config file and exit")
    check.add_argument("--config", required=True, help="path to the YAML config")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {}
    if args.engine:
        overrides["engine"] = args.engine
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir:
        overrides["out_dir"] = Path(args.out_dir)
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.no_timestamp:
        overrides["timestamp"] = False
    cfg = load_config(args.config, **overrides)
    outcome = run_experiments(cfg)
    print(f"wrote {outcome.num_rows} rows to {outcome.csv_path}")
    print(f"wrote summary to {outcome.summary_path}")
    if outcome.num_disagreements:
        print(f"WARNING: {outcome.num_disagreements} analytic/mc disagreements beyond CI")
    return EXIT_OK


def _cmd_dump_states(args: argparse.Namespace) -> int:
    space = state_space(load_config(args.config))
    if args.out:
        with replaced_output(args.out) as handle:
            dump_states(space, handle)
    else:
        dump_states(space, sys.stdout)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    specs, states = cell_specs(cfg)
    line = (f"config ok: {len(specs)} grid cells, {exact_solves(specs)} exact solves, "
            f"engine={cfg.engine}, C={cfg.capacity}")
    if states is not None:
        line += f", {states} regular states (budget {cfg.state_budget})"
        if specs[0].fallback:
            line += ", analytic cells fall back to mc"
    print(line)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # the package logger, not the root: basicConfig is a no-op once the root has handlers
    logging.getLogger("eolsec").setLevel(getattr(args, "log_level", "INFO"))
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "dump-states":
            return _cmd_dump_states(args)
        return _cmd_validate(args)
    except (ConfigError, StateBudgetExceeded, RankOverflow) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoConvergence, NegativeStationaryMass, NotIrreducible) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
