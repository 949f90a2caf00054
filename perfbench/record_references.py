"""Record the reference outputs the benchmark checks every cell against.

Usage (from the repository root):

    python3 perfbench/record_references.py

Exact workloads are run once; their CSV values are the references.  The
Monte Carlo workload is run with ``MC_SEEDS`` different seeds, and each
value's reference is the mean and standard deviation over those runs.
Writes ``perfbench/references.json``; run it only on a commit whose
outputs are trusted, since every later run is judged against it.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import workloads

MC_SEED_BASE = 100_000
MC_SEEDS = 40  # the MC tolerance in workloads.py is set for this many seeds


def run_once(name: str, seed: int) -> list[dict[str, str]]:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from eolsec import experiment

    out = root / ".bench_work" / "references" / f"{name}-{seed}"
    cfg = experiment.load_config(workloads.write_config(name, seed, out))
    experiment.run_experiments(cfg)
    return workloads.read_rows(out / f"{name}.csv")


def _number(value: str) -> float | None:
    x = float(value)
    return None if math.isnan(x) else x


def main() -> int:
    refs: dict = {}
    context = multiprocessing.get_context("spawn")
    jobs = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        for name in workloads.NAMES:
            if workloads.is_exact(name):
                rows = pool.submit(run_once, name, 0).result()
                cells = {
                    workloads.cell_key(r): {c: _number(r[c]) for c in workloads.checked_columns(r)}
                    for r in rows
                }
                refs[name] = {"kind": "exact", "cells": cells}
                continue
            seeds = [MC_SEED_BASE + i for i in range(MC_SEEDS)]
            runs = list(pool.map(run_once, [name] * len(seeds), seeds))
            cells = {}
            for row in runs[0]:
                key = workloads.cell_key(row)
                cells[key] = {}
                for col in workloads.checked_columns(row):
                    xs = [float(r[col]) for rows in runs for r in rows if workloads.cell_key(r) == key]
                    if any(math.isnan(x) for x in xs):
                        cells[key][col] = {"mean": None, "sd": None}
                    else:
                        cells[key][col] = {"mean": statistics.fmean(xs), "sd": statistics.stdev(xs)}
            refs[name] = {"kind": "mc", "seeds": seeds, "cells": cells}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
