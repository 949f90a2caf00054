"""Workload definitions, generated configs and per-cell output checks.

Each workload is one eolsec experiment config.  The configs are generated
here rather than read from ``configs/`` so that editing a shipped example
never changes what the benchmark measures.  Only the Monte Carlo cells
use the workload seed; the exact cells are the same for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# Absolute and relative tolerance of the exact-cell reference check.  On these
# generators the shipped sparse LU agrees with a pinned LU under another
# ordering to 3e-15, and with uniformized power iteration stopped at
# residual 1e-10 to 2e-10 absolute and 1.3e-9 relative, so any solver that
# meets the 1e-10 residual gate stays far inside this band.
EXACT_ATOL = 1e-8
EXACT_RTOL = 1e-6
SOLVER_TOL = 1e-10
# Monte Carlo cells are checked against the mean over many recorded seeds;
# the band is this many standard deviations of one run's estimate, measured
# across those seeds, so drawing different random numbers is no failure.
# The floor is about ten blocked calls among one class's ~2e4 arrivals:
# rare events (one regular-variant class-1 block in 40 seeds) are too
# skewed for a band in standard deviations alone.
MC_SIGMAS = 6.0
MC_ATOL = 5e-4

_EXACT_LINK = {"capacity": 20, "demands": [4, 6, 8], "service_rates": 1.0}
_WORKLOADS = {
    # The largest chain the sparse LU solver finishes inside a check
    # (dim 6,626, nnz 68,288): solve time and LU fill memory dominate.
    "exact-reach": {
        "profile": {**_EXACT_LINK, "capacity": 24},
        "traffic": {"loads": [14]},
        "sweep": {
            "variants": ["randomized-defrag"],
            "randomization_rates": [5],
            "reconfig_rates": [100],
        },
        "window_widths": [10, 15, 20],
        "engine": "analytic",
    },
    # Many small chains on one shared state space (54 cells at C=20),
    # including the stiff corner lambda_S=1, mu_d=100: assembly repeats the
    # same structure for every cell.
    "exact-sweep": {
        "profile": _EXACT_LINK,
        "traffic": {"loads": [8, 14, 20]},
        "sweep": {
            "variants": ["regular", "randomized", "randomized-defrag"],
            "randomization_rates": [1, 5, 10],
            "reconfig_rates": [10, 100],
        },
        "window_widths": [10, 15, 20],
        "engine": "analytic",
    },
    # Far beyond enumeration: the exact engine is bypassed, and the window
    # survival kernel dominates the randomized-defrag cell.
    "mc-c100": {
        "profile": {"capacity": 100, "demands": [5, 10, 15], "service_rates": 1.0},
        "traffic": {"loads": [60]},
        "sweep": {
            "variants": ["regular", "randomized-defrag"],
            "randomization_rates": [5],
            "reconfig_rates": [1000],
        },
        "window_widths": [25, 50, 100],
        "engine": "mc",
        "sim": {"arrivals": 20000, "warmup": 100.0, "replications": 2},
    },
}
NAMES = tuple(_WORKLOADS)


def write_config(name: str, seed: int, out_dir: Path) -> Path:
    """Write the config of workload ``name`` and return its path.

    JSON is valid YAML, so the config needs no YAML writer.  It leaves
    ``solver_tol`` at its default, ``SOLVER_TOL``: PyYAML reads JSON's
    ``1e-10`` as a string.  Timestamps
    stay on because the per-cell times come from the CSV ``wall_ms``
    column, and ``jobs: 1`` keeps every cell in the measured process.
    """
    doc = {"schema_version": 1, **_WORKLOADS[name]}
    if not is_exact(name):
        doc["sim"] = {**doc["sim"], "seed": seed}
    doc["output"] = {"dir": str(out_dir), "basename": name, "timestamp": True}
    doc["jobs"] = 1
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.yaml"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def read_rows(csv_path: Path) -> list[dict[str, str]]:
    """CSV rows of one run, skipping the ``#`` timestamp line."""
    with open(csv_path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def cell_key(row: dict[str, str]) -> str:
    return "|".join(row[k] for k in ("variant", "engine", "load_erlang", "lambda_S", "mu_d"))


def checked_columns(row: dict[str, str]) -> list[str]:
    """Quantity columns compared with the references (all but the
    residual/CI and timing columns)."""
    skip = {"variant", "engine", "C", "load_erlang", "lambda_S", "mu_d", "residual_or_ci", "wall_ms"}
    return [c for c in row if c not in skip]


def is_exact(name: str) -> bool:
    return _WORKLOADS[name]["engine"] == "analytic"


def load_references() -> dict:
    """The recorded references; JSON ``null`` stands for a NaN value."""
    return json.loads(
        REFERENCES.read_text(), object_hook=lambda d: {k: math.nan if v is None else v for k, v in d.items()}
    )


def _mismatch(value: float, ref: float, tol: float) -> bool:
    if math.isnan(ref) or math.isnan(value):
        return not (math.isnan(ref) and math.isnan(value))
    return abs(value - ref) > tol


def check_rows(name: str, rows: list[dict[str, str]], refs: dict) -> list[str]:
    """One message per failed cell; an empty list means every cell passed.

    Exact cells must meet the residual gate and match the recorded values
    within ``EXACT_ATOL + EXACT_RTOL * |ref|``.  Monte Carlo cells must lie
    within ``MC_SIGMAS`` recorded standard deviations of the recorded mean.
    """
    expected = refs[name]["cells"]
    failures = []
    seen = set()
    for row in rows:
        key = cell_key(row)
        seen.add(key)
        ref = expected.get(key)
        if ref is None:
            failures.append(f"{key}: no reference for this cell")
            continue
        problems = []
        if row["engine"] == "analytic":
            residual = float(row["residual_or_ci"])
            if not residual <= SOLVER_TOL:
                problems.append(f"residual {residual:.3e} > {SOLVER_TOL:.0e}")
        for col in checked_columns(row):
            value = float(row[col])
            if row["engine"] == "analytic":
                target = ref[col]
                tol = EXACT_ATOL + EXACT_RTOL * abs(target)
            else:
                target, sd = ref[col]["mean"], ref[col]["sd"]
                tol = MC_SIGMAS * sd + MC_ATOL
            if _mismatch(value, target, tol):
                problems.append(f"{col}={value!r} vs reference {target!r} (tol {tol:.3g})")
        if problems:
            failures.append(f"{key}: " + "; ".join(problems))
    for key in sorted(set(expected) - seen):
        failures.append(f"{key}: cell missing from the output")
    return failures
