"""Benchmark of the eolsec engines: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-reach --seed 1 --seconds 25 --trace 0

Every measured step runs in a fresh worker process that imports eolsec
from ``src/`` and goes through ``load_config`` and ``run_experiments`` the
way ``eolsec run`` does, with ``jobs: 1``.

``--trace 0`` measures the end-to-end metrics: several set-up-only
processes give ``setup_s``, then whole runs repeat until ``--seconds`` have
passed.  ``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics and the tracing overhead.  Every cell of every run is
checked against ``perfbench/references.json``.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the run context and every sample, is also written to
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("experiment", "statespace", "ctmc", "security", "simulate")


class WorkerFailed(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Runner:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.config = workloads.write_config(workload, seed, self.work / "out")
        self.csv = self.work / "out" / f"{workload}.csv"
        self.refs = workloads.load_references()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.threads = str(len(os.sched_getaffinity(0)))
        for var in THREAD_VARS:
            self.env[var] = self.threads
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.versions: dict = {}

    def worker(self, mode: str) -> dict:
        out = self.work / f"{mode}.json"
        out.unlink(missing_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("run time limit reached")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), mode, str(self.config), str(out), repr(t0)],
                cwd=self.root, env=self.env, timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker killed after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stdout.strip().splitlines()[-15:])
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n{tail}")
        doc = json.loads(out.read_text())
        self.versions = doc["versions"]
        src = (self.root / "src").resolve()
        if src not in Path(doc["eolsec_file"]).resolve().parents:
            raise WorkerFailed(f"eolsec imported from {doc['eolsec_file']}, not from {src}")
        return doc

    def grid_run(self, mode: str) -> dict | None:
        """One whole run; checks its cells and returns the worker result
        with the per-cell times, or None when the run itself failed."""
        expected = len(self.refs[self.workload]["cells"])
        self.csv.unlink(missing_ok=True)
        try:
            doc = self.worker(mode)
        except WorkerFailed as exc:
            self.attempted += expected
            self.failed += expected
            self.failures.append(str(exc))
            return None
        rows = workloads.read_rows(self.csv)
        problems = workloads.check_rows(self.workload, rows, self.refs)
        self.attempted += max(expected, len(rows))
        self.failed += len(problems)
        self.failures += problems
        doc["cell_s"] = [float(r["wall_ms"]) / 1000.0 for r in rows]
        return doc

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def measure(runner: Runner, seconds: int) -> dict[str, list[float]]:
    """End-to-end samples: set-up probes, then whole runs until time is up."""
    samples: dict[str, list[float]] = {
        k: [] for k in ("setup_s", "wall_s", "cell_s_p50", "cell_s_p80", "peak_rss_mb", "cpu_s")
    }
    runner.worker("setup")  # fills the bytecode and file caches; not timed
    start = time.monotonic()
    for _ in range(SETUP_PROBES):
        samples["setup_s"].append(runner.worker("setup")["setup_s"])
    while not samples["wall_s"] or time.monotonic() - start < seconds:
        doc = runner.grid_run("run")
        if doc is None:
            break
        samples["wall_s"].append(doc["wall_s"])
        samples["cell_s_p50"].append(statistics.median(doc["cell_s"]))
        samples["cell_s_p80"].append(percentile(doc["cell_s"], 80))
        samples["peak_rss_mb"].append(doc["peak_rss_mb"])
        samples["cpu_s"].append(doc["cpu_s"])
    return samples


def span_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    spans = doc["spans"]
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    root = next(s for s in spans if s["name"] == "experiment.run")
    reruns = {s["id"] for s in spans if s["name"] == "simulate.no_windows"}
    inside = [s for s in spans if s["id"] not in reruns and s["parent"] not in reruns]
    wall = dur[root["id"]]

    def named(name: str) -> list[dict]:
        return [s for s in inside if s["name"] == name]

    def total(name: str) -> float:
        return sum(dur[s["id"]] for s in named(name))

    m: dict[str, float] = {"experiment.wall_s": wall}
    for layer in LAYERS:
        own = [s for s in inside if s["name"].split(".")[0] == layer]
        m[f"{layer}.self_s"] = sum(dur[s["id"]] - child[s["id"]] for s in own)
        m[f"{layer}.spans"] = len(own)
        m[f"{layer}.share"] = m[f"{layer}.self_s"] / wall
    m["experiment.cells"] = len(named("experiment.cell"))
    m["statespace.build_s"] = total("statespace.build")
    m["statespace.states"] = max((s["states"] for s in named("statespace.build")), default=0)
    for part in ("assemble", "solve", "report"):
        m[f"ctmc.{part}_s"] = total(f"ctmc.{part}")
        m[f"ctmc.{part}_share"] = m[f"ctmc.{part}_s"] / wall
    m["ctmc.solves"] = len(named("ctmc.solve"))
    m["ctmc.dim"] = max((s["dim"] for s in named("ctmc.assemble")), default=0)
    m["ctmc.nnz"] = max((s["nnz"] for s in named("ctmc.assemble")), default=0)
    m["ctmc.residual_max"] = max((s["residual"] for s in named("ctmc.solve")), default=0.0)
    m["security.score_s"] = total("security.score")
    m["security.calls"] = len(named("security.score"))

    sims = named("simulate.run")
    m["simulate.run_s"] = total("simulate.run")
    m["simulate.run_share"] = m["simulate.run_s"] / wall
    m["simulate.arrivals"] = sum(s["arrivals"] for s in sims)
    m["simulate.reconfigs"] = sum(s["reconfigs"] for s in sims)
    m["simulate.t_quantile_s"] = total("simulate.t_quantile")
    for s in sims:
        # child[] of a simulate.run span is its _t_quantile time only
        loop_s = dur[s["id"]] - child[s["id"]]
        m[f"simulate.arrivals_per_s.{s['variant']}"] = s["arrivals"] / loop_s
        m[f"simulate.bp_ci_hw.{s['variant']}"] = s["bp_ci_hw"]
    cell_span = {s["cell"]: s for s in named("experiment.cell")}
    no_windows = {s["cell"]: s for s in spans if s["name"] == "simulate.no_windows"}
    window_s = window_cell_s = 0.0
    for s in sims:
        if not s["attack_ci_hw"]:
            continue
        for w, hw in s["attack_ci_hw"].items():
            m[f"simulate.attack_ci_hw.{w}"] = hw
            m[f"simulate.attack_ci_cost.{w}"] = hw * hw * dur[s["id"]]
        base = no_windows.get(s["cell"])
        if base is not None:
            window_s += dur[s["id"]] - dur[base["id"]]
            window_cell_s += dur[cell_span.get(s["cell"], s)["id"]]
    m["simulate.window_s"] = window_s
    m["simulate.window_share"] = window_s / window_cell_s if window_cell_s else 0.0
    m["process.cpu_s"] = doc["cpu_s"]
    m["process.import_s"] = doc["import_s"]
    m["process.peak_rss_mb"] = doc["peak_rss_mb"]
    return m


def measure_traced(runner: Runner, seconds: int) -> dict[str, list[float]]:
    """Alternate untraced and traced runs; per-layer samples plus overhead."""
    samples: dict[str, list[float]] = {"untraced_wall_s": []}
    runner.worker("setup")
    start = time.monotonic()
    while not samples.get("experiment.wall_s") or time.monotonic() - start < seconds:
        plain = runner.grid_run("run")
        traced = runner.grid_run("trace") if plain is not None else None
        if traced is None:
            break
        samples["untraced_wall_s"].append(plain["wall_s"])
        for name, value in span_metrics(traced).items():
            samples.setdefault(name, []).append(value)
    return samples


def medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {k: statistics.median(v) for k, v in samples.items() if v}


def report_layers(m: dict[str, float]) -> None:
    wall = m["experiment.wall_s"]
    print(f"per-layer self time of the traced run_experiments ({wall:.3f} s):")
    print(f"  {'layer':<12}{'self_s':>10}{'spans':>8}{'share':>9}")
    for layer in LAYERS:
        print(f"  {layer:<12}{m[f'{layer}.self_s']:>10.3f}{int(m[f'{layer}.spans']):>8}"
              f"{m[f'{layer}.share']:>9.1%}")
    print(f"  tracing overhead: {m['trace.overhead_s']:+.3f} s ({m['trace.overhead_share']:+.2%})"
          " = median traced minus median untraced run_experiments")
    if m.get("simulate.window_s"):
        print(f"  window kernel: {m['simulate.window_s']:.3f} s, "
              f"{m['simulate.window_share']:.1%} of the randomized-defrag cell")


def context(runner: Runner, seed: int, seconds: int, trace: int, started: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((runner.root / "src").rglob("*.py")):
        digest.update(path.relative_to(runner.root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (runner.root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=runner.root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": runner.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        **runner.versions,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {var: runner.env[var] for var in THREAD_VARS},
        "started_utc": started,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "eolsec" / "__init__.py").is_file():
        print(f"error: {root} holds no src/eolsec; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            samples = measure_traced(runner, args.seconds)
        else:
            samples = measure(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    if not samples.get("wall_s") and not samples.get("experiment.wall_s"):
        print("error: no run finished:\n" + "\n".join(runner.failures[:10]), file=sys.stderr)
        return 1

    values = medians(samples)
    if args.trace:
        untraced = values.pop("untraced_wall_s")
        values["trace.overhead_s"] = values["experiment.wall_s"] - untraced
        values["trace.overhead_share"] = values["trace.overhead_s"] / untraced
        report_layers(values)

    ctx = context(runner, args.seed, args.seconds, args.trace, started)
    print("context: " + json.dumps(ctx, sort_keys=True))
    ctx["samples"] = {k: len(v) for k, v in samples.items()}
    for message in runner.failures[:20]:
        print(f"FAILED {message}")
    error_rate = runner.failed / runner.attempted
    print(f"{args.workload}: {runner.attempted} cells attempted, {runner.failed} failed, "
          f"error_rate {error_rate:.4f}")
    for name, value in sorted(values.items()):
        print(f"  {name:<44} {value:.6g}  (n={len(samples.get(name, [])) or 1})")

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.time_ns() // 1_000_000}"
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({**result, "context": ctx, "all_metrics": values, "samples": samples,
                    "failures": runner.failures}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
