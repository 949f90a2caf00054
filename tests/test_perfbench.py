"""The benchmark (``perfbench/``) runs against this package.

The worker imports and wraps names of ``eolsec``; a change that drops one
fails here instead of in a benchmark run.  The exact workloads' outputs
are held to the benchmark's recorded references.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from eolsec.experiment import load_config, run_experiments

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"

CONFIG = """\
schema_version: 1
profile: {{capacity: 7, demands: [3, 4], service_rates: 1.0}}
traffic: {{loads: [2.0]}}
sweep: {{variants: [regular, randomized-defrag], randomization_rates: [1.0], reconfig_rates: [10.0]}}
window_widths: [3]
engine: {engine}
sim: {{arrivals: 2000, warmup: 10.0, replications: 2, seed: 5}}
output: {{dir: "{out_dir}", basename: bench, timestamp: true}}
jobs: 1
"""

SPANS = {
    "analytic": {"statespace.build", "ctmc.assemble", "ctmc.solve", "ctmc.report",
                 "security.score", "security.fraction"},
    "mc": {"simulate.run", "simulate.t_quantile", "simulate.no_windows"},
}


@pytest.mark.parametrize("engine", ["analytic", "mc"])
@pytest.mark.parametrize("mode", ["setup", "run", "trace"])
def test_worker_mode(tmp_path, mode, engine):
    config = tmp_path / "bench.yaml"
    config.write_text(CONFIG.format(engine=engine, out_dir=tmp_path / "out"))
    result = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(WORKER), mode, str(config), str(result), str(time.monotonic())],
        cwd=tmp_path, env=env, check=True, timeout=120,
    )
    doc = json.loads(result.read_text())
    assert Path(doc["eolsec_file"]).is_relative_to(ROOT / "src")
    if mode == "setup":
        assert doc["setup_s"] > 0.0
        return
    assert doc["wall_s"] > 0.0
    assert doc["peak_rss_mb"] > 0.0
    assert (tmp_path / "out" / "bench.csv").exists()
    if mode == "trace":
        names = {span["name"] for span in doc["spans"]}
        assert {"experiment.run", "experiment.cell"} | SPANS[engine] <= names


@pytest.mark.parametrize("name", ["exact-reach", "exact-sweep"])
def test_exact_workload_matches_references(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    outcome = run_experiments(load_config(workloads.write_config(name, 1, tmp_path)))
    rows = workloads.read_rows(outcome.csv_path)
    assert rows
    assert workloads.check_rows(name, rows, workloads.load_references()) == []
