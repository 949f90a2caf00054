"""Compare two result sets of the benchmark, metric by metric.

Usage (from the repository root):

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by ``run.py``
(``.bench_work/results`` of a checkout).  Runs are paired by workload,
trace mode and seed.  For every (workload, metric) it prints each side's
median and quartiles and one verdict:

- improved: at least 10 pairs, the change wins at least nine tenths of
  them (ties count for neither side), and the medians differ by more than
  the parent's interquartile range.
- worse: the change's median is worse than the parent's by more than the
  metric's bound from BENCHMARK.json; for a per-layer metric, which has no
  bound, the improved rule applied in the other direction.
- unresolved: the run-to-run spread (interquartile range over median, on
  either side) is wider than the bound and not every change run beats every
  parent run; or the change looks better but there are fewer than 10 pairs.
- unchanged: anything else.

Exit code 1 when any end-to-end metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[tuple[str, int], dict[int, list[dict]]]:
    """(workload, trace) -> seed -> results in the order they were written."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json"), key=lambda p: p.stem.rsplit("-", 1)[-1]):
        doc = json.loads(path.read_text())
        ctx = doc["context"]
        runs[(ctx["workload"], ctx["trace"])][ctx["seed"]].append(doc)
    return runs


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summary(xs: list[float]) -> str:
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.5g} [{q1:.4g}, {q3:.4g}]"


def machine(result: dict) -> str:
    ctx = result["context"]
    return ", ".join(f"{k}={ctx.get(k)}" for k in ("cpu_model", "nproc", "python", "numpy", "scipy", "threads"))


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            lower_better: bool, bound: float | None) -> tuple[str, str]:
    sign = 1.0 if lower_better else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    n = len(pairs)
    note = f"{wins}/{losses}/{n}"
    separated = abs(bm - am) > (a3 - a1)
    better = sign * (bm - am) < 0
    if better and separated and wins >= WIN_SHARE * n:
        return ("improved" if n >= MIN_PAIRS else "unresolved"), note
    worse_share = sign * (bm - am) / abs(am) if am else 0.0
    if bound is not None and worse_share > bound:
        return "worse", note
    if bound is None and not better and separated and n >= MIN_PAIRS and losses >= WIN_SHARE * n:
        return "worse", note
    if bound is not None:
        spread = max((a3 - a1) / abs(am) if am else 0.0, (b3 - b1) / abs(bm) if bm else 0.0)
        beats_all = (max(b) < min(a)) if lower_better else (min(b) > max(a))
        if spread > bound and not beats_all:
            return "unresolved", note
    return "unchanged", note


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    regressed = False
    print(f"{'workload':<12} {'metric':<42} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'win/loss/pairs':<15} verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        pa, ch = parent[key], change[key]
        seeds = sorted(set(pa) & set(ch))
        names = sorted({n for runs in pa.values() for r in runs for n in r["metrics"]})
        for name in names:
            meta = declared.get(name)
            if meta is None:
                continue
            a = [r["metrics"][name]["value"] for runs in pa.values() for r in runs]
            b = [r["metrics"][name]["value"] for runs in ch.values() for r in runs]
            pairs = [
                (x["metrics"][name]["value"], y["metrics"][name]["value"])
                for s in seeds for x, y in zip(pa[s], ch[s])
            ]
            result, note = verdict(a, b, pairs, meta["better"] == "lower", meta.get("bound"))
            regressed |= result == "worse" and "bound" in meta
            print(f"{workload:<12} {name:<42} {summary(a):<34} {summary(b):<34} {note:<15} {result}")
    machines = {side: {machine(r) for by_seed in runs.values() for rs in by_seed.values() for r in rs}
                for side, runs in (("parent", parent), ("change", change))}
    if len(machines["parent"] | machines["change"]) > 1:
        print("warning: the runs come from different machines or versions:")
        for side, seen in machines.items():
            for m in sorted(seen):
                print(f"  {side}: {m}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]} (trace {key[1]}): results on one side only")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for by_seed in runs.values() for rs in by_seed.values() for r in rs)
        if failed:
            print(f"{side}: {failed} failed cells")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
