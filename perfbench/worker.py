"""One measured process of a benchmark run.

Usage: python3 perfbench/worker.py {setup|run|trace} CONFIG OUT T0

``T0`` is the ``time.monotonic()`` reading the parent took just before
starting this process (CLOCK_MONOTONIC is shared by all processes), so
set-up time includes interpreter start.  The worker writes one JSON
document to ``OUT``.

- ``setup``: import eolsec, load the config and, for an analytic config,
  enumerate the state space; reports the time from T0 to that point.
- ``run``: what ``eolsec run`` does: load the config, then
  ``run_experiments``; reports its wall time, CPU time and peak memory.
- ``trace``: the same run with a span recorded around every call that
  ``eolsec.experiment`` makes into the other layers.  For Monte Carlo it
  then repeats each randomized simulation without windows, so the window
  kernel's time can be measured from outside.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path


class Tracer:
    """In-memory spans: name, start, end, parent span, cell and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.cell: int | None = None
        self.sim_configs: list = []

    def span(self, name: str, fn, *args, attrs=None, **kwargs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "cell": self.cell,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            record.update(attrs(args, result))
        return result

    def wrap(self, module, attr: str, name: str, attrs=None, cell_of=None) -> None:
        """Replace ``module.attr`` by a traced version.

        A missing name raises AttributeError, so a changed call structure
        stops the traced run instead of reporting a layer as 0.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if cell_of is None:
                return self.span(name, fn, *args, attrs=attrs, **kwargs)
            outer, self.cell = self.cell, cell_of(args)
            try:
                return self.span(name, fn, *args, attrs=attrs, **kwargs)
            finally:
                self.cell = outer

        setattr(module, attr, traced)


def _sim_attrs(tracer: Tracer):
    def attrs(args, result):
        tracer.sim_configs.append(args[0])
        counts = result.counts
        return {
            "variant": args[0].variant.kind.value,
            "arrivals": sum(counts.arrivals),
            "reconfigs": counts.reconfigs_completed,
            "bp_ci_hw": result.overall_blocking.ci_half_width,
            "attack_ci_hw": {str(w): e.ci_half_width for w, e in result.attack_success.items()},
        }

    return attrs


def install_tracer(experiment, simulate) -> Tracer:
    """Wrap the functions ``eolsec.experiment`` calls.

    The cell id comes from the private per-cell function ``_compute_cell``;
    ``simulate._t_quantile`` is wrapped too, inside ``run_simulation``.
    """
    tracer = Tracer()
    tracer.wrap(experiment, "_compute_cell", "experiment.cell", cell_of=lambda a: a[0].ordinal)
    tracer.wrap(experiment, "build_state_space", "statespace.build",
                attrs=lambda a, r: {"states": r.num_regular})
    tracer.wrap(experiment, "assemble_generator", "ctmc.assemble",
                attrs=lambda a, r: {"dim": r.dimension, "nnz": int(r.matrix.nnz)})
    tracer.wrap(experiment, "solve_stationary", "ctmc.solve",
                attrs=lambda a, r: {"residual": r.residual})
    tracer.wrap(experiment, "blocking_report", "ctmc.report")
    tracer.wrap(experiment, "attack_success_probability", "security.score")
    tracer.wrap(experiment, "observable_fraction", "security.fraction")
    tracer.wrap(experiment, "run_simulation", "simulate.run", attrs=_sim_attrs(tracer))
    # The first call imports scipy.stats (about 1 s); its own span keeps that
    # one-time cost out of the event-loop rate.
    tracer.wrap(simulate, "_t_quantile", "simulate.t_quantile")
    return tracer


def main(argv: list[str]) -> None:
    mode, config, out, t0 = argv[0], argv[1], Path(argv[2]), float(argv[3])
    start = time.monotonic()
    import numpy
    import scipy

    import eolsec
    from eolsec import experiment, simulate

    import_s = time.monotonic() - start
    cfg = experiment.load_config(config)
    doc: dict = {
        "import_s": import_s,
        "eolsec_file": eolsec.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }

    if mode == "setup":
        if cfg.engine != "mc":
            profile = eolsec.DemandProfile(
                cfg.capacity, cfg.demands, (0.0,) * len(cfg.demands), cfg.service_rates
            )
            eolsec.build_state_space(
                profile, eolsec.SpaceOptions(cfg.randomize_empty, cfg.state_budget)
            )
        doc["setup_s"] = time.monotonic() - t0
    else:
        tracer = install_tracer(experiment, simulate) if mode == "trace" else None
        cpu0 = time.process_time()
        begin = time.perf_counter()
        if tracer is None:
            experiment.run_experiments(cfg)
        else:
            tracer.span("experiment.run", experiment.run_experiments, cfg)
        doc["wall_s"] = time.perf_counter() - begin
        doc["cpu_s"] = time.process_time() - cpu0
        # ru_maxrss is in KiB on Linux; read it before the extra traced calls.
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            sims = [s for s in tracer.spans if s["name"] == "simulate.run"]
            for sim, sim_cfg in zip(sims, tracer.sim_configs):
                if sim_cfg.window_widths:
                    tracer.cell = sim["cell"]
                    tracer.span("simulate.no_windows", eolsec.run_simulation,
                                replace(sim_cfg, window_widths=()))
            doc["spans"] = tracer.spans
    out.write_text(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])
