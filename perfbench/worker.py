"""One repetition of one workload, in its own process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py <workload> <input seed> <traced 0|1> <spawn time> <out.json>

``<spawn time>`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time counts interpreter start and
imports.  The result, including failed output checks, is written as
JSON to ``<out.json>``; an exception leaves no file.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    The service workloads' client and server threads hand off on every
    request.  On a shared host, waking the other thread on another CPU
    made a fifo_ingest repetition take about twice as long and spread
    its time far wider than on one CPU.  Pinning before numpy loads
    also keeps its thread pools to one thread.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str]) -> int:
    name, seed, traced, spawned, out_path = argv
    traced = traced == "1"
    pin_to_one_cpu()
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    from workloads import WORKLOADS, nearest_rank

    workload = WORKLOADS[name]()
    workload.setup(int(seed), tracer)
    started = time.monotonic()
    if tracer is not None:
        tracer.phase = "run"
    t0 = time.perf_counter()
    workload.run()
    timed_s = time.perf_counter() - t0
    # Read before the checks, whose offline replay is not the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.phase = "check"
    try:
        data = workload.check()
    finally:
        workload.close()
    out = workload.out
    result = {
        "workload": name,
        "input_seed": int(seed),
        "traced": traced,
        "setup_s": started - float(spawned),
        "timed_s": timed_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": out.attempted,
        "failed": out.failed,
        "refused": out.refused,
        "errors": out.errors,
        "wait_p95_s": nearest_rank(data.pop("waits"), 0.95) if data["jobs"] else 0.0,
        **data,
    }
    if tracer is not None:
        result["layers"] = layer_figures(tracer, data["counters"], timed_s)
        result["edges"] = tracer.edge_table()
    Path(out_path).write_text(json.dumps(result))
    return 0


def layer_figures(tracer, counters: dict, timed_s: float) -> dict[str, float]:
    """Every per-layer metric of the timed run (0 where a layer is idle)."""
    from tracer import LAYERS, per_layer_metric_units

    figures = dict.fromkeys(per_layer_metric_units(), 0)
    run = tracer.layer_totals("run")
    setup = tracer.layer_totals("setup")
    for layer in LAYERS:
        calls, self_s = run.get(layer, (0, 0.0))
        figures[f"{layer}.calls"] = calls
        figures[f"{layer}.self_s"] = self_s
    figures["ml.fit.setup_s"] = setup.get("ml.fit", (0, 0.0))[1]
    figures["model.sweep.setup_s"] = setup.get("model.sweep", (0, 0.0))[1]
    counts = {name: n for (phase, name), n in tracer.counts.items() if phase == "run"}
    for name, value in (*counts.items(), *counters.items()):
        if name in figures:
            figures[name] = value
    predicts = counts.get("online.predicts", 0)
    figures["online.tuned_hit_share"] = (
        counters.get("online.tuned_hits", 0) / predicts if predicts else 0.0
    )
    covered = sum(self_s for _calls, self_s in run.values())
    figures["trace.unattributed_s"] = timed_s - covered
    return figures


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
