#!/usr/bin/env python
"""Tracked benchmark runner: the perf trajectory across PRs.

Runs the hot-path operations of ``benchmarks/test_microbench.py``
(without pytest) plus the heavy ``bench_steady_state_1k`` streaming
benchmark, and writes ``BENCH_<date>.json`` mapping each op to
``{mean_s, p50, p95, peak_rss}``.  Committing the JSON per PR gives
the repository a performance trajectory; CI times its gated ops and
``tools/bench_compare.py --gate`` fails on a >25% mean regression
against the newest committed baseline.

Usage::

    PYTHONPATH=src python tools/bench.py                 # full suite
    PYTHONPATH=src python tools/bench.py --quick         # fast ops, 3 rounds
    PYTHONPATH=src python tools/bench.py --ops bench_steady_state_1k
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _peak_rss_bytes() -> int:
    """Process high-water-mark RSS (ru_maxrss is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss * 1024 if sys.platform.startswith("linux") else rss


# ------------------------------------------------------------- op registry
# Each op is (setup() -> args, run(args) -> checked result).  Setup cost
# (dataset builds, workload generation) is excluded from the timing.

def _op_solo_sweep():
    from repro.model.sweep import sweep_solo
    from repro.utils.units import GB
    from repro.workloads.base import AppInstance
    from repro.workloads.registry import get_app

    inst = AppInstance(get_app("ts"), 5 * GB)

    def run():
        result = sweep_solo(inst)
        assert len(result.edp) == 160

    return run


def _op_pair_sweep():
    from repro.model.sweep import sweep_pair
    from repro.utils.units import GB
    from repro.workloads.base import AppInstance
    from repro.workloads.registry import get_app

    a = AppInstance(get_app("st"), 5 * GB)
    b = AppInstance(get_app("fp"), 5 * GB)

    def run():
        result = sweep_pair(a, b)
        assert len(result.edp) == 2800

    return run


def _op_pair_metrics_vectorised():
    import numpy as np

    from repro.model.costmodel import pair_metrics
    from repro.utils.units import GB, MB
    from repro.workloads.registry import get_app

    rng = np.random.default_rng(0)
    n = 10_000
    freqs = rng.choice([1.2e9, 1.6e9, 2.0e9, 2.4e9], size=n)
    blocks = rng.choice([64, 128, 256, 512, 1024], size=n) * MB
    m1 = rng.integers(1, 8, size=n).astype(float)
    m2 = 8.0 - m1
    a, b = get_app("st").profile, get_app("wc").profile

    def run():
        result = pair_metrics(
            a, 5 * GB, freqs, blocks, m1, b, 5 * GB, freqs, blocks, m2
        )
        assert result.edp.shape == (n,)

    return run


def _op_des_cluster():
    from repro.mapreduce.engine import ClusterEngine
    from repro.mapreduce.job import JobSpec
    from repro.model.config import JobConfig
    from repro.utils.units import GB, GHZ, MB
    from repro.workloads.base import AppInstance
    from repro.workloads.registry import get_app

    def run():
        cluster = ClusterEngine(n_nodes=8)
        for i in range(16):
            code = ("st", "wc", "ts", "gp")[i % 4]
            cluster.submit(
                JobSpec(
                    instance=AppInstance(get_app(code), 5 * GB),
                    config=JobConfig(
                        frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=4
                    ),
                )
            )
        cluster.run()
        assert len(cluster.results) == 16

    return run


def _op_steady_state_1k():
    from repro.mapreduce.engine import ClusterEngine
    from repro.workloads.streams import poisson_job_stream

    specs = list(poisson_job_stream(1000, tuned=True))

    def run():
        cluster = ClusterEngine(n_nodes=8, recorder="off")
        for s in specs:
            cluster.submit(s)
        cluster.run()
        assert len(cluster.results) == 1000
        assert cluster.telemetry.recontext_hit_rate >= 0.8

    return run


def _op_hetero_steady_state_1k():
    from repro.hardware import roster_from_classes
    from repro.mapreduce.engine import ClusterEngine
    from repro.workloads.streams import poisson_job_stream

    # bench_steady_state_1k's stream on a mixed atom/xeon roster: the
    # class-tagged recontext cache keys and roster-aware energy
    # accounting sit on this hot path.
    specs = list(poisson_job_stream(1000, tuned=True, job_ids_from=1))
    roster = roster_from_classes(("atom", "xeon") * 4)

    def run():
        cluster = ClusterEngine(recorder="off", roster=roster)
        for s in specs:
            cluster.submit(s)
        cluster.run()
        assert len(cluster.results) == 1000
        assert cluster.heterogeneous

    return run


def _op_faulty_steady_state():
    from repro.faults import FaultInjector, InjectionPlan
    from repro.mapreduce.engine import ClusterEngine
    from repro.workloads.streams import poisson_job_stream

    # The bench_steady_state_1k stream under ~2% injection (20 faults
    # per 1000 arrivals), timing the recovery path: evictions, retries,
    # speculative duplicates, crash/restore bookkeeping.
    specs = list(poisson_job_stream(1000, tuned=True, job_ids_from=1))
    horizon = specs[-1].submit_time + 4000.0
    plan = InjectionPlan.generate(
        8, horizon, rate_per_1ks=20_000.0 / horizon, seed=7
    )

    def run():
        cluster = ClusterEngine(n_nodes=8, recorder="off")
        for s in specs:
            cluster.submit(s)
        FaultInjector(cluster, plan).install()
        cluster.run()
        assert len(cluster.results) == 1000
        assert cluster.telemetry.faults_injected > 0

    return run


def _op_functional_wordcount():
    from repro.mapreduce.functional import MapReduceRuntime
    from repro.workloads.registry import get_app

    app = get_app("wc")
    runtime = MapReduceRuntime(n_reducers=4, split_records=250)
    records = list(app.generate_records(2000, seed=0))

    def run():
        output = runtime.run(app, records)
        assert output.n_input_records == 2000

    return run


def _op_reptree_predict():
    import numpy as np

    from repro.ml.reptree import REPTree
    from repro.online.scenario import reduced_pipeline

    dataset = reduced_pipeline().dataset
    tree = REPTree(seed=0).fit(dataset.X, np.log(dataset.y))
    grid = dataset.X[:2800]

    def run():
        out = tree.predict(grid)
        assert out.shape == (2800,)

    return run


def _op_reptree_fit():
    import numpy as np

    from repro.ml.reptree import REPTree
    from repro.online.scenario import reduced_pipeline

    dataset = reduced_pipeline().dataset
    X, y = dataset.X, np.log(dataset.y)

    def run():
        tree = REPTree(seed=0).fit(X, y)
        assert tree.n_leaves > 1

    return run


def _op_profile_features():
    from repro.analysis.features import PROFILING_CONFIG
    from repro.telemetry.profiling import profile_features
    from repro.utils.units import GB
    from repro.workloads.base import AppInstance
    from repro.workloads.registry import ALL_APPS, get_app

    # ECoST's learning period (§5) as the controller runs it on a cold
    # descriptor memo: one profile of each of the 22 registry instances
    # (11 applications at 1 and 5 GB), perf and dstat windows included.
    kinds = [
        AppInstance(get_app(code), size)
        for code in ALL_APPS
        for size in (1 * GB, 5 * GB)
    ]

    def run():
        profiles = [
            profile_features(inst, PROFILING_CONFIG, seed=0) for inst in kinds
        ]
        assert len(profiles) == 22

    return run


def _op_steady_state_256node():
    from repro.mapreduce.engine import ClusterEngine
    from repro.workloads.streams import poisson_job_stream

    # A saturated big-cluster stream: 256 nodes, 4000 tuned arrivals at
    # a 0.2 s mean gap.  This is the shape whose placement path used to
    # be O(pending × nodes) per event before the free-core index.
    specs = list(
        poisson_job_stream(
            4000, tuned=True, mean_interarrival_s=0.2, job_ids_from=1
        )
    )

    def run():
        cluster = ClusterEngine(n_nodes=256, recorder="off")
        for s in specs:
            cluster.submit(s)
        cluster.run()
        assert len(cluster.results) == 4000

    return run


def _op_placement_100k_jobs():
    from repro.mapreduce.engine import ClusterEngine
    from repro.workloads.streams import poisson_job_stream

    # Deep backlog: 100k jobs hitting 64 nodes at 10 ms gaps, so the
    # pending queue holds tens of thousands of jobs for most of the
    # run — the pending-membership/removal hot path at full depth.
    specs = list(
        poisson_job_stream(
            100_000, tuned=True, mean_interarrival_s=0.01, job_ids_from=1
        )
    )

    def run():
        cluster = ClusterEngine(n_nodes=64, recorder="off")
        for s in specs:
            cluster.submit(s)
        cluster.run()
        assert len(cluster.results) == 100_000

    return run


def _op_service_ingest_10k():
    from repro.service import ClusterService, ServiceConfig, seeded_requests

    # The full service hot path: 10k pre-generated requests through
    # parse → admission → tenant accounting → incremental engine
    # advance, then drain.  Measures the ingestion overhead the service
    # layers add on top of the raw engine (bench_steady_state_1k).
    requests = seeded_requests(
        10_000, seed=0, tenants=("t0", "t1", "t2"), mean_interarrival_s=1.0
    )
    config = ServiceConfig(n_nodes=16)

    def run():
        service = ClusterService(config)
        for req in requests:
            service.submit_request(req)
        summary = service.drain()
        assert summary["completed"] == 10_000
        assert summary["inflight"] == 0

    return run


@contextlib.contextmanager
def _on_one_cpu():
    """Run the calling thread on the lowest CPU it may use, restoring
    its affinity afterwards (Linux only; elsewhere a no-op)."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(home)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def _op_service_http_2k():
    import asyncio
    import itertools
    import threading

    from repro.service import ClusterService, ServiceConfig, seeded_requests
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceServer

    # 2000 /submit round trips through one ServiceClient to a server on
    # a loopback thread (FIFO, virtual clock): the transport's cost on
    # top of the in-process path bench_service_ingest_10k times.  The
    # server starts here and lives on a daemon thread until the process
    # exits; each round continues the stream after the previous one,
    # at an arrival rate this cluster keeps up with.  Both threads run
    # on one CPU: waking the other thread on another CPU made a round
    # trip about twice as slow and far more variable.
    n = 2000
    requests = seeded_requests(
        n, seed=0, tenants=("t0", "t1", "t2"), mean_interarrival_s=30.0
    )
    span = requests[-1]["time"] + 30.0
    loop = asyncio.new_event_loop()
    server = ServiceServer(ClusterService(ServiceConfig(port=0, n_nodes=16)))
    loop.run_until_complete(server.start())

    def serve():
        with _on_one_cpu():
            loop.run_forever()

    threading.Thread(target=serve, name="bench-service", daemon=True).start()
    client = ServiceClient(port=server.port)
    rounds = itertools.count()

    def run():
        k = next(rounds)
        with _on_one_cpu():
            for req in requests:
                ack = client.submit(
                    dict(req, time=req["time"] + k * span, job_id=req["job_id"] + k * n)
                )
                assert ack["accepted"]

    return run


def _op_online_relearn():
    from repro.online.scenario import run_drift_scenario

    # The full online self-tuning loop under drift: champion/challenger
    # shadow scoring, Page–Hinkley detection, learning-period re-sweeps,
    # window refits, and the crash-triggered on_cluster_change relearn.
    # Setup warms the artifact-cached pipeline so rounds measure the
    # online layer, not the offline model build.  A lean window keeps
    # the per-refresh tree refit proportionate to the 24-job stream.
    kwargs = dict(n_jobs=24, seed=0, stp_kwargs={"window": 1536})
    run_drift_scenario(**kwargs)

    def run():
        report = run_drift_scenario(**kwargs)
        assert report.summary["completed"] == 24
        assert report.decisions > 0
        assert report.counters["online.relearn_sweeps"] > 0

    return run


def _op_ecost_steady_1k():
    import numpy as np

    from repro.core.controller import ECoSTController
    from repro.mapreduce.engine import ClusterEngine
    from repro.online.scenario import pipeline_components
    from repro.utils.units import GB
    from repro.workloads.base import AppInstance
    from repro.workloads.registry import ALL_APPS, get_app

    # The ECoST decision path (classify, pair, STP predict, place) with
    # no service in front: 1000 jobs of the 11 applications at 1 and
    # 5 GB, stratified (shuffled blocks of one of each) in seeded
    # order, on 8 Atom nodes at a 32 s mean gap, about 88% of their
    # ECoST drain rate.  Setup warms the artifact-cached reptree
    # pipeline; each round starts from an empty decision memo.
    stp, classifier, _dataset = pipeline_components("reptree")
    kinds = [
        AppInstance(get_app(code), size)
        for code in ALL_APPS
        for size in (1 * GB, 5 * GB)
    ]
    n = 1000
    rng = np.random.default_rng(0)
    blocks = [rng.permutation(len(kinds)) for _ in range(-(-n // len(kinds)))]
    order = np.concatenate(blocks)[:n]
    times = np.sort(rng.uniform(0.0, n * 32.0, n))

    def run():
        stp.clear_memo()
        cluster = ClusterEngine(n_nodes=8, recorder="off")
        controller = ECoSTController(cluster, stp, classifier)
        for k, t in zip(order, times):
            controller.submit(kinds[k], arrival_time=float(t))
        results = controller.run()
        assert len(results) == n

    return run


#: op name -> (setup factory, in the quick subset?)
OPS: dict[str, tuple] = {
    "bench_solo_sweep": (_op_solo_sweep, True),
    "bench_pair_sweep": (_op_pair_sweep, True),
    "bench_pair_metrics_vectorised": (_op_pair_metrics_vectorised, True),
    "bench_des_cluster": (_op_des_cluster, True),
    "bench_steady_state_1k": (_op_steady_state_1k, True),
    "bench_hetero_steady_state_1k": (_op_hetero_steady_state_1k, True),
    "bench_faulty_steady_state": (_op_faulty_steady_state, True),
    "bench_functional_wordcount": (_op_functional_wordcount, False),
    "bench_reptree_predict": (_op_reptree_predict, False),
    "bench_reptree_fit": (_op_reptree_fit, False),
    "bench_profile_features": (_op_profile_features, False),
    # Scale lane (not in --quick: CI runs these explicitly via --ops).
    "bench_service_ingest_10k": (_op_service_ingest_10k, False),
    "bench_service_http_2k": (_op_service_http_2k, False),
    "bench_online_relearn": (_op_online_relearn, False),
    "bench_ecost_steady_1k": (_op_ecost_steady_1k, False),
    "bench_steady_state_256node": (_op_steady_state_256node, False),
    "bench_placement_100k_jobs": (_op_placement_100k_jobs, False),
}


def run_op(name: str, rounds: int) -> dict:
    """Time one op over ``rounds`` (plus one untimed warmup round)."""
    run = OPS[name][0]()
    run()  # warmup: first-call caches, imports, allocator growth
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        run()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return {
        "mean_s": statistics.fmean(samples),
        "p50": samples[len(samples) // 2],
        "p95": samples[min(len(samples) - 1, int(len(samples) * 0.95))],
        "peak_rss": _peak_rss_bytes(),
        "rounds": rounds,
    }


def reference_metrics() -> dict[str, float]:
    """Flat MetricsRegistry snapshot of one small seeded steady run.

    Embedded in the benchmark payload so engine-counter drift (cache
    hit rates, event mix) is visible next to the timing numbers when
    two BENCH files are diffed.
    """
    from repro.mapreduce.engine import ClusterEngine
    from repro.telemetry.registry import MetricsRegistry, cluster_registry
    from repro.workloads.streams import poisson_job_stream

    cluster = ClusterEngine(n_nodes=8, recorder="off")
    for s in poisson_job_stream(200, tuned=True, job_ids_from=1):
        cluster.submit(s)
    cluster.run()
    return MetricsRegistry.flatten(cluster_registry(cluster).snapshot())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fast op subset, 3 rounds (CI mode)",
    )
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="timing rounds per op (default: 5, or 3 with --quick)",
    )
    parser.add_argument(
        "--ops", nargs="*", default=None,
        help=f"ops to run (default: suite); available: {', '.join(OPS)}",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output JSON path (default: BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--note", default=None,
        help="free-form note recorded in the JSON (e.g. the pre-change "
        "reference timing)",
    )
    args = parser.parse_args(argv)

    if args.ops:
        unknown = [o for o in args.ops if o not in OPS]
        if unknown:
            parser.error(f"unknown ops: {', '.join(unknown)}")
        names = args.ops
    else:
        names = [n for n, (_, quick) in OPS.items() if quick or not args.quick]
    rounds = args.rounds or (3 if args.quick else 5)

    results = {}
    for name in names:
        results[name] = run_op(name, rounds)
        r = results[name]
        print(
            f"{name}: mean {r['mean_s'] * 1e3:.1f} ms, "
            f"p50 {r['p50'] * 1e3:.1f} ms, p95 {r['p95'] * 1e3:.1f} ms"
        )

    date = datetime.date.today().isoformat()
    out = args.out or REPO_ROOT / f"BENCH_{date}.json"
    payload = {
        "date": date,
        "rounds": rounds,
        "quick": bool(args.quick),
        "ops": results,
        "metrics": reference_metrics(),
    }
    if args.note:
        payload["note"] = args.note
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
