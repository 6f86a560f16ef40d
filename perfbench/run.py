"""Repository benchmark: ECoST decisions, online relearn, engine backlog
and service ingest, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ecost_steady --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a traced repetition and
checks that tracing changed no simulated result.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it are a readable table
that also carries the figures BENCHMARK.json cannot gate (latency
percentiles, ``read_p50_ms``, ``sim_wait_p95_s``, ``sim_regret``,
``failed_share``, ``refused_share``; ``spec.json`` says why).  The
command exits non-zero when any output check fails.

A run is ``max(fewest, ceil(seconds / nominal))`` repetitions, each a fresh
process (``worker.py``), pinned to one CPU, that sets up from scratch:
a new empty ``REPRO_CACHE_DIR`` (the artifact fingerprint does not
cover code, so a shared cache could hand one commit another's fitted
model), no ``REPRO_WORKERS`` (sweeps stay in-process) and no
``REPRO_SERVICE_*`` knobs.  Repetition ``i`` of seed ``s`` runs input
seed ``1000*s + i``, so a run averages over several inputs and its
simulated figures are a pure function of the seed.  Work files go
under ``perfbench/.work/`` and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_metric_units  # noqa: E402

#: Timed seconds of one repetition on the reference machine (2 cores).
NOMINAL_REP_S = {
    "ecost_steady": 5.0,
    "online_drift": 3.0,
    "engine_backlog": 3.0,
    "fifo_ingest": 3.0,
}
#: Fewest repetitions per run.  online_drift's throughput follows its
#: inputs: per seed, the run figures of two ten-seed sets correlated at
#: 0.88, against 0.23 or less on the other workloads, so it takes the
#: median over more of them.
MIN_REPS = {
    "ecost_steady": 4,
    "online_drift": 6,
    "engine_backlog": 4,
    "fifo_ingest": 4,
}
#: The whole command must finish within this many seconds.
DEADLINE_S = 170.0

#: End-to-end metrics of BENCHMARK.json: name -> unit.  Every workload
#: reports each of them, and each is steady across seeds on every
#: workload.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MiB",
    "sim_edp": "J.s",
}
#: Printed beside them but absent from BENCHMARK.json: each is missing
#: from some workload or swings with the seed there (see spec.json).
REPORTED = {
    "ack_p50_ms": "ms",
    "ack_tail_ms": "ms",
    "read_p50_ms": "ms",
    "sim_wait_p95_s": "s",
    "sim_regret": "J.s",
    "failed_share": "ratio",
    "refused_share": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def repetitions(workload: str, seconds: int) -> int:
    return max(MIN_REPS[workload], math.ceil(seconds / NOMINAL_REP_S[workload]))


def run_rep(root: Path, work: Path, workload: str, input_seed: int, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh, hermetic process."""
    tag = f"{workload}-{input_seed}-{int(traced)}"
    cache = work / f"cache-{tag}"
    cache.mkdir(parents=True)
    out = work / f"{tag}.json"
    log = work / f"{tag}.log"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next repetition")
    with open(log, "wb") as sink:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "worker.py"),
                workload,
                str(input_seed),
                "1" if traced else "0",
                repr(spawned),
                str(out),
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=sink,
            stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: repetition exceeded the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not out.exists():
        tail = log.read_text(errors="replace")[-3000:]
        raise BenchError(f"{tag}: worker exited {code}\n{tail}")
    return json.loads(out.read_text())


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        raise BenchError(f"only {len(ordered)} latency samples; a tail needs 11")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(reps: list[dict]) -> tuple[dict, dict, dict]:
    """(BENCHMARK.json metrics, reported figures, notes) of untraced
    repetitions.

    Every figure is the median over repetitions: a repetition whose
    machine ran slow, or whose input left a long tail of running jobs
    after the last arrival, moves it little.  The simulated figures
    stay a pure function of the seed.
    """
    acks = [x for r in reps for x in r["ack_ms"]]
    reads = [x for r in reps for x in r["read_ms"]]
    tail, pct = tail_percentile(acks)
    attempted = sum(r["attempted"] for r in reps)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "jobs_per_s": statistics.median(r["jobs"] / r["timed_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_edp": statistics.median(r["sim_edp"] for r in reps),
    }
    reported = {
        "ack_p50_ms": statistics.median(acks),
        "ack_tail_ms": tail,
        "read_p50_ms": statistics.median(reads) if reads else None,
        "sim_wait_p95_s": statistics.median(r["wait_p95_s"] for r in reps),
        "sim_regret": (
            statistics.median(r["sim_regret"] for r in reps)
            if all("sim_regret" in r for r in reps)
            else None
        ),
        "failed_share": sum(r["failed"] for r in reps) / attempted,
        "refused_share": sum(r["refused"] for r in reps) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(reps)}",
        "jobs_per_s": f"median of {len(reps)}; {sum(r['jobs'] for r in reps)} jobs",
        "ack_p50_ms": f"{len(acks)} samples",
        "ack_tail_ms": f"p{pct:.2f} of {len(acks)} samples",
        "read_p50_ms": f"{len(reads)} samples",
        "failed_share": f"{sum(r['failed'] for r in reps)} of {attempted}",
    }
    return metrics, reported, notes


def transparency_errors(plain: dict, traced: dict) -> list[str]:
    """Differences between an untraced and a traced repetition."""
    errors = []
    for key in ("jobs", "sim_edp", "wait_p95_s", "sim_regret", "digest"):
        if plain.get(key) != traced.get(key):
            errors.append(f"tracing changed {key}: {plain.get(key)!r} -> {traced.get(key)!r}")
    return errors


def check_names(root: Path, trace: bool, metrics: dict) -> None:
    """The printed metric names must be exactly those BENCHMARK.json lists."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(listed) != sorted(metrics):
        raise BenchError(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(listed) ^ set(metrics))}"
        )


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> tuple[dict, list[str]]:
    """The result object and the readable lines for one workload."""
    work = HERE / ".work" / f"{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            plain = run_rep(root, work, workload, 1000 * seed, False, deadline)
            traced = run_rep(root, work, workload, 1000 * seed, True, deadline)
            reps = [plain, traced]
        else:
            reps = [
                run_rep(root, work, workload, 1000 * seed + i, False, deadline)
                for i in range(repetitions(workload, seconds))
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's work files are still there
            pass
    errors = [e for r in reps for e in r["errors"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    lines = [
        f"workload {workload}  seed {seed}  "
        + ("traced" if trace else f"{len(reps)} repetitions")
        + f"  input seeds {', '.join(str(r['input_seed']) for r in reps)}"
    ]
    if trace:
        transparency = transparency_errors(plain, traced)
        attempted += 1
        if transparency:
            failed += 1
            errors += transparency
        else:
            lines.append(
                f"  tracing kept {plain['jobs']} jobs, sim_edp {plain['sim_edp']:.6g}, "
                f"sim_wait_p95_s {plain['wait_p95_s']:.6g} and job digest {plain['digest'][:16]}"
            )
        units = per_layer_metric_units()
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["timed_s"] - plain["timed_s"]
        for name, unit in units.items():
            lines.append(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
        lines.append("  spans of the timed run, parent -> layer: calls, total s, self s")
        for edge in traced["edges"]:
            if edge["phase"] == "run":
                lines.append(
                    f"    {edge['parent'] or '(benchmark)'} -> {edge['layer']}: "
                    f"{edge['calls']}, {edge['total_s']:.6g}, {edge['self_s']:.6g}"
                )
    else:
        metrics, reported, notes = end_to_end(reps)
        units = {**END_TO_END, **REPORTED}
        for name, value in {**metrics, **reported}.items():
            text = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"  {name:<16} {text:>16} {units[name]:<7} {notes.get(name, '')}")
    for error in errors[:10]:
        lines.append(f"  FAILED: {error}")
    check_names(root, trace, metrics)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in (per_layer_metric_units() if trace else END_TO_END)
        },
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NOMINAL_REP_S, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its repetition (run_rep's finally).
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = list(NOMINAL_REP_S) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    ok = True
    for name in names:
        try:
            result, lines = run_workload(root, name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
