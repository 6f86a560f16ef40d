"""Deterministic merge primitives for sharded runs.

Every sharded driver in :mod:`repro.shard.runner` returns per-shard
artifacts in *shard order* (the order the work was partitioned in,
independent of which worker process ran what, courtesy of
:class:`repro.parallel.executor.SweepExecutor`'s ordered map).  These
helpers fold those artifacts into single objects by walking shards
left to right, so the merged result is a pure function of the inputs —
bit-identical across ``REPRO_WORKERS`` settings and to the serial run.
"""

from __future__ import annotations

from repro.telemetry.registry import Snapshot


def merge_registry_snapshots(snapshots: list[Snapshot]) -> Snapshot:
    """Sum numeric leaves across per-shard registry snapshots.

    Counters are added namespace by namespace in shard order (fixed
    float-addition order → deterministic bytes).  Metrics missing from
    a shard contribute nothing; namespaces union.
    """
    out: Snapshot = {}
    for snap in snapshots:
        for ns, metrics in snap.items():
            dst = out.setdefault(ns, {})
            for k, v in metrics.items():
                dst[k] = dst.get(k, 0) + v
    return {ns: dict(sorted(m.items())) for ns, m in sorted(out.items())}


def merge_chrome_traces(payloads: list[dict]) -> dict:
    """Concatenate per-shard Chrome trace payloads into one timeline.

    Shard ``i``'s events keep their relative order and move to a
    disjoint pid range (``pid + i * stride``) so per-shard process rows
    never collide; the stride is derived from the largest pid seen,
    making the merge a pure function of the inputs.
    """
    stride = 1
    for payload in payloads:
        for ev in payload.get("traceEvents", ()):
            pid = ev.get("pid")
            if isinstance(pid, int) and pid + 1 > stride:
                stride = pid + 1
    events: list[dict] = []
    for i, payload in enumerate(payloads):
        for ev in payload.get("traceEvents", ()):
            ev = dict(ev)
            pid = ev.get("pid")
            if isinstance(pid, int):
                ev["pid"] = pid + i * stride
            events.append(ev)
    out = {"traceEvents": events}
    for payload in payloads:
        unit = payload.get("displayTimeUnit")
        if unit is not None:
            out["displayTimeUnit"] = unit
            break
    return out
