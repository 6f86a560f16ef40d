"""One snapshot/delta API over every counter family in the repository.

The counter families of :mod:`repro.telemetry.counters` (engine,
service, online) and the artifact-cache
:class:`~repro.experiments.artifacts.CacheStats` sit behind one
:class:`MetricsRegistry`: sources register under a namespace,
:meth:`snapshot` returns one nested ``{namespace: {metric: number}}``
dict, :meth:`delta` diffs two snapshots (what did *this* run cost?),
and :meth:`to_json` writes the flat file ``tools/bench.py`` embeds in
its benchmark payloads.

A *source* is either a zero-argument callable returning a mapping of
numbers, or an object exposing ``as_dict()`` (which the counter
families in :mod:`repro.telemetry.counters` provide).  Sources are
re-polled on every snapshot, so registering live telemetry objects is
the intended use — the registry itself stores no counters.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Callable, Mapping

#: One polled source: () -> {metric: number}.
MetricsSource = Callable[[], Mapping[str, float]]

Snapshot = dict[str, dict[str, float]]


def _coerce(source: Any) -> MetricsSource:
    if callable(source):
        return source
    as_dict = getattr(source, "as_dict", None)
    if callable(as_dict):
        return as_dict
    raise TypeError(
        "metrics source must be callable or expose as_dict(); got "
        f"{type(source).__name__}"
    )


class MetricsRegistry:
    """Named numeric sources behind one snapshot/delta/export API."""

    def __init__(self) -> None:
        self._sources: dict[str, MetricsSource] = {}

    def register(self, namespace: str, source: Any) -> "MetricsRegistry":
        """Register a source under ``namespace`` (returns self).

        Re-registering a namespace replaces its source — a fresh run's
        telemetry object supersedes the old one.
        """
        if not namespace or "." in namespace:
            raise ValueError(
                f"namespace must be non-empty and dot-free, got {namespace!r}"
            )
        self._sources[namespace] = _coerce(source)
        return self

    @property
    def namespaces(self) -> list[str]:
        return sorted(self._sources)

    # -------------------------------------------------------- snapshots
    def snapshot(self) -> Snapshot:
        """Poll every source: ``{namespace: {metric: number}}``.

        Non-numeric values are dropped (a source may expose derived
        ``None`` rates before any activity).
        """
        out: Snapshot = {}
        for ns in sorted(self._sources):
            raw = self._sources[ns]()
            out[ns] = {
                k: v
                for k, v in raw.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
        return out

    @staticmethod
    def delta(before: Snapshot, after: Snapshot) -> Snapshot:
        """Per-metric ``after - before`` (metrics new in ``after`` pass
        through; metrics that vanished are ignored)."""
        out: Snapshot = {}
        for ns, metrics in after.items():
            base = before.get(ns, {})
            out[ns] = {k: v - base.get(k, 0.0) for k, v in metrics.items()}
        return out

    @staticmethod
    def flatten(snapshot: Snapshot) -> dict[str, float]:
        """``{"namespace.metric": value}`` — the flat exporter shape."""
        return {
            f"{ns}.{k}": v
            for ns, metrics in sorted(snapshot.items())
            for k, v in sorted(metrics.items())
        }

    # ---------------------------------------------------------- export
    def to_json(self, path: str | Path | None = None) -> dict[str, float]:
        """Flat metrics JSON; written to ``path`` when given."""
        flat = self.flatten(self.snapshot())
        if path is not None:
            Path(path).write_text(json.dumps(flat, indent=2, sort_keys=True) + "\n")
        return flat

    def render(self) -> str:
        """Human-readable metric listing grouped by namespace."""
        snap = self.snapshot()
        lines = []
        for ns in sorted(snap):
            lines.append(f"{ns}:")
            for k in sorted(snap[ns]):
                v = snap[ns][k]
                shown = f"{v:.6g}" if isinstance(v, float) else str(v)
                lines.append(f"  {k} = {shown}")
        return "\n".join(lines)


def cluster_registry(cluster, *, cache: bool = True) -> MetricsRegistry:
    """A registry pre-wired for one cluster run.

    Registers the cluster's :class:`EngineTelemetry` under ``engine``
    (which carries the fault counters too) and, when ``cache`` is true,
    the process-wide artifact-cache stats under ``artifact_cache``.
    """
    registry = MetricsRegistry()
    registry.register("engine", cluster.telemetry)
    if cache:
        from repro.experiments.artifacts import cache_stats

        registry.register(
            "artifact_cache", lambda: dataclasses.asdict(cache_stats())
        )
    return registry


def service_registry(service, *, cache: bool = False) -> MetricsRegistry:
    """A registry pre-wired for one streaming service.

    The service's :class:`~repro.telemetry.counters.ServiceTelemetry`
    lands under ``service``, its engine's counters under ``engine``,
    and per-tenant accounting under ``tenants`` (flattened to
    ``<tenant>_<metric>`` numbers — nested dicts are dropped by
    :meth:`MetricsRegistry.snapshot`).  This is what the service's
    ``/metrics`` endpoint serves.
    """

    def tenant_metrics() -> dict[str, float]:
        out: dict[str, float] = {}
        for name, stats in service.tenants.as_dict().items():
            for key, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out[f"{name}_{key}"] = value
        return out

    registry = cluster_registry(service.cluster, cache=cache)
    registry.register("service", service.telemetry)
    registry.register("tenants", tenant_metrics)
    attach_online(registry, getattr(service, "controller", None))
    return registry


def attach_online(registry: MetricsRegistry, controller) -> MetricsRegistry:
    """Register the ``online`` namespace when the controller's STP
    carries online-tuning telemetry (``repro.online``); no-op — and no
    namespace — otherwise, so offline snapshots keep their shape.
    """
    telemetry = getattr(getattr(controller, "stp", None), "telemetry", None)
    if telemetry is not None and callable(getattr(telemetry, "as_dict", None)):
        registry.register("online", telemetry)
    return registry
