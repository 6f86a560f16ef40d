"""Measurement substrate: the paper's perf / dstat / Wattsup stack.

The paper instruments every run with three tools (§2.5): ``perf``
(multiplexed PMU counters), ``dstat`` (CPU/disk/memory utilisation at
1 s) and a Wattsup PRO wall-power meter (1 s).  This package simulates
all three.  ``perf`` and ``dstat`` sample a closed-form profiling run,
producing the 14-feature vectors that drive classification and
self-tuning; the Wattsup meter also samples a live
:class:`~repro.mapreduce.engine.NodeEngine`'s segment window.

Exports resolve lazily (PEP 562), so the engine, which imports
``repro.telemetry.tracing`` and ``repro.telemetry.counters``, does not
load the samplers with them.
"""

import importlib

_EXPORT_TO_SUBMODULE = {
    "PerfSampler": "perf",
    "PerfReport": "perf",
    "PMU_EVENTS": "perf",
    "DstatMonitor": "dstat",
    "DstatRow": "dstat",
    "WattsupMeter": "wattsup",
    "PowerTrace": "wattsup",
    "FEATURE_NAMES": "profiling",
    "profile_features": "profiling",
    "ServiceTelemetry": "counters",
    "MetricsRegistry": "registry",
    "cluster_registry": "registry",
    "service_registry": "registry",
    "Tracer": "tracing",
    "NullTracer": "tracing",
    "NULL_TRACER": "tracing",
    "validate_chrome_trace": "tracing",
}

__all__ = list(_EXPORT_TO_SUBMODULE)


def __getattr__(name):
    try:
        submodule = _EXPORT_TO_SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
