"""Layer spans for the traced benchmark run, installed from outside.

The traced run replaces each layer's public callables with timing
wrappers at the name its callers look up (a class attribute, or a
module global such as the kernel functions bound on
``repro.mapreduce.engine``), so nothing under ``src/`` changes.  Every
call records a span with its parent layer; spans are aggregated in
memory per ``(phase, parent, layer)`` edge.  A layer's self time is its
span time minus the time its child spans cover.

One span stack serves both the client thread and the HTTP server
thread: clients are closed-loop, so while the server thread works the
client is blocked inside its own ``service.server`` span, and the
server's spans nest under it in time order.

Boundaries left unwrapped because the wrapper would cost more than the
call it measures (their time lands in the caller's layer):
``EventQueue.peek_time``, ``PendingQueue.__getitem__``/``__len__``/
``__contains__``/``__iter__``, ``FreeCoreIndex.get`` and
``NodeEngine.free_cores``/``can_fit``/``used_cores``.
"""

from __future__ import annotations

import functools
import importlib
import time

_now = time.perf_counter

#: layer -> (boundary timed, [(module, owner or None, attribute), ...]).
#: ``owner`` names a class in ``module``; None means a module global.
LAYERS: dict[str, tuple[str, list[tuple[str, str | None, str]]]] = {
    "service.server": (
        "client round trip minus time inside ClusterService",
        [],  # spans opened by the benchmark's HTTP client
    ),
    "service.requests": (
        "parse_request, JobRequest.build_spec",
        [
            ("repro.service.core", None, "parse_request"),
            ("repro.service.requests", "JobRequest", "build_spec"),
        ],
    ),
    "service.admission": (
        "AdmissionController.decide",
        [("repro.service.admission", "AdmissionController", "decide")],
    ),
    "service.tenants": (
        "TenantRegistry and tenant accounting",
        [
            ("repro.service.tenants", "TenantRegistry", "get"),
            ("repro.service.tenants", "TenantRegistry", "total_inflight"),
            ("repro.service.tenants", "TenantState", "on_accept"),
            ("repro.service.tenants", "TenantState", "on_reject"),
            ("repro.service.tenants", "TenantState", "on_complete"),
        ],
    ),
    "service.core": (
        "ClusterService.submit_request, drain (self)",
        [
            ("repro.service.core", "ClusterService", "submit_request"),
            ("repro.service.core", "ClusterService", "drain"),
        ],
    ),
    "telemetry.registry": (
        "ClusterService.metrics_snapshot",
        [("repro.service.core", "ClusterService", "metrics_snapshot")],
    ),
    "core.controller": (
        "the installed ECoST scheduler (self)",
        [("repro.core.controller", "ECoSTController", "_schedule")],
    ),
    "analysis.classify": (
        "classifier classify, profile_features",
        [
            ("repro.analysis.classify", "NearestCentroidClassifier", "classify"),
            ("repro.core.controller", None, "profile_features"),
        ],
    ),
    "core.pairing": (
        "PairingPolicy.choose_partner",
        [("repro.core.pairing", "PairingPolicy", "choose_partner")],
    ),
    "core.stp": (
        "predict_configs minus the model call",
        [("repro.core.stp", "MLMSTP", "predict_configs")],
    ),
    "ml.predict": (
        "regressor predict",
        [("repro.ml.reptree", "REPTree", "predict")],
    ),
    "ml.fit": (
        "regressor fit, in the run and in setup",
        [("repro.ml.reptree", "REPTree", "fit")],
    ),
    "online": (
        "OnlineSTP, ShadowSTP, PairScorer public methods (self)",
        [
            ("repro.online.stp", "OnlineSTP", name)
            for name in (
                "predict_configs",
                "note_pairing",
                "observe_pair",
                "on_complete",
                "partial_fit",
                "refit",
            )
        ]
        + [
            ("repro.online.shadow", "ShadowSTP", name)
            for name in ("predict_configs", "refit", "note_pairing", "on_complete")
        ]
        + [
            ("repro.online.shadow", "PairScorer", "optimum"),
            ("repro.online.shadow", "PairScorer", "score"),
        ],
    ),
    "model.sweep": (
        "sweep_pair, sweep_solo",
        [
            ("repro.parallel.executor", None, "sweep_pair"),
            ("repro.parallel.executor", None, "sweep_solo"),
            ("repro.online.stp", None, "sweep_pair"),
            ("repro.online.shadow", None, "sweep_pair"),
        ],
    ),
    "faults": (
        "FaultInjector callbacks, NodeEngine.crash/restore",
        [
            ("repro.faults.injector", "FaultInjector", "_scheduler"),
            ("repro.faults.injector", "FaultInjector", "_on_fault"),
            ("repro.mapreduce.engine", "NodeEngine", "crash"),
            ("repro.mapreduce.engine", "NodeEngine", "restore"),
        ],
    ),
    "engine.cluster": (
        "ClusterEngine incremental API and place (self: the event loop)",
        [
            ("repro.mapreduce.engine", "ClusterEngine", name)
            for name in (
                "inject_arrival",
                "advance_until",
                "wake_now",
                "drain_events",
                "run",
                "place",
            )
        ],
    ),
    "engine.events": (
        "EventQueue.schedule/pop",
        [
            ("repro.mapreduce.events", "EventQueue", "schedule"),
            ("repro.mapreduce.events", "EventQueue", "pop"),
        ],
    ),
    "engine.node": (
        "NodeEngine.advance_to/submit/next_completion (self)",
        [
            ("repro.mapreduce.engine", "NodeEngine", "advance_to"),
            ("repro.mapreduce.engine", "NodeEngine", "submit"),
            ("repro.mapreduce.engine", "NodeEngine", "next_completion"),
        ],
    ),
    "engine.cache": (
        "RecontextCache.get/put",
        [
            ("repro.mapreduce.engine", "RecontextCache", "get"),
            ("repro.mapreduce.engine", "RecontextCache", "put"),
        ],
    ),
    "engine.kernel": (
        "the scalar kernel functions as the engine calls them",
        [
            ("repro.mapreduce.engine", None, "standalone_metrics_scalar"),
            ("repro.mapreduce.engine", None, "colocation_context_scalar"),
        ],
    ),
    "engine.placement": (
        "FreeCoreIndex, PendingQueue, fifo_first_fit",
        [
            ("repro.mapreduce.indexes", "FreeCoreIndex", "set"),
            ("repro.mapreduce.indexes", "FreeCoreIndex", "first_at_least"),
            ("repro.mapreduce.indexes", "PendingQueue", "append"),
            ("repro.mapreduce.indexes", "PendingQueue", "remove"),
            ("repro.mapreduce.engine", None, "fifo_first_fit"),
        ],
    ),
    "engine.recorder": (
        "the interval recorder's record",
        [
            ("repro.mapreduce.engine", cls, "record")
            for cls in (
                "FullIntervalRecorder",
                "ColumnarIntervalRecorder",
                "NullIntervalRecorder",
                "StreamingIntervalRecorder",
            )
        ],
    ),
}

#: Extra per-layer figures: layer -> {extra name: unit}.
EXTRAS: dict[str, dict[str, str]] = {
    "service.server": {"requests": "count"},
    "service.requests": {"malformed": "count"},
    "service.admission": {"refused": "count"},
    "service.core": {"advances": "count"},
    "core.controller": {"placements": "count", "peak_queue": "count"},
    "analysis.classify": {"profiles": "count"},
    "ml.predict": {"rows": "count"},
    "ml.fit": {"rows": "count", "setup_s": "s"},
    "online": {
        "updates": "count",
        "refits": "count",
        "relearn_sweeps": "count",
        "tuned_hit_share": "ratio",
        "drift_alarms": "count",
    },
    "model.sweep": {"points": "count", "setup_s": "s"},
    "faults": {"injected": "count"},
    "engine.events": {"events": "count", "stale_share": "ratio"},
    "engine.cache": {"lookups": "count", "hit_rate": "ratio"},
    "engine.kernel": {"evals": "count"},
    "engine.placement": {"placements": "count", "peak_pending": "count"},
    "engine.recorder": {"segments": "count", "dropped": "count"},
}

#: Whole-run trace figures beside the layers.
TRACE_METRICS: dict[str, str] = {
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    out: dict[str, str] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.calls"] = "count"
        for extra, unit in EXTRAS.get(layer, {}).items():
            out[f"{layer}.{extra}"] = unit
    out.update(TRACE_METRICS)
    return out


class Tracer:
    """Span stack plus per-(phase, parent, layer) aggregates."""

    def __init__(self) -> None:
        self.phase = "setup"
        self._stack: list[list] = []  # [layer, start, child seconds]
        #: (phase, parent layer or "", layer) -> [calls, total s, self s]
        self.edges: dict[tuple[str, str, str], list] = {}
        #: (phase, name) -> count taken at a boundary (rows, points, ...).
        self.counts: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------ spans
    def enter(self, layer: str) -> None:
        self._stack.append([layer, _now(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        dur = _now() - start
        stack = self._stack
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][2] += dur
        key = (self.phase, parent, layer)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, dur, dur - child]
        else:
            edge[0] += 1
            edge[1] += dur
            edge[2] += dur - child

    def count(self, name: str, n: float = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, name: str, value: float) -> None:
        key = (self.phase, name)
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed as a span of ``layer``; ``after(args, result)``
        runs once the call returned, inside the span."""
        enter, exit_ = self.enter, self.exit

        if after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(layer)
                try:
                    result = fn(*args, **kwargs)
                    after(args, result)
                    return result
                finally:
                    exit_()

        return wrapper

    # ------------------------------------------------------- aggregates
    def layer_totals(self, phase: str) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds) within one phase."""
        out: dict[str, list] = {}
        for (ph, _parent, layer), (calls, _total, self_s) in self.edges.items():
            if ph != phase:
                continue
            acc = out.setdefault(layer, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def edge_table(self) -> list[dict]:
        return [
            {
                "phase": ph,
                "parent": parent,
                "layer": layer,
                "calls": calls,
                "total_s": total,
                "self_s": self_s,
            }
            for (ph, parent, layer), (calls, total, self_s) in sorted(
                self.edges.items()
            )
        ]


def _after_hooks(tracer: Tracer) -> dict[tuple[str, str | None, str], object]:
    """Boundary counters taken inside the wrappers."""

    def rows(name):
        return lambda args, _result: tracer.count(name, len(args[1]))

    def sweep_points(_args, result):
        grid = getattr(result, "freq_a", None)
        tracer.count("model.sweep.points", len(grid if grid is not None else result.freq))

    def controller_exit(args, _result):
        tracer.peak("core.controller.peak_queue", len(args[0].queue))

    def fifo_exit(args, _result):
        tracer.peak("engine.placement.peak_pending", len(args[0].pending))

    def counter(name):
        return lambda _args, _result: tracer.count(name)

    hooks = {
        ("repro.ml.reptree", "REPTree", "predict"): rows("ml.predict.rows"),
        ("repro.ml.reptree", "REPTree", "fit"): rows("ml.fit.rows"),
        ("repro.core.controller", "ECoSTController", "_schedule"): controller_exit,
        ("repro.core.controller", None, "profile_features"): counter(
            "analysis.classify.profiles"
        ),
        ("repro.mapreduce.engine", None, "fifo_first_fit"): fifo_exit,
        ("repro.mapreduce.engine", "ClusterEngine", "place"): counter(
            "engine.placement.placements"
        ),
        ("repro.mapreduce.engine", "RecontextCache", "get"): counter(
            "engine.cache.lookups"
        ),
        ("repro.online.stp", "OnlineSTP", "predict_configs"): counter(
            "online.predicts"
        ),
    }
    for target in LAYERS["model.sweep"][1]:
        hooks[target] = sweep_points
    return hooks


def install(tracer: Tracer) -> None:
    """Replace every layer boundary with a timing wrapper.

    Must run before the workload builds engines or controllers: a
    ``ClusterEngine`` binds ``fifo_first_fit`` and a controller binds
    its scheduler when constructed.
    """
    hooks = _after_hooks(tracer)
    for layer, (_doc, targets) in LAYERS.items():
        for target in targets:
            module_name, owner_name, attr = target
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            raw = owner.__dict__[attr] if owner_name else getattr(module, attr)
            after = hooks.get(target)
            if isinstance(raw, property):
                wrapped = property(tracer.wrap(layer, raw.fget, after))
            else:
                wrapped = tracer.wrap(layer, raw, after)
            setattr(owner, attr, wrapped)
