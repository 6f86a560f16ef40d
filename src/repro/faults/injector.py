"""Threads an :class:`InjectionPlan` through a cluster and recovers.

The injector owns the Hadoop-style failure-recovery semantics the
engine itself stays agnostic of:

* **Task re-execution** — a killed attempt (task failure or node
  crash) re-executes from scratch on a surviving node, preferring the
  node holding the most of the job's HDFS blocks (when an
  :class:`~repro.hdfs.filesystem.MiniHdfs` is attached), queueing
  until capacity frees otherwise.
* **Speculative execution** — a straggler triggers a duplicate attempt
  on another node; the first finisher wins and the loser is killed,
  its elapsed work counted as speculative waste.
* **Re-replication** — a crashed node's blocks are reported to the
  namenode, which re-replicates them across the survivors.
* **Blacklisting** — a node that crashes ``blacklist_after`` times is
  flapping: the injector stops placing recovery work on it and tells
  the ECoST controller (if attached) to stop scheduling onto it and to
  re-enter its learning period, since the surviving-node profile
  shifted.

Everything the injector does is driven by the plan plus the engine's
deterministic event order, so a fixed ``(workload, plan)`` pair yields
a bit-identical :attr:`FaultInjector.trace` on every run.  Installing
an injector with an empty plan leaves the run byte-identical to a
healthy one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import FaultEvent, InjectionPlan
from repro.mapreduce.engine import ClusterEngine, NodeEngine
from repro.mapreduce.job import JobSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.controller import ECoSTController
    from repro.hdfs.filesystem import MiniHdfs


class FaultInjector:
    """Replays a fault plan against a :class:`ClusterEngine`.

    Create the injector *after* any controller has installed its
    scheduler (the injector wraps ``cluster.scheduler``), then call
    :meth:`install` before ``cluster.run()``.
    """

    def __init__(
        self,
        cluster: ClusterEngine,
        plan: InjectionPlan,
        *,
        hdfs: "MiniHdfs | None" = None,
        job_files: dict[int, str] | None = None,
        controller: "ECoSTController | None" = None,
        speculative: bool = True,
        blacklist_after: int = 3,
    ) -> None:
        if blacklist_after < 1:
            raise ValueError("blacklist_after must be >= 1")
        self.cluster = cluster
        self.plan = plan
        self.hdfs = hdfs
        self.job_files = dict(job_files) if job_files else {}
        self.controller = controller
        self.speculative = speculative
        self.blacklist_after = blacklist_after
        self.telemetry = cluster.telemetry
        self.tracer = cluster.tracer
        self.trace: list[str] = []
        self.skipped = 0  # plan events that found nothing to break
        self.crash_counts: dict[int, int] = {}
        self.blacklisted: set[int] = set()
        #: job_id -> (node of original attempt, node of duplicate).
        self._dups: dict[int, tuple[int, int]] = {}
        #: job_ids in cluster.pending awaiting injector re-execution.
        self._retrying: set[int] = set()
        #: job_id -> fault time, for the recovery-episode trace span.
        self._retry_since: dict[int, float] = {}
        self._seen_results = 0
        self._inner_scheduler = None
        self._installed = False

    # ------------------------------------------------------------ set-up
    def install(self) -> "FaultInjector":
        """Schedule the plan's events and wrap the cluster scheduler."""
        if self._installed:
            raise RuntimeError("injector is already installed")
        self._installed = True
        self._inner_scheduler = self.cluster.scheduler
        self.cluster.scheduler = self._scheduler
        for ev in self.plan.events:
            self.cluster.call_at(
                ev.time, lambda _c, t, ev=ev: self._on_fault(ev, t)
            )
        return self

    # ------------------------------------------------------- scheduling
    def _scheduler(self, cluster: ClusterEngine, t: float) -> None:
        self._absorb_completions(t)
        self._drain_retries(t)
        self._inner_scheduler(cluster, t)

    def _log(self, t: float, text: str) -> None:
        self.trace.append(f"t={t:9.1f}s {text}")

    def _usable(self, exclude: int | None = None) -> list[NodeEngine]:
        return [
            n
            for n in self.cluster.nodes
            if n.alive
            and n.node_id not in self.blacklisted
            and n.node_id != exclude
        ]

    def _locality(self, spec: JobSpec, node_id: int) -> float:
        """Fraction of the job's input blocks local to ``node_id``."""
        if self.hdfs is None:
            return 0.0
        file_name = self.job_files.get(spec.job_id)
        if file_name is None:
            return 0.0
        blocks = [b.block_id for b in self.hdfs.splits_for(file_name)]
        return self.hdfs.namenode.locality_fraction(blocks, node_id)

    def _place_direct(self, spec: JobSpec, node_id: int) -> None:
        if spec not in self.cluster.pending:
            self.cluster.pending.append(spec)
        self.cluster.place(spec, node_id)

    def _retry_target(self, spec: JobSpec, exclude: int | None) -> int | None:
        """Surviving node for a re-execution: most-local first."""
        fitting = [n for n in self._usable(exclude) if n.can_fit(spec)]
        if not fitting:
            return None
        best = max(
            fitting,
            key=lambda n: (self._locality(spec, n.node_id), -n.node_id),
        )
        return best.node_id

    def _queue_retry(self, spec: JobSpec, t: float) -> None:
        self.telemetry.record_retry()
        self._retrying.add(spec.job_id)
        self._retry_since.setdefault(spec.job_id, t)
        if spec not in self.cluster.pending:
            self.cluster.pending.append(spec)
        self._drain_retries(t)

    def _drain_retries(self, t: float) -> None:
        if not self._retrying:
            return
        for spec in [
            s for s in self.cluster.pending if s.job_id in self._retrying
        ]:
            target = self._retry_target(spec, exclude=None)
            if target is None:
                continue
            self._retrying.discard(spec.job_id)
            self._place_direct(spec, target)
            self._log(
                t,
                f"node{target}: re-executes {spec.label} "
                f"(locality {self._locality(spec, target):.0%})",
            )
            if self.tracer.enabled:
                since = self._retry_since.pop(spec.job_id, t)
                self.tracer.span(
                    f"recovery {spec.label}",
                    "recovery",
                    since,
                    t,
                    tid=spec.job_id,
                    args={
                        "job": spec.label,
                        "target_node": target,
                        "locality": self._locality(spec, target),
                    },
                )
            else:
                self._retry_since.pop(spec.job_id, None)

    def _absorb_completions(self, t: float) -> None:
        """First-finisher-wins: kill the losing speculative attempt."""
        results = self.cluster.results
        new = results[self._seen_results:]
        self._seen_results = len(results)
        for res in new:
            jid = res.spec.job_id
            self._retrying.discard(jid)
            self._retry_since.pop(jid, None)
            pair = self._dups.pop(jid, None)
            if pair is None:
                continue
            other = pair[0] if res.node_id == pair[1] else pair[1]
            engine = self.cluster.nodes[other]
            if any(r.spec.job_id == jid for r in engine.running):
                engine.advance_to(t)
                _spec, elapsed = engine.evict(jid)
                self.cluster._arm(engine)
                self.telemetry.record_speculative(wasted=True)
                self._log(
                    t,
                    f"node{res.node_id}: {res.spec.label} finishes first; "
                    f"cancel duplicate on node{other} ({elapsed:.1f}s wasted)",
                )
                if self.tracer.enabled:
                    self.tracer.instant(
                        "speculative waste",
                        "fault",
                        t,
                        tid=jid,
                        args={
                            "job": res.spec.label,
                            "loser_node": other,
                            "wasted_s": elapsed,
                        },
                    )

    # ------------------------------------------------------ fault events
    def _on_fault(self, ev: FaultEvent, t: float) -> None:
        if ev.kind == "task_fail":
            self._task_fail(ev, t)
        elif ev.kind == "node_crash":
            self._node_crash(ev, t)
        elif ev.kind == "node_recover":
            self._node_recover(ev, t)
        elif ev.kind == "straggler":
            self._straggler(ev, t)
        else:  # pragma: no cover - plan validates kinds
            raise RuntimeError(f"unknown fault kind {ev.kind!r}")

    def _victim(self, engine: NodeEngine, pick: float):
        idx = min(int(pick * len(engine.running)), len(engine.running) - 1)
        return engine.running[idx]

    def _task_fail(self, ev: FaultEvent, t: float) -> None:
        engine = self.cluster.nodes[ev.node_id]
        if not engine.alive or not engine.running:
            self.skipped += 1
            self._log(t, f"node{ev.node_id}: task failure finds no attempt")
            return
        engine.advance_to(t)
        victim = self._victim(engine, ev.pick)
        jid = victim.spec.job_id
        spec, elapsed = engine.evict(jid)
        self.cluster._arm(engine)
        self.telemetry.record_fault("task_fail")
        self._log(
            t,
            f"node{ev.node_id}: task failure kills {spec.label} "
            f"({elapsed:.1f}s lost)",
        )
        if self._drop_duplicate(jid, ev.node_id, t):
            return
        self._queue_retry(spec, t)
        self.cluster.scheduler(self.cluster, t)

    def _drop_duplicate(self, jid: int, dead_node: int, t: float) -> bool:
        """If the killed attempt was one of a speculative pair, keep the
        surviving attempt as the sole one.  Returns True when a live
        partner exists (no re-execution needed)."""
        pair = self._dups.pop(jid, None)
        if pair is None:
            return False
        other = pair[0] if dead_node == pair[1] else pair[1]
        engine = self.cluster.nodes[other]
        alive = engine.alive and any(
            r.spec.job_id == jid for r in engine.running
        )
        if alive:
            self._log(
                t, f"node{other}: surviving attempt of job{jid} carries on"
            )
        return alive

    def _node_crash(self, ev: FaultEvent, t: float) -> None:
        engine = self.cluster.nodes[ev.node_id]
        if not engine.alive:
            self.skipped += 1
            self._log(t, f"node{ev.node_id}: crash hits a node already down")
            return
        if len(self.cluster.alive_nodes) <= 1:
            self.skipped += 1
            self._log(t, f"node{ev.node_id}: crash skipped (last alive node)")
            return
        engine.advance_to(t)
        lost = engine.crash()
        self.telemetry.record_fault("node_crash")
        self.crash_counts[ev.node_id] = self.crash_counts.get(ev.node_id, 0) + 1
        self._log(
            t,
            f"node{ev.node_id}: crash #{self.crash_counts[ev.node_id]} "
            f"kills {len(lost)} attempt(s)",
        )
        if self.hdfs is not None and ev.node_id < self.hdfs.n_nodes:
            rere, lost_blocks = self.hdfs.namenode.handle_node_failure(
                ev.node_id
            )
            self.telemetry.record_rereplication(rere, lost_blocks)
            self._log(
                t,
                f"namenode: re-replicated {rere} block(s) from "
                f"node{ev.node_id}, {lost_blocks} lost",
            )
            if self.tracer.enabled:
                self.tracer.instant(
                    "re-replication",
                    "fault",
                    t,
                    args={
                        "node": ev.node_id,
                        "blocks": rere,
                        "lost": lost_blocks,
                    },
                )
        for spec, _elapsed in lost:
            if self._drop_duplicate(spec.job_id, ev.node_id, t):
                continue
            self._queue_retry(spec, t)
        self._maybe_blacklist(ev.node_id, t)
        if self.controller is not None:
            self.controller.on_cluster_change(
                t, [n.node_id for n in self.cluster.alive_nodes]
            )
        self.cluster.scheduler(self.cluster, t)

    def _maybe_blacklist(self, node_id: int, t: float) -> None:
        if node_id in self.blacklisted:
            return
        if self.crash_counts.get(node_id, 0) < self.blacklist_after:
            return
        # Never blacklist the last schedulable node.
        if len(self.blacklisted) + 1 >= len(self.cluster.nodes):
            return
        self.blacklisted.add(node_id)
        self.telemetry.record_blacklist()
        self._log(
            t,
            f"node{node_id}: blacklisted after "
            f"{self.crash_counts[node_id]} crashes (flapping)",
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "blacklist (flapping)",
                "fault",
                t,
                args={"node": node_id, "crashes": self.crash_counts[node_id]},
            )
        if self.controller is not None:
            self.controller.on_node_blacklisted(node_id, t)

    def _node_recover(self, ev: FaultEvent, t: float) -> None:
        engine = self.cluster.nodes[ev.node_id]
        if engine.alive:
            self.skipped += 1
            self._log(t, f"node{ev.node_id}: recovery finds the node up")
            return
        engine.advance_to(t)
        engine.restore()
        self.telemetry.record_fault("node_recover")
        self._log(t, f"node{ev.node_id}: recovered (rejoins empty)")
        if self.hdfs is not None and ev.node_id < self.hdfs.n_nodes:
            self.hdfs.namenode.mark_alive(ev.node_id)
        if self.controller is not None:
            self.controller.on_cluster_change(
                t, [n.node_id for n in self.cluster.alive_nodes]
            )
        self.cluster.scheduler(self.cluster, t)

    def _straggler(self, ev: FaultEvent, t: float) -> None:
        engine = self.cluster.nodes[ev.node_id]
        if not engine.alive or not engine.running:
            self.skipped += 1
            self._log(t, f"node{ev.node_id}: straggler finds no attempt")
            return
        engine.advance_to(t)
        victim = self._victim(engine, ev.pick)
        jid = victim.spec.job_id
        engine.apply_slowdown(jid, ev.severity)
        self.cluster._arm(engine)
        self.telemetry.record_fault("straggler")
        self._log(
            t,
            f"node{ev.node_id}: {victim.spec.label} straggles "
            f"({ev.severity:.2f}x slowdown)",
        )
        if not self.speculative or jid in self._dups:
            return
        fitting = [
            n
            for n in self._usable(exclude=ev.node_id)
            if n.can_fit(victim.spec)
        ]
        if not fitting:
            return
        target = max(fitting, key=lambda n: (n.free_cores, -n.node_id))
        self._place_direct(victim.spec, target.node_id)
        self._dups[jid] = (ev.node_id, target.node_id)
        self.telemetry.record_speculative()
        self._log(
            t,
            f"node{target.node_id}: speculative duplicate of "
            f"{victim.spec.label} launched",
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "speculative launch",
                "fault",
                t,
                tid=jid,
                args={
                    "job": victim.spec.label,
                    "straggler_node": ev.node_id,
                    "duplicate_node": target.node_id,
                },
            )
