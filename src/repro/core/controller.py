"""The online ECoST controller (Fig. 4), wired into the cluster engine.

Drives a :class:`~repro.mapreduce.engine.ClusterEngine` as its
scheduler: incoming applications are profiled for a learning period
and classified, wait in the FIFO wait queue, are paired onto nodes by
the class-priority decision tree, and receive self-tuned
configurations from an STP backend.  Two applications share each node
in steady state; when one finishes, the freed slot is refilled from
the queue (§5: "several other applications are waiting in the wait
queue to be paired as soon as any one of the two applications
finishes").
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

from repro.analysis.classify import AppClassifier
from repro.analysis.features import PROFILING_CONFIG
from repro.core.pairing import PairingPolicy
from repro.core.stp import AppDescriptor, LRUMemo, SelfTuningPredictor
from repro.core.wait_queue import QueuedApp, WaitQueue
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.mapreduce.engine import ClusterEngine, NodeEngine
from repro.mapreduce.job import JobResult, JobSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.costmodel import standalone_metrics_scalar
from repro.telemetry.profiling import profile_features
from repro.workloads.base import AppInstance


class ECoSTController:
    """Classify → queue → pair → self-tune → place."""

    def __init__(
        self,
        cluster: ClusterEngine,
        stp: SelfTuningPredictor,
        classifier: AppClassifier,
        *,
        pairing: PairingPolicy | None = None,
        node: NodeSpec = ATOM_C2758,
        constants: SimConstants = DEFAULT_CONSTANTS,
    ) -> None:
        self.cluster = cluster
        self.stp = stp
        self.classifier = classifier
        self.pairing = pairing or PairingPolicy()
        self.node = node
        self.constants = constants
        self.queue = WaitQueue()
        #: Submitted applications not yet queued, as a
        #: ``(time, submission seq, instance)`` heap.
        self._arrivals: list[tuple[float, int, AppInstance]] = []
        self._arrival_seq = itertools.count()
        # Per-application memos, each LRU-capped like MLM-STP's (a
        # tenant may send any input size).  Profiling is deterministic
        # (seed 0), so an eviction only costs a re-profile.
        #: Each profiled application's STP descriptor: its
        #: learning-period features and class.
        self._descriptor_memo = LRUMemo()
        #: Per-(node spec, application) solo-EDP scores used to rank
        #: empty nodes on heterogeneous rosters.
        self._class_edp_memo = LRUMemo()
        self.decisions: list[str] = []  # human-readable scheduling log
        #: Nodes the fault layer reported as flapping — never scheduled.
        self.blacklisted: set[int] = set()
        #: How many times the learning period was re-entered after the
        #: surviving-node profile shifted (crash/recovery).
        self.relearn_count = 0
        #: Shared with the cluster: controller decisions land on pid 0.
        self.tracer = cluster.tracer
        #: Online self-tuning seam: predictors that expose completion
        #: hooks (``repro.online``) receive every pairing decision and
        #: job completion.  Plain STP backends leave this None and the
        #: scheduling path is byte-identical to the offline controller.
        self._online = stp if callable(getattr(stp, "on_complete", None)) else None
        self._observed_results = 0
        cluster.scheduler = self._schedule

    # ------------------------------------------------------------ intake
    def submit(
        self,
        instance: AppInstance,
        arrival_time: float = 0.0,
        *,
        notify: bool = True,
    ) -> None:
        """Register an incoming application.

        ``notify=False`` skips scheduling the wake-up event: streaming
        front ends (``repro.service``) that invoke the scheduler
        themselves via :meth:`ClusterEngine.wake_now` use it to keep
        the event order identical to a batch run's.
        """
        if not arrival_time >= 0:  # also refuses NaN, which no heap orders
            raise ValueError(f"arrival_time must be >= 0, got {arrival_time!r}")
        heapq.heappush(
            self._arrivals, (arrival_time, next(self._arrival_seq), instance)
        )
        if notify:
            self.cluster.notify_at(arrival_time)

    def _describe(self, instance: AppInstance) -> AppDescriptor:
        """Step 1: learning-period profiling + classification."""
        feats = profile_features(
            instance, PROFILING_CONFIG,
            node=self.node, constants=self.constants, seed=0,
        )
        return AppDescriptor(
            features=feats,
            app_class=self.classifier.classify(feats),
            data_bytes=instance.data_bytes,
        )

    def _descriptor(self, instance: AppInstance) -> AppDescriptor:
        """The application's descriptor, profiled once per application.

        ``profile_features`` is deterministic for a given
        ``(instance, config, seed)``, and the scheduler re-derives a
        running job's descriptor on every partner-fill round — without
        the memo a steady-state stream re-profiles the same
        application hundreds of times.  Every later decision reuses
        the descriptor, reduced vector and all.
        """
        desc = self._descriptor_memo.get(instance)
        if desc is None:
            desc = self._describe(instance)
            self._descriptor_memo.put(instance, desc)
        return desc

    def _classify(self, instance: AppInstance) -> QueuedApp:
        """Queue an arrival with its descriptor."""
        newly_profiled = instance not in self._descriptor_memo
        desc = self._descriptor(instance)
        if self.tracer.enabled:
            self.tracer.instant(
                "classify",
                "controller",
                self.cluster.now,
                args={
                    "app": instance.label,
                    "class": desc.app_class.value,
                    "learning_period": newly_profiled,
                },
            )
        return QueuedApp(
            instance=instance,
            app_class=desc.app_class,
            arrival_time=self.cluster.now,
            descriptor=desc,
        )

    def _running_descriptor(self, engine: NodeEngine) -> AppDescriptor | None:
        """Descriptor of the node's single running job.

        Returns None when the running list is empty — the fault layer
        can kill or blacklist a node's job between the schedulability
        check and the descriptor build, and that candidate must be
        skipped rather than crash the scheduler.
        """
        if not engine.running:
            return None
        return self._descriptor(engine.running[0].spec.instance)

    # ------------------------------------------------------- degradation
    def _schedulable(self, engine: NodeEngine) -> bool:
        return engine.alive and engine.node_id not in self.blacklisted

    def on_node_blacklisted(self, node_id: int, t: float) -> None:
        """The fault layer declared a node flapping: stop using it."""
        self.blacklisted.add(node_id)
        self.decisions.append(
            f"t={t:8.1f}s node{node_id}: blacklisted (flapping)"
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "blacklist", "controller", t, args={"node": node_id}
            )

    def on_cluster_change(self, t: float, alive_node_ids: Sequence[int]) -> None:
        """The surviving-node profile shifted (crash or recovery).

        The learning-period features were measured against the old
        cluster shape, so the controller re-enters the learning period:
        the memoized descriptors are dropped, and running and future
        applications are re-profiled before their next pairing
        decision.  A queued application keeps the descriptor it was
        queued with.
        When the STP backend can relearn (``repro.online``), its model
        state is refit too — the log below used to claim a relearn
        while the model silently stayed stale.
        """
        self._descriptor_memo.clear()
        self.relearn_count += 1
        refit = getattr(self.stp, "refit", None)
        refitted = callable(refit) and bool(refit(t=t, reason="cluster-change"))
        self.decisions.append(
            f"t={t:8.1f}s cluster: {len(alive_node_ids)} node(s) live; "
            f"re-entering learning period"
            + (" (STP refit)" if refitted else "")
        )
        if self.tracer.enabled:
            args = {"alive_nodes": len(alive_node_ids)}
            if refitted:
                args["stp_refit"] = True
            self.tracer.instant("relearn", "controller", t, args=args)

    # --------------------------------------------------------- scheduling
    def _class_edp(self, spec: NodeSpec, qa: QueuedApp) -> float:
        """Predicted solo EDP of ``qa`` at its tuned config on ``spec``.

        The placement score for heterogeneous rosters: empty nodes are
        filled in ascending order of the queue head's EDP on each
        node's class, so an energy-hungry Xeon only takes work its
        speed actually pays for.  Memoized per (spec, application) —
        the same handful of applications recur all run.
        """
        key = (id(spec), qa.instance)
        hit = self._class_edp_memo.get(key)
        if hit is None:
            d = qa.descriptor
            cfg, _ = self.stp.predict_configs(d, d)
            cfg = self._cap_mappers(cfg, spec.n_cores - 1)
            hit = standalone_metrics_scalar(
                qa.instance.profile,
                qa.instance.data_bytes,
                cfg.frequency,
                cfg.block_size,
                cfg.n_mappers,
                node=spec,
                constants=self.constants,
            ).edp
            self._class_edp_memo.put(key, hit)
        return hit

    def _empty_node_order(self, cluster: ClusterEngine) -> list[NodeEngine]:
        """Node visit order for the empty-node pairing loop.

        Homogeneous clusters keep the id-order list unchanged (the
        byte-identical legacy path).  Heterogeneous clusters rank nodes
        by the queue head's per-class EDP, ties broken by node id.
        """
        if not cluster.heterogeneous:
            return cluster.nodes
        head = self.queue.head
        if head is None:
            return cluster.nodes
        return sorted(
            cluster.nodes,
            key=lambda e: (self._class_edp(e.node, head), e.node_id),
        )

    def _cap_mappers(self, cfg: JobConfig, free: int) -> JobConfig:
        if cfg.n_mappers <= free:
            return cfg
        return JobConfig(
            frequency=cfg.frequency, block_size=cfg.block_size, n_mappers=free
        )

    def _place(self, qa: QueuedApp, cfg: JobConfig, node_id: int, t: float) -> JobSpec:
        spec = JobSpec(instance=qa.instance, config=cfg, submit_time=qa.arrival_time)
        self.cluster.pending.append(spec)
        self.cluster.place(spec, node_id)
        self.decisions.append(
            f"t={t:8.1f}s node{node_id}: start {qa.instance.label} [{qa.app_class}] "
            f"as {cfg.label}"
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "place",
                "controller",
                t,
                args={
                    "app": qa.instance.label,
                    "class": qa.app_class.value,
                    "config": cfg.label,
                    "node": node_id,
                    "waited_s": t - qa.arrival_time,
                },
            )
        return spec

    def notify_completions(self) -> None:
        """Feed newly completed jobs to the online tuner.

        No-op for plain STP backends.  The scheduler calls it first:
        the engine runs the scheduler right after each completion, so
        every result reaches the tuner once, the moment it exists.
        """
        if self._online is None:
            return
        results = self.cluster.results
        n = len(results)
        for result in results[self._observed_results : n]:
            self._online.on_complete(result)
        self._observed_results = n

    def _note_pairing(
        self,
        t: float,
        run_desc: AppDescriptor,
        run_spec: JobSpec,
        partner_desc: AppDescriptor,
        partner_spec: JobSpec,
    ) -> None:
        self._online.note_pairing(
            t=t,
            desc_a=run_desc,
            desc_b=partner_desc,
            inst_a=run_spec.instance,
            inst_b=partner_spec.instance,
            job_a=run_spec.job_id,
            job_b=partner_spec.job_id,
        )

    def _schedule(self, cluster: ClusterEngine, t: float) -> None:
        # Absorb completions first so the online tuner (when present)
        # is as current as possible before new pairing decisions.
        if self._online is not None:
            self.notify_completions()
        # Move due arrivals through classification into the wait queue,
        # in submission order.
        due = []
        while self._arrivals and self._arrivals[0][0] <= t + 1e-9:
            due.append(heapq.heappop(self._arrivals))
        for _time, _seq, instance in sorted(due, key=lambda arr: arr[1]):
            self.queue.push(self._classify(instance))

        progress = True
        while progress and len(self.queue):
            progress = False
            # Fill partner slots first (pairing is the point of ECoST),
            # then start pairs on empty nodes.
            for engine in cluster.nodes:
                if len(self.queue) == 0:
                    return
                if not self._schedulable(engine):
                    continue
                if len(engine.running) == 1 and engine.free_cores >= 1:
                    run_desc = self._running_descriptor(engine)
                    if run_desc is None:
                        # The job vanished under us (crash/blacklist
                        # race) — skip this candidate.
                        continue
                    run_spec = engine.running[0].spec
                    partner = self.pairing.choose_partner(
                        self.queue, run_desc.app_class, allow_leap=True
                    )
                    if partner is None:
                        continue
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "pair (partner fill)",
                            "controller",
                            t,
                            args={
                                "node": engine.node_id,
                                "running_class": run_desc.app_class.value,
                                "partner": partner.instance.label,
                                "partner_class": partner.app_class.value,
                            },
                        )
                    # The running job's knobs are already committed; the
                    # newcomer takes its side of the predicted pair
                    # configuration, capped to the free cores.
                    partner_desc = partner.descriptor
                    _cfg_run, cfg_new = self.stp.predict_configs(
                        run_desc, partner_desc
                    )
                    cfg_new = self._cap_mappers(cfg_new, engine.free_cores)
                    new_spec = self._place(partner, cfg_new, engine.node_id, t)
                    if self._online is not None:
                        self._note_pairing(
                            t, run_desc, run_spec, partner_desc, new_spec
                        )
                    progress = True
            for engine in self._empty_node_order(cluster):
                if len(self.queue) == 0:
                    return
                if not self._schedulable(engine):
                    continue
                if not engine.running:
                    head = self.pairing.choose_partner(self.queue, None)
                    if head is None:
                        continue
                    partner = self.pairing.choose_partner(
                        self.queue, head.app_class, allow_leap=True
                    )
                    if partner is not None:
                        if self.tracer.enabled:
                            self.tracer.instant(
                                "pair (empty node)",
                                "controller",
                                t,
                                args={
                                    "node": engine.node_id,
                                    "head": head.instance.label,
                                    "head_class": head.app_class.value,
                                    "partner": partner.instance.label,
                                    "partner_class": partner.app_class.value,
                                },
                            )
                        head_desc = head.descriptor
                        partner_desc = partner.descriptor
                        cfg_a, cfg_b = self.stp.predict_configs(
                            head_desc, partner_desc
                        )
                        # Cap against the *engine's* spec: on a mixed
                        # roster an empty Xeon offers more headroom than
                        # the controller's representative node.
                        cfg_a = self._cap_mappers(cfg_a, engine.node.n_cores - 1)
                        head_spec = self._place(head, cfg_a, engine.node_id, t)
                        cfg_b = self._cap_mappers(cfg_b, engine.free_cores)
                        partner_spec = self._place(
                            partner, cfg_b, engine.node_id, t
                        )
                        if self._online is not None:
                            self._note_pairing(
                                t, head_desc, head_spec, partner_desc, partner_spec
                            )
                    else:
                        # Last lonely job: tune it as a pair with itself
                        # (it may later receive a partner anyway).
                        d = head.descriptor
                        cfg_a, _ = self.stp.predict_configs(d, d)
                        self._place(head, cfg_a, engine.node_id, t)
                    progress = True

    # -------------------------------------------------------------- runs
    def run(self) -> list[JobResult]:
        """Run the cluster until every submitted application finishes."""
        results = self.cluster.run()
        if len(self.queue) or self._arrivals:
            raise RuntimeError("ECoST finished with applications still queued")
        return results
