"""Fault-injection and recovery: plans, engine primitives, scenarios.

The scenario tests hand-craft single-event plans against workloads
whose healthy duration is measured first, so every recovery timing
assertion (re-execution from scratch, straggler stretch, speculative
first-finisher-wins) is checked against closed-form expectations.
"""

import pytest

from repro.analysis.classify import NearestCentroidClassifier
from repro.analysis.features import build_feature_matrix
from repro.core.controller import ECoSTController
from repro.core.stp import MLMSTP
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultMix,
    InjectionPlan,
)
from repro.hdfs.filesystem import MiniHdfs
from repro.mapreduce.engine import ClusterEngine
from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app
from repro.workloads.streams import poisson_job_stream


def _spec(code="wc", size=1 * GB, submit=0.0, mappers=4):
    return JobSpec(
        instance=AppInstance(get_app(code), size),
        config=JobConfig(frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=mappers),
        submit_time=submit,
    )


def _duration(code="wc", size=1 * GB, mappers=4) -> float:
    """Healthy solo duration of the reference job."""
    cluster = ClusterEngine(n_nodes=1, recorder="off")
    cluster.submit(_spec(code, size, mappers=mappers))
    return cluster.run()[0].finish_time


# ---------------------------------------------------------------- plans
class TestInjectionPlan:
    def test_same_seed_same_plan(self):
        a = InjectionPlan.generate(4, 10_000.0, rate_per_1ks=5.0, seed=3)
        b = InjectionPlan.generate(4, 10_000.0, rate_per_1ks=5.0, seed=3)
        assert a.events == b.events
        assert len(a) > 0

    def test_different_seed_different_plan(self):
        a = InjectionPlan.generate(4, 50_000.0, rate_per_1ks=5.0, seed=3)
        b = InjectionPlan.generate(4, 50_000.0, rate_per_1ks=5.0, seed=4)
        assert a.events != b.events

    def test_zero_rate_is_empty(self):
        plan = InjectionPlan.generate(4, 10_000.0, rate_per_1ks=0.0, seed=0)
        assert plan.events == InjectionPlan.empty().events == ()

    def test_crashes_carry_paired_recoveries(self):
        plan = InjectionPlan.generate(4, 100_000.0, rate_per_1ks=10.0, seed=1)
        counts = plan.counts_by_kind()
        assert counts["node_crash"] == counts["node_recover"] > 0
        crashes = [e for e in plan.events if e.kind == "node_crash"]
        recovers = {e.node_id: [] for e in crashes}
        for e in plan.events:
            if e.kind == "node_recover":
                recovers[e.node_id].append(e.time)
        for c in crashes:
            assert any(t > c.time for t in recovers[c.node_id])

    def test_events_time_sorted(self):
        plan = InjectionPlan.generate(8, 100_000.0, rate_per_1ks=20.0, seed=2)
        times = [e.time for e in plan.events]
        assert times == sorted(times)

    def test_mix_rates_split_by_weight(self):
        rates = FaultMix().rates(10.0)
        assert sum(rates.values()) == pytest.approx(10.0)
        assert rates["task_fail"] == pytest.approx(5.5)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor", 0)
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "task_fail", 0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "task_fail", 0, pick=1.0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "straggler", 0, severity=0.0)

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            InjectionPlan.generate(0, 100.0, rate_per_1ks=1.0)
        with pytest.raises(ValueError):
            InjectionPlan.generate(4, 100.0, rate_per_1ks=-1.0)
        with pytest.raises(ValueError):
            InjectionPlan.generate(4, 100.0, rate_per_1ks=1.0, slowdown_range=(0.5, 2.0))

    def test_kinds_registry(self):
        assert set(FAULT_KINDS) == {
            "task_fail", "node_crash", "node_recover", "straggler"
        }


# --------------------------------------------------- engine primitives
class TestEngineFaultPrimitives:
    def test_submit_to_dead_node_raises(self):
        cluster = ClusterEngine(n_nodes=2)
        cluster.nodes[0].crash()
        assert cluster.nodes[0].free_cores == 0
        assert [n.node_id for n in cluster.alive_nodes] == [1]
        with pytest.raises(RuntimeError, match="down"):
            cluster.nodes[0].submit(_spec())

    def test_crash_returns_lost_attempts_and_restore_rejoins(self):
        cluster = ClusterEngine(n_nodes=1)
        spec = _spec()
        eng = cluster.nodes[0]
        # Drive the node directly: submit at 0, crash at 1, restore at 5.
        eng.advance_to(0.0)
        eng.submit(spec)
        eng.advance_to(1.0)
        lost = eng.crash()
        assert [s.job_id for s, _ in lost] == [spec.job_id]
        assert not eng.alive and eng.running == []
        assert eng.down_seconds(0.0, 10.0) == pytest.approx(9.0)
        eng.advance_to(5.0)
        eng.restore()
        assert eng.alive
        assert eng.down_seconds(0.0, 10.0) == pytest.approx(4.0)

    def test_downtime_draws_no_idle_power(self):
        # One idle node's wattage, measured from the model itself.
        idle = ClusterEngine(n_nodes=1, recorder="off")
        idle_watts = idle.nodes[0].energy_between(0.0, 1.0)
        c1 = ClusterEngine(n_nodes=2, recorder="off")
        c2 = ClusterEngine(n_nodes=2, recorder="off")
        for c in (c1, c2):
            c.submit(_spec())
        plan = InjectionPlan(
            events=(
                FaultEvent(10.0, "node_crash", 1),
                FaultEvent(110.0, "node_recover", 1),
            )
        )
        FaultInjector(c2, plan).install()
        c1.run()
        c2.run()
        h = max(c1.makespan, 200.0)
        assert c1.total_energy(h) - c2.total_energy(h) == pytest.approx(
            100.0 * idle_watts
        )

    def test_apply_slowdown_stretches_completion(self):
        d = _duration()
        cluster = ClusterEngine(n_nodes=1)
        spec = _spec()
        cluster.submit(spec)
        plan = InjectionPlan(
            events=(FaultEvent(d / 2, "straggler", 0, severity=2.0),)
        )
        FaultInjector(cluster, plan, speculative=False).install()
        results = cluster.run()
        # Half the work done, the rest at half speed: 0.5d + 2*0.5d.
        assert results[0].finish_time == pytest.approx(1.5 * d)
        assert cluster.telemetry.stragglers == 1


# ----------------------------------------------------------- recovery
class TestRecoveryScenarios:
    def test_task_failure_reexecutes_and_completes_once(self):
        d = _duration()
        cluster = ClusterEngine(n_nodes=2)
        spec = _spec()
        cluster.submit(spec)
        plan = InjectionPlan(events=(FaultEvent(d / 2, "task_fail", 0),))
        inj = FaultInjector(cluster, plan).install()
        results = cluster.run()
        assert [r.spec.job_id for r in results] == [spec.job_id]
        # Re-execution starts from scratch at d/2.
        assert results[0].finish_time == pytest.approx(1.5 * d)
        tel = cluster.telemetry
        assert tel.task_failures == 1 and tel.tasks_retried == 1
        assert any("task failure kills" in line for line in inj.trace)
        assert any("re-executes" in line for line in inj.trace)

    def test_speculative_duplicate_first_finisher_wins(self):
        d = _duration()
        cluster = ClusterEngine(n_nodes=2)
        spec = _spec()
        cluster.submit(spec)
        plan = InjectionPlan(
            events=(FaultEvent(d / 2, "straggler", 0, severity=10.0),)
        )
        inj = FaultInjector(cluster, plan).install()
        results = cluster.run()
        assert len(results) == 1
        # The duplicate (fresh start on node 1) beats the 10x straggler.
        assert results[0].node_id == 1
        assert results[0].finish_time == pytest.approx(1.5 * d)
        tel = cluster.telemetry
        assert tel.speculative_launched == 1 and tel.speculative_wasted == 1
        assert any("speculative duplicate" in line for line in inj.trace)
        assert any("finishes first" in line for line in inj.trace)

    def test_node_crash_retries_on_survivor(self):
        d = _duration()
        cluster = ClusterEngine(n_nodes=2)
        spec = _spec()
        cluster.submit(spec)
        plan = InjectionPlan(
            events=(
                FaultEvent(d / 2, "node_crash", 0),
                FaultEvent(d / 2 + 10.0, "node_recover", 0),
            )
        )
        FaultInjector(cluster, plan).install()
        results = cluster.run()
        assert len(results) == 1
        assert results[0].node_id == 1
        assert results[0].finish_time == pytest.approx(1.5 * d)
        assert cluster.nodes[0].alive  # recovered
        tel = cluster.telemetry
        assert tel.node_crashes == 1 and tel.node_recoveries == 1

    def test_last_alive_node_never_crashes(self):
        d = _duration()
        cluster = ClusterEngine(n_nodes=1)
        cluster.submit(_spec())
        plan = InjectionPlan(events=(FaultEvent(d / 2, "node_crash", 0),))
        inj = FaultInjector(cluster, plan).install()
        results = cluster.run()
        assert len(results) == 1
        assert inj.skipped == 1
        assert cluster.telemetry.node_crashes == 0

    def test_crash_rereplicates_blocks(self):
        d = _duration()
        hdfs = MiniHdfs(n_nodes=2, replication=2)
        hdfs.write_file("in.dat", 1 * GB, 256 * MB)
        cluster = ClusterEngine(n_nodes=2)
        spec = _spec()
        cluster.submit(spec)
        plan = InjectionPlan(
            events=(
                FaultEvent(d / 2, "node_crash", 0),
                FaultEvent(d / 2 + 10.0, "node_recover", 0),
            )
        )
        FaultInjector(
            cluster, plan, hdfs=hdfs, job_files={spec.job_id: "in.dat"}
        ).install()
        cluster.run()
        # With 2 nodes and replication 2 every block survives on node 1;
        # no spare node exists, so nothing can be re-replicated and the
        # blocks stay under-replicated until node 0 rejoins.
        tel = cluster.telemetry
        assert tel.blocks_lost == 0
        for b in hdfs.splits_for("in.dat"):
            assert hdfs.namenode.locate(b.block_id) == [1]

    def test_flapping_node_blacklisted_and_controller_notified(self):
        class StubController:
            def __init__(self):
                self.blacklist_calls = []
                self.changes = []

            def on_node_blacklisted(self, node_id, t):
                self.blacklist_calls.append(node_id)

            def on_cluster_change(self, t, alive):
                self.changes.append(tuple(alive))

        cluster = ClusterEngine(n_nodes=3)
        events = []
        t = 10.0
        for _ in range(3):
            events.append(FaultEvent(t, "node_crash", 2))
            events.append(FaultEvent(t + 5.0, "node_recover", 2))
            t += 20.0
        stub = StubController()
        inj = FaultInjector(
            cluster,
            InjectionPlan(events=tuple(events)),
            controller=stub,
            blacklist_after=3,
        ).install()
        cluster.run()
        assert inj.blacklisted == {2}
        assert stub.blacklist_calls == [2]
        assert len(stub.changes) == 6
        assert cluster.telemetry.nodes_blacklisted == 1


# ------------------------------------------------- namenode recovery
class TestNameNodeFailure:
    def test_rereplication_restores_replica_count(self):
        hdfs = MiniHdfs(n_nodes=4, replication=2)
        hdfs.write_file("data", 1 * GB, 256 * MB)
        on_zero = [
            b.block_id
            for b in hdfs.splits_for("data")
            if 0 in hdfs.namenode.locate(b.block_id)
        ]
        rere, lost = hdfs.namenode.handle_node_failure(0)
        assert (rere, lost) == (len(on_zero), 0)
        want = hdfs.namenode.effective_replication()
        assert all(
            len(hdfs.namenode.locate(b.block_id)) >= want
            for b in hdfs.splits_for("data")
        )
        for b in hdfs.splits_for("data"):
            holders = hdfs.namenode.locate(b.block_id)
            assert 0 not in holders and len(holders) == 2
        hdfs.namenode.mark_alive(0)
        assert hdfs.namenode.n_live_nodes == 4

    def test_last_replica_lost(self):
        hdfs = MiniHdfs(n_nodes=2, replication=1)
        hdfs.write_file("data", 512 * MB, 256 * MB)
        victim = hdfs.namenode.locate(
            hdfs.splits_for("data")[0].block_id
        )[0]
        _rere, lost = hdfs.namenode.handle_node_failure(victim)
        assert lost >= 1
        lost_block = hdfs.splits_for("data")[0].block_id
        assert hdfs.namenode.locate(lost_block) == []

    def test_dead_node_rejected_as_writer(self):
        hdfs = MiniHdfs(n_nodes=3, replication=2)
        hdfs.namenode.handle_node_failure(1)
        with pytest.raises(ValueError):
            hdfs.write_file("x", 256 * MB, 256 * MB, writer_node=1)
        assert hdfs.namenode.effective_replication() == 2


# -------------------------------------------------------- determinism
class TestDeterminism:
    def _faulty_run(self):
        cluster = ClusterEngine(n_nodes=4, recorder="off")
        specs = list(poisson_job_stream(80, seed=42, tuned=True, job_ids_from=1))
        for s in specs:
            cluster.submit(s)
        plan = InjectionPlan.generate(
            4, specs[-1].submit_time + 2000.0, rate_per_1ks=8.0, seed=7
        )
        inj = FaultInjector(cluster, plan).install()
        results = cluster.run()
        return inj, results, cluster

    def test_trace_and_results_deterministic(self):
        i1, r1, c1 = self._faulty_run()
        i2, r2, c2 = self._faulty_run()
        assert i1.trace == i2.trace and len(i1.trace) > 0
        key = lambda r: (r.spec.label, r.node_id, r.start_time, r.finish_time, r.energy_joules)  # noqa: E731
        assert list(map(key, r1)) == list(map(key, r2))
        assert c1.edp() == c2.edp()
        assert len(r1) == 80  # every submitted job completed

    def test_zero_rate_injection_is_byte_identical(self):
        def run(with_injector: bool):
            cluster = ClusterEngine(n_nodes=4, recorder="off")
            for s in poisson_job_stream(60, seed=3, tuned=True, job_ids_from=1):
                cluster.submit(s)
            if with_injector:
                FaultInjector(cluster, InjectionPlan.empty()).install()
            res = cluster.run()
            rows = [
                (r.spec.label, r.node_id, r.start_time, r.finish_time, r.energy_joules)
                for r in res
            ]
            return rows, cluster.edp()

        rows_a, edp_a = run(False)
        rows_b, edp_b = run(True)
        assert rows_a == rows_b
        assert edp_a == edp_b  # exact, not approx: byte-identity


# --------------------------------------------- controller degradation
@pytest.fixture(scope="module")
def pipeline(request):
    dataset = request.getfixturevalue("small_dataset")
    instances = request.getfixturevalue("small_training_instances")
    stp = MLMSTP("reptree").fit(dataset)
    fm = build_feature_matrix(instances, seed=0)
    classifier = NearestCentroidClassifier().fit(
        fm, [i.app_class for i in instances]
    )
    return stp, classifier


class TestControllerDegradation:
    def test_survives_crash_and_relearns(self, pipeline):
        stp, classifier = pipeline
        cluster = ClusterEngine(n_nodes=2)
        ctrl = ECoSTController(cluster, stp, classifier)
        for code in ("svm", "st", "wc", "nb"):
            ctrl.submit(AppInstance(get_app(code), 1 * GB))
        plan = InjectionPlan(
            events=(
                FaultEvent(50.0, "node_crash", 0),
                FaultEvent(800.0, "node_recover", 0),
            )
        )
        FaultInjector(cluster, plan, controller=ctrl).install()
        results = ctrl.run()
        assert len(results) == 4
        assert ctrl.relearn_count == 2  # crash + recovery both shift the profile
        assert any("re-entering learning period" in d for d in ctrl.decisions)

    def test_blacklisted_node_not_scheduled(self, pipeline):
        stp, classifier = pipeline
        cluster = ClusterEngine(n_nodes=2)
        ctrl = ECoSTController(cluster, stp, classifier)
        ctrl.on_node_blacklisted(0, 0.0)
        for code in ("svm", "st"):
            ctrl.submit(AppInstance(get_app(code), 1 * GB))
        results = ctrl.run()
        assert {r.node_id for r in results} == {1}
