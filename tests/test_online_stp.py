"""OnlineSTP behaviour: incremental updates, relearn, controller seams.

Covers the two bugfixes this layer grew out of:

* ``ECoSTController.on_cluster_change`` used to log "re-entering
  learning period" while the model silently stayed stale — with an
  online backend the refit is real, and a post-crash pairing decision
  for a drifted pair differs from (and beats) the stale one;
* ``ECoSTController._running_descriptor`` used to index
  ``engine.running[0]`` unguarded and crash when the fault layer
  emptied the running list between the schedulability check and the
  descriptor build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.classify import NearestCentroidClassifier
from repro.analysis.features import build_feature_matrix
from repro.core.controller import ECoSTController
from repro.core.stp import MLMSTP, describe_instance
from repro.faults import FaultEvent, FaultInjector, InjectionPlan
from repro.mapreduce.engine import ClusterEngine
from repro.model.costmodel import pair_metrics
from repro.model.sweep import sweep_pair
from repro.online import OnlineSTP, PairObservation
from repro.service import ClusterService, ServiceConfig
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

pytestmark = pytest.mark.online


@pytest.fixture(scope="module")
def fitted_stp(small_dataset):
    return MLMSTP("reptree").fit(small_dataset)


@pytest.fixture(scope="module")
def classifier(small_training_instances):
    fm = build_feature_matrix(small_training_instances, seed=0)
    return NearestCentroidClassifier().fit(
        fm, [i.app_class for i in small_training_instances]
    )


def _observation(code_a, size_a, code_b, size_b, stp, *, t=10.0, edp=None, **kw):
    """A synthetic completed pairing using the STP's own predictions."""
    inst_a = AppInstance(get_app(code_a), size_a)
    inst_b = AppInstance(get_app(code_b), size_b)
    desc_a = describe_instance(inst_a)
    desc_b = describe_instance(inst_b)
    cfg_a, cfg_b = stp.predict_configs(desc_a, desc_b)
    if edp is None:
        metrics = pair_metrics(
            inst_a.profile, inst_a.data_bytes,
            [cfg_a.frequency], [cfg_a.block_size], [cfg_a.n_mappers],
            inst_b.profile, inst_b.data_bytes,
            [cfg_b.frequency], [cfg_b.block_size], [cfg_b.n_mappers],
        )
        edp = float(np.asarray(metrics.edp).reshape(-1)[0])
    return PairObservation(
        t=t, desc_a=desc_a, desc_b=desc_b, inst_a=inst_a, inst_b=inst_b,
        cfg_a=cfg_a, cfg_b=cfg_b, edp=edp, **kw,
    )


# ----------------------------------------------------------- wrapper
class TestOnlineSTPBasics:
    def test_requires_fitted_base(self):
        with pytest.raises(RuntimeError, match="fitted"):
            OnlineSTP(MLMSTP("reptree"))

    def test_lr_mode_needs_dataset(self, small_dataset):
        lr = MLMSTP("lr").fit(small_dataset)
        with pytest.raises(ValueError, match="training dataset"):
            OnlineSTP(lr)

    def test_base_model_stays_frozen(self, fitted_stp, small_dataset):
        online = OnlineSTP(fitted_stp, dataset=small_dataset)
        assert online.stp is not fitted_stp
        assert online.stp.global_model_ is not fitted_stp.global_model_

    def test_partial_fit_folds_one_row(self, fitted_stp, small_dataset):
        online = OnlineSTP(fitted_stp, dataset=small_dataset)
        before = len(online._window)
        obs = _observation("wc", 1 * GB, "st", 1 * GB, fitted_stp)
        assert online.partial_fit(obs) is True
        assert online.telemetry.updates == 1
        assert len(online._window) == min(before + 1, online._window.capacity)

    @pytest.mark.parametrize("edp", [0.0, -3.0, float("nan"), float("inf")])
    def test_partial_fit_skips_unusable_edp(self, fitted_stp, small_dataset, edp):
        online = OnlineSTP(fitted_stp, dataset=small_dataset)
        obs = _observation("wc", 1 * GB, "st", 1 * GB, fitted_stp, edp=edp)
        assert online.partial_fit(obs) is False
        assert online.telemetry.skipped_rows == 1
        assert online.telemetry.updates == 0

    @pytest.mark.parametrize("mode", ["window", "rls"])
    def test_partial_fit_skips_non_finite_features(
        self, fitted_stp, small_dataset, mode
    ):
        """A non-finite descriptor feature in completion telemetry is a
        counted skip, not a ValueError out of the model's input check."""
        from dataclasses import replace

        base = fitted_stp if mode == "window" else MLMSTP("lr").fit(small_dataset)
        online = OnlineSTP(base, dataset=small_dataset)
        obs = _observation("wc", 1 * GB, "st", 1 * GB, fitted_stp)
        feats = dict(obs.desc_b.features, io_read_mbps=float("inf"))
        bad = replace(obs, desc_b=replace(obs.desc_b, features=feats))
        rows_before = len(online._window)
        assert online.partial_fit(bad) is False
        assert online.telemetry.skipped_rows == 1
        assert online.telemetry.updates == 0
        assert len(online._window) == rows_before
        assert online.partial_fit(obs) is True

    def test_unsynchronized_rows_feed_detector_only(
        self, fitted_stp, small_dataset
    ):
        online = OnlineSTP(fitted_stp, dataset=small_dataset, window=64)
        rows_before = len(online._window)
        samples_before = online.detector.samples
        obs = _observation(
            "wc", 1 * GB, "st", 1 * GB, fitted_stp, synchronized=False
        )
        assert online.partial_fit(obs) is True
        assert online.telemetry.noisy_rows == 1
        assert len(online._window) == rows_before  # not a model row
        assert online.detector.samples == samples_before + 1

    def test_rls_mode_updates_exactly(self, small_dataset):
        lr = MLMSTP("lr").fit(small_dataset)
        online = OnlineSTP(lr, dataset=small_dataset)
        assert online.mode == "rls"
        n_before = online._ridge.n_rows_
        obs = _observation("wc", 1 * GB, "st", 1 * GB, lr)
        online.partial_fit(obs)
        assert online._ridge.n_rows_ == n_before + 1
        # Wrapper predictions stay finite and grid-valid.
        cfg_a, cfg_b = online.predict_configs(obs.desc_a, obs.desc_b)
        assert cfg_a.n_mappers >= 1 and cfg_b.n_mappers >= 1


# ------------------------------------------------------------- refit
class TestRelearn:
    def test_refit_sweeps_recent_pairs_and_installs_tuned_entry(
        self, fitted_stp, small_dataset
    ):
        online = OnlineSTP(fitted_stp, dataset=small_dataset, relearn_rows=32)
        obs = _observation("km", 10 * GB, "km", 10 * GB, fitted_stp)
        online.partial_fit(obs)
        assert online.refit(t=obs.t, reason="manual") is True
        assert online.telemetry.refits == 1
        assert online.telemetry.relearn_sweeps == 1
        sweep = sweep_pair(obs.inst_a, obs.inst_b, node=fitted_stp.node)
        assert online.predict_configs(obs.desc_a, obs.desc_b) == sweep.best_configs
        assert online.telemetry.tuned_hits == 1
        # Orientation-invariant: the swapped query returns the swapped pair.
        hit = online.predict_configs(obs.desc_b, obs.desc_a)
        assert hit == (sweep.best_configs[1], sweep.best_configs[0])

    def test_first_sight_sweep_consumes_learning_budget(
        self, fitted_stp, small_dataset
    ):
        online = OnlineSTP(fitted_stp, dataset=small_dataset, relearn_rows=32)
        inst = AppInstance(get_app("nb"), 10 * GB)
        desc = describe_instance(inst)
        # No learning period open yet: first sight does nothing.
        assert not online.observe_pair(
            t=0.0, desc_a=desc, desc_b=desc, inst_a=inst, inst_b=inst
        )
        online.refit(t=1.0, reason="manual")  # opens the budget
        assert online.observe_pair(
            t=2.0, desc_a=desc, desc_b=desc, inst_a=inst, inst_b=inst
        )
        assert online.telemetry.relearn_sweeps == 1
        # Already swept: a second sight is a no-op.
        assert not online.observe_pair(
            t=3.0, desc_a=desc, desc_b=desc, inst_a=inst, inst_b=inst
        )

    def test_first_sight_refuses_non_finite_descriptor(
        self, fitted_stp, small_dataset
    ):
        """A non-finite descriptor feature during a learning period is a
        counted refusal, not NaN rows that make every later refit raise."""
        from dataclasses import replace

        online = OnlineSTP(fitted_stp, dataset=small_dataset, relearn_rows=32)
        online.refit(t=1.0, reason="manual")  # opens the budget
        inst_a = AppInstance(get_app("km"), 10 * GB)
        inst_b = AppInstance(get_app("cf"), 10 * GB)
        desc_a = describe_instance(inst_a)
        desc_b = describe_instance(inst_b)
        bad_b = replace(desc_b, features=dict(desc_b.features, ipc=float("nan")))
        window_before = online._window.arrays()
        manifold_before = online.stp.train_features_.copy()
        budget_before = online._learning_budget
        assert not online.observe_pair(
            t=2.0, desc_a=desc_a, desc_b=bad_b, inst_a=inst_a, inst_b=inst_b
        )
        assert online.telemetry.skipped_rows == 1
        assert online.telemetry.relearn_sweeps == 0
        window_after = online._window.arrays()
        assert all(np.array_equal(a, b) for a, b in zip(window_after, window_before))
        assert np.array_equal(online.stp.train_features_, manifold_before)
        assert online._learning_budget == budget_before
        assert online.refit(t=3.0, reason="manual") is True
        # Not marked as swept: the pair with a finite descriptor is learned.
        assert online.observe_pair(
            t=4.0, desc_a=desc_a, desc_b=desc_b, inst_a=inst_a, inst_b=inst_b
        )
        assert online.telemetry.relearn_sweeps == 1

    def test_refit_extends_projection_manifold(self, fitted_stp, small_dataset):
        online = OnlineSTP(fitted_stp, dataset=small_dataset, relearn_rows=32)
        rows_before = online.stp.train_features_.shape[0]
        obs = _observation("km", 10 * GB, "nb", 10 * GB, fitted_stp)
        online.partial_fit(obs)
        online.refit()
        assert online.stp.train_features_.shape[0] == rows_before + 2
        assert online.stp.train_sizes_[-2:].tolist() == [
            float(obs.inst_a.data_bytes),
            float(obs.inst_b.data_bytes),
        ]


# ------------------------------------------------- controller seams
class TestControllerRelearnSeam:
    def test_post_crash_decision_differs_from_stale_model(
        self, fitted_stp, small_dataset, classifier
    ):
        """Satellite regression: on a drifted pair the stale model's
        decision used to survive ``on_cluster_change`` untouched; the
        refit one must differ and beat it on closed-form EDP."""
        inst = AppInstance(get_app("km"), 10 * GB)
        desc = describe_instance(inst)
        stale_cfgs = fitted_stp.predict_configs(desc, desc)

        online = OnlineSTP(fitted_stp, dataset=small_dataset, relearn_rows=32)
        obs = _observation("km", 10 * GB, "km", 10 * GB, fitted_stp)
        online.partial_fit(obs)

        cluster = ClusterEngine(n_nodes=2)
        ctrl = ECoSTController(cluster, online, classifier)
        ctrl.on_cluster_change(100.0, [0])

        assert ctrl.relearn_count == 1
        assert "re-entering learning period" in ctrl.decisions[-1]
        assert "(STP refit)" in ctrl.decisions[-1]
        refit_cfgs = online.predict_configs(desc, desc)
        assert refit_cfgs != stale_cfgs

        def pair_edp(cfgs):
            m = pair_metrics(
                inst.profile, inst.data_bytes,
                [cfgs[0].frequency], [cfgs[0].block_size], [cfgs[0].n_mappers],
                inst.profile, inst.data_bytes,
                [cfgs[1].frequency], [cfgs[1].block_size], [cfgs[1].n_mappers],
            )
            return float(np.asarray(m.edp).reshape(-1)[0])

        assert pair_edp(refit_cfgs) < pair_edp(stale_cfgs)

    def test_offline_backend_keeps_log_without_refit_suffix(
        self, fitted_stp, classifier
    ):
        cluster = ClusterEngine(n_nodes=2)
        ctrl = ECoSTController(cluster, fitted_stp, classifier)
        ctrl.on_cluster_change(50.0, [0, 1])
        assert ctrl.relearn_count == 1
        assert "re-entering learning period" in ctrl.decisions[-1]
        assert "(STP refit)" not in ctrl.decisions[-1]

    def test_running_descriptor_handles_emptied_node(
        self, fitted_stp, classifier
    ):
        """Satellite regression: an alive node whose running list the
        fault layer emptied must yield None, not IndexError."""
        cluster = ClusterEngine(n_nodes=1)
        ctrl = ECoSTController(cluster, fitted_stp, classifier)
        engine = cluster.nodes[0]
        assert engine.alive and not engine.running
        assert ctrl._running_descriptor(engine) is None


class TestCompletionDelivery:
    """The scheduler is the one path from the engine's results to
    ``OnlineSTP.on_complete``: the engine runs it after every
    completion, crash and recovery included."""

    CODES = ("wc", "st", "km", "ts", "fp", "nb", "cf", "svm")
    N_JOBS = 24

    def _recording_online(self, fitted_stp, small_dataset):
        online = OnlineSTP(fitted_stp, dataset=small_dataset, relearn_rows=32)
        delivered = []
        on_complete = online.on_complete

        def recording(result):
            delivered.append(result.spec.job_id)
            on_complete(result)

        online.on_complete = recording
        return online, delivered

    def _arrivals(self):
        return [
            (40.0 * k, self.CODES[k % len(self.CODES)], (5 if k % 3 == 0 else 1) * GB)
            for k in range(self.N_JOBS)
        ]

    @staticmethod
    def _crash_and_recovery(cluster, controller):
        plan = InjectionPlan(
            events=(
                FaultEvent(300.0, "node_crash", 1),
                FaultEvent(1500.0, "node_recover", 1),
            )
        )
        FaultInjector(cluster, plan, controller=controller).install()

    def test_offline_run(self, fitted_stp, small_dataset, classifier):
        online, delivered = self._recording_online(fitted_stp, small_dataset)
        cluster = ClusterEngine(n_nodes=3)
        ctrl = ECoSTController(cluster, online, classifier)
        for t, code, size in self._arrivals():
            ctrl.submit(AppInstance(get_app(code), size), t)
        self._crash_and_recovery(cluster, ctrl)
        results = ctrl.run()
        assert ctrl.relearn_count == 2
        assert len(results) == self.N_JOBS
        assert sorted(delivered) == sorted(r.spec.job_id for r in results)

    def test_virtual_clock_service(self, fitted_stp, small_dataset, classifier):
        online, delivered = self._recording_online(fitted_stp, small_dataset)
        service = ClusterService(
            ServiceConfig(n_nodes=3, scheduler="ecost", clock="virtual"),
            controller_factory=lambda cluster: ECoSTController(
                cluster, online, classifier
            ),
        )
        self._crash_and_recovery(service.cluster, service.controller)
        for t, code, size in self._arrivals():
            ack = service.submit_request({"time": t, "code": code, "data_bytes": size})
            assert ack["accepted"], ack
        assert service.drain()["completed"] == self.N_JOBS
        assert service.controller.relearn_count == 2
        assert sorted(delivered) == sorted(r.spec.job_id for r in service.results)
