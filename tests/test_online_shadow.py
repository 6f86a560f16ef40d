"""Champion/challenger shadow mode and the seeded drift scenario.

The heavyweight end-to-end properties (byte-identity with the shadow
never promoting, challenger beating the frozen champion under drift,
same-seed determinism of curves and promotion) run the full scenario
and are marked ``slow`` — CI's ``online`` lane selects them with
``-m online``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.stp as stp_module
import repro.online.shadow as shadow_module
from repro.core.stp import MLMSTP, describe_instance
from repro.model.config import JobConfig
from repro.model.costmodel import pair_metrics
from repro.model.sweep import sweep_pair
from repro.online import OnlineSTP, PromotionPolicy, ShadowSTP
from repro.online.shadow import PairScorer
from repro.online.scenario import run_drift_scenario
from repro.telemetry.registry import MetricsRegistry, attach_online
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

pytestmark = pytest.mark.online

#: A policy that can never fire — the champion stays active for good.
NEVER = PromotionPolicy(min_decisions=10**9)


@pytest.fixture(scope="module")
def fitted_stp(small_dataset):
    return MLMSTP("reptree").fit(small_dataset)


# -------------------------------------------------------- pair scorer
class TestPairScorer:
    def test_optimum_matches_sweep_and_is_orientation_invariant(self):
        scorer = PairScorer()
        a = AppInstance(get_app("wc"), 1 * GB)
        b = AppInstance(get_app("st"), 1 * GB)
        sweep = sweep_pair(a, b)
        assert scorer.optimum(a, b) == pytest.approx(sweep.best_edp)
        assert scorer.optimum(b, a) == pytest.approx(sweep.best_edp)
        # Second call hits the cache (one entry for both orientations).
        assert len(scorer._optima) == 1

    def test_score_of_best_configs_equals_optimum(self):
        scorer = PairScorer()
        a = AppInstance(get_app("wc"), 1 * GB)
        b = AppInstance(get_app("st"), 1 * GB)
        sweep = sweep_pair(a, b)
        cfg_a, cfg_b = sweep.best_configs
        assert scorer.score(a, b, cfg_a, cfg_b) == pytest.approx(
            sweep.best_edp, rel=1e-9
        )

    def test_score_memoised_per_ordered_pair_and_configs(self, monkeypatch):
        calls = []
        price = shadow_module.pair_edp_scalar
        monkeypatch.setattr(
            shadow_module, "pair_edp_scalar",
            lambda *args, **kw: calls.append(args) or price(*args, **kw),
        )
        scorer = PairScorer()
        a = AppInstance(get_app("wc"), 1 * GB)
        b = AppInstance(get_app("st"), 5 * GB)
        cfg_a = JobConfig(frequency=2.0 * GHZ, block_size=256 * MB, n_mappers=3)
        cfg_b = JobConfig(frequency=1.2 * GHZ, block_size=64 * MB, n_mappers=5)
        for x, y, cx, cy in ((a, b, cfg_a, cfg_b), (b, a, cfg_b, cfg_a), (a, b, cfg_b, cfg_a)):
            fresh = pair_metrics(
                x.profile, x.data_bytes, [cx.frequency], [cx.block_size], [cx.n_mappers],
                y.profile, y.data_bytes, [cy.frequency], [cy.block_size], [cy.n_mappers],
            )
            want = float(np.asarray(fresh.edp).reshape(-1)[0])
            assert scorer.score(x, y, cx, cy).hex() == want.hex()
            assert scorer.score(x, y, cx, cy).hex() == want.hex()
        assert len(calls) == 3 and len(scorer._scores) == 3

    def test_memos_change_no_regret_curve(self, monkeypatch):
        """Every per-decision memo only saves work: with all of them
        capped at zero entries the drift run is the same, curves and
        promotion included."""
        memoised = run_drift_scenario(n_jobs=24, seed=0).as_dict()
        monkeypatch.setattr(stp_module, "DECISION_MEMO_CAP", 0)
        assert run_drift_scenario(n_jobs=24, seed=0).as_dict() == memoised


# --------------------------------------------------- promotion policy
class TestPromotionPolicy:
    def test_promotes_only_at_checkpoints_past_min_decisions(self):
        policy = PromotionPolicy(min_decisions=8, check_every=4, margin=0.9)
        assert not policy.should_promote(7, 100.0, 10.0)  # too early
        assert not policy.should_promote(9, 100.0, 10.0)  # off-checkpoint
        assert policy.should_promote(8, 100.0, 10.0)
        assert policy.should_promote(12, 100.0, 90.0)  # exactly at margin
        assert not policy.should_promote(12, 100.0, 90.1)

    def test_requires_strict_improvement_at_zero_regret(self):
        policy = PromotionPolicy(min_decisions=1, check_every=1, margin=1.0)
        assert not policy.should_promote(4, 0.0, 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_decisions": 0},
            {"check_every": 0},
            {"margin": 0.0},
            {"margin": 1.5},
        ],
    )
    def test_parameters_validated(self, kwargs):
        with pytest.raises(ValueError):
            PromotionPolicy(**kwargs)


# --------------------------------------------------------- shadow STP
class TestShadowSTP:
    def test_active_follows_promotion(self, fitted_stp, small_dataset):
        challenger = OnlineSTP(fitted_stp, dataset=small_dataset)
        shadow = ShadowSTP(fitted_stp, challenger, policy=NEVER)
        assert shadow.active is fitted_stp
        shadow.promoted_at = 1
        assert shadow.active is challenger

    def test_predictions_come_from_the_active_contender(
        self, fitted_stp, small_dataset
    ):
        challenger = OnlineSTP(fitted_stp, dataset=small_dataset)
        shadow = ShadowSTP(fitted_stp, challenger, policy=NEVER)
        inst = AppInstance(get_app("wc"), 1 * GB)
        desc = describe_instance(inst)
        assert shadow.predict_configs(desc, desc) == fitted_stp.predict_configs(
            desc, desc
        )

    def test_refit_touches_only_the_challenger(self, fitted_stp, small_dataset):
        challenger = OnlineSTP(fitted_stp, dataset=small_dataset)
        shadow = ShadowSTP(fitted_stp, challenger, policy=NEVER)
        assert shadow.refit(t=0.0, reason="cluster-change") is True
        assert challenger.telemetry.refits == 1
        # The champion object is untouched (same fitted model instance).
        assert shadow.champion is fitted_stp


# ----------------------------------------------------- registry seam
class TestRegistrySeam:
    def test_online_namespace_registered_for_online_backend(
        self, fitted_stp, small_dataset
    ):
        class Ctrl:
            stp = OnlineSTP(fitted_stp, dataset=small_dataset)

        registry = attach_online(MetricsRegistry(), Ctrl())
        snap = registry.snapshot()
        assert "online" in snap
        assert snap["online"]["updates"] == 0

    def test_no_namespace_for_offline_backend(self, fitted_stp):
        class Ctrl:
            stp = fitted_stp

        registry = attach_online(MetricsRegistry(), Ctrl())
        assert "online" not in registry.namespaces
        assert attach_online(MetricsRegistry(), None).namespaces == []


# ------------------------------------------------- drift scenario e2e
@pytest.mark.slow
class TestDriftScenario:
    def test_never_promoting_shadow_is_byte_identical_to_offline(self):
        """With the champion active throughout, the shadow layer must
        not perturb the cluster: identical makespan, energy, and
        per-job completion order to the online-disabled run."""
        on = run_drift_scenario(n_jobs=24, seed=5, policy=NEVER)
        off = run_drift_scenario(n_jobs=24, seed=5, online=False)
        assert on.promoted_at is None
        assert on.summary["completed"] == off.summary["completed"]
        assert on.summary["makespan"] == off.summary["makespan"]
        assert on.summary["energy_joules"] == off.summary["energy_joules"]

    def test_challenger_beats_frozen_champion_under_drift(self):
        report = run_drift_scenario(n_jobs=64, seed=0)
        assert report.decisions > 0
        assert report.challenger_regret < report.champion_regret
        assert report.promoted_at is not None
        assert report.counters["online.relearn_sweeps"] > 0

    def test_page_hinkley_drives_relearn_without_cluster_faults(self):
        report = run_drift_scenario(n_jobs=64, seed=0, crash=False)
        assert report.counters["online.drift_alarms"] >= 1
        assert report.counters["online.refits"] >= 1
        assert report.challenger_regret < report.champion_regret

    def test_same_seed_runs_are_identical(self):
        r1 = run_drift_scenario(n_jobs=40, seed=3)
        r2 = run_drift_scenario(n_jobs=40, seed=3)
        assert r1.as_dict() == r2.as_dict()

    def test_report_shapes(self):
        report = run_drift_scenario(n_jobs=24, seed=5, policy=NEVER)
        payload = report.as_dict()
        assert payload["decisions"] == len(payload["champion_curve"])
        assert payload["decisions"] == len(payload["challenger_curve"])
        assert "drift scenario" in report.render()
        off = run_drift_scenario(n_jobs=24, seed=5, online=False)
        assert not any(k.startswith("online.") for k in off.counters)
        assert "online.updates" in report.counters
