"""ILAO / COLAO / mapping-policy tests."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.colao import colao_best
from repro.baselines.ilao import ilao_best, ilao_pair_edp
from repro.baselines.mapping import (
    DEFAULT_UNTUNED_CONFIG,
    POLICIES,
    _min_cost_matching,
    evaluate_policy,
)
from repro.experiments.scenarios import scenario_instances
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app


@pytest.fixture(scope="module")
def small_workload():
    codes = ["wc", "st", "ts", "fp", "wc", "st", "gp", "st"]
    return [AppInstance(get_app(c), 1 * GB) for c in codes]


class TestOracles:
    def test_ilao_best_is_minimum_of_sweep(self):
        r = ilao_best(AppInstance(get_app("st"), 5 * GB))
        assert r.edp == pytest.approx(r.sweep.best_edp)
        assert r.power == pytest.approx(r.energy / r.duration)

    def test_ilao_pair_is_serial_composition(self):
        a = ilao_best(AppInstance(get_app("st"), 1 * GB))
        b = ilao_best(AppInstance(get_app("wc"), 1 * GB))
        assert ilao_pair_edp(a, b) == pytest.approx(
            (a.energy + b.energy) * (a.duration + b.duration)
        )

    def test_colao_best_partitions_cores(self):
        r = colao_best(
            AppInstance(get_app("st"), 1 * GB), AppInstance(get_app("wc"), 1 * GB)
        )
        m1, m2 = r.partition()
        assert m1 + m2 == 8
        assert r.edp == pytest.approx(r.sweep.best_edp)


class TestMatching:
    def test_exact_on_hand_computable_instance(self):
        cost = np.array(
            [
                [0, 1, 10, 10],
                [1, 0, 10, 10],
                [10, 10, 0, 2],
                [10, 10, 2, 0],
            ],
            dtype=float,
        )
        pairs = {frozenset(p) for p in _min_cost_matching(cost)}
        assert pairs == {frozenset({0, 1}), frozenset({2, 3})}

    def test_matches_brute_force_on_random_instances(self):
        from itertools import permutations

        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 6
            cost = rng.uniform(1, 10, size=(n, n))
            cost = (cost + cost.T) / 2
            np.fill_diagonal(cost, 0)
            pairs = _min_cost_matching(cost)
            got = sum(cost[i, j] for i, j in pairs)
            best = np.inf
            for perm in permutations(range(n)):
                if any(perm[i] > perm[i + 1] for i in range(0, n, 2)):
                    continue
                total = sum(cost[perm[i], perm[i + 1]] for i in range(0, n, 2))
                best = min(best, total)
            assert got == pytest.approx(best)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            _min_cost_matching(np.zeros((3, 3)))


class TestPolicies:
    def test_untuned_defaults_are_stock(self):
        assert DEFAULT_UNTUNED_CONFIG["frequency"] == 1.2 * GHZ
        assert DEFAULT_UNTUNED_CONFIG["block_size"] == 64 * MB

    @pytest.mark.parametrize("policy", ["SM", "MNM1", "MNM2", "SNM", "CBM", "UB"])
    def test_untrained_policies_run(self, small_workload, policy):
        out = evaluate_policy(policy, small_workload, 2)
        assert out.policy == policy
        assert out.makespan > 0
        assert out.energy > 0
        assert out.edp == pytest.approx(out.energy * out.makespan)

    def test_tuned_policies_require_components(self, small_workload):
        with pytest.raises(ValueError, match="components"):
            evaluate_policy("PTM", small_workload, 2)
        with pytest.raises(ValueError, match="components"):
            evaluate_policy("ECoST", small_workload, 2)

    def test_unknown_policy(self, small_workload):
        with pytest.raises(ValueError, match="unknown policy"):
            evaluate_policy("RANDOM", small_workload, 2)

    def test_empty_workload(self):
        with pytest.raises(ValueError):
            evaluate_policy("SM", [], 2)

    def test_ub_not_worse_than_untuned(self, small_workload):
        ub = evaluate_policy("UB", small_workload, 2)
        for policy in ("SM", "SNM", "CBM"):
            other = evaluate_policy(policy, small_workload, 2)
            assert ub.edp <= other.edp * 1.01

    def test_ub_keeps_only_each_pairs_optimum(self):
        """UB over WS4's 120 pairs holds three floats per pair, not the
        pairs' full sweeps (about 1 MiB each)."""
        workload = scenario_instances("WS4")
        tracemalloc.start()
        try:
            evaluate_policy("UB", workload, 8)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * (1 << 20), f"traced peak {peak / (1 << 20):.1f} MiB"

    def test_mnm_degenerates_on_single_node(self, small_workload):
        sm = evaluate_policy("SM", small_workload, 1)
        mnm = evaluate_policy("MNM1", small_workload, 1)
        assert mnm.edp == pytest.approx(sm.edp)

    def test_more_nodes_cut_makespan(self, small_workload):
        one = evaluate_policy("SNM", small_workload, 1)
        four = evaluate_policy("SNM", small_workload, 4)
        assert four.makespan < one.makespan

    def test_policy_registry_order(self):
        assert list(POLICIES) == [
            "SM", "MNM1", "MNM2", "SNM", "CBM", "PTM", "ECoST", "UB",
        ]
