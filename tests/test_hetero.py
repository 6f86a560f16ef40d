"""Heterogeneous clusters: node classes, rosters, and acceptance.

The oracle-first contract of the heterogeneity PR, as tests:

* the acceptance matrix — every two-class scenario in
  :func:`hetero_matrix` agrees with its closed-form oracle within the
  conformance tolerance, and the batch backend agrees with the event
  engine within the same tolerance with **zero** dispatcher fallbacks;
* homogeneous byte-identity — an explicit all-default roster changes
  nothing, byte for byte, against the roster-free path;
* the ``ignore-node-class`` mutant is observable exactly where the
  design says it must be (any non-default roster) and invisible
  exactly where it cannot be (the homogeneous default);
* the supporting plumbing: the class registry, roster resolution,
  scenario roster fields, SoA node constants, batch packing metadata
  and the fuzzer's roster annotations.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.batch.engine import evaluate_scenarios
from repro.batch.kernel import NODE_FIELDS, NodeSoA, hetero_total_energy
from repro.batch.pack import ScenarioBatch
from repro.conformance.fuzzer import fuzz, generate_scenario
from repro.conformance.mutants import ignore_node_class
from repro.conformance.oracles import REL_TOL, check_oracle
from repro.conformance.relations import check_relations
from repro.conformance.scenarios import (
    Scenario,
    ScenarioJob,
    hetero_matrix,
    run_scenario,
)
from repro.hardware.classes import (
    ATOM,
    NODE_CLASSES,
    XEON,
    XEON_E5,
    NodeClass,
    class_name_of,
    get_node_class,
    roster_from_classes,
)
from repro.hardware.node import ATOM_C2758
from repro.mapreduce.engine import ClusterEngine
from repro.utils.units import GB, GHZ, MB

pytestmark = pytest.mark.hetero


def _job(code="wc", size=1 * GB, mappers=2, t=0.0):
    return ScenarioJob(
        code=code, data_bytes=size, frequency=1.2 * GHZ,
        block_size=128 * MB, n_mappers=mappers, submit_time=t,
    )


# ------------------------------------------------------------ acceptance
class TestAcceptanceMatrix:
    def test_matrix_agrees_with_oracles_without_fallbacks(self):
        scenarios = hetero_matrix()
        assert len(scenarios) >= 100
        assert sum(1 for s in scenarios if s.heterogeneous) >= 50

        failures = [m for s in scenarios for m in check_oracle(s)]
        assert not failures, failures[:5]

        event = evaluate_scenarios(scenarios, backend="event")
        batch = evaluate_scenarios(scenarios, backend="batch")
        assert not any(o.fallback for o in batch)
        for scenario, e, b in zip(scenarios, event, batch):
            for q in ("makespan", "total_energy", "edp"):
                want, got = getattr(e, q), getattr(b, q)
                assert abs(got - want) <= REL_TOL * max(abs(want), 1e-12), (
                    f"batch vs event: {q} on {scenario.to_source()}"
                )

    def test_new_relations_hold_and_apply(self):
        scenario = Scenario(2, (_job(),))
        names = ["swap-equal-classes", "upgrade-node-class", "skew-zero-uniform"]
        results = check_relations(scenario, names)
        for result in results:
            assert result.applicable, result.describe()
            assert not result.failures, result.describe()

    def test_hetero_fuzz_smoke_is_clean(self):
        report = fuzz(budget=30, seed=5, roster_prob=1.0)
        assert report.ok, report.describe()


# --------------------------------------------------- homogeneous identity
class TestHomogeneousByteIdentity:
    def test_explicit_atom_roster_is_byte_identical(self):
        plain = Scenario(3, (_job(), _job("st", t=40.0)))
        annotated = replace(plain, node_classes=("atom",) * 3)
        a, b = run_scenario(plain), run_scenario(annotated)
        assert (a.makespan, a.total_energy, a.edp) == (
            b.makespan, b.total_energy, b.edp
        )
        assert a.rows == b.rows
        assert not b.cluster.heterogeneous
        assert set(b.cluster.node_class_tags) == {0}

    def test_all_xeon_roster_is_homogeneous_but_not_default(self):
        scenario = Scenario(2, (_job(),), node_classes=("xeon", "xeon"))
        run = run_scenario(scenario)
        assert not run.cluster.heterogeneous
        assert run.cluster.roster[0].n_cores == 16
        default = run_scenario(Scenario(2, (_job(),)))
        assert run.makespan != default.makespan


# ----------------------------------------------------------- the mutant
class TestIgnoreNodeClassMutant:
    def test_visible_on_any_non_default_roster(self):
        scenario = Scenario(1, (_job(),), node_classes=("xeon",))
        healthy = run_scenario(scenario)
        default = run_scenario(scenario.homogenised())
        assert healthy.makespan != default.makespan
        with ignore_node_class():
            mutated = run_scenario(scenario)
        assert mutated.makespan == default.makespan
        assert mutated.total_energy == default.total_energy

    def test_invisible_on_the_homogeneous_default(self):
        scenario = Scenario(2, (_job(), _job("st")))
        healthy = run_scenario(scenario)
        with ignore_node_class():
            mutated = run_scenario(scenario)
        assert (mutated.makespan, mutated.total_energy) == (
            healthy.makespan, healthy.total_energy
        )


# ------------------------------------------------------- class registry
class TestNodeClasses:
    def test_presets_and_registry(self):
        assert NODE_CLASSES == {"atom": ATOM, "xeon": XEON}
        assert ATOM.spec is ATOM_C2758
        assert XEON.spec is XEON_E5
        assert XEON_E5.n_cores == 16
        # Shared DVFS frequency ladder: any JobConfig validates anywhere.
        assert [p.frequency for p in ATOM_C2758.dvfs.levels] == [
            p.frequency for p in XEON_E5.dvfs.levels
        ]

    def test_lookup_and_reverse_lookup(self):
        assert get_node_class("xeon") is XEON
        with pytest.raises(KeyError, match="valid: atom, xeon"):
            get_node_class("gpu")
        assert class_name_of(ATOM_C2758) == "atom"
        assert class_name_of(replace(XEON_E5)) == "xeon"  # by equality
        other = replace(XEON_E5, name="mystery", n_cores=12)
        assert class_name_of(other) == "mystery"

    def test_roster_resolution_and_validation(self):
        roster = roster_from_classes(("atom", "xeon", "atom"))
        assert roster == (ATOM_C2758, XEON_E5, ATOM_C2758)
        with pytest.raises(ValueError, match="non-empty"):
            NodeClass(name="", spec=ATOM_C2758)


# --------------------------------------------------------- scenario API
class TestScenarioRosterFields:
    def test_roster_and_heterogeneous_property(self):
        plain = Scenario(2, (_job(),))
        assert plain.roster() is None and not plain.heterogeneous
        mixed = replace(plain, node_classes=("atom", "xeon"))
        assert mixed.roster() == (ATOM_C2758, XEON_E5)
        assert mixed.heterogeneous
        assert not replace(plain, node_classes=("xeon", "xeon")).heterogeneous

    def test_with_nodes_trims_and_pads_the_roster(self):
        mixed = Scenario(3, (_job(),), node_classes=("atom", "xeon", "atom"))
        assert mixed.with_nodes(2).node_classes == ("atom", "xeon")
        grown = mixed.with_nodes(5)
        assert grown.node_classes == ("atom", "xeon", "atom", "atom", "atom")
        assert mixed.homogenised().node_classes == ()

    def test_to_source_round_trips_the_roster(self):
        mixed = Scenario(2, (_job(),), node_classes=("atom", "xeon"))
        source = mixed.to_source()
        assert "node_classes" in source
        assert "node_classes" not in Scenario(2, (_job(),)).to_source()
        rebuilt = eval(  # noqa: S307 - our own emitted source
            source, {"Scenario": Scenario, "ScenarioJob": ScenarioJob}
        )
        assert rebuilt == mixed


# ----------------------------------------------------------- SoA layer
class TestNodeSoA:
    def test_from_specs_mirrors_the_spec_fields(self):
        specs = (ATOM_C2758, XEON_E5)
        soa = NodeSoA.from_specs(specs)
        assert len(soa) == 2
        want = {
            "n_cores": [n.n_cores for n in specs],
            "idle_power": [n.power.idle_power for n in specs],
            "core_max_power": [n.power.core_max_power for n in specs],
            "mem_max_power": [n.power.mem_max_power for n in specs],
            "disk_max_power": [n.power.disk_max_power for n in specs],
            "membw": [n.membw.achievable_bw for n in specs],
            "nic_bw": [n.nic_bw for n in specs],
        }
        assert set(NODE_FIELDS) == set(want)
        for name, values in want.items():
            np.testing.assert_array_equal(getattr(soa, name), values)
        taken = soa.take(np.array([1, 0, 1]))
        np.testing.assert_array_equal(
            taken.idle_power,
            [XEON_E5.power.idle_power, ATOM_C2758.power.idle_power,
             XEON_E5.power.idle_power],
        )

    def test_hetero_total_energy_scalar_array_lockstep(self):
        nodes = NodeSoA.from_specs((ATOM_C2758, XEON_E5))
        busy_by_node = {0: 12.5, 1: 3.25}
        scalar = hetero_total_energy(100.0, 20.0, nodes, busy_by_node)
        vector = hetero_total_energy(
            np.array([100.0]), np.array([20.0]), nodes,
            {k: np.array([v]) for k, v in busy_by_node.items()},
        )
        assert float(vector[0]) == scalar  # bit-identical, not approx

    def test_pack_round_trips_node_classes(self):
        scenarios = [
            Scenario(2, (_job(),), node_classes=("atom", "xeon")),
            Scenario(1, (_job("st"),)),
        ]
        batch = ScenarioBatch.from_scenarios(scenarios)
        assert batch.node_classes == (("atom", "xeon"), ())
        assert batch.scenarios() == scenarios


# -------------------------------------------------------------- fuzzer
class TestFuzzerRosters:
    def test_roster_prob_one_annotates_every_oracle_shape(self):
        annotated = 0
        for i in range(60):
            scenario = generate_scenario(
                random.Random(f"7:{i}"), roster_prob=1.0
            )
            annotated += bool(scenario.node_classes)
        assert annotated >= 30  # every non-"general" draw

    def test_roster_draw_never_perturbs_the_other_fields(self):
        for i in range(40):
            plain = generate_scenario(random.Random(f"7:{i}"), roster_prob=0.0)
            forced = generate_scenario(random.Random(f"7:{i}"), roster_prob=1.0)
            assert plain.node_classes == ()
            assert forced.homogenised() == plain.homogenised()


# ------------------------------------------------------- engine plumbing
class TestEngineRoster:
    def test_mixed_roster_tags_and_dispatch(self):
        roster = roster_from_classes(("atom", "xeon", "atom"))
        cluster = ClusterEngine(roster=roster)
        assert len(cluster.nodes) == 3
        assert cluster.heterogeneous
        assert cluster.node_class_tags == (0, 1, 0)
        assert cluster.roster == roster
        assert cluster.roster[0] is ATOM_C2758
        assert [n.node for n in cluster.nodes] == list(roster)
        assert [n.class_tag for n in cluster.nodes] == [0, 1, 0]

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="at least one node"):
            ClusterEngine(roster=())

    def test_fifo_completes_a_stream_on_a_mixed_roster(self):
        from repro.mapreduce.job import JobSpec
        from repro.model.config import JobConfig
        from repro.workloads.base import AppInstance
        from repro.workloads.registry import get_app

        cluster = ClusterEngine(roster=roster_from_classes(("atom", "xeon")))
        for i, code in enumerate(("wc", "st", "ts", "gp")):
            cluster.submit(
                JobSpec(
                    instance=AppInstance(get_app(code), 1 * GB),
                    config=JobConfig(
                        frequency=2.0 * GHZ, block_size=128 * MB, n_mappers=2
                    ),
                    submit_time=float(i),
                )
            )
        cluster.run()
        assert len(cluster.results) == 4
        assert cluster.makespan > 0.0
