"""Decoupling ablation: what does separating the two decisions cost?

The paper's §5 design decouples *which* applications to co-locate from
*how* to tune them, and §7.1 argues the ~4% gap to the joint
brute-force oracle is a cheap price.  This benchmark decomposes the
Fig. 9 ECoST-vs-UB gap into its two components:

* UB — joint oracle (optimal matching + oracle configurations);
* ECoST[oracle cfg] — ECoST's decoupled online scheduling, but each
  placement receives the brute-force configuration → isolates the
  *scheduling* cost of decoupling;
* ECoST[MLP cfg] — the full pipeline → the additional cost is the
  *prediction* error.
"""

import numpy as np

from repro.baselines.mapping import evaluate_policy
from repro.baselines.oracle_stp import OraclePairSTP
from repro.core.controller import ECoSTController
from repro.core.stp import describe_instance
from repro.experiments.artifacts import train_pipeline
from repro.experiments.scenarios import scenario_instances
from repro.mapreduce.engine import ClusterEngine
from repro.utils.tables import render_table


def test_ablation_decoupling(benchmark, save):
    def run():
        comp = train_pipeline().components("mlp")
        rows = []
        for ws in ("WS1", "WS4", "WS7"):
            workload = scenario_instances(ws)
            ub = evaluate_policy("UB", workload, 8, components=comp).edp

            oracle = OraclePairSTP().register_workload(workload, describe_instance)
            cluster = ClusterEngine(8)
            ctrl = ECoSTController(cluster, oracle, comp.classifier)
            for inst in workload:
                ctrl.submit(inst)
            ctrl.run()
            sched_only = cluster.edp()

            full = evaluate_policy("ECoST", workload, 8, components=comp).edp
            rows.append([ws, 1.0, sched_only / ub, full / ub])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save(
        "ablation_decoupling",
        render_table(
            ["workload", "UB (joint oracle)", "ECoST + oracle cfg", "ECoST + MLP cfg"],
            rows,
            title="Ablation — cost decomposition of decoupling (EDP / UB, 8 nodes)",
            floatfmt=".3f",
        ),
    )

    sched = np.array([r[2] for r in rows])
    full = np.array([r[3] for r in rows])
    # Decoupled scheduling alone is nearly free (the paper's claim):
    # within a few percent of the joint oracle.
    assert sched.mean() < 1.10
    # The prediction error adds the rest, and the total stays within
    # the Fig. 9 band.
    assert np.all(full >= sched - 0.02)
    assert full.mean() < 1.25
