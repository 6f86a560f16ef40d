"""Full ECoST pipeline on an 8-node cluster (the paper's headline demo).

Builds the complete offline stage — exhaustive sweeps of the five
known training applications, the configuration database, the MLP
self-tuning models and the classifier — then submits a 16-application
mixed workload (Table 3's WS4) of mostly *unknown* applications to the
online controller.  The controller classifies each arrival, pairs it
via the I > H > C > M decision tree, self-tunes the pair's six knobs
and places it on the discrete-event cluster.

For comparison, the same workload runs under untuned single-node
mapping (SNM) and the brute-force upper bound (UB).

First run takes ~1 minute (offline sweeps + model training); the
artifacts are disk-cached under ``.repro_cache/``, so later runs
reuse them until the code changes.

Run:  python examples/ecost_datacenter.py
"""

from repro.baselines.mapping import evaluate_policy
from repro.experiments.artifacts import train_pipeline
from repro.experiments.scenarios import scenario_instances
from repro.utils.tables import render_table
from repro.utils.units import fmt_duration


def main() -> None:
    print("Training ECoST's offline stage from the 5 known applications...")
    components = train_pipeline().components("mlp")

    workload = scenario_instances("WS4")  # [C,C,H,I] x 4 at 5 GB
    print(f"Workload: {', '.join(i.label for i in workload)}\n")

    rows = []
    outcomes = {}
    for policy in ("SNM", "CBM", "PTM", "ECoST", "UB"):
        out = evaluate_policy(policy, workload, 8, components=components)
        outcomes[policy] = out
        rows.append([
            policy,
            fmt_duration(out.makespan),
            f"{out.energy/1e6:.2f}MJ",
            f"{out.edp:.3e}",
        ])
    ub = outcomes["UB"].edp
    for row, policy in zip(rows, ("SNM", "CBM", "PTM", "ECoST", "UB")):
        row.append(outcomes[policy].edp / ub)
    print(render_table(
        ["policy", "makespan", "energy", "EDP (J*s)", "vs UB"],
        rows,
        title="WS4 on an 8-node Atom cluster",
        floatfmt=".2f",
    ))

    print("\nECoST's online scheduling decisions:")
    for line in outcomes["ECoST"].details:
        print("  " + line)

    gap = (outcomes["ECoST"].edp / ub - 1) * 100
    print(f"\nECoST lands within {gap:.1f}% of the brute-force upper bound")
    print("(paper: within 8% on the 8-node cluster) while SNM/CBM burn "
          f"{outcomes['SNM'].edp/ub:.1f}x / {outcomes['CBM'].edp/ub:.1f}x.")


if __name__ == "__main__":
    main()
