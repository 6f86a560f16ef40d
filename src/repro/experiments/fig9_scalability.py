"""FIG9 — scalability of the mapping policies (Figure 9, §8).

Evaluates the seven mapping policies plus the brute-force upper bound
on the Table 3 workload scenarios over 1-, 2-, 4- and 8-node clusters,
reporting cluster EDP normalised to UB.  Shape targets:

* untuned serial/multi-node policies (SM, MNM) are the worst;
* tuning alone (PTM) improves markedly over SNM/CBM (the paper's
  ~53-55% at 8 nodes);
* ECoST is the best online policy at every cluster size and lands
  within ~10% of UB on the 8-node cluster (the paper's 8%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.mapping import (
    POLICIES,
    PolicyOutcome,
    TunedComponents,
    evaluate_policy,
)
from repro.experiments.artifacts import train_pipeline
from repro.experiments.scenarios import WORKLOAD_SCENARIOS, scenario_instances
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.utils.tables import render_table
from repro.utils.units import GB

POLICY_ORDER = ("SM", "MNM1", "MNM2", "SNM", "CBM", "PTM", "ECoST", "UB")


@dataclass(frozen=True)
class Fig9Report:
    """EDP per (scenario, n_nodes, policy), normalised to UB."""

    node_counts: tuple[int, ...]
    scenarios: tuple[str, ...]
    outcomes: dict[tuple[str, int, str], PolicyOutcome]

    def normalized(self, scenario: str, n_nodes: int) -> dict[str, float]:
        ub = self.outcomes[(scenario, n_nodes, "UB")].edp
        return {
            p: self.outcomes[(scenario, n_nodes, p)].edp / ub for p in POLICY_ORDER
        }

    def ecost_gap(self, n_nodes: int) -> float:
        """Mean ECoST excess over UB (%) across scenarios at a size."""
        vals = [
            self.normalized(ws, n_nodes)["ECoST"] - 1.0 for ws in self.scenarios
        ]
        return float(np.mean(vals)) * 100.0

    def render(self) -> str:
        blocks = []
        for n in self.node_counts:
            rows = []
            for ws in self.scenarios:
                norm = self.normalized(ws, n)
                rows.append([ws] + [norm[p] for p in POLICY_ORDER])
            means = [
                float(np.mean([self.normalized(ws, n)[p] for ws in self.scenarios]))
                for p in POLICY_ORDER
            ]
            rows.append(["mean"] + means)
            blocks.append(
                render_table(
                    ["workload"] + list(POLICY_ORDER),
                    rows,
                    title=(
                        f"Figure 9 — EDP normalised to UB, {n} node(s) "
                        f"(ECoST gap: {self.ecost_gap(n):.1f}%)"
                    ),
                    floatfmt=".2f",
                )
            )
        return "\n\n".join(blocks)


def _scenario_cell(task) -> dict[str, PolicyOutcome]:
    """All policies for one (scenario workload, cluster size) cell —
    module-level so the sweep executor can fan it out."""
    workload, n, node, constants, comp = task
    return {
        policy: evaluate_policy(
            policy, workload, n, node=node, constants=constants, components=comp
        )
        for policy in POLICIES
    }


def run_fig9(
    *,
    scenarios: Sequence[str] | None = None,
    node_counts: Sequence[int] = (1, 2, 4, 8),
    data_bytes: int = 5 * GB,
    components: TunedComponents | None = None,
    model_kind: str = "mlp",
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    executor: "SweepExecutor | None" = None,
) -> Fig9Report:
    """Evaluate every policy × scenario × cluster size.

    ECoST's self-tuning backend defaults to the MLP model (the most
    accurate STP; the REPTree variant is exercised by the ablation
    benchmark).  The (scenario, cluster-size) cells are independent
    and fan out through ``executor`` (honouring ``REPRO_WORKERS`` when
    omitted); the fitted components are pickled once per cell.
    """
    from repro.parallel import SweepExecutor

    names = tuple(scenarios) if scenarios is not None else tuple(WORKLOAD_SCENARIOS)
    if components is None:
        components = train_pipeline().components(model_kind)
    cells = [
        (ws, scenario_instances(ws, data_bytes=data_bytes), n)
        for ws in names
        for n in node_counts
    ]
    exec_ = executor if executor is not None else SweepExecutor()
    results = exec_.map(
        _scenario_cell,
        [(workload, n, node, constants, components) for _ws, workload, n in cells],
    )
    outcomes: dict[tuple[str, int, str], PolicyOutcome] = {}
    for (ws, _workload, n), by_policy in zip(cells, results):
        for policy, outcome in by_policy.items():
            outcomes[(ws, n, policy)] = outcome
    return Fig9Report(
        node_counts=tuple(node_counts),
        scenarios=names,
        outcomes=outcomes,
    )
