"""FIG5 — class-pair priority ranking by minimum EDP (paper Figure 5).

For each class pair, takes representative training applications and
finds the minimum EDP over every knob combination and core
partitioning.  Ranking the pairs by that minimum reproduces the
paper's ordering — I-I first, then the I-X and H/C combinations, with
every M-X pair last — and :func:`repro.core.pairing.derive_priority`
turns the same data into the scheduler's decision-tree priorities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from repro.baselines.colao import colao_best
from repro.core.pairing import derive_priority
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.utils.tables import render_table
from repro.utils.units import GB
from repro.workloads.base import AppClass, AppInstance
from repro.workloads.registry import get_app

#: Representative training application per class (Fig. 5's data comes
#: from the training set).
CLASS_REPRESENTATIVES: dict[AppClass, str] = {
    AppClass.COMPUTE: "wc",
    AppClass.HYBRID: "gp",
    AppClass.IO: "st",
    AppClass.MEMORY: "fp",
}


@dataclass(frozen=True)
class Fig5Report:
    data_bytes: int
    min_edp: dict[tuple[AppClass, AppClass], float]
    best_partition: dict[tuple[AppClass, AppClass], tuple[int, int]]
    priority: dict[AppClass, int]

    def ranking(self) -> list[tuple[str, float]]:
        """Class pairs from lowest to highest minimum EDP."""
        items = sorted(self.min_edp.items(), key=lambda kv: kv[1])
        return [(f"{a.value}-{b.value}", v) for (a, b), v in items]

    def render(self) -> str:
        rows = []
        for rank, ((a, b), edp) in enumerate(
            sorted(self.min_edp.items(), key=lambda kv: kv[1]), start=1
        ):
            part = self.best_partition[(a, b)]
            rows.append([rank, f"{a.value}-{b.value}", edp, f"{part[0]}+{part[1]}"])
        table = render_table(
            ["rank", "class pair", "min EDP (J*s)", "best cores"],
            rows,
            title=f"Figure 5 — class-pair ranking at {self.data_bytes // GB}GB",
            floatfmt=".3e",
        )
        order = sorted(self.priority, key=lambda c: -self.priority[c])
        tree = (
            "Derived co-runner priority (decision tree): "
            + " > ".join(c.value for c in order)
        )
        return table + "\n\n" + tree


def run_fig5(
    *,
    data_bytes: int = 10 * GB,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> Fig5Report:
    """Minimum EDP per class pair over all partitions + knobs."""
    min_edp: dict[tuple[AppClass, AppClass], float] = {}
    best_partition: dict[tuple[AppClass, AppClass], tuple[int, int]] = {}
    classes = sorted(CLASS_REPRESENTATIVES, key=lambda c: c.value)
    for ca, cb in combinations_with_replacement(classes, 2):
        inst_a = AppInstance(get_app(CLASS_REPRESENTATIVES[ca]), data_bytes)
        inst_b = AppInstance(get_app(CLASS_REPRESENTATIVES[cb]), data_bytes)
        co = colao_best(inst_a, inst_b, node=node, constants=constants)
        min_edp[(ca, cb)] = co.edp
        best_partition[(ca, cb)] = co.partition()
    priority = derive_priority(min_edp)
    return Fig5Report(
        data_bytes=data_bytes,
        min_edp=min_edp,
        best_partition=best_partition,
        priority=priority,
    )
