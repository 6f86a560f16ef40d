"""SEC7 — EDP error of each STP technique vs. the COLAO oracle (§7.1).

For workloads built from the *unknown* testing applications, each
technique predicts a configuration; the error is the relative EDP
excess of that configuration over the brute-force COLAO optimum.  The
paper reports average errors of LkT 8.09%, LR 20.37%, REPTree 3.84%
and MLP 3.43% — the shape to reproduce is the ordering
MLP ≤ REPTree < LkT ≪ LR.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from repro.core.stp import AppDescriptor, LkTSTP, SelfTuningPredictor, describe_instance
from repro.experiments.artifacts import train_pipeline
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.costmodel import pair_metrics
from repro.model.sweep import sweep_pair
from repro.utils.rng import rng_from
from repro.utils.tables import render_table
from repro.workloads.base import AppInstance
from repro.workloads.registry import TESTING_APPS, instances_for

TECHNIQUE_ORDER = ("LkT", "LR", "REPTree", "MLP")


@dataclass(frozen=True)
class Sec7Report:
    """Per-technique error distributions (percent vs. COLAO)."""

    errors: dict[str, np.ndarray]
    n_pairs: int

    def means(self) -> dict[str, float]:
        return {k: float(v.mean()) for k, v in self.errors.items()}

    def render(self) -> str:
        rows = []
        for name in TECHNIQUE_ORDER:
            e = self.errors[name]
            rows.append(
                [name, float(e.mean()), float(np.median(e)), float(e.max())]
            )
        return render_table(
            ["technique", "mean err %", "median err %", "worst err %"],
            rows,
            title=(
                f"S7.1 — EDP error vs. COLAO oracle over {self.n_pairs} "
                "unknown-application workloads"
            ),
            floatfmt=".2f",
        )


def default_techniques() -> Mapping[str, SelfTuningPredictor]:
    """The paper's four STP techniques, fitted from cached artifacts."""
    pipeline = train_pipeline()
    return {
        "LkT": LkTSTP(pipeline.database),
        "LR": pipeline.pair_stp("lr"),
        "REPTree": pipeline.pair_stp("reptree"),
        "MLP": pipeline.pair_stp("mlp"),
    }


def run_sec7(
    *,
    techniques: Mapping[str, SelfTuningPredictor] | None = None,
    pairs: Sequence[tuple[AppInstance, AppInstance]] | None = None,
    max_pairs: int | None = None,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: int = 0,
) -> Sec7Report:
    """Score every technique on the unknown-application pair set."""
    techs = dict(techniques) if techniques is not None else dict(default_techniques())
    if pairs is None:
        testing = instances_for(TESTING_APPS)
        pairs = list(combinations(testing, 2))
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = rng_from(seed)
        idx = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(idx)]

    errors: dict[str, list[float]] = {name: [] for name in techs}
    descriptors: dict[str, AppDescriptor] = {}

    def describe(inst: AppInstance) -> AppDescriptor:
        if inst.label not in descriptors:
            descriptors[inst.label] = describe_instance(
                inst, node=node, constants=constants, seed=seed
            )
        return descriptors[inst.label]

    for a, b in pairs:
        sweep = sweep_pair(a, b, node=node, constants=constants)
        oracle = sweep.best_edp
        da, db = describe(a), describe(b)
        for name, stp in techs.items():
            cfg_a, cfg_b = stp.predict_configs(da, db)
            pm = pair_metrics(
                a.profile, a.data_bytes,
                cfg_a.frequency, cfg_a.block_size, cfg_a.n_mappers,
                b.profile, b.data_bytes,
                cfg_b.frequency, cfg_b.block_size, cfg_b.n_mappers,
                node=node, constants=constants,
            )
            errors[name].append((float(pm.edp) - oracle) / oracle * 100.0)
    return Sec7Report(
        errors={k: np.asarray(v) for k, v in errors.items()},
        n_pairs=len(pairs),
    )
