"""TAB2 — predicted configurations and errors per technique (Table 2).

For a subset of unknown co-located workloads (the paper's Table 2
rows: H-H, C-M, I-M, H-M, I-H, H-H, H-M, M-M), reports the oracle
(COLAO) configuration and the configuration each STP technique picks,
with the relative EDP error — the paper's "(Freq, hdfs, map)" table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.stp import SelfTuningPredictor, describe_instance
from repro.experiments.sec7_error import default_techniques
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.costmodel import pair_metrics
from repro.utils.tables import render_table
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

#: The paper's Table 2 row class pairs, instantiated with unknown apps.
DEFAULT_WORKLOADS: tuple[tuple[tuple[str, int], tuple[str, int]], ...] = (
    (("km", 5), ("km", 5)),      # H-H
    (("svm", 5), ("cf", 5)),     # C-M
    (("nb", 5), ("cf", 5)),      # I-M
    (("km", 5), ("pr", 5)),      # H-M
    (("nb", 5), ("km", 5)),      # I-H
    (("km", 10), ("km", 10)),    # H-H
    (("km", 5), ("cf", 10)),     # H-M
    (("cf", 5), ("pr", 5)),      # M-M
)


@dataclass(frozen=True)
class Table2Row:
    label: str
    class_pair: str
    oracle: tuple[JobConfig, JobConfig]
    predicted: dict[str, tuple[JobConfig, JobConfig]]
    errors: dict[str, float]  # % vs oracle


@dataclass(frozen=True)
class Table2Report:
    rows: tuple[Table2Row, ...]

    def render(self) -> str:
        techs = list(self.rows[0].predicted)
        header = ["workload", "classes", "COLAO (oracle)"]
        for t in techs:
            header += [t, f"{t} err%"]
        table_rows = []
        for row in self.rows:
            cells = [
                row.label,
                row.class_pair,
                f"{row.oracle[0].label} | {row.oracle[1].label}",
            ]
            for t in techs:
                ca, cb = row.predicted[t]
                cells += [f"{ca.label} | {cb.label}", row.errors[t]]
            table_rows.append(cells)
        return render_table(
            header,
            table_rows,
            title="Table 2 — configurations chosen by COLAO and the STP techniques",
            floatfmt=".2f",
        )


def run_table2(
    *,
    workloads: Sequence[tuple[tuple[str, int], tuple[str, int]]] = DEFAULT_WORKLOADS,
    techniques: Mapping[str, SelfTuningPredictor] | None = None,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: int = 0,
    executor: "SweepExecutor | None" = None,
) -> Table2Report:
    """Reproduce Table 2 for the configured workloads.

    The per-row oracle sweeps are independent and fan out through
    ``executor`` (honouring ``REPRO_WORKERS`` when omitted).
    """
    from repro.parallel import SweepExecutor

    techs = dict(techniques) if techniques is not None else dict(default_techniques())
    pairs = [
        (AppInstance(get_app(code_a), gb_a * GB), AppInstance(get_app(code_b), gb_b * GB))
        for (code_a, gb_a), (code_b, gb_b) in workloads
    ]
    exec_ = executor if executor is not None else SweepExecutor()
    optima = exec_.sweep_pairs_best(pairs, node=node, constants=constants)
    rows = []
    for (a, b), oracle in zip(pairs, optima):
        da = describe_instance(a, node=node, constants=constants, seed=seed)
        db = describe_instance(b, node=node, constants=constants, seed=seed)
        predicted: dict[str, tuple[JobConfig, JobConfig]] = {}
        errors: dict[str, float] = {}
        for name, stp in techs.items():
            cfg_a, cfg_b = stp.predict_configs(da, db)
            pm = pair_metrics(
                a.profile, a.data_bytes,
                cfg_a.frequency, cfg_a.block_size, cfg_a.n_mappers,
                b.profile, b.data_bytes,
                cfg_b.frequency, cfg_b.block_size, cfg_b.n_mappers,
                node=node, constants=constants,
            )
            predicted[name] = (cfg_a, cfg_b)
            errors[name] = (float(pm.edp) - oracle.best_edp) / oracle.best_edp * 100.0
        cp = "-".join(sorted((a.app_class.value, b.app_class.value)))
        rows.append(
            Table2Row(
                label=f"{a.label}+{b.label}",
                class_pair=cp,
                oracle=oracle.best_configs,
                predicted=predicted,
                errors=errors,
            )
        )
    return Table2Report(rows=tuple(rows))
