"""Calibration-sensitivity extension: are the headline shapes robust?

The reproduction's hardware/framework constants
(:class:`~repro.model.calibration.SimConstants` and the disk/power
models) were calibrated to the paper's qualitative findings.  A fair
question is whether those findings are knife-edge artefacts of the
chosen constants.  This experiment perturbs each framework constant
up and down and re-checks the two headline shapes:

* Fig. 5's ranking — I-I is the best class pair, every M-X pair is in
  the bottom four;
* Fig. 3's co-location result — the I-I COLAO/ILAO gain stays the
  maximum and stays > 1.

A shape that survives ±50% perturbations of every constant is a
property of the modelled physics (idle power, resource overlap), not
of the tuning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.baselines.colao import colao_best
from repro.baselines.ilao import ilao_best, ilao_pair_edp
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.utils.tables import render_table
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

#: Constants perturbed and the relative deltas applied.
PERTURBED_FIELDS: tuple[str, ...] = (
    "task_overhead_s",
    "shuffle_reread_fraction",
    "swap_penalty",
    "remote_shuffle_fraction",
)

_REPS = {"I": "st", "C": "wc", "H": "gp", "M": "fp"}


@dataclass(frozen=True)
class ShapeCheck:
    """Outcome of the headline-shape checks under one constant set."""

    label: str
    ii_is_best_pair: bool
    m_pairs_are_worst: bool
    ii_gain: float  # COLAO/ILAO ratio of the I-I pair

    @property
    def holds(self) -> bool:
        return self.ii_is_best_pair and self.m_pairs_are_worst and self.ii_gain > 1.0


@dataclass(frozen=True)
class SensitivityReport:
    checks: tuple[ShapeCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def render(self) -> str:
        rows = [
            [c.label, str(c.ii_is_best_pair), str(c.m_pairs_are_worst),
             c.ii_gain, str(c.holds)]
            for c in self.checks
        ]
        return render_table(
            ["constants", "I-I best", "M-X worst", "I-I gain (x)", "shape holds"],
            rows,
            title="Calibration sensitivity — headline shapes under perturbation",
            floatfmt=".2f",
        )


def _check_shapes(
    label: str,
    constants: SimConstants,
    *,
    data_bytes: int,
    node: NodeSpec,
) -> ShapeCheck:
    insts = {k: AppInstance(get_app(v), data_bytes) for k, v in _REPS.items()}
    solos = {
        k: ilao_best(inst, node=node, constants=constants)
        for k, inst in insts.items()
    }
    min_edp: dict[str, float] = {}
    ii_gain = 0.0
    keys = sorted(_REPS)
    for i, ka in enumerate(keys):
        for kb in keys[i:]:
            co = colao_best(
                insts[ka], insts[kb], node=node, constants=constants
            )
            pair = f"{ka}-{kb}"
            min_edp[pair] = co.edp
            if pair == "I-I":
                ii_gain = ilao_pair_edp(solos[ka], solos[kb]) / co.edp
    ranking = sorted(min_edp, key=min_edp.get)
    m_pairs = {p for p in min_edp if "M" in p}
    return ShapeCheck(
        label=label,
        ii_is_best_pair=ranking[0] == "I-I",
        m_pairs_are_worst=set(ranking[-len(m_pairs):]) == m_pairs,
        ii_gain=ii_gain,
    )


def run_sensitivity(
    *,
    deltas: Sequence[float] = (-0.5, 0.5),
    data_bytes: int = 5 * GB,
    node: NodeSpec = ATOM_C2758,
    base: SimConstants = DEFAULT_CONSTANTS,
) -> SensitivityReport:
    """Perturb each framework constant and re-check the shapes."""
    checks = [_check_shapes("baseline", base, data_bytes=data_bytes, node=node)]
    for field in PERTURBED_FIELDS:
        for delta in deltas:
            value = getattr(base, field) * (1.0 + delta)
            # Fractions stay inside (0, 1).
            if field in ("shuffle_reread_fraction", "remote_shuffle_fraction"):
                value = min(max(value, 0.01), 0.99)
            constants = base.with_(**{field: value})
            checks.append(
                _check_shapes(
                    f"{field} {'+' if delta > 0 else ''}{delta:.0%}",
                    constants,
                    data_bytes=data_bytes,
                    node=node,
                )
            )
    return SensitivityReport(checks=tuple(checks))
