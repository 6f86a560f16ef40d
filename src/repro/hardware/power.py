"""Whole-node power model (the simulated Wattsup meter's ground truth).

The paper measures wall power for the entire system at one-second
granularity and derives core power by subtracting idle (§2.5).  We
model node power as

    P = P_idle
      + Σ_cores P_core_max · dyn_scale(f) · activity
      + P_mem_max  · memory-bandwidth utilisation
      + P_disk_max · disk utilisation

where ``dyn_scale(f) = (V/V_max)² · (f/f_max)`` is the CMOS dynamic
scaling of the DVFS table, and a core's *activity* discounts memory
stall cycles (a stalled in-order core clock-gates most of its pipeline).

Calibration targets an Atom C2758 system: ~31 W wall at idle (board,
disk spun up, NIC, PSU losses), ~20 W additional at full load and top
frequency — consistent with the 20 W SoC TDP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hardware.frequency import DvfsTable
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class PowerBreakdown:
    """Decomposed node power (watts)."""

    idle: float
    cores: float
    memory: float
    disk: float

    @property
    def total(self) -> float:
        return self.idle + self.cores + self.memory + self.disk

    @property
    def dynamic(self) -> float:
        """Power above idle — the paper's 'core power' after subtraction."""
        return self.cores + self.memory + self.disk


@dataclass(frozen=True)
class PowerModel:
    """Calibrated node power model."""

    idle_power: float = 31.0  # watts, whole system at idle
    core_max_power: float = 2.2  # watts per fully-busy core at max DVFS point
    stall_power_fraction: float = 0.45  # relative draw of a stalled core
    mem_max_power: float = 3.5  # watts at 100% channel utilisation
    disk_max_power: float = 4.0  # watts of seek/transfer activity above idle
    dvfs: DvfsTable = DvfsTable()

    def __post_init__(self) -> None:
        check_positive("idle_power", self.idle_power)
        check_positive("core_max_power", self.core_max_power)
        check_probability("stall_power_fraction", self.stall_power_fraction)
        check_positive("mem_max_power", self.mem_max_power)
        check_positive("disk_max_power", self.disk_max_power)

    def dynamic_scale(self, frequency) -> np.ndarray:
        """V²f scale factor of a core at ``frequency`` vs. the max point.

        Accepts scalars or arrays of frequencies; every frequency must
        be a valid DVFS level.
        """
        freq = np.atleast_1d(np.asarray(frequency, dtype=float))
        ref = self.dvfs.max_point
        scales = np.empty_like(freq)
        for i, f in enumerate(freq.flat):
            point = self.dvfs.point_for(float(f))
            scales.flat[i] = point.dynamic_scale(ref)
        return scales if np.ndim(frequency) else float(scales[0])

    def core_power(self, frequency, busy_fraction, stall_fraction) -> np.ndarray:
        """Power of one core (watts above idle).

        ``busy_fraction`` is the share of wall time the core is running
        a task; ``stall_fraction`` the share of that busy time spent in
        memory stalls (drawing ``stall_power_fraction`` of busy power).
        """
        busy = np.asarray(busy_fraction, dtype=float)
        stall = np.asarray(stall_fraction, dtype=float)
        if np.any(busy < 0) or np.any(busy > 1.0 + 1e-9):
            raise ValueError("busy_fraction must be in [0, 1]")
        if np.any(stall < 0) or np.any(stall > 1.0 + 1e-9):
            raise ValueError("stall_fraction must be in [0, 1]")
        activity = busy * (1.0 - stall * (1.0 - self.stall_power_fraction))
        return self.core_max_power * self.dynamic_scale(frequency) * activity

    def node_power(
        self,
        core_states: Sequence[tuple[float, float, float]],
        mem_utilization: float,
        disk_utilization: float,
    ) -> PowerBreakdown:
        """Full node power from per-core states and subsystem utilisations.

        ``core_states`` is a sequence of ``(frequency, busy_fraction,
        stall_fraction)`` tuples, one per core that has work assigned;
        unlisted cores idle (their draw is inside ``idle_power``).
        """
        check_probability("mem_utilization", mem_utilization)
        check_probability("disk_utilization", disk_utilization)
        cores = 0.0
        for frequency, busy, stall in core_states:
            cores += float(self.core_power(frequency, busy, stall))
        return PowerBreakdown(
            idle=self.idle_power,
            cores=cores,
            memory=self.mem_max_power * mem_utilization,
            disk=self.disk_max_power * disk_utilization,
        )
