"""Whole-node power parameters (the simulated Wattsup meter's ground truth).

The paper measures wall power for the entire system at one-second
granularity and derives core power by subtracting idle (§2.5).  The
cost kernel (:mod:`repro.model.costmodel`) computes node power from
these parameters as

    P = P_idle
      + Σ_cores P_core_max · dyn_scale(f) · activity
      + P_mem_max  · memory-bandwidth utilisation
      + P_disk_max · disk utilisation

where ``dyn_scale(f) = (V/V_max)² · (f/f_max)`` is the CMOS dynamic
scaling of the node's DVFS table, and a core's *activity* discounts
memory stall cycles (a stalled in-order core clock-gates most of its
pipeline).

Calibration targets an Atom C2758 system: ~31 W wall at idle (board,
disk spun up, NIC, PSU losses), ~20 W additional at full load and top
frequency — consistent with the 20 W SoC TDP.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class PowerModel:
    """Calibrated node power parameters."""

    idle_power: float = 31.0  # watts, whole system at idle
    core_max_power: float = 2.2  # watts per fully-busy core at max DVFS point
    stall_power_fraction: float = 0.45  # relative draw of a stalled core
    mem_max_power: float = 3.5  # watts at 100% channel utilisation
    disk_max_power: float = 4.0  # watts of seek/transfer activity above idle

    def __post_init__(self) -> None:
        check_positive("idle_power", self.idle_power)
        check_positive("core_max_power", self.core_max_power)
        check_probability("stall_power_fraction", self.stall_power_fraction)
        check_positive("mem_max_power", self.mem_max_power)
        check_positive("disk_max_power", self.disk_max_power)
