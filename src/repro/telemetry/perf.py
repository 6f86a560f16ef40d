"""Simulated ``perf``: multiplexed PMU counter sampling.

The Atom's PMU has two general-purpose counters, so collecting the
paper's event list requires multiplexing: perf rotates event groups
onto the hardware counters and scales each observation by its enabled
fraction.  Multiplexing is why the paper runs each workload several
times for accurate numbers (§2.5) — scaled estimates carry sampling
error that shrinks with observation time.

We reproduce that behaviour: ground-truth event rates come from the
cost kernel, each event group is observed for ``1/n_groups`` of the
run, and the reported value is the scaled estimate with a relative
error of ``sigma / sqrt(observed_seconds)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.costmodel import standalone_metrics_scalar
from repro.utils.rng import SeedLike, rng_from
from repro.workloads.base import AppInstance

#: PMU events perf collects, grouped as they fit on the two counters.
PMU_EVENTS: tuple[tuple[str, ...], ...] = (
    ("instructions", "cycles"),
    ("LLC-load-misses", "L1-icache-load-misses"),
    ("branch-misses", "L1-dcache-load-misses"),
    ("context-switches", "page-faults"),
)

#: Every event of :data:`PMU_EVENTS`, group by group.
_EVENTS: tuple[str, ...] = tuple(event for group in PMU_EVENTS for event in group)


@dataclass(frozen=True)
class PerfReport:
    """One perf run: scaled event totals plus derived rates."""

    duration_s: float
    counts: Mapping[str, float]
    enabled_fraction: float

    @property
    def ipc(self) -> float:
        cycles = self.counts["cycles"]
        if cycles <= 0:
            raise ValueError("no cycles recorded")
        return self.counts["instructions"] / cycles

    def mpki(self, event: str) -> float:
        """Misses per kilo-instruction for a miss event."""
        instr = self.counts["instructions"]
        if instr <= 0:
            raise ValueError("no instructions recorded")
        return self.counts[event] / instr * 1000.0


class PerfSampler:
    """Samples PMU events for a job running under a configuration."""

    def __init__(
        self,
        node: NodeSpec = ATOM_C2758,
        *,
        constants: SimConstants = DEFAULT_CONSTANTS,
        noise_sigma: float = 0.15,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.node = node
        self.constants = constants
        self.noise_sigma = noise_sigma

    def _ground_truth_rates(self, instance: AppInstance, frequency: float,
                            block_size: int, n_mappers: int) -> dict[str, float]:
        """True per-second event rates from the cost kernel."""
        p = instance.profile
        jm = standalone_metrics_scalar(
            p, instance.data_bytes, frequency, block_size, n_mappers,
            node=self.node, constants=self.constants,
        )
        duration = jm.duration
        instr_total = instance.data_bytes * (
            p.instructions_per_byte + p.shuffle_factor * p.reduce_instr_per_byte
        )
        instr_rate = instr_total / duration
        ipc_eff = self.node.core.effective_ipc(frequency, p.cpi0, jm.mpki_eff)
        m_eff = jm.m_eff
        cycle_rate = frequency * m_eff * jm.u_cpu
        return {
            "instructions": instr_rate,
            "cycles": instr_rate / float(ipc_eff),
            "LLC-load-misses": instr_rate * jm.mpki_eff / 1000.0,
            "L1-icache-load-misses": instr_rate * p.icache_mpki / 1000.0,
            "branch-misses": instr_rate * p.branch_mpki / 1000.0,
            "L1-dcache-load-misses": instr_rate * (p.llc_mpki0 * 2.5 + 1.0) / 1000.0,
            "context-switches": 120.0 * m_eff + 400.0 * jm.u_disk,
            "page-faults": 30.0 * m_eff + instance.profile.footprint_per_task / 2**22,
            "_cycle_rate": cycle_rate,
            "_duration": duration,
        }

    def sample(
        self,
        instance: AppInstance,
        frequency: float,
        block_size: int,
        n_mappers: int,
        *,
        duration_s: float | None = None,
        seed: SeedLike = None,
    ) -> PerfReport:
        """One perf observation window (default: the learning period).

        Each PMU group is live for ``1/len(PMU_EVENTS)`` of the window;
        reported totals are the scaled estimates with multiplexing
        noise that shrinks as ``1/sqrt(observed_time)``.  The noise is
        one draw of every event's error, in :data:`PMU_EVENTS` order:
        the same stream and values as one draw per event.
        """
        rng = rng_from(seed)
        rates = self._ground_truth_rates(instance, frequency, block_size, n_mappers)
        window = duration_s if duration_s is not None else min(
            self.constants.learning_period_s, rates["_duration"]
        )
        if window <= 0:
            raise ValueError("observation window must be positive")
        n_groups = len(PMU_EVENTS)
        observed = window / n_groups
        rel_err = self.noise_sigma / np.sqrt(max(observed, 1e-9))
        noise = rng.normal(0.0, rel_err, size=len(_EVENTS)).tolist()
        counts = {
            event: max(rates[event] * window * (1.0 + err), 0.0)
            for event, err in zip(_EVENTS, noise)
        }
        return PerfReport(
            duration_s=window, counts=counts, enabled_fraction=1.0 / n_groups
        )
