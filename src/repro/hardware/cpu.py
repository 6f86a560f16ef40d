"""In-order core timing model with a memory-wall term.

The Atom C2758's Silvermont cores are (mostly) in-order, so a simple
additive CPI model is faithful: the time to retire an instruction is a
core-pipeline component that scales with clock frequency plus a memory
stall component that does not —

    seconds_per_instruction = CPI_core / f  +  (MPKI / 1000) · L_mem_eff

where ``L_mem_eff`` is the average memory latency after overlap
(memory-level parallelism hides part of each miss).  This is what makes
frequency scaling class-dependent: compute-bound applications (low MPKI)
speed up almost linearly with f while memory-bound applications see
diminishing returns — exactly the interplay §4.1 of the paper measures.

The model is deliberately vector-friendly: all methods accept NumPy
arrays for frequency/MPKI and broadcast, so the brute-force sweeps in
:mod:`repro.model.sweep` evaluate whole configuration grids at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class CoreModel:
    """Timing model for one core.

    Parameters
    ----------
    mem_latency_s:
        Raw DRAM access latency in seconds (~90 ns for DDR3-1600 on a
        small uncore).
    mlp_overlap:
        Fraction of each miss latency hidden by memory-level
        parallelism and prefetching (0 = fully exposed, 1 = free).
        In-order Silvermont hides relatively little.
    """

    mem_latency_s: float = 90e-9
    mlp_overlap: float = 0.35

    def __post_init__(self) -> None:
        check_positive("mem_latency_s", self.mem_latency_s)
        check_probability("mlp_overlap", self.mlp_overlap)

    @property
    def effective_latency_s(self) -> float:
        """Per-miss stall after MLP overlap."""
        return self.mem_latency_s * (1.0 - self.mlp_overlap)

    def seconds_per_instruction(self, frequency, cpi_core, llc_mpki):
        """Average wall seconds to retire one instruction.

        All arguments broadcast (scalars or arrays).  ``cpi_core`` is the
        cache-resident CPI (1/IPC0); ``llc_mpki`` the effective LLC
        misses per kilo-instruction *after* any cache-sharing inflation.
        """
        frequency = np.asarray(frequency, dtype=float)
        cpi_core = np.asarray(cpi_core, dtype=float)
        llc_mpki = np.asarray(llc_mpki, dtype=float)
        if np.any(frequency <= 0):
            raise ValueError("frequency must be positive")
        return cpi_core / frequency + (llc_mpki / 1000.0) * self.effective_latency_s

    def effective_ipc(self, frequency, cpi_core, llc_mpki):
        """Observed IPC (instructions per *cycle* at ``frequency``).

        This is what a perf counter would report: retired instructions
        divided by elapsed core cycles.  It shrinks at high frequency
        for miss-heavy code because stall seconds convert to more cycles.
        """
        spi = self.seconds_per_instruction(frequency, cpi_core, llc_mpki)
        return 1.0 / (np.asarray(frequency, dtype=float) * spi)

    def stall_fraction(self, frequency, cpi_core, llc_mpki):
        """Fraction of execution time spent in memory stalls.

        Used by the cost kernel's power figure: stalled cores draw less
        than busy cores.
        """
        spi = self.seconds_per_instruction(frequency, cpi_core, llc_mpki)
        stall = (np.asarray(llc_mpki, dtype=float) / 1000.0) * self.effective_latency_s
        return stall / spi
