"""DRAM bandwidth sharing model.

The node has one DDR3-1600 channel (12.8 GB/s peak; ~10 GB/s achievable
with realistic access streams).  Bandwidth is a *fluid* resource: when
the co-scheduled tasks' aggregate demand exceeds the achievable
bandwidth, every consumer is throttled by the same factor (memory
controllers arbitrate roughly fairly between cores at equal priority).
The cost kernel applies that throttle: a job's own compute stretches
when its DRAM traffic would exceed the channel, and co-located jobs
share one fluid stretch (:func:`repro.model.costmodel.fluid_stretch`).

This is the mechanism that makes memory-bound (M) applications poor
co-location partners in the reproduction: two M apps oversubscribe the
channel and both slow down, matching Fig. 5's ranking where M-X pairs
come last.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MemoryBandwidthModel:
    """Fluid-shared memory channel."""

    achievable_bw: float = 10.0 * GB  # bytes/s

    def __post_init__(self) -> None:
        check_positive("achievable_bw", self.achievable_bw)
