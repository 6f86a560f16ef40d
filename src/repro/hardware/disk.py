"""Local-disk model: sequential efficiency and stream interleaving.

HDFS reads and writes are large and mostly sequential within a block,
so the dominant effects are:

* **Transfer-size efficiency.**  A stream reading in chunks of ``s``
  bytes achieves ``peak · s / (s + s_half)`` — a saturating curve where
  ``s_half`` is the chunk size at which half the peak is reached.  HDFS
  block size sets the contiguous extent, so larger blocks read faster
  per byte.  This is one of the two reasons block size matters (the
  other being task-scheduling overhead, modelled in the engine).

* **Stream interleaving.**  ``k`` concurrent streams force head
  movement between extents; aggregate bandwidth degrades by
  ``1 / (1 + seek_penalty · (k - 1))``.

* **Fluid sharing.**  Like memory bandwidth, the (possibly degraded)
  aggregate bandwidth is shared by the node's jobs through one fluid
  stretch (:func:`repro.model.costmodel.fluid_stretch`), not per-stream
  water-filling.

Defaults approximate a 7.2k-rpm SATA disk of the paper's era.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import MB
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class DiskModel:
    """Single local disk shared by all tasks on the node."""

    peak_bw: float = 180.0 * MB  # bytes/s sequential
    half_extent: float = 12.0 * MB  # extent size achieving half of peak
    seek_penalty: float = 0.05  # per extra concurrent stream

    def __post_init__(self) -> None:
        check_positive("peak_bw", self.peak_bw)
        check_positive("half_extent", self.half_extent)
        check_probability("seek_penalty", self.seek_penalty)

    def sequential_efficiency(self, extent_bytes) -> np.ndarray:
        """Fraction of peak bandwidth achieved for a contiguous extent."""
        extent = np.asarray(extent_bytes, dtype=float)
        if np.any(extent <= 0):
            raise ValueError("extent_bytes must be positive")
        return extent / (extent + self.half_extent)

    def aggregate_bw(self, n_streams, extent_bytes) -> np.ndarray:
        """Total deliverable bandwidth with ``n_streams`` concurrent streams.

        ``extent_bytes`` is the effective contiguous extent per stream
        (the HDFS block size for map input).  With zero streams the
        disk delivers nothing.  Broadcasts over arrays.
        """
        k = np.asarray(n_streams, dtype=float)
        if np.any(k < 0):
            raise ValueError("n_streams must be non-negative")
        eff = self.sequential_efficiency(extent_bytes)
        interleave = 1.0 / (1.0 + self.seek_penalty * np.maximum(k - 1.0, 0.0))
        return np.where(k > 0, self.peak_bw * eff * interleave, 0.0)
