"""Shared last-level cache contention model.

Co-located applications compete for the node's LLC (the C2758 has a
4 MB shared L2).  We model the resulting interference with two standard
ingredients:

1. **Capacity partitioning.**  Each co-runner obtains a share of the
   cache proportional to its *pressure* — the product of its intrinsic
   cache demand and how many of its mapper tasks are active.  This is
   the steady state that pseudo-LRU insertion converges to under
   competing reference streams.  The cost kernel computes the shares
   (:mod:`repro.model.costmodel`, floored at
   ``SimConstants.cache_share_floor``).

2. **Power-law miss curve.**  An application's miss rate as a function
   of its allocated capacity ``c`` follows ``MPKI(c) = MPKI0 ·
   (C_full / c)^alpha`` (capped), the classic power-law locality model.
   ``alpha`` is per-application: streaming I/O codes barely care
   (alpha≈0) while memory-bound analytics degrade steeply.

The output — effective MPKI per co-runner — feeds the
:class:`~repro.hardware.cpu.CoreModel` memory-wall term, which is how
cache interference becomes time and energy in this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import MB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SharedCacheModel:
    """Capacity contention in a shared LLC.

    Parameters
    ----------
    capacity_bytes:
        Total shared LLC capacity, recorded for reference: no simulated
        number reads it.  The cost kernel's cache coupling uses only the
        co-runners' pressures and miss-curve exponents, the cache
        modules their cores share, and ``max_inflation``.
    max_inflation:
        Upper bound on the MPKI multiplier; real caches bottom out once
        the working set no longer fits at all.
    """

    capacity_bytes: float = 4 * MB
    max_inflation: float = 3.0

    def __post_init__(self) -> None:
        check_positive("capacity_bytes", self.capacity_bytes)
        if self.max_inflation < 1.0:
            raise ValueError("max_inflation must be >= 1")

    def mpki_inflation(self, share_fraction, alpha) -> np.ndarray:
        """MPKI multiplier for a co-runner holding ``share_fraction`` of LLC.

        ``MPKI(c)/MPKI(C_full) = share^(-alpha)``, clamped to
        ``[1, max_inflation]``.  Broadcasts over arrays.
        """
        share = np.asarray(share_fraction, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        if np.any(share <= 0) or np.any(share > 1.0 + 1e-12):
            raise ValueError("share_fraction must be in (0, 1]")
        if np.any(alpha < 0):
            raise ValueError("alpha must be non-negative")
        scale = np.power(np.minimum(share, 1.0), -alpha)
        return np.clip(scale, 1.0, self.max_inflation)
