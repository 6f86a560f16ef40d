"""Simulated ``dstat``: per-second CPU / disk / memory monitoring.

Mirrors the columns the paper collects (§3.1): CPUuser, CPUsys,
CPUidle, CPUiowait, disk read/write bandwidth, memory footprint and
page-cache size.  Rows are synthesised for a standalone profiling run
(the learning period), the input of the 14-feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.costmodel import standalone_metrics
from repro.utils.rng import SeedLike, rng_from
from repro.workloads.base import AppInstance

#: Kernel share of busy CPU time (I/O stack, JVM GC) reported as sys.
_SYS_FRACTION = 0.12


@dataclass(frozen=True)
class DstatRow:
    """One 1-second dstat sample (percentages in [0, 100])."""

    time: float
    cpu_user: float
    cpu_sys: float
    cpu_idle: float
    cpu_iowait: float
    io_read_bps: float
    io_write_bps: float
    mem_footprint_bytes: float
    mem_cache_bytes: float

    def __post_init__(self) -> None:
        total = self.cpu_user + self.cpu_sys + self.cpu_idle + self.cpu_iowait
        if not np.isclose(total, 100.0, atol=0.5):
            raise ValueError(f"CPU percentages sum to {total}, expected 100")


class DstatMonitor:
    """Produces dstat rows for profiling runs."""

    def __init__(
        self,
        node: NodeSpec = ATOM_C2758,
        *,
        constants: SimConstants = DEFAULT_CONSTANTS,
        noise_sigma: float = 0.03,
    ) -> None:
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.node = node
        self.constants = constants
        self.noise_sigma = noise_sigma

    # ------------------------------------------------------ profiling run
    def _steady_state(self, instance: AppInstance, frequency: float,
                      block_size: int, n_mappers: int) -> dict[str, float]:
        p = instance.profile
        jm = standalone_metrics(
            p, instance.data_bytes, frequency, block_size, n_mappers,
            node=self.node, constants=self.constants,
        )
        sc = jm.scalar
        m_eff = sc("m_eff")
        busy = sc("u_cpu") * m_eff / self.node.n_cores  # node-wide share
        user = busy * (1.0 - _SYS_FRACTION) * 100.0
        sys = busy * _SYS_FRACTION * 100.0
        iowait = min(
            sc("u_disk") * (1.0 - p.io_overlap) * m_eff / self.node.n_cores * 100.0,
            100.0 - user - sys,
        )
        idle = 100.0 - user - sys - iowait
        duration = sc("duration")
        read_bps = instance.data_bytes * p.read_factor / duration
        write_bytes = instance.data_bytes * (
            p.spill_factor + p.shuffle_factor + p.output_factor
        )
        write_bps = write_bytes / duration
        footprint = n_mappers * p.footprint_per_task
        cache = max(
            min(
                self.node.available_memory_bytes - footprint,
                instance.data_bytes * 0.5,
            ),
            0.0,
        )
        return {
            "cpu_user": user,
            "cpu_sys": sys,
            "cpu_idle": idle,
            "cpu_iowait": iowait,
            "io_read_bps": read_bps,
            "io_write_bps": write_bps,
            "mem_footprint_bytes": footprint,
            "mem_cache_bytes": cache,
            "_duration": duration,
        }

    def sample_run(
        self,
        instance: AppInstance,
        frequency: float,
        block_size: int,
        n_mappers: int,
        *,
        duration_s: float | None = None,
        seed: SeedLike = None,
    ) -> list[DstatRow]:
        """1 Hz rows for a standalone profiling run (learning period)."""
        rng = rng_from(seed)
        ss = self._steady_state(instance, frequency, block_size, n_mappers)
        window = duration_s if duration_s is not None else min(
            self.constants.learning_period_s, ss["_duration"]
        )
        n = max(int(round(window)), 1)
        rows = []
        for t in range(n):
            jitter = rng.normal(0.0, self.noise_sigma, size=4)
            user = max(ss["cpu_user"] * (1 + jitter[0]), 0.0)
            sys = max(ss["cpu_sys"] * (1 + jitter[1]), 0.0)
            iowait = max(ss["cpu_iowait"] * (1 + jitter[2]), 0.0)
            scale = 100.0 / max(user + sys + iowait, 100.0)
            user, sys, iowait = user * scale, sys * scale, iowait * scale
            idle = max(100.0 - user - sys - iowait, 0.0)
            rows.append(
                DstatRow(
                    time=float(t),
                    cpu_user=user,
                    cpu_sys=sys,
                    cpu_idle=idle,
                    cpu_iowait=iowait,
                    io_read_bps=max(ss["io_read_bps"] * (1 + jitter[3]), 0.0),
                    io_write_bps=max(
                        ss["io_write_bps"] * (1 + rng.normal(0, self.noise_sigma)), 0.0
                    ),
                    mem_footprint_bytes=ss["mem_footprint_bytes"],
                    mem_cache_bytes=ss["mem_cache_bytes"],
                )
            )
        return rows


def average_rows(rows: Iterable[DstatRow]) -> dict[str, float]:
    """Column means over a window of dstat rows."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to average")
    fields = (
        "cpu_user", "cpu_sys", "cpu_idle", "cpu_iowait",
        "io_read_bps", "io_write_bps", "mem_footprint_bytes", "mem_cache_bytes",
    )
    return {f: float(np.mean([getattr(r, f) for r in rows])) for f in fields}
