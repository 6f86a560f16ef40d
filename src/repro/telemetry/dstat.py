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
from repro.model.costmodel import standalone_metrics_scalar
from repro.utils.rng import SeedLike, rng_from
from repro.workloads.base import AppInstance

#: Kernel share of busy CPU time (I/O stack, JVM GC) reported as sys.
_SYS_FRACTION = 0.12

#: The value columns of a row, in :class:`DstatRow` order.
_FIELDS = (
    "cpu_user", "cpu_sys", "cpu_idle", "cpu_iowait",
    "io_read_bps", "io_write_bps", "mem_footprint_bytes", "mem_cache_bytes",
)

#: ``np.isclose(total, 100.0, atol=0.5)`` written out: its bound is
#: ``atol + rtol * abs(100.0)`` with the default ``rtol`` of 1e-5.
_CPU_SUM_TOLERANCE = 0.5 + 1e-05 * 100.0


def _cpu_sum_ok(total: float) -> bool:
    """Whether CPU percentages summing to ``total`` pass as 100 (NaN
    does not), by ``np.isclose``'s rule without its call overhead."""
    return abs(total - 100.0) <= _CPU_SUM_TOLERANCE


def _floor0(x: np.ndarray) -> np.ndarray:
    """Python's ``max(x, 0.0)`` elementwise: ``x`` unless ``0.0 > x``,
    so a -0.0 passes through as it did row by row (``np.maximum`` does
    not promise which zero it returns)."""
    return np.where(0.0 > x, 0.0, x)


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
        if not _cpu_sum_ok(total):
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
        jm = standalone_metrics_scalar(
            p, instance.data_bytes, frequency, block_size, n_mappers,
            node=self.node, constants=self.constants,
        )
        m_eff = jm.m_eff
        busy = jm.u_cpu * m_eff / self.node.n_cores  # node-wide share
        user = busy * (1.0 - _SYS_FRACTION) * 100.0
        sys = busy * _SYS_FRACTION * 100.0
        iowait = min(
            jm.u_disk * (1.0 - p.io_overlap) * m_eff / self.node.n_cores * 100.0,
            100.0 - user - sys,
        )
        idle = 100.0 - user - sys - iowait
        duration = jm.duration
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

    def _window(
        self,
        instance: AppInstance,
        frequency: float,
        block_size: int,
        n_mappers: int,
        duration_s: float | None,
        seed: SeedLike,
    ) -> np.ndarray:
        """A profiling window's rows as columns: one row of the result
        per :data:`_FIELDS` entry, one column per second.

        The noise is one ``(seconds, 5)`` draw, the same stream and
        values as five draws per second (four CPU/read jitters, then
        the write jitter).  Every second's CPU percentages are checked
        to sum to 100, as :class:`DstatRow` checks them.
        """
        rng = rng_from(seed)
        ss = self._steady_state(instance, frequency, block_size, n_mappers)
        window = duration_s if duration_s is not None else min(
            self.constants.learning_period_s, ss["_duration"]
        )
        n = max(int(round(window)), 1)
        jitter = 1 + rng.normal(0.0, self.noise_sigma, size=(n, 5)).T
        user = _floor0(ss["cpu_user"] * jitter[0])
        sys = _floor0(ss["cpu_sys"] * jitter[1])
        iowait = _floor0(ss["cpu_iowait"] * jitter[2])
        busy = user + sys + iowait
        scale = 100.0 / np.where(100.0 > busy, 100.0, busy)
        user, sys, iowait = user * scale, sys * scale, iowait * scale
        idle = _floor0(100.0 - user - sys - iowait)
        for total in (user + sys + idle + iowait).tolist():
            if not _cpu_sum_ok(total):
                raise ValueError(f"CPU percentages sum to {total}, expected 100")
        cols = np.empty((len(_FIELDS), n))
        cols[0], cols[1], cols[2], cols[3] = user, sys, idle, iowait
        cols[4] = _floor0(ss["io_read_bps"] * jitter[3])
        cols[5] = _floor0(ss["io_write_bps"] * jitter[4])
        cols[6] = ss["mem_footprint_bytes"]
        cols[7] = ss["mem_cache_bytes"]
        return cols

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
        cols = self._window(
            instance, frequency, block_size, n_mappers, duration_s, seed
        )
        return [
            DstatRow(float(t), *row)
            for t, row in enumerate(cols.T.tolist())
        ]

    def sample_means(
        self,
        instance: AppInstance,
        frequency: float,
        block_size: int,
        n_mappers: int,
        *,
        duration_s: float | None = None,
        seed: SeedLike = None,
    ) -> dict[str, float]:
        """``average_rows(sample_run(...))`` with the same arguments, bit
        for bit, without building the rows."""
        cols = self._window(
            instance, frequency, block_size, n_mappers, duration_s, seed
        )
        return dict(zip(_FIELDS, cols.mean(axis=1).tolist()))


def average_rows(rows: Iterable[DstatRow]) -> dict[str, float]:
    """Column means over a window of dstat rows."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to average")
    return {f: float(np.mean([getattr(r, f) for r in rows])) for f in _FIELDS}
