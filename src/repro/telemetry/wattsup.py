"""Simulated Wattsup PRO power meter.

Whole-system wall power at one-second granularity (§2.5).  The trace
can be sampled from a :class:`~repro.mapreduce.engine.NodeEngine`'s
segment window (the power of each constant-configuration segment,
resampled at 1 Hz with meter noise) or from a closed-form run.  The
paper derives "core power" by subtracting the measured idle baseline;
:meth:`PowerTrace.average_above_idle` implements that methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.utils.rng import SeedLike, rng_from

if TYPE_CHECKING:
    from repro.mapreduce.engine import NodeEngine


@dataclass(frozen=True)
class PowerTrace:
    """A 1 Hz wall-power recording."""

    samples_watts: np.ndarray  # one per second, starting at t=0
    idle_watts: float

    def __post_init__(self) -> None:
        if len(self.samples_watts) == 0:
            raise ValueError("power trace is empty")
        if np.any(np.asarray(self.samples_watts) < 0):
            raise ValueError("negative power sample")

    @property
    def duration_s(self) -> float:
        return float(len(self.samples_watts))

    @property
    def average_watts(self) -> float:
        return float(np.mean(self.samples_watts))

    @property
    def average_above_idle(self) -> float:
        """The paper's §2.5 methodology: mean power minus idle baseline."""
        return max(self.average_watts - self.idle_watts, 0.0)

    @property
    def energy_joules(self) -> float:
        return float(np.sum(self.samples_watts))  # 1 s per sample

    def window(self, t0: int, t1: int) -> "PowerTrace":
        """Sub-trace covering seconds [t0, t1)."""
        if not 0 <= t0 < t1 <= len(self.samples_watts):
            raise ValueError("window out of range")
        return PowerTrace(
            samples_watts=self.samples_watts[t0:t1], idle_watts=self.idle_watts
        )


class WattsupMeter:
    """Produces 1 Hz power traces with realistic meter noise."""

    def __init__(
        self,
        node: NodeSpec = ATOM_C2758,
        *,
        noise_watts: float = 0.4,
    ) -> None:
        if noise_watts < 0:
            raise ValueError("noise_watts must be >= 0")
        self.node = node
        self.noise_watts = noise_watts

    def trace(
        self,
        engine: NodeEngine,
        *,
        until: float | None = None,
        seed: SeedLike = None,
    ) -> PowerTrace:
        """Sample a node engine's segment window at 1 Hz.

        Second ``t`` reads the busy energy and busy seconds the window
        holds over ``[t, t+1]``; the uncovered rest of the second reads
        the idle baseline — the node is powered whether or not a job
        runs.  ``until`` defaults to the engine clock, which on a
        finished node is the end of its last segment.

        The window's reads are bit-identical to a linear scan of every
        segment, so each sample is too.  A recorder that keeps no
        segments (``recorder='off'``), or a streaming window asked for
        seconds it has dropped, refuses with ``RuntimeError``.
        """
        rng = rng_from(seed)
        idle = self.node.power.idle_power
        end = engine.now if until is None else until
        n = max(int(np.ceil(end)), 1)
        busy_between = engine.recorder.busy_between
        samples = np.empty(n)
        for t in range(n):
            busy, covered = busy_between(float(t), float(t + 1))
            samples[t] = busy + idle * (1.0 - covered)
        samples = np.maximum(samples + rng.normal(0.0, self.noise_watts, size=n), 0.0)
        return PowerTrace(samples_watts=samples, idle_watts=idle)

    def constant_trace(
        self, power_watts: float, duration_s: float, *, seed: SeedLike = None
    ) -> PowerTrace:
        """A flat trace (closed-form runs) with meter noise."""
        if power_watts < 0 or duration_s <= 0:
            raise ValueError("power must be >= 0 and duration > 0")
        rng = rng_from(seed)
        n = max(int(round(duration_s)), 1)
        samples = np.maximum(
            power_watts + rng.normal(0.0, self.noise_watts, size=n), 0.0
        )
        return PowerTrace(samples_watts=samples, idle_watts=self.node.power.idle_power)
