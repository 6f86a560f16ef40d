"""Job specifications and results for the timing engine."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.model.config import JobConfig
from repro.workloads.base import AppInstance

_job_ids = itertools.count(1)


@dataclass(frozen=True)
class JobSpec:
    """One job submitted to the timing engine."""

    instance: AppInstance
    config: JobConfig
    job_id: int = field(default_factory=lambda: next(_job_ids))
    submit_time: float = 0.0

    @property
    def label(self) -> str:
        return f"job{self.job_id}:{self.instance.label}@{self.config.label}"


@dataclass(frozen=True)
class JobResult:
    """Completion record of one simulated job."""

    spec: JobSpec
    node_id: int
    start_time: float
    finish_time: float
    energy_joules: float  # node energy attributed over the job's lifetime

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        return self.start_time - self.spec.submit_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<JobResult {self.spec.label} node={self.node_id} "
            f"T={self.duration:.1f}s E={self.energy_joules:.0f}J>"
        )
