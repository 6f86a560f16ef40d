"""Per-tenant session state: queues, counters, and high-water marks.

A *tenant* is one traffic source (a user, a team, a synthetic load
generator).  Tenants are created on first use and never forgotten:
their counters are the service's per-tenant telemetry, and their
in-flight bound is what the admission layer enforces.  Dispatch into
the engine preserves *global arrival order* across tenants (that is
what keeps the online run bit-identical to the offline one) — per-
tenant fairness is enforced upstream, by admission isolation: one
tenant's limits are a function of that tenant's own traffic only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.mapreduce.job import JobSpec
from repro.service.admission import AdmissionController, TokenBucket


@dataclass
class TenantState:
    """One tenant's live accounting."""

    name: str
    bucket: TokenBucket
    #: Accepted but not yet dispatched into the engine (wall mode only;
    #: the virtual-clock service dispatches synchronously).
    queue: deque[JobSpec] = field(default_factory=deque)
    #: Accepted but not yet completed (the admission queue-depth bound).
    inflight: int = 0
    inflight_highwater: int = 0
    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    rejections_by_reason: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    last_arrival: float = 0.0
    #: The registry whose running in-flight total this tenant keeps
    #: current (set by :meth:`TenantRegistry.get`; None outside one).
    registry: TenantRegistry | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def on_accept(self, t: float) -> None:
        self.accepted += 1
        self.inflight += 1
        if self.registry is not None:
            self.registry._total_inflight += 1
        self.last_arrival = t
        if self.inflight > self.inflight_highwater:
            self.inflight_highwater = self.inflight

    def on_reject(self, reason: str, t: float) -> None:
        self.rejected += 1
        self.last_arrival = t
        self.rejections_by_reason[reason] = (
            self.rejections_by_reason.get(reason, 0) + 1
        )

    def on_complete(self) -> None:
        if self.inflight <= 0:
            raise RuntimeError(
                f"tenant {self.name!r} completed a job it never had in flight"
            )
        self.inflight -= 1
        if self.registry is not None:
            self.registry._total_inflight -= 1
        self.completed += 1

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "inflight": self.inflight,
            "inflight_highwater": self.inflight_highwater,
            "queued": len(self.queue),
            "rejections_by_reason": dict(sorted(self.rejections_by_reason.items())),
        }


class TenantRegistry:
    """Tenants by name, created on first use with fresh buckets."""

    def __init__(self, admission: AdmissionController) -> None:
        self._admission = admission
        self._tenants: dict[str, TenantState] = {}
        self._total_inflight = 0

    def get(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(name=name, bucket=self._admission.new_bucket())
            state.registry = self
            self._tenants[name] = state
        return state

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    @property
    def names(self) -> list[str]:
        return sorted(self._tenants)

    @property
    def total_inflight(self) -> int:
        """Accepted-not-completed jobs over every tenant: a running
        total the tenants' ``on_accept``/``on_complete`` keep, so the
        admission check does not grow with the tenant count."""
        return self._total_inflight

    @property
    def inflight_highwater(self) -> int:
        return max(
            (t.inflight_highwater for t in self._tenants.values()), default=0
        )

    def as_dict(self) -> dict[str, dict]:
        return {name: self._tenants[name].as_dict() for name in self.names}
