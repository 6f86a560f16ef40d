"""Admission control: deterministic token buckets and depth caps.

Every decision is a pure function of ``(config, tenant history,
arrival time)`` — no wall clock, no randomness — so a seeded request
stream produces the same accept/reject sequence on every run, which is
what the property suite pins.  Checks are ordered cheapest-and-
broadest first, and a token is only consumed by an *accepted* request
(a request bounced for queue depth must not burn the tenant's budget):

1. cluster-wide in-flight cap (``max_pending``) — protects the engine;
2. per-tenant in-flight cap (``max_inflight``) — queue-depth bound;
3. per-tenant token bucket (``rate_per_s``/``burst``) — rate limit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rejection reasons, in decision order.
REJECT_CAPACITY = "capacity"
REJECT_QUEUE_DEPTH = "queue_depth"
REJECT_RATE_LIMIT = "rate_limit"


@dataclass(frozen=True)
class AdmissionDecision:
    accepted: bool
    reason: str | None = None  # None when accepted


_ACCEPT = AdmissionDecision(True)
#: A token short of 1.0 by a float ulp still admits: the bucket is
#: refilled with ``dt * rate`` products whose rounding must not turn a
#: nominally admissible request into a rejection.
_TOKEN_EPS = 1e-9


class TokenBucket:
    """Classic token bucket on simulated time.

    Starts full.  ``try_take(t)`` refills by ``(t - last) * rate``
    (capped at ``burst``) and takes one token when available.  ``t``
    must be non-decreasing — the service enforces monotone arrivals
    before consulting admission.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate_per_s)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_t = 0.0

    def _refill(self, t: float) -> None:
        dt = t - self.last_t
        if dt < 0:
            raise ValueError(
                f"token bucket time went backwards: {t} < {self.last_t}"
            )
        self.last_t = t
        if self.rate == float("inf"):
            self.tokens = self.burst
        else:
            self.tokens = min(self.burst, self.tokens + dt * self.rate)

    def try_take(self, t: float) -> bool:
        self._refill(t)
        if self.tokens >= 1.0 - _TOKEN_EPS:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Stateless decision logic over the tenant/bucket state it is shown.

    The controller holds only the limits; the mutable per-tenant state
    (bucket, in-flight count) lives on the tenant so it is snapshotted
    and reported alongside the tenant's other counters.
    """

    def __init__(
        self,
        *,
        rate_per_s: float,
        burst: float,
        max_inflight: int,
        max_pending: int,
    ) -> None:
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.max_inflight = max_inflight
        self.max_pending = max_pending

    def new_bucket(self) -> TokenBucket:
        return TokenBucket(self.rate_per_s, self.burst)

    def decide(self, tenant, t: float, *, total_inflight: int) -> AdmissionDecision:
        """Accept/reject one arrival of ``tenant`` at time ``t``.

        ``tenant`` is a :class:`repro.service.tenants.TenantState`;
        ``total_inflight`` is the cluster-wide accepted-not-completed
        count *before* this request.
        """
        if total_inflight >= self.max_pending:
            return AdmissionDecision(False, REJECT_CAPACITY)
        if tenant.inflight >= self.max_inflight:
            return AdmissionDecision(False, REJECT_QUEUE_DEPTH)
        if not tenant.bucket.try_take(t):
            return AdmissionDecision(False, REJECT_RATE_LIMIT)
        return _ACCEPT
