"""Property-based guarantees of the streaming service's admission layer.

Mirrors ``test_invariants_property.py``: every test is a property over
many generated cases (hypothesis when available, a seeded
``parametrize`` sweep otherwise).  The properties the service must
hold under any seeded multi-tenant request stream:

* **conservation** — every accepted job completes exactly once after a
  drain; no accepted job is ever dropped, no job completes unaccepted;
* **rate limits are never exceeded** — per tenant, a reference
  token-bucket replay over the acks matches the service's decisions,
  and every ``(t, t + w]`` window holds at most ``burst + rate * w``
  accepted jobs;
* **queue-depth bound** — a tenant's in-flight count never exceeds
  ``max_inflight`` (checked via the high-water mark);
* **determinism** — re-running the same stream against a fresh service
  yields the identical accept/reject/reason sequence and identical
  engine results;
* **admission isolation (fairness)** — a tenant's decisions are a
  function of its own traffic only: mixing in a greedy second tenant
  does not change the first tenant's accept/reject pattern;
* **hostile request schema** — any value in any request field (NaN,
  infinities, integers beyond the double range, fractions, negatives,
  bools, strings, None) gets an ack or a named refusal, never an
  exception; refusals count as malformed and never reach admission, and
  the run still drains to a finite energy and makespan.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.hardware.node import ATOM_C2758
from repro.hdfs.blocks import HDFS_BLOCK_SIZES
from repro.service import ClusterService, ServiceConfig, seeded_requests
from repro.service.admission import (
    REJECT_CAPACITY,
    REJECT_QUEUE_DEPTH,
    REJECT_RATE_LIMIT,
    TokenBucket,
)
from repro.service.requests import MAX_DATA_BYTES, MAX_TIME_S
from repro.utils.rng import rng_from
from repro.utils.units import GB

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare boxes only
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.service


def seeded_cases(n: int):
    """Hypothesis integers (profile depth) or a fixed seed sweep."""

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return given(case_seed=st.integers(min_value=0, max_value=2**31 - 1))(fn)
        return pytest.mark.parametrize("case_seed", range(n))(fn)

    return deco


# -------------------------------------------------------- generators
def _case(case_seed: int):
    """One (config, requests) service scenario derived from a seed."""
    rng = rng_from(case_seed)
    n_jobs = int(rng.integers(10, 60))
    n_tenants = int(rng.integers(1, 4))
    # Mean interarrival spans saturated (0.5 s) to idle (30 s) regimes.
    mean_ia = float(rng.uniform(0.5, 30.0))
    config = ServiceConfig(
        n_nodes=int(rng.integers(1, 5)),
        rate_per_s=float(rng.choice([0.05, 0.2, 1.0, float("inf")])),
        burst=float(rng.choice([1.0, 2.0, 8.0, 64.0])),
        max_inflight=int(rng.choice([1, 3, 10, 1_000_000])),
        max_pending=int(rng.choice([2, 8, 10_000_000])),
    )
    requests = seeded_requests(
        n_jobs,
        seed=int(rng.integers(2**31)),
        tenants=tuple(f"t{i}" for i in range(n_tenants)),
        mean_interarrival_s=mean_ia,
    )
    return config, requests


def _run(config: ServiceConfig, requests: list[dict]):
    service = ClusterService(config)
    acks = [service.submit_request(req) for req in requests]
    summary = service.drain()
    return service, acks, summary


# -------------------------------------------------------- properties
@seeded_cases(40)
def test_no_accepted_job_is_dropped(case_seed):
    config, requests = _case(case_seed)
    service, acks, summary = _run(config, requests)
    accepted_ids = [a["job_id"] for a in acks if a.get("accepted")]
    completed_ids = [r.spec.job_id for r in service.results]
    # Exactly once, and nothing completes that was not accepted.
    assert sorted(completed_ids) == sorted(accepted_ids)
    assert summary["accepted"] == len(accepted_ids)
    assert summary["completed"] == len(accepted_ids)
    assert summary["inflight"] == 0


@seeded_cases(40)
def test_rate_limit_never_exceeded(case_seed):
    config, requests = _case(case_seed)
    _service, acks, _summary = _run(config, requests)
    rate, burst = config.rate_per_s, config.burst
    # Reference replay: an independent bucket fed only this tenant's
    # *accepted* times must have had a token at each accept.
    per_tenant: dict[str, list[float]] = {}
    for req, ack in zip(requests, acks):
        if ack.get("accepted"):
            per_tenant.setdefault(req["tenant"], []).append(ack["time"])
    for times in per_tenant.values():
        if rate != float("inf"):
            reference = TokenBucket(rate, burst)
            for t in times:
                assert reference.try_take(t), (
                    "service accepted a job its own rate limit forbids"
                )
        # Window bound: any (t, t+w] window holds <= burst + rate * w.
        for i, t0 in enumerate(times):
            in_window = [t for t in times[i:] if t <= t0 + 10.0]
            bound = burst + (0 if rate == float("inf") else rate * 10.0)
            if rate != float("inf"):
                assert len(in_window) <= bound + 1e-9


@seeded_cases(30)
def test_queue_depth_bound_holds(case_seed):
    config, requests = _case(case_seed)
    service, _acks, _summary = _run(config, requests)
    for tenant in service.tenants:
        assert tenant.inflight_highwater <= config.max_inflight
        assert tenant.inflight == 0
        assert tenant.submitted == tenant.accepted + tenant.rejected
        assert sum(tenant.rejections_by_reason.values()) == tenant.rejected
        assert set(tenant.rejections_by_reason) <= {
            REJECT_CAPACITY, REJECT_QUEUE_DEPTH, REJECT_RATE_LIMIT,
        }


@seeded_cases(25)
def test_rejection_is_deterministic_per_seed(case_seed):
    config, requests = _case(case_seed)
    _service1, acks1, summary1 = _run(config, requests)
    _service2, acks2, summary2 = _run(config, requests)
    assert acks1 == acks2
    assert summary1 == summary2


@seeded_cases(25)
def test_admission_isolation_across_tenants(case_seed):
    """Tenant "solo"'s decisions don't change when "greedy" joins.

    Holds for the *rate limiter*: a tenant's bucket is a function of
    its own accept history only.  The depth caps are deliberately left
    slack — ``max_pending`` is a shared resource by design, and
    ``max_inflight`` couples tenants indirectly through cluster
    contention (a co-running tenant shifts completion times, hence
    in-flight counts) — so the property is stated for the admission
    layer that promises isolation.
    """
    rng = rng_from(case_seed)
    config = ServiceConfig(
        n_nodes=2,
        rate_per_s=float(rng.choice([0.05, 0.5, 2.0])),
        burst=float(rng.choice([1.0, 4.0])),
    )
    solo = seeded_requests(
        int(rng.integers(5, 30)),
        seed=int(rng.integers(2**31)),
        tenants=("solo",),
        mean_interarrival_s=float(rng.uniform(0.5, 10.0)),
    )
    greedy = seeded_requests(
        int(rng.integers(5, 30)),
        seed=int(rng.integers(2**31)),
        tenants=("greedy",),
        mean_interarrival_s=0.2,
        job_ids_from=10_000,
    )
    merged = sorted(solo + greedy, key=lambda r: r["time"])

    _svc_a, acks_alone, _ = _run(config, solo)
    _svc_b, acks_mixed, _ = _run(config, merged)
    mixed_solo = [
        (ack.get("accepted"), ack.get("reason"))
        for req, ack in zip(merged, acks_mixed)
        if req["tenant"] == "solo"
    ]
    alone = [(a.get("accepted"), a.get("reason")) for a in acks_alone]
    assert mixed_solo == alone


# ------------------------------------------------- long-horizon drift
def _few_examples(fn):
    """Cap hypothesis depth: each example simulates >= 1e6 seconds."""
    if HAVE_HYPOTHESIS:
        from hypothesis import settings

        return settings(max_examples=8, deadline=None)(fn)
    return fn


@seeded_cases(8)
@_few_examples
def test_token_bucket_no_float_drift_over_long_horizons(case_seed):
    """Over >= 1e6 simulated seconds of nominally admissible traffic
    (every gap is an exact multiple of the refill period, so a token
    is always due), accumulated float error in the incremental refill
    must never cause a rejection — the ``_TOKEN_EPS`` guard — and the
    bucket must never hold more than ``burst`` tokens."""
    rng = rng_from(case_seed)
    rate = float(rng.uniform(0.05, 0.3))
    burst = float(rng.choice([1.0, 4.0, 64.0]))
    bucket = TokenBucket(rate, burst)
    period = 1.0 / rate
    t = 0.0
    horizon = 1e6
    while t < horizon:
        # Gaps of k full refill periods, k >= 1: always admissible.
        t += float(rng.integers(1, 4)) * period
        assert bucket.try_take(t), (
            f"admissible request rejected at t={t:.3f} "
            f"(rate={rate}, tokens={bucket.tokens!r})"
        )
        assert bucket.tokens <= burst + 1e-9
    assert t >= horizon


@seeded_cases(8)
def test_token_bucket_burst_cap_after_long_idle(case_seed):
    """An arbitrarily long idle stretch refills to exactly ``burst``:
    the cap cannot creep and the (burst+1)-th immediate take fails."""
    rng = rng_from(case_seed)
    rate = float(rng.uniform(0.05, 0.3))
    burst = float(rng.integers(1, 6))
    bucket = TokenBucket(rate, burst)
    t = float(rng.uniform(1.0, 10.0))
    bucket.try_take(t)  # disturb the full-bucket initial state
    t += 5e6  # idle far past the refill horizon
    for _ in range(int(burst)):
        assert bucket.try_take(t)
        assert bucket.tokens <= burst
    assert not bucket.try_take(t)


# ------------------------------------------------ hostile request schema
_FIELDS = (
    "tenant", "time", "code", "data_bytes",
    "frequency", "block_size", "n_mappers", "job_id",
)
#: One generator per value kind the schema must survive in any field.
_HOSTILE_KINDS = {
    "finite": lambda rng: rng.choice(
        [0.0, 1.0, 7.0, 1e9, 1e308, MAX_TIME_S, MAX_DATA_BYTES, MAX_DATA_BYTES + 1]
    ),
    "nan": lambda rng: float("nan"),
    "inf": lambda rng: rng.choice([float("inf"), float("-inf")]),
    "huge_int": lambda rng: rng.choice([2**64, 10**400, -(10**400)]),
    "fractional": lambda rng: rng.choice([0.5, 1.5, rng.random()]),
    "negative": lambda rng: rng.choice([-1, -0.5, -1e308]),
    "bool": lambda rng: rng.choice([True, False]),
    "str": lambda rng: rng.choice(["", "wc", "1e9", "nan"]),
    "none": lambda rng: None,
}


def _hostile_case(case_seed: int):
    """A service config and a request stream with hostile fields.

    Each request starts valid (monotone time, known app, sometimes
    explicit knobs, sometimes ``MAX_DATA_BYTES`` of input) and then has
    up to three fields replaced by a hostile value.
    """
    rng = random.Random(f"hostile:{case_seed}")
    config = ServiceConfig(
        n_nodes=rng.randint(1, 3),
        rate_per_s=rng.choice([0.1, 1.0, float("inf")]),
        burst=rng.choice([1.0, 4.0]),
        max_inflight=rng.choice([1, 4, 1_000_000]),
    )
    t = 0.0
    requests = []
    for _ in range(rng.randint(1, 16)):
        t += rng.expovariate(0.2)
        req = {
            "tenant": rng.choice(["a", "b"]),
            "time": t,
            "code": rng.choice(["wc", "st", "fp", "ts", "km"]),
            "data_bytes": rng.choice([rng.randint(1, 8 * GB), MAX_DATA_BYTES]),
        }
        if rng.random() < 0.5:
            req["frequency"] = rng.choice(ATOM_C2758.frequencies)
            req["block_size"] = rng.choice(HDFS_BLOCK_SIZES)
            req["n_mappers"] = rng.randint(1, ATOM_C2758.n_cores)
        for key in rng.sample(_FIELDS, rng.randint(0, 3)):
            req[key] = _HOSTILE_KINDS[rng.choice(list(_HOSTILE_KINDS))](rng)
        requests.append(req)
    return config, requests


def _assert_drains_clean(service: ClusterService, acks: list) -> None:
    for ack in acks:
        if ack["ok"] is False:
            assert isinstance(ack["error"], str) and ack["error"]
        else:
            assert ack["ok"] is True and isinstance(ack["accepted"], bool)
    status = service.status()
    assert status["requests"] == len(acks)
    assert status["requests"] == (
        status["accepted"] + status["rejected"] + status["malformed"]
    )
    assert status["malformed"] == sum(1 for a in acks if a["ok"] is False)
    assert status["accepted"] == sum(1 for a in acks if a.get("accepted"))
    # Refused payloads never reach admission: no tenant counts them.
    for tenant in service.tenants:
        assert tenant.submitted == tenant.accepted + tenant.rejected
    summary = service.drain()
    assert summary["completed"] == status["accepted"]
    assert math.isfinite(summary["energy_joules"])
    assert math.isfinite(summary["makespan"])


@seeded_cases(60)
def test_any_request_field_value_gets_an_ack_or_a_named_refusal(case_seed):
    config, requests = _hostile_case(case_seed)
    service = ClusterService(config)
    acks = [service.submit_request(req) for req in requests]
    _assert_drains_clean(service, acks)


def test_requests_at_the_bounds_drain_finite():
    service = ClusterService(ServiceConfig(n_nodes=2))
    at_bounds = [
        {"code": "wc", "data_bytes": MAX_DATA_BYTES, "time": 0.0},
        {"code": "st", "data_bytes": MAX_DATA_BYTES, "time": MAX_TIME_S},
        {"code": "fp", "data_bytes": 1, "time": MAX_TIME_S},
    ]
    beyond = [
        {"code": "wc", "data_bytes": MAX_DATA_BYTES + 1, "time": MAX_TIME_S},
        {"code": "wc", "data_bytes": 1, "time": MAX_TIME_S + 1},
    ]
    acks = [service.submit_request(req) for req in at_bounds + beyond]
    assert [a.get("accepted") for a in acks[:3]] == [True, True, True]
    assert [a["ok"] for a in acks[3:]] == [False, False]
    _assert_drains_clean(service, acks)
