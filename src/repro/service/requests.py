"""Submission-request schema, validation, and seeded request streams.

A submission request is a flat JSON-able dict::

    {"tenant": "alice", "time": 12.5, "code": "wc", "data_bytes": 5e9,
     "frequency": 2.4e9, "block_size": 268435456, "n_mappers": 4,
     "job_id": 17}

``tenant`` and ``time`` default (to the service's default tenant and
its clock); the knob triple defaults to the application's *tuned*
class configuration (:data:`~repro.workloads.streams.
TUNED_CLASS_CONFIGS`) when omitted, so a client can submit just
``{"code": "wc", "data_bytes": 5e9}``.  Validation happens at the
edge: a malformed request is rejected with a message, never an engine
exception mid-simulation.

:func:`seeded_requests` derives a deterministic multi-tenant request
stream from :func:`~repro.workloads.streams.poisson_job_stream` — the
same generator the offline benchmarks use — so a service ingest run
and an offline batch run can be compared bit for bit on the same job
sequence (:func:`requests_to_specs` rebuilds the offline job list).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.utils.rng import SeedLike, derive_rng
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app
from repro.workloads.streams import TUNED_CLASS_CONFIGS, poisson_job_stream


#: Latest arrival time a request may carry, in seconds (about 136
#: years of virtual time).  The engine checks completions to an
#: absolute 1e-6 s, and near a 2**35 s clock the float resolution
#: alone trips that check, so arrivals stay well below it.
MAX_TIME_S = 2**32
#: Largest input a request may carry: 1 TiB, a hundred times the
#: paper's largest per-node input.  Such a job runs about 1e5 s, so
#: even queues of them keep the clock in range.
MAX_DATA_BYTES = 2**40


class RequestError(ValueError):
    """A malformed submission request (rejected at the service edge)."""


@dataclass(frozen=True)
class JobRequest:
    """One validated submission request.

    ``config`` is the knob triple :func:`parse_request` validated; the
    spec :meth:`build_spec` returns carries that same object.
    """

    tenant: str
    time: float
    code: str
    data_bytes: int
    config: JobConfig
    job_id: int | None = None

    def build_spec(self) -> JobSpec:
        """The engine-side job this request describes."""
        instance = AppInstance(get_app(self.code), self.data_bytes)
        if self.job_id is None:
            return JobSpec(instance=instance, config=self.config, submit_time=self.time)
        return JobSpec(
            instance=instance,
            config=self.config,
            submit_time=self.time,
            job_id=self.job_id,
        )


def _number(payload: dict, key: str, *, required: bool = True):
    value = payload.get(key)
    if value is None:
        if required:
            raise RequestError(f"missing required field {key!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            f"field {key!r} must be a number, got {type(value).__name__}"
        )
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the double range
        finite = False
    if not finite:
        raise RequestError(f"field {key!r} must be a finite number")
    return value


def parse_request(
    payload: dict,
    *,
    default_tenant: str = "default",
    default_time: float | None = None,
    node: NodeSpec = ATOM_C2758,
) -> JobRequest:
    """Validate one submission payload into a :class:`JobRequest`.

    ``default_time`` is the service clock's now — used when the payload
    carries no explicit ``time`` (wall-clock mode always overrides with
    its own now; the virtual-clock service requires one of the two).
    Raises :class:`RequestError` with a client-presentable message, and
    nothing else: a payload that passes builds a job the engine accepts,
    so a refused request never reaches admission.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    tenant = payload.get("tenant", default_tenant)
    if not isinstance(tenant, str) or not tenant:
        raise RequestError("field 'tenant' must be a non-empty string")
    t = _number(payload, "time", required=False)
    if t is None:
        if default_time is None:
            raise RequestError("missing required field 'time'")
        t = default_time
    if not 0 <= t <= MAX_TIME_S:
        raise RequestError(f"field 'time' must be in [0, 2**32], got {t}")
    code = payload.get("code")
    if not isinstance(code, str):
        raise RequestError("missing required field 'code'")
    try:
        app = get_app(code)
    except KeyError as exc:
        raise RequestError(str(exc.args[0])) from None
    data_bytes = _number(payload, "data_bytes")
    if not 1 <= data_bytes <= MAX_DATA_BYTES:  # int() truncates 0.5 to 0
        raise RequestError(
            f"field 'data_bytes' must be in [1, 2**40], got {data_bytes}"
        )
    tuned = TUNED_CLASS_CONFIGS[app.app_class.value]
    frequency = _number(payload, "frequency", required=False)
    block_size = _number(payload, "block_size", required=False)
    n_mappers = _number(payload, "n_mappers", required=False)
    try:
        config = JobConfig(
            frequency=float(frequency if frequency is not None else tuned.frequency),
            block_size=int(block_size if block_size is not None else tuned.block_size),
            n_mappers=int(n_mappers if n_mappers is not None else tuned.n_mappers),
        ).validate_for(node)
    except ValueError as exc:
        raise RequestError(str(exc.args[0])) from None
    job_id = payload.get("job_id")
    if job_id is not None and (isinstance(job_id, bool) or not isinstance(job_id, int)):
        raise RequestError(
            f"field 'job_id' must be an integer, got {type(job_id).__name__}"
        )
    return JobRequest(
        tenant=tenant,
        time=float(t),
        code=code,
        data_bytes=int(data_bytes),
        config=config,
        job_id=job_id,
    )


def spec_to_request(spec: JobSpec, tenant: str) -> dict:
    """The request payload that reproduces ``spec`` exactly."""
    return {
        "tenant": tenant,
        "time": spec.submit_time,
        "code": spec.instance.app.code,
        "data_bytes": spec.instance.data_bytes,
        "frequency": spec.config.frequency,
        "block_size": spec.config.block_size,
        "n_mappers": spec.config.n_mappers,
        "job_id": spec.job_id,
    }


def seeded_requests(
    n_jobs: int,
    *,
    seed: SeedLike = 0,
    tenants: Sequence[str] = ("t0", "t1", "t2"),
    mean_interarrival_s: float = 6.0,
    tuned: bool = True,
    job_ids_from: int = 1,
) -> list[dict]:
    """A deterministic multi-tenant request stream.

    Jobs come from :func:`poisson_job_stream` (the canonical seeded
    generator); tenant assignment is drawn from an *independent* rng
    stream (:func:`~repro.utils.rng.derive_rng`), so the job sequence —
    and therefore the offline comparison run — is byte-for-byte the one
    ``poisson_job_stream`` produces *for the same keyword arguments*:
    this function defaults to ``tuned=True`` and ``job_ids_from=1``
    where the plain stream defaults to ``tuned=False`` and per-process
    counter ids, so the matching offline call is
    ``poisson_job_stream(n, seed=seed, tuned=tuned,
    mean_interarrival_s=mean_interarrival_s,
    job_ids_from=job_ids_from)``.  Pinned ``job_ids_from`` also makes
    the ids — and every label derived from them — identical across
    ``REPRO_WORKERS`` pool workers (the per-process default counter is
    not).
    """
    if not tenants:
        raise ValueError("at least one tenant is required")
    tenant_rng = derive_rng(seed, "tenants")
    out = []
    for spec in poisson_job_stream(
        n_jobs,
        seed=seed,
        tuned=tuned,
        mean_interarrival_s=mean_interarrival_s,
        job_ids_from=job_ids_from,
    ):
        tenant = tenants[int(tenant_rng.integers(len(tenants)))]
        out.append(spec_to_request(spec, tenant))
    return out


def requests_to_specs(requests: Iterable[dict]) -> list[JobSpec]:
    """The offline job list equivalent to ``requests`` (in order).

    Used by the soak suite to drive a plain :class:`ClusterEngine` with
    exactly the jobs the service accepted.
    """
    return [parse_request(r, default_time=None).build_spec() for r in requests]
