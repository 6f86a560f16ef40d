"""Every counter family's numeric export, pinned to a golden file.

``tests/golden/telemetry_counters.json`` holds the numeric ``as_dict``
entries of the three counter families (engine, service, online) and
one whole service ``metrics_snapshot()``, captured from the seeded
inputs below.  ``MetricsRegistry`` snapshots, the service's
``/metrics`` body and the ``metrics`` block of ``tools/bench.py``
payloads are all built from these exports, so a change to how the
counters are declared must leave every key, value and number type
here unchanged.

Regenerate, only when a counter is meant to change, with
``PYTHONPATH=src python tests/test_telemetry_counters.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.faults import FaultInjector, InjectionPlan
from repro.mapreduce.engine import ClusterEngine
from repro.service import ClusterService, ServiceConfig, seeded_requests
from repro.telemetry.counters import (
    EngineTelemetry,
    OnlineTelemetry,
    ServiceTelemetry,
)
from repro.workloads.streams import poisson_job_stream

pytestmark = pytest.mark.golden

GOLDEN = Path(__file__).parent / "golden" / "telemetry_counters.json"


def _numeric(values: dict) -> dict:
    """The entries ``MetricsRegistry.snapshot`` keeps."""
    return {
        k: v
        for k, v in values.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def _engine_run(recorder: str) -> dict:
    """A seeded 60-job FIFO run on 4 nodes under a seeded fault plan."""
    cluster = ClusterEngine(n_nodes=4, recorder=recorder)
    for spec in poisson_job_stream(
        60, seed=11, tuned=True, job_ids_from=1, mean_interarrival_s=4.0
    ):
        cluster.submit(spec)
    plan = InjectionPlan.generate(4, 600.0, rate_per_1ks=20.0, seed=5)
    FaultInjector(cluster, plan).install()
    cluster.run()
    return _numeric(cluster.telemetry.as_dict())


def _engine_calls() -> dict:
    """Every engine ``record_*`` method, including the counters a short
    seeded run leaves at zero (wasted duplicates, blacklists, block
    recovery, poisoned cache entries)."""
    tel = EngineTelemetry()
    for stale in (False, False, True):
        tel.record_event(stale=stale)
    for kind in ("task_fail", "node_crash", "node_recover", "straggler", "task_fail"):
        tel.record_fault(kind)
    tel.record_retry()
    tel.record_speculative()
    tel.record_speculative(wasted=True)
    tel.record_rereplication(5, 2)
    tel.record_blacklist()
    tel.record_recontext(hit=True, jobs=3)
    tel.record_recontext(hit=False, jobs=2)
    tel.record_reject()
    for node_id in (0, 2, 2, 1, 2):
        tel.record_segment(node_id)
    tel.record_segments_dropped(2, 2)
    tel.record_segments_dropped(0)
    return _numeric(tel.as_dict())


def _service() -> tuple[dict, dict]:
    """A FIFO service refusing requests for every admission reason, fed
    malformed payloads too: its counters mid-stream, then the whole
    ``/metrics`` snapshot after the drain.  Every job id is pinned: an
    unpinned one comes from a per-process counter."""
    service = ClusterService(
        ServiceConfig(
            n_nodes=4, rate_per_s=0.02, burst=2.0, max_inflight=3, max_pending=9
        )
    )
    for i, req in enumerate(seeded_requests(40, seed=4, mean_interarrival_s=20.0)):
        service.submit_request(req)
        if i % 4 == 0:
            for k in range(3):
                service.submit_request(
                    {"tenant": "hog", "code": "wc", "data_bytes": 10**8,
                     "time": req["time"], "job_id": 1000 + 3 * i + k}
                )
        if i % 10 == 3:
            service.submit_request(
                {"code": "nope", "data_bytes": 1, "time": req["time"]}
            )
    live = _numeric(service.telemetry.as_dict())
    service.drain()
    return live, service.metrics_snapshot()


def _online_fields() -> dict:
    """Direct field updates, as ``OnlineSTP`` and ``ShadowSTP`` make them."""
    tel = OnlineTelemetry()
    tel.updates = 41
    tel.refits = 3
    tel.drift_alarms = 2
    tel.relearn_sweeps = 4
    tel.tuned_hits = 17
    tel.skipped_rows = 1
    tel.noisy_rows = 5
    tel.window_rows = 32
    tel.decisions = 12
    tel.promotions = 1
    tel.promoted_at = 9
    tel.champion_regret = 1234.5
    tel.challenger_regret = 0.1 + 0.2
    return _numeric(tel.as_dict())


def compute_pins() -> dict[str, dict]:
    service_live, service_snapshot = _service()
    return {
        "engine_full": _engine_run("full"),
        "engine_streaming_8": _engine_run("streaming:8"),
        "engine_off": _engine_run("off"),
        "engine_calls": _engine_calls(),
        "engine_empty": _numeric(EngineTelemetry().as_dict()),
        "service_live": service_live,
        "service_snapshot": service_snapshot,
        "service_empty": _numeric(ServiceTelemetry().as_dict()),
        "online_fields": _online_fields(),
        "online_empty": _numeric(OnlineTelemetry().as_dict()),
    }


def _dump(pins: dict) -> str:
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def pins():
    return compute_pins()


def test_every_pin_is_in_the_golden(pins):
    assert sorted(pins) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_export_matches_golden(pins, name):
    assert pins[name] == EXPECTED[name]
    # Equal dicts can still differ in number type (1 against 1.0),
    # which the JSON exports would show.
    assert _dump(pins[name]) == _dump(EXPECTED[name])


if __name__ == "__main__":
    GOLDEN.write_text(_dump(compute_pins()))
