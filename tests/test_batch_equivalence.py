"""Differential testing of the SoA batch backend, to 1e-9.

Three independent answers exist for every solvable scenario: the
discrete-event engine (reference), the closed-form conformance
oracles, and the vectorised batch solvers.  This file drives the batch
backend over the full oracle matrix and a seeded fuzzer corpus and
requires:

* batch vs event engine within ``REL_TOL`` (1e-9) on makespan, total
  energy, EDP, node-0 busy seconds, and every per-job energy;
* batch vs oracle expectation within the same tolerance wherever the
  oracle dispatcher covers the scenario;
* zero fallbacks on the matrix (every matrix scenario is a solvable
  shape) and an honest, bounded fallback count on the fuzz corpus.
"""

from __future__ import annotations

import random

import pytest

from repro.batch import (
    BACKENDS,
    SOLVABLE_CASES,
    ScenarioBatch,
    classify,
    evaluate_scenarios,
)
from repro.conformance import oracle_expectation, oracle_matrix
from repro.conformance.fuzzer import generate_scenario
from repro.conformance.oracles import REL_TOL
from repro.telemetry.counters import BatchTelemetry

pytestmark = pytest.mark.batch

_MATRIX = oracle_matrix()
_FUZZ_N = 500
_FUZZ_SEED = 0

_QUANTITIES = ("makespan", "total_energy", "edp", "busy_seconds")


def _fuzz_corpus() -> list:
    return [
        generate_scenario(random.Random(f"{_FUZZ_SEED}:{i}"))
        for i in range(_FUZZ_N)
    ]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def _assert_close(got, want, scenario, what: str) -> None:
    for q in _QUANTITIES:
        assert _rel(getattr(got, q), getattr(want, q)) < REL_TOL, (
            f"{what}: {q} diverged on {scenario.to_source()}"
        )
    assert len(got.job_energies) == len(want.job_energies)
    for j, (g, w) in enumerate(zip(got.job_energies, want.job_energies)):
        assert _rel(g, w) < REL_TOL, (
            f"{what}: job_energies[{j}] diverged on {scenario.to_source()}"
        )


# ------------------------------------------------------------- matrix
def test_matrix_batch_agrees_with_event_engine():
    tel = BatchTelemetry()
    batch = evaluate_scenarios(_MATRIX, backend="batch", telemetry=tel)
    event = evaluate_scenarios(_MATRIX, backend="event")
    for scenario, b, e in zip(_MATRIX, batch, event):
        assert not b.fallback, (
            f"matrix scenario fell back: {scenario.to_source()}"
        )
        _assert_close(b, e, scenario, "batch vs event")
    assert tel.fallbacks == 0
    assert tel.batched == len(_MATRIX)
    # The matrix covers every solvable class.
    assert set(tel.by_case) == set(SOLVABLE_CASES)


def test_matrix_batch_agrees_with_oracles():
    batch = evaluate_scenarios(_MATRIX, backend="batch")
    for scenario, b in zip(_MATRIX, batch):
        expected = oracle_expectation(scenario)
        assert expected is not None
        assert _rel(b.makespan, expected.makespan) < REL_TOL
        assert _rel(b.total_energy, expected.total_energy) < REL_TOL
        assert _rel(b.edp, expected.edp) < REL_TOL


def test_matrix_pack_unpack_round_trip():
    batch = ScenarioBatch.from_scenarios(list(_MATRIX))
    assert len(batch) == len(_MATRIX)
    for original, restored in zip(_MATRIX, batch.scenarios()):
        assert restored.n_nodes == original.n_nodes
        assert restored.jobs == original.jobs
        assert restored.recorder == original.recorder
        assert restored.fault_events == original.fault_events


# --------------------------------------------------------- fuzz corpus
def test_fuzz_corpus_batch_agrees_with_event_engine():
    corpus = _fuzz_corpus()
    batch = evaluate_scenarios(corpus, backend="batch")
    event = evaluate_scenarios(corpus, backend="event")
    supported = 0
    for scenario, b, e in zip(corpus, batch, event):
        if b.fallback:
            # A fallback *is* an event run — it must match trivially,
            # and its classification must be outside the closed forms
            # or a chain whose arrivals overlapped.
            assert b.case == "event" or b.case in SOLVABLE_CASES
            continue
        supported += 1
        _assert_close(b, e, scenario, "batch vs event (fuzz)")
    # The generator's shape mix guarantees a healthy solvable share;
    # a collapse here means the classifier got too conservative.
    assert supported >= _FUZZ_N // 3


# ------------------------------------------------------------ plumbing
def test_backend_validation():
    with pytest.raises(ValueError, match="unknown backend"):
        evaluate_scenarios(list(_MATRIX[:1]), backend="gpu")
    assert BACKENDS == ("event", "batch")


def test_classify_routes_wide_sets_to_event():
    # 8+ co-resident jobs hit NumPy pairwise summation inside the
    # engine's context kernel; the batch layer must refuse them.
    from repro.conformance import Scenario, ScenarioJob
    from repro.utils.units import GB, GHZ, MB

    jobs = tuple(
        ScenarioJob(
            code="wc", data_bytes=1 * GB, frequency=1.2 * GHZ,
            block_size=128 * MB, n_mappers=1, submit_time=0.0,
        )
        for _ in range(8)
    )
    assert classify(Scenario(n_nodes=1, jobs=jobs)) == "event"


def test_colocation_context_soa_refuses_wide_and_invalid_sets():
    import numpy as np

    from repro.batch import colocation_context_soa
    from repro.batch.kernel import ProfileSoA
    from repro.workloads.registry import get_app

    p1 = ProfileSoA.from_profiles([get_app("wc").profile])
    wide = p1.take(np.zeros((1, 8), dtype=np.intp))
    with pytest.raises(ValueError, match="event engine"):
        colocation_context_soa(
            wide, np.ones((1, 8)), np.ones((1, 8), dtype=bool)
        )
    pair = p1.take(np.zeros((1, 2), dtype=np.intp))
    with pytest.raises(ValueError, match="mapper counts"):
        colocation_context_soa(
            pair, np.zeros((1, 2)), np.ones((1, 2), dtype=bool)
        )


def test_telemetry_merge_and_snapshot():
    a = BatchTelemetry()
    a.record_scenario("single", "batch", False)
    a.record_kernel(3)
    b = BatchTelemetry()
    b.record_scenario("pair", "event", True)
    b.record_scenario("single", "batch", False)
    b.record_kernel(1)
    merged = a.merge(b)
    assert merged is a
    assert a.scenarios == 3 and a.fallbacks == 1 and a.batched == 2
    assert a.by_case == {"single": 2, "pair": 1}
    snap = a.as_dict()
    assert snap["case_single"] == 2
    assert snap["batched_rate"] == pytest.approx(2 / 3)
    assert snap["mean_lanes_per_call"] == pytest.approx(2.0)
    empty = BatchTelemetry()
    assert empty.batched_rate is None
    assert empty.mean_lanes_per_call is None


def test_telemetry_counts_fallbacks():
    corpus = _fuzz_corpus()[:100]
    tel = BatchTelemetry()
    outcomes = evaluate_scenarios(corpus, backend="batch", telemetry=tel)
    assert tel.scenarios == len(corpus)
    assert tel.fallbacks == sum(1 for o in outcomes if o.fallback)
    assert tel.batched == sum(1 for o in outcomes if not o.fallback)
    assert tel.kernel_lanes <= len(corpus)
