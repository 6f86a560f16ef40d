"""Property suite at big-cluster scale (>= 256 nodes).

The scale-out PR replaced the engine's O(pending x nodes) placement
scan with a free-core segment tree + tombstone FIFO, and added a
bounded streaming recorder.  This suite pins the invariants those
structures must preserve, checked over generated workloads on
clusters of 256-512 nodes:

* every submitted job completes exactly once;
* no node is busy longer than the horizon;
* the O(1) prefix-sum energy path agrees with the windowed scan path;
* the indexed ``fifo_first_fit`` is placement-identical to a naive
  reference scan (differential test — same results, byte for byte);
* the streaming recorder answers every query a full recorder answers
  bit-identically while retention holds, keeps head-anchored windows
  exact after dropping, and refuses windows inside the dropped span;
* every recording mode refuses out-of-order segments;
* ``FreeCoreIndex`` and ``PendingQueue`` match list-based references
  under random operation sequences.

Cases come from hypothesis when available, else a seeded-parametrize
fallback (same scheme as ``tests/test_invariants_property.py``).
"""

from __future__ import annotations

import pytest

from repro.mapreduce.engine import (
    ClusterEngine,
    ColumnarIntervalRecorder,
    FullIntervalRecorder,
    StreamingIntervalRecorder,
)
from repro.mapreduce.indexes import FreeCoreIndex, PendingQueue
from repro.utils.rng import rng_from
from repro.workloads.streams import poisson_job_stream

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare boxes only
    HAVE_HYPOTHESIS = False


def seeded_cases(n: int):
    """Hypothesis integer cases, or a fixed seed sweep without it."""

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return given(case_seed=st.integers(min_value=0, max_value=2**31 - 1))(fn)
        return pytest.mark.parametrize("case_seed", range(n))(fn)

    return deco


# -------------------------------------------------------- generators
def _big_case(case_seed: int):
    """One big-cluster workload: 256-512 nodes, bursty arrivals."""
    rng = rng_from(case_seed)
    n_nodes = int(rng.choice([256, 384, 512]))
    n_jobs = int(rng.integers(50, 300))
    specs = list(
        poisson_job_stream(
            n_jobs,
            mean_interarrival_s=float(rng.uniform(0.05, 2.0)),
            seed=int(rng.integers(2**31)),
            tuned=bool(rng.integers(2)),
            job_ids_from=1,
        )
    )
    return n_nodes, specs


def _run(n_nodes, specs, *, recorder="off", scheduler=None):
    cluster = ClusterEngine(n_nodes, recorder=recorder, scheduler=scheduler)
    for s in specs:
        cluster.submit(s)
    results = cluster.run()
    return cluster, results


def _rows(results):
    return [
        (r.spec.label, r.node_id, r.start_time, r.finish_time, r.energy_joules)
        for r in results
    ]


# ---------------------------------------------- big-cluster invariants
@seeded_cases(12)
def test_big_cluster_completes_exactly_once(case_seed):
    n_nodes, specs = _big_case(case_seed)
    _cluster, results = _run(n_nodes, specs)
    assert sorted(r.spec.job_id for r in results) == sorted(
        s.job_id for s in specs
    )


@seeded_cases(10)
def test_big_cluster_busy_within_horizon(case_seed):
    n_nodes, specs = _big_case(case_seed)
    cluster, _results = _run(n_nodes, specs)
    horizon = cluster.now
    assert cluster.makespan <= horizon + 1e-6
    for node in cluster.nodes:
        node.advance_to(horizon)
        assert 0.0 <= node.busy_seconds <= horizon + 1e-6


@seeded_cases(8)
def test_big_cluster_prefix_sum_equals_scan(case_seed):
    n_nodes, specs = _big_case(case_seed)
    cluster, _results = _run(n_nodes, specs, recorder="full")
    horizon = max(cluster.now, 1.0)
    rng = rng_from(case_seed + 1)
    mid = float(rng.uniform(0.0, horizon))
    for node in cluster.nodes:
        node.advance_to(horizon)
        full = node.energy_between(0.0, horizon)  # O(1) prefix-sum path
        split = node.energy_between(0.0, mid) + node.energy_between(mid, horizon)
        assert split == pytest.approx(full, rel=1e-9, abs=1e-6)
        assert full >= 0.0


# -------------------------------------------- scheduler differential
def _reference_fifo_first_fit(cluster, t):
    """The pre-index scheduler: linear scan over nodes per placement."""
    while cluster.pending:
        spec = cluster.pending[0]
        for node in cluster.nodes:
            if node.can_fit(spec):
                cluster.place(spec, node.node_id)
                break
        else:
            return


@seeded_cases(10)
def test_first_fit_index_matches_reference_scan(case_seed):
    """Indexed placement == naive scan, byte for byte, at 256+ nodes."""
    n_nodes, specs = _big_case(case_seed)
    _c1, fast = _run(n_nodes, specs)
    _c2, naive = _run(n_nodes, specs, scheduler=_reference_fifo_first_fit)
    assert _rows(fast) == _rows(naive)
    assert _c1.edp() == _c2.edp()


# ----------------------------------------------- streaming recorder
@seeded_cases(10)
def test_streaming_recorder_matches_full_within_bound(case_seed):
    """With retention never exceeded, streaming == full on any window."""
    n_nodes, specs = _big_case(case_seed)
    c_full, r_full = _run(n_nodes, specs, recorder="full")
    c_str, r_str = _run(n_nodes, specs, recorder="streaming")
    assert _rows(r_full) == _rows(r_str)
    horizon = max(c_full.now, 1.0)
    rng = rng_from(case_seed + 2)
    windows = sorted(float(rng.uniform(0.0, horizon)) for _ in range(4))
    for nf, ns in zip(c_full.nodes, c_str.nodes):
        nf.advance_to(horizon)
        ns.advance_to(horizon)
        assert ns.energy_between(0.0, horizon) == nf.energy_between(0.0, horizon)
        for t0, t1 in zip(windows, windows[1:]):
            assert ns.energy_between(t0, t1) == nf.energy_between(t0, t1)


class _StubEngine:
    """Minimal NodeEngine stand-in for driving recorders directly."""

    node_id = 0

    class telemetry:  # noqa: N801 - attribute stand-in, not a real class
        @staticmethod
        def record_segment(node_id):
            pass

        @staticmethod
        def record_segments_dropped(node_id, n=1):
            pass


@seeded_cases(8)
def test_streaming_recorder_drops_keep_head_windows_exact(case_seed):
    """Past the bound: totals stay exact, interior pre-drop windows raise."""
    rng = rng_from(case_seed)
    eng = _StubEngine()
    full = FullIntervalRecorder()
    stream = StreamingIntervalRecorder(bound=8)
    t = 0.0
    segs = []
    for _ in range(int(rng.integers(30, 80))):
        t += float(rng.uniform(0.0, 2.0))
        dur = float(rng.uniform(0.1, 3.0))
        watts = float(rng.uniform(1.0, 40.0))
        full.record(eng, t, t + dur, watts)
        stream.record(eng, t, t + dur, watts)
        segs.append((t, t + dur))
        t += dur
    assert stream.dropped > 0
    assert stream.retained <= stream.bound
    horizon = t + 1.0
    # Head-anchored windows covering the dropped span: bit-identical.
    assert stream.busy_between(0.0, horizon) == full.busy_between(0.0, horizon)
    drop_end = stream._drop_end
    for t1 in (drop_end, drop_end + 0.5, horizon):
        assert stream.busy_between(0.0, t1) == full.busy_between(0.0, t1)
    # Windows entirely before the first segment are trivially empty.
    assert stream.busy_between(-5.0, segs[0][0]) == (0.0, 0.0)
    # Windows inside the retained suffix: bit-identical to full.
    lo = stream._lo
    t0 = stream.starts[lo]
    assert stream.busy_between(t0, horizon) == full.busy_between(t0, horizon)
    # Interior windows that reach into the dropped prefix must refuse.
    with pytest.raises(RuntimeError, match="retention bound"):
        stream.busy_between(segs[1][0], horizon)


@pytest.mark.parametrize(
    "make",
    [
        FullIntervalRecorder,
        ColumnarIntervalRecorder,
        lambda: StreamingIntervalRecorder(bound=4),
    ],
    ids=["full", "columnar", "streaming"],
)
def test_recorder_rejects_out_of_order(make):
    eng = _StubEngine()
    rec = make()
    rec.record(eng, 0.0, 1.0, 10.0)
    with pytest.raises(RuntimeError, match="time-ordered"):
        rec.record(eng, 0.5, 2.0, 10.0)


# ------------------------------------------------- index structures
@seeded_cases(25)
def test_free_core_index_matches_linear_scan(case_seed):
    rng = rng_from(case_seed)
    n = int(rng.integers(1, 600))
    cores = [int(rng.integers(0, 9)) for _ in range(n)]
    index = FreeCoreIndex(cores)
    for _ in range(200):
        if rng.integers(2):
            i = int(rng.integers(n))
            cores[i] = int(rng.integers(0, 9))
            index.set(i, cores[i])
        k = int(rng.integers(1, 10))
        expect = next((i for i, c in enumerate(cores) if c >= k), None)
        assert index.first_at_least(k) == expect


@seeded_cases(25)
def test_pending_queue_matches_list(case_seed):
    """Random append/remove/head/iter sequences == plain list FIFO."""
    rng = rng_from(case_seed)
    queue = PendingQueue()
    ref: list[object] = []
    pool = [object() for _ in range(40)]
    for _ in range(300):
        op = int(rng.integers(3))
        if op == 0:
            item = pool[int(rng.integers(len(pool)))]
            if item in ref:
                with pytest.raises(ValueError):
                    queue.append(item)
            else:
                queue.append(item)
                ref.append(item)
        elif op == 1 and ref:
            item = ref[int(rng.integers(len(ref)))]
            queue.remove(item)
            ref.remove(item)
        elif op == 1:
            with pytest.raises(ValueError):
                queue.remove(pool[0])
        assert len(queue) == len(ref)
        assert bool(queue) == bool(ref)
        assert list(queue) == ref
        if ref:
            assert queue[0] is ref[0]
