"""The engine hot path: recontext cache, event core, recorders, energy.

Covers the fast-path machinery the discrete-event rewrite introduced:
memoized recontexting (hit/miss/poisoning semantics, LRU bounds),
generation-counter invalidation of completion checks (including
coincident completions), the pluggable interval recorders, the
prefix-sum energy accounting, and the single-pass FIFO first-fit
scheduler against a reference implementation of the original
quadratic loop.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.mapreduce.engine import (
    ClusterEngine,
    NodeEngine,
    RecontextCache,
    fifo_first_fit,
    make_recorder,
)
from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance, AppProfile, Application
from repro.workloads.registry import get_app
from repro.workloads.streams import poisson_job_stream


def _spec(code="wc", size=1 * GB, f=2.4 * GHZ, b=128 * MB, m=2, t=0.0):
    return JobSpec(
        instance=AppInstance(get_app(code), size),
        config=JobConfig(frequency=f, block_size=b, n_mappers=m),
        submit_time=t,
    )


def _stream_cluster(n_jobs=200, **kw):
    cluster = ClusterEngine(n_nodes=8, **kw)
    for s in poisson_job_stream(n_jobs, tuned=True):
        cluster.submit(s)
    cluster.run()
    return cluster


# ------------------------------------------------------- recontext cache
class TestRecontextCache:
    def test_identical_sets_hit(self):
        """The same running set twice costs one kernel evaluation."""
        cache = RecontextCache()
        e1 = NodeEngine(cache=cache)
        e1.submit(_spec())
        e2 = NodeEngine(cache=cache)
        e2.submit(_spec())
        tel = cache.telemetry
        assert tel.recontext_misses == 1  # e1 paid the kernel
        assert tel.recontext_hits == 1  # e2 rode the set entry
        assert tel.recontext_hit_rate == 0.5

    def test_job_level_fallback_on_new_set(self):
        """A new set reuses per-(job, context) entries of old sets."""
        cache = RecontextCache()
        e1 = NodeEngine(cache=cache)
        e1.submit(_spec(m=2))
        e1.submit(_spec("st", m=2))  # set (wc, st): 2 kernel evals
        evals_before = cache.telemetry.kernel_evals
        e2 = NodeEngine(cache=cache)
        e2.submit(_spec(m=2))
        e2.submit(_spec("st", m=2))
        e2.submit(_spec("gp", m=2))  # new set, but wc/st contexts differ
        # The triple's couplings differ from the pair's, so only truly
        # identical (identity, context) pairs are reused.
        assert cache.telemetry.kernel_evals >= evals_before

    def test_lru_bound(self):
        cache = RecontextCache(maxsize=2)
        cache.put(("job", "a"), 1)
        cache.put(("job", "b"), 2)
        cache.put(("job", "c"), 3)
        assert len(cache) == 2
        assert cache.get(("job", "a")) is None  # evicted (oldest)
        assert cache.get(("job", "c")) == 3

    def test_lru_touch_on_get(self):
        cache = RecontextCache(maxsize=2)
        cache.put(("k", 1), "one")
        cache.put(("k", 2), "two")
        cache.get(("k", 1))  # now most-recent
        cache.put(("k", 3), "three")
        assert cache.get(("k", 2)) is None
        assert cache.get(("k", 1)) == "one"

    def test_maxsize_validation(self):
        with pytest.raises(ValueError, match="maxsize"):
            RecontextCache(maxsize=0)

    def test_clear(self):
        cache = RecontextCache()
        cache.put(("k",), 1)
        cache.clear()
        assert len(cache) == 0


class TestCachePoisoning:
    def test_poisoned_entry_detected_and_recomputed(self):
        """An entry whose key echo disagrees with its slot is rejected."""
        cache = RecontextCache()
        warm = NodeEngine(cache=cache)
        warm.submit(_spec())
        warm.run_to_completion()
        # Corrupt every entry's echo so all of them look poisoned.
        for key in list(cache._data):
            echo, value = cache._data[key]
            cache._data[key] = (("poisoned",) + echo, value)
        # Any further lookup must reject the slot, recompute, and count.
        e = NodeEngine(cache=cache)
        e.submit(_spec())
        e.run_to_completion()
        assert cache.telemetry.recontext_rejects > 0

    def test_poisoned_values_never_served(self):
        """Even a poisoned warm cache yields the clean run's numbers."""
        specs = list(poisson_job_stream(60, tuned=True))
        clean = ClusterEngine(n_nodes=4)
        for s in specs:
            clean.submit(s)
        clean.run()

        cache = RecontextCache()
        warm = ClusterEngine(n_nodes=4, metrics_cache=cache)
        for s in poisson_job_stream(60, tuned=True):
            warm.submit(s)
        warm.run()
        for key in list(cache._data):
            echo, value = cache._data[key]
            cache._data[key] = (("poisoned",) + echo, value)

        replay = ClusterEngine(n_nodes=4, metrics_cache=cache)
        for s in poisson_job_stream(60, tuned=True):
            replay.submit(s)
        replay.run()
        assert cache.telemetry.recontext_rejects > 0
        assert replay.makespan == clean.makespan
        assert replay.total_energy() == clean.total_energy()


class TestRecontextKeys:
    def test_a_hit_hashes_no_profile(self, monkeypatch):
        """A running job's key names its profile by an id the cache
        interned at submit, so a recontext that hits the cache never
        walks an AppProfile's fields to hash it."""
        cache = RecontextCache()
        warm = NodeEngine(cache=cache)
        warm.submit(_spec(m=2))
        warm.submit(_spec("st", m=2))
        warm.run_to_completion()
        e = NodeEngine(cache=cache)
        e.submit(_spec(m=2))
        e.submit(_spec("st", m=2))
        hashed = []
        original = AppProfile.__hash__

        def counting_hash(profile):
            hashed.append(profile)
            return original(profile)

        monkeypatch.setattr(AppProfile, "__hash__", counting_hash)
        hits = cache.telemetry.recontext_hits
        e.run_to_completion()  # the first completion recontexts the other job
        assert cache.telemetry.recontext_hits > hits
        assert hashed == []

    def test_equal_profiles_share_entries(self):
        """Distinct but equal profile objects get one id, so they share
        cache entries exactly as equal profiles always did."""
        base = get_app("wc").profile
        app = Application()
        app.profile = dataclasses.replace(base)
        assert app.profile is not base and app.profile == base
        cache = RecontextCache()
        NodeEngine(cache=cache).submit(_spec(m=2))
        copy = NodeEngine(cache=cache)
        copy.submit(
            JobSpec(
                instance=AppInstance(app, 1 * GB),
                config=JobConfig(frequency=2.4 * GHZ, block_size=128 * MB, n_mappers=2),
            )
        )
        assert cache.telemetry.recontext_hits == 1

    def test_no_profile_outlives_its_engine(self):
        """The profile ids live in the engine's own cache: once an
        engine that saw 10k distinct profiles is gone, nothing at module
        level keeps any of them alive."""
        refs = _run_distinct_profiles(10_000)
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0


def _run_distinct_profiles(n: int) -> list[weakref.ref]:
    """Run ``n`` jobs, each with its own profile, through one engine and
    return weak references to the profiles."""
    base = get_app("wc").profile
    config = JobConfig(frequency=2.4 * GHZ, block_size=128 * MB, n_mappers=2)
    engine = NodeEngine(recorder="off")
    refs = []
    for i in range(n):
        app = Application()
        app.profile = dataclasses.replace(
            base, instructions_per_byte=base.instructions_per_byte * (1.0 + i * 1e-6)
        )
        refs.append(weakref.ref(app.profile))
        engine.submit(JobSpec(instance=AppInstance(app, 1 * GB), config=config))
        engine.run_to_completion()
    assert len(engine.finished) == n
    assert engine.telemetry.kernel_evals == n  # every profile was a miss
    return refs


# ------------------------------------------------------------ event core
class TestEventCore:
    def test_coincident_completions_no_crash(self):
        """Two identical jobs finish at the same instant — both must
        complete, with no bare StopIteration from the check handler."""
        cluster = ClusterEngine(n_nodes=1)
        cluster.submit(_spec(m=2, t=0.0))
        cluster.submit(_spec(m=2, t=0.0))
        results = cluster.run()
        assert len(results) == 2
        assert results[0].finish_time == results[1].finish_time

    def test_stale_checks_counted_not_processed(self):
        cluster = _stream_cluster(200)
        tel = cluster.telemetry
        assert tel.stale_events > 0
        assert tel.live_events == tel.events - tel.stale_events
        assert len(cluster.results) == 200

    def test_generation_advances_on_membership_change(self):
        e = NodeEngine()
        g0 = e.generation
        e.submit(_spec(m=2))
        g1 = e.generation
        assert g1 > g0
        e.run_to_completion()
        assert e.generation > g1

    def test_hit_rate_on_tuned_stream(self):
        """The acceptance-criterion regime: ≥80% recontext hits."""
        cluster = _stream_cluster(1000, recorder="off")
        assert cluster.telemetry.recontext_hit_rate >= 0.8


# ------------------------------------------------------------- recorders
class TestRecorders:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown recorder"):
            make_recorder("verbose")
        with pytest.raises(ValueError, match="unknown recorder"):
            ClusterEngine(n_nodes=1, recorder="verbose")

    def test_off_mode_identical_outcomes(self):
        full = _stream_cluster(100, recorder="full")
        off = _stream_cluster(100, recorder="off")
        assert off.makespan == full.makespan
        assert off.total_energy() == full.total_energy()

    def test_off_mode_blocks_interval_queries(self):
        off = _stream_cluster(50, recorder="off")
        with pytest.raises(RuntimeError, match="recorder"):
            off.nodes[0].energy_between(1.0, 2.0)  # windowed needs segments
        # Full-horizon energy still works (prefix sums).
        assert off.total_energy() > 0

    def test_columnar_agrees_with_full(self):
        full = _stream_cluster(100, recorder="full")
        col = _stream_cluster(100, recorder="columnar")
        assert col.makespan == full.makespan
        assert col.total_energy() == full.total_energy()
        # Windowed queries agree too (same segments, no job tuples).
        t1 = full.makespan / 3
        for nf, nc in zip(full.nodes, col.nodes):
            assert nc.energy_between(100.0, t1) == nf.energy_between(100.0, t1)


# ------------------------------------------------------ energy fast path
class TestEnergyPrefixSums:
    def test_full_horizon_matches_interval_scan(self):
        cluster = _stream_cluster(150)
        h = cluster.makespan
        for node in cluster.nodes:
            fast = node.energy_between(0.0, h)
            busy, covered = node.recorder.busy_between(0.0, h)
            scan = busy + node.node.power.idle_power * ((h - 0.0) - covered)
            assert fast == scan

    def test_windowed_query_uses_scan(self):
        cluster = _stream_cluster(150)
        h = cluster.makespan
        node = cluster.nodes[0]
        # A window strictly inside the busy span cannot take the fast
        # path; it must agree with direct segment integration.
        t0, t1 = h * 0.25, h * 0.5
        busy, covered = node.recorder.busy_between(t0, t1)
        expect = busy + node.node.power.idle_power * ((t1 - t0) - covered)
        assert node.energy_between(t0, t1) == expect

    def test_subwindows_sum_to_total(self):
        engine = NodeEngine()
        engine.submit(_spec(m=4))
        engine.run_to_completion()
        end = engine.now
        total = engine.energy_between(0.0, end)
        split = engine.energy_between(0.0, end / 2) + engine.energy_between(
            end / 2, end
        )
        assert split == pytest.approx(total, rel=1e-12)


# -------------------------------------------------------- fifo first fit
def _reference_fifo_first_fit(cluster: ClusterEngine, t: float) -> None:
    """The original quadratic restart loop, kept as the behavioral
    reference for the single-pass rewrite."""
    placed = True
    while placed:
        placed = False
        for spec in list(cluster.pending):
            for engine in cluster.nodes:
                if engine.can_fit(spec):
                    cluster.place(spec, engine.node_id)
                    placed = True
                    break
            else:
                return


class TestFifoFirstFit:
    def _run(self, scheduler, n_jobs=300):
        cluster = ClusterEngine(n_nodes=8, scheduler=scheduler, recorder="off")
        for s in poisson_job_stream(n_jobs, seed=3):
            cluster.submit(s)
        cluster.run()
        return cluster

    def test_placement_order_matches_reference(self):
        """Regression: the cursor rewrite places every job on the same
        node at the same time as the quadratic original."""
        fast = self._run(fifo_first_fit)
        ref = self._run(_reference_fifo_first_fit)
        # job_ids differ between runs (global counter) but arrival order
        # is identical, so compare by submission order.
        fast_by_order = sorted(fast.results, key=lambda r: r.spec.job_id)
        ref_by_order = sorted(ref.results, key=lambda r: r.spec.job_id)
        assert [
            (r.node_id, r.start_time, r.finish_time) for r in fast_by_order
        ] == [(r.node_id, r.start_time, r.finish_time) for r in ref_by_order]
        assert fast.makespan == ref.makespan
        assert fast.total_energy() == ref.total_energy()

    def test_head_of_line_blocking_preserved(self):
        """A big job at the head blocks later small ones (FIFO)."""
        cluster = ClusterEngine(n_nodes=1)
        cluster.submit(_spec(m=6, t=0.0))  # occupies 6 of 8 cores
        big = _spec(m=8, t=1.0)  # cannot fit until node drains
        small = _spec(m=1, t=2.0)  # could fit, but queued behind big
        cluster.submit(big)
        cluster.submit(small)
        results = {r.spec.job_id: r for r in cluster.run()}
        assert results[small.job_id].start_time >= results[big.job_id].start_time


# -------------------------------------------------- windowed busy queries
class TestWindowedBusyIndex:
    """The bisect-bounded segment window vs the legacy full scan."""

    @staticmethod
    def _full_scan(node, t0, t1):
        """The pre-index reference: one pass over every segment."""
        busy = 0.0
        covered = 0.0
        rec = node.recorder
        for start, end, watts in zip(rec.starts, rec.ends, rec.watts):
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                busy += watts * (hi - lo)
                covered += hi - lo
        return busy, covered

    @pytest.mark.parametrize("recorder", ["full", "columnar", "streaming"])
    def test_windows_bit_identical_to_full_scan(self, recorder):
        cluster = _stream_cluster(150, recorder=recorder)
        h = cluster.makespan
        windows = [
            (0.0, h),            # head-anchored full horizon (prefix path)
            (0.0, h * 0.4),      # head-anchored partial (prefix path)
            (h * 0.2, h * 0.7),  # interior (bounded scan)
            (h * 0.9, h * 2.0),  # tail past the horizon
            (h * 0.33, h * 0.34),  # narrow interior
        ]
        for node in cluster.nodes:
            for t0, t1 in windows:
                got = node.recorder.busy_between(t0, t1)
                want = self._full_scan(node, t0, t1)
                assert got == want, (node.node_id, t0, t1)

    def test_empty_and_disjoint_windows(self):
        engine = NodeEngine()
        engine.submit(_spec(m=4))
        engine.run_to_completion()
        end = engine.now
        assert engine.recorder.busy_between(end + 10, end + 20) == (0.0, 0.0)
        assert engine.recorder.busy_between(5.0, 5.0) == (0.0, 0.0)

    def test_columnar_windows_match_full_recorder(self):
        full = _stream_cluster(100, recorder="full")
        col = _stream_cluster(100, recorder="columnar")
        h = full.makespan
        for t0, t1 in [(0.0, h * 0.5), (h * 0.25, h * 0.75)]:
            for nf, nc in zip(full.nodes, col.nodes):
                assert nc.recorder.busy_between(t0, t1) == nf.recorder.busy_between(
                    t0, t1
                )
