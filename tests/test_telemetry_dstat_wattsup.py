"""dstat and Wattsup simulation tests."""

import numpy as np
import pytest

from repro.hardware import roster_from_classes
from repro.mapreduce.engine import ClusterEngine, NodeEngine
from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.telemetry.dstat import DstatMonitor, average_rows
from repro.telemetry.wattsup import PowerTrace, WattsupMeter
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app
from repro.workloads.streams import poisson_job_stream


@pytest.fixture(scope="module")
def solo_engine():
    engine = NodeEngine()
    engine.submit(
        JobSpec(
            instance=AppInstance(get_app("st"), 1 * GB),
            config=JobConfig(frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=4),
        )
    )
    engine.run_to_completion()
    return engine


class TestDstat:
    def test_rows_sum_to_100(self):
        rows = DstatMonitor().sample_run(
            AppInstance(get_app("wc"), 5 * GB), 2.4 * GHZ, 256 * MB, 8, seed=0
        )
        assert rows
        for r in rows:
            total = r.cpu_user + r.cpu_sys + r.cpu_idle + r.cpu_iowait
            assert total == pytest.approx(100.0, abs=0.5)

    def test_io_bound_app_shows_iowait(self):
        rows = DstatMonitor().sample_run(
            AppInstance(get_app("st"), 5 * GB), 2.4 * GHZ, 256 * MB, 8, seed=0
        )
        avg = average_rows(rows)
        assert avg["cpu_iowait"] > 25.0

    def test_compute_bound_app_shows_user(self):
        rows = DstatMonitor().sample_run(
            AppInstance(get_app("hmm"), 5 * GB), 2.4 * GHZ, 256 * MB, 8, seed=0
        )
        avg = average_rows(rows)
        assert avg["cpu_user"] > 70.0
        assert avg["cpu_iowait"] < 10.0

    def test_average_rows_empty_rejected(self):
        with pytest.raises(ValueError):
            average_rows([])


class TestWattsup:
    def test_trace_covers_horizon(self, solo_engine):
        meter = WattsupMeter(noise_watts=0.0)
        end = solo_engine.recorder.ends[-1]
        trace = meter.trace(solo_engine, until=end + 10)
        assert trace.duration_s >= end + 9
        idle = trace.samples_watts[-1]
        assert idle == pytest.approx(trace.idle_watts, abs=0.5)

    def test_busy_seconds_above_idle(self, solo_engine):
        meter = WattsupMeter(noise_watts=0.0)
        trace = meter.trace(solo_engine)
        assert trace.samples_watts[0] > trace.idle_watts

    def test_average_above_idle(self):
        trace = PowerTrace(samples_watts=np.array([40.0, 42.0]), idle_watts=31.0)
        assert trace.average_above_idle == pytest.approx(10.0)
        assert trace.energy_joules == pytest.approx(82.0)

    def test_window(self):
        trace = PowerTrace(samples_watts=np.arange(10.0), idle_watts=0.0)
        sub = trace.window(2, 5)
        assert sub.samples_watts.tolist() == [2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            trace.window(5, 2)

    def test_constant_trace(self):
        meter = WattsupMeter(noise_watts=0.0)
        trace = meter.constant_trace(45.0, 12.0)
        assert trace.duration_s == 12
        assert trace.average_watts == pytest.approx(45.0)
        with pytest.raises(ValueError):
            meter.constant_trace(-1.0, 5.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            PowerTrace(samples_watts=np.array([]), idle_watts=30.0)


def _rescan_reference(window, idle, n):
    """The O(seconds x segments) resampling loop over every segment of a
    window's ``(starts, ends, watts)``: the reference each sample must
    match bit for bit."""
    segments = list(zip(window.starts, window.ends, window.watts))
    samples = np.full(n, idle)
    for t in range(n):
        lo, hi = float(t), float(t + 1)
        acc = 0.0
        covered = 0.0
        for start, end, watts in segments:
            w = max(min(end, hi) - max(start, lo), 0.0)
            if w > 0:
                acc += watts * w
                covered += w
        samples[t] = acc + idle * (1.0 - covered)
    return samples


def _assert_matches_rescan(meter, engine, until=None):
    trace = meter.trace(engine, until=until)
    want = _rescan_reference(
        engine.recorder, meter.node.power.idle_power, len(trace.samples_watts)
    )
    assert np.array_equal(trace.samples_watts, want), engine.node_id
    return trace


class TestWattsupCursor:
    """Window-read samples against the rescan reference."""

    def test_cursor_byte_identical_to_rescan(self, solo_engine):
        _assert_matches_rescan(WattsupMeter(noise_watts=0.0), solo_engine)

    def test_cursor_byte_identical_on_colocated_trace(self):
        # Two co-resident jobs produce multiple segments per node with
        # boundary seconds covered by two segments each.
        engine = NodeEngine()
        for code, gb in (("st", 1), ("wc", 5)):
            engine.submit(
                JobSpec(
                    instance=AppInstance(get_app(code), gb * GB),
                    config=JobConfig(
                        frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=4
                    ),
                )
            )
        engine.run_to_completion()
        _assert_matches_rescan(WattsupMeter(noise_watts=0.0), engine)

    @pytest.mark.parametrize("classes", [("atom",) * 4, ("atom", "xeon") * 2])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_window_read_matches_rescan_on_seeded_cluster(self, classes, seed):
        # Poisson arrivals leave idle gaps between segments and
        # co-locate jobs; ``until`` past the last segment adds idle
        # seconds after it.
        n_jobs = 40
        cluster = ClusterEngine(roster=roster_from_classes(classes))
        for spec in poisson_job_stream(n_jobs, seed=seed, mean_interarrival_s=60.0):
            cluster.submit(spec)
        cluster.run()
        horizon = cluster.makespan
        for engine in cluster.nodes:
            meter = WattsupMeter(engine.node, noise_watts=0.0)
            trace = _assert_matches_rescan(meter, engine)
            assert trace.duration_s == max(np.ceil(engine.now), 1.0)
            _assert_matches_rescan(meter, engine, until=horizon + 30.5)
        windows = [engine.recorder for engine in cluster.nodes]
        # More segments than jobs: some job shared its node mid-run.
        assert sum(w.retained for w in windows) > n_jobs
        gaps = [s - e for w in windows for s, e in zip(w.starts[1:], w.ends)]
        assert max(gaps) > 1.0

    def test_noise_unchanged_by_cursor(self, solo_engine):
        # Seeded noise is drawn after resampling, so the metered trace
        # is the noiseless one plus the same normal draws as ever.
        noisy = WattsupMeter(noise_watts=2.0).trace(solo_engine, seed=123)
        clean = WattsupMeter(noise_watts=0.0).trace(solo_engine, seed=123)
        from repro.utils.rng import rng_from

        draws = rng_from(123).normal(0.0, 2.0, size=len(clean.samples_watts))
        want = np.maximum(clean.samples_watts + draws, 0.0)
        assert np.array_equal(noisy.samples_watts, want)

    def test_off_recorder_refused(self):
        engine = NodeEngine(recorder="off")
        engine.submit(
            JobSpec(
                instance=AppInstance(get_app("st"), 1 * GB),
                config=JobConfig(
                    frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=4
                ),
            )
        )
        engine.run_to_completion()
        with pytest.raises(RuntimeError, match="recorder='off'"):
            WattsupMeter().trace(engine)

    def test_streaming_window_refuses_dropped_seconds(self):
        cluster = ClusterEngine(n_nodes=2, recorder="streaming:3")
        for spec in poisson_job_stream(30, seed=3):
            cluster.submit(spec)
        cluster.run()
        engine = max(cluster.nodes, key=lambda n: n.recorder.dropped)
        assert engine.recorder.dropped > 0
        with pytest.raises(RuntimeError, match="retention bound"):
            WattsupMeter().trace(engine)
