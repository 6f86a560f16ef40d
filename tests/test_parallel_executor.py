"""Parallel sweep executor: determinism, telemetry.

The load-bearing property is *bit-identical equivalence*: every array
and every chosen configuration from the process-pool path must equal
the serial path exactly — a database built with ``REPRO_WORKERS=8``
is the same object as one built with ``REPRO_WORKERS=1``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.stp import SoloSTP, build_offline, describe_instance
from repro.model.sweep import sweep_pair, sweep_solo
from repro.parallel import WORKERS_ENV, SweepExecutor, worker_count
from repro.telemetry.counters import SweepTelemetry
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app


@pytest.fixture(scope="module")
def small_pairs():
    a = AppInstance(get_app("st"), 1 * GB)
    b = AppInstance(get_app("wc"), 1 * GB)
    c = AppInstance(get_app("ts"), 5 * GB)
    return [(a, b), (b, c), (a, a)]


@pytest.fixture(scope="module")
def small_instances():
    return [AppInstance(get_app(code), 1 * GB) for code in ("wc", "st", "ts")]


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count() == 1

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert worker_count() == 4

    @pytest.mark.parametrize("raw", ["0", "auto", "AUTO"])
    def test_env_auto(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        assert worker_count() == (os.cpu_count() or 1)

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert worker_count(2) == 2

    def test_explicit_zero_means_all_cores(self):
        assert worker_count(0) == (os.cpu_count() or 1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            worker_count()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            worker_count(-1)


def _square(x: int) -> int:
    return x * x


FAULT_KWARGS = dict(rates=(0.0, 5.0), n_jobs=24, mean_interarrival_s=4.0, n_nodes=3)


def _fault_replica(fault_seed: int):
    from repro.experiments.fault_tolerance import run_fault_tolerance

    return run_fault_tolerance(fault_seed=fault_seed, **FAULT_KWARGS)


class TestMap:
    def test_serial_order_preserved(self):
        assert SweepExecutor(1).map(_square, range(10)) == [i * i for i in range(10)]

    def test_parallel_order_preserved(self):
        assert SweepExecutor(2).map(_square, range(10)) == [i * i for i in range(10)]

    def test_empty(self):
        assert SweepExecutor(2).map(_square, []) == []

    def test_fault_replicas_equal_direct_calls(self):
        """An engine run with injected faults in a pool worker equals
        the direct call: the property fig9's pooled cells rely on."""
        seeds = (7, 11)
        pooled = SweepExecutor(2).map(_fault_replica, seeds)
        assert pooled == [_fault_replica(seed) for seed in seeds]


class TestParallelSerialEquivalence:
    """Every result from the pool path == the serial path, bitwise."""

    def test_pair_sweeps(self, small_pairs):
        """The sampled pair task ships the same optimum and rows from a
        pool worker as inline, and they are the full sweep's."""
        rng = np.random.default_rng(0)
        indices = [rng.choice(2800, size=50, replace=False) for _ in small_pairs]
        serial = SweepExecutor(1).sweep_pairs_sampled(small_pairs, indices)
        parallel = SweepExecutor(2).sweep_pairs_sampled(small_pairs, indices)
        for (a, b), idx, (s_best, s_rows), (p_best, p_rows) in zip(
            small_pairs, indices, serial, parallel
        ):
            sweep = sweep_pair(a, b)
            for best in (s_best, p_best):
                assert best.best_index == sweep.best_index
                assert best.best_edp == sweep.best_edp
                assert best.best_configs == sweep.best_configs
            if sweep.best_index not in idx:
                idx = idx.copy()
                idx[0] = sweep.best_index
            for name in (
                "freq_a", "block_a", "mappers_a", "freq_b", "block_b", "mappers_b"
            ):
                assert np.array_equal(getattr(s_rows, name), getattr(sweep, name)[idx])
                assert np.array_equal(getattr(p_rows, name), getattr(sweep, name)[idx])
            assert np.array_equal(s_rows.edp, sweep.edp[idx])
            assert np.array_equal(p_rows.edp, sweep.edp[idx])

    def test_pair_bests(self, small_pairs):
        direct = [sweep_pair(a, b) for a, b in small_pairs]
        for workers in (1, 2):
            bests = SweepExecutor(workers).sweep_pairs_best(small_pairs)
            for ref, best in zip(direct, bests):
                assert best.best_index == ref.best_index
                assert best.best_edp == ref.best_edp
                assert best.best_configs == ref.best_configs

    def test_solo_sweeps(self, small_instances):
        direct = [sweep_solo(i) for i in small_instances]
        parallel = SweepExecutor(2).sweep_solos(small_instances)
        for s, p in zip(direct, parallel):
            assert np.array_equal(s.edp, p.edp)
            assert s.best_config == p.best_config

    def test_build_database(self, small_instances):
        db_serial = build_offline(
            small_instances, rows_per_pair=50, executor=SweepExecutor(1)
        )[0]
        db_parallel = build_offline(
            small_instances, rows_per_pair=50, executor=SweepExecutor(2)
        )[0]
        assert db_serial.entries == db_parallel.entries

    def test_training_dataset_fixed_seed(self, small_instances):
        db_serial, serial = build_offline(
            small_instances, rows_per_pair=50, seed=0, executor=SweepExecutor(1)
        )
        db_parallel, parallel = build_offline(
            small_instances,
            rows_per_pair=50,
            seed=0,
            executor=SweepExecutor(2),
        )
        assert db_serial.entries == db_parallel.entries
        assert np.array_equal(serial.X, parallel.X)
        assert np.array_equal(serial.y, parallel.y)
        assert np.array_equal(serial.pair_codes, parallel.pair_codes)

    def test_solo_stp_fit(self, small_instances):
        desc = describe_instance(AppInstance(get_app("nb"), 1 * GB), seed=0)
        features = [describe_instance(i, seed=0).reduced() for i in small_instances]
        cfg_serial = (
            SoloSTP("lr").fit(small_instances, features, executor=SweepExecutor(1))
        ).predict_config(desc)
        cfg_parallel = (
            SoloSTP("lr").fit(small_instances, features, executor=SweepExecutor(2))
        ).predict_config(desc)
        assert cfg_serial == cfg_parallel


class TestExperimentDrivers:
    def test_fig2_parallel_equals_serial(self):
        from repro.experiments.fig2_tuning import run_fig2

        serial = run_fig2("wc", data_bytes=1 * GB, executor=SweepExecutor(1))
        parallel = run_fig2("wc", data_bytes=1 * GB, executor=SweepExecutor(2))
        assert serial == parallel

    def test_table2_parallel_equals_serial(self, small_database):
        from repro.core.stp import LkTSTP
        from repro.experiments.table2_configs import run_table2

        kwargs = dict(
            workloads=((("nb", 1), ("km", 1)),),
            techniques={"LkT": LkTSTP(small_database)},
        )
        serial = run_table2(executor=SweepExecutor(1), **kwargs)
        parallel = run_table2(executor=SweepExecutor(2), **kwargs)
        assert serial == parallel


class TestTelemetry:
    def test_tasks_and_batches_recorded(self, small_pairs):
        tel = SweepTelemetry()
        SweepExecutor(1, telemetry=tel).sweep_pairs_best(small_pairs)
        assert tel.n_tasks == len(small_pairs)
        assert tel.n_batches == 1
        assert tel.task_wall_s > 0.0
        assert tel.batch_wall_s > 0.0
        assert len(tel.worker_wall_s) == 1  # serial: one worker (this pid)

    def test_parallel_workers_visible(self, small_pairs):
        tel = SweepTelemetry()
        SweepExecutor(2, telemetry=tel).sweep_pairs_best(small_pairs)
        assert tel.n_tasks == len(small_pairs)  # one task per pair
        assert tel.task_wall_s > 0.0

    def test_cache_delta_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import artifacts

        artifacts.reset_cache_stats()
        tel = SweepTelemetry()
        exec_ = SweepExecutor(1, telemetry=tel)

        def probe(_item):
            return artifacts.cached("tel-probe", lambda: 1)

        exec_.map(probe, [0])
        exec_.map(probe, [0])
        assert (tel.cache_hits, tel.cache_misses) == (1, 1)
        assert tel.cache_hit_rate == pytest.approx(0.5)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4 or not os.environ.get("REPRO_PERF_TEST"),
    reason="needs >=4 cores and REPRO_PERF_TEST=1",
)
class TestSpeedup:
    def test_pair_sweep_database_build_faster_with_four_workers(self):
        """On a 4-core runner the fanned-out database build must beat
        serial (opt-in: wall-clock assertions are hardware-bound)."""
        import time

        from repro.workloads.registry import TRAINING_APPS, instances_for

        instances = instances_for(TRAINING_APPS)
        t0 = time.perf_counter()
        db_serial = build_offline(instances, executor=SweepExecutor(1))[0]
        serial_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        db_parallel = build_offline(instances, executor=SweepExecutor(4))[0]
        parallel_s = time.perf_counter() - t0
        assert db_serial.entries == db_parallel.entries
        assert parallel_s < serial_s
