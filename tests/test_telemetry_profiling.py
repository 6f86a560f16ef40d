"""14-feature profiling-vector tests."""

import numpy as np
import pytest

from repro.analysis.features import PROFILING_CONFIG
from repro.hardware.node import ATOM_C2758
from repro.model.calibration import DEFAULT_CONSTANTS
from repro.model.config import JobConfig
from repro.model.costmodel import standalone_metrics
from repro.telemetry.dstat import DstatMonitor, average_rows
from repro.telemetry.perf import PMU_EVENTS
from repro.telemetry.profiling import (
    FEATURE_NAMES,
    REDUCED_FEATURE_NAMES,
    feature_vector,
    profile_features,
    reduced_vector,
)
from repro.utils.rng import derive_rng, rng_from
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import ALL_APPS, get_app


def test_fourteen_features_in_canonical_order():
    assert len(FEATURE_NAMES) == 14
    feats = profile_features(AppInstance(get_app("wc"), 5 * GB), PROFILING_CONFIG)
    assert set(feats) == set(FEATURE_NAMES)


def test_reduced_set_is_the_papers_seven():
    assert set(REDUCED_FEATURE_NAMES) == {
        "cpu_user", "cpu_iowait", "io_read_mbps", "io_write_mbps",
        "ipc", "mem_footprint_mb", "llc_mpki",
    }


def test_deterministic_for_seed():
    inst = AppInstance(get_app("st"), 5 * GB)
    a = profile_features(inst, PROFILING_CONFIG, seed=1)
    b = profile_features(inst, PROFILING_CONFIG, seed=1)
    assert a == b
    c = profile_features(inst, PROFILING_CONFIG, seed=2)
    assert a != c


def test_feature_vector_ordering():
    feats = profile_features(AppInstance(get_app("fp"), 5 * GB), PROFILING_CONFIG)
    vec = feature_vector(feats)
    assert vec.shape == (14,)
    assert vec[FEATURE_NAMES.index("llc_mpki")] == feats["llc_mpki"]


def test_reduced_vector_ordering():
    feats = profile_features(AppInstance(get_app("fp"), 5 * GB), PROFILING_CONFIG)
    vec = reduced_vector(feats)
    assert vec.shape == (7,)
    assert vec[REDUCED_FEATURE_NAMES.index("ipc")] == feats["ipc"]


def test_missing_feature_rejected():
    with pytest.raises(KeyError, match="missing"):
        feature_vector({"cpu_user": 1.0})
    with pytest.raises(KeyError, match="missing"):
        reduced_vector({"cpu_user": 1.0})


def test_class_signatures_separate_in_feature_space():
    """C/I/M apps must be far apart — classification depends on it."""
    feats = {
        code: feature_vector(
            profile_features(AppInstance(get_app(code), 5 * GB), PROFILING_CONFIG)
        )
        for code in ("wc", "st", "fp")
    }
    # I/O app: much higher iowait than compute app.
    iowait = FEATURE_NAMES.index("cpu_iowait")
    assert feats["st"][iowait] > 5 * feats["wc"][iowait]
    # Memory app: much higher LLC MPKI than both.
    llc = FEATURE_NAMES.index("llc_mpki")
    assert feats["fp"][llc] > 3 * feats["wc"][llc]
    assert feats["fp"][llc] > 3 * feats["st"][llc]


# ------------------------------------------------------------ reference
def _reference_dstat_means(instance, config, rng, node, constants, sigma=0.03):
    """The dstat window on the array kernel, one noise draw per value
    and one row at a time, each row checked by ``np.isclose``."""
    p = instance.profile
    jm = standalone_metrics(
        p, instance.data_bytes, config.frequency, config.block_size,
        config.n_mappers, node=node, constants=constants,
    )
    sc = jm.scalar
    m_eff = sc("m_eff")
    busy = sc("u_cpu") * m_eff / node.n_cores
    ss_user = busy * (1.0 - 0.12) * 100.0
    ss_sys = busy * 0.12 * 100.0
    ss_iowait = min(
        sc("u_disk") * (1.0 - p.io_overlap) * m_eff / node.n_cores * 100.0,
        100.0 - ss_user - ss_sys,
    )
    duration = sc("duration")
    ss_read = instance.data_bytes * p.read_factor / duration
    ss_write = instance.data_bytes * (
        p.spill_factor + p.shuffle_factor + p.output_factor
    ) / duration
    footprint = config.n_mappers * p.footprint_per_task
    cache = max(
        min(node.available_memory_bytes - footprint, instance.data_bytes * 0.5),
        0.0,
    )
    n = max(int(round(min(constants.learning_period_s, duration))), 1)
    cols = {name: [] for name in (
        "cpu_user", "cpu_sys", "cpu_idle", "cpu_iowait", "io_read_bps",
        "io_write_bps", "mem_footprint_bytes", "mem_cache_bytes",
    )}
    for _t in range(n):
        jitter = rng.normal(0.0, sigma, size=4)
        user = max(ss_user * (1 + jitter[0]), 0.0)
        sys = max(ss_sys * (1 + jitter[1]), 0.0)
        iowait = max(ss_iowait * (1 + jitter[2]), 0.0)
        scale = 100.0 / max(user + sys + iowait, 100.0)
        user, sys, iowait = user * scale, sys * scale, iowait * scale
        idle = max(100.0 - user - sys - iowait, 0.0)
        assert np.isclose(user + sys + idle + iowait, 100.0, atol=0.5)
        for name, value in (
            ("cpu_user", user), ("cpu_sys", sys), ("cpu_idle", idle),
            ("cpu_iowait", iowait),
            ("io_read_bps", max(ss_read * (1 + jitter[3]), 0.0)),
            ("io_write_bps", max(ss_write * (1 + rng.normal(0, sigma)), 0.0)),
            ("mem_footprint_bytes", footprint),
            ("mem_cache_bytes", cache),
        ):
            cols[name].append(value)
    return {name: float(np.mean(values)) for name, values in cols.items()}


def _reference_perf(instance, config, rng, node, constants, sigma=0.15):
    """Perf counts on the array kernel, one noise draw per event."""
    p = instance.profile
    f = config.frequency
    jm = standalone_metrics(
        p, instance.data_bytes, f, config.block_size, config.n_mappers,
        node=node, constants=constants,
    )
    duration = float(np.asarray(jm.duration))
    instr_rate = instance.data_bytes * (
        p.instructions_per_byte + p.shuffle_factor * p.reduce_instr_per_byte
    ) / duration
    mpki = float(np.asarray(jm.mpki_eff))
    ipc_eff = node.core.effective_ipc(f, p.cpi0, mpki)
    m_eff = float(np.asarray(jm.m_eff))
    rates = {
        "instructions": instr_rate,
        "cycles": instr_rate / float(ipc_eff),
        "LLC-load-misses": instr_rate * mpki / 1000.0,
        "L1-icache-load-misses": instr_rate * p.icache_mpki / 1000.0,
        "branch-misses": instr_rate * p.branch_mpki / 1000.0,
        "L1-dcache-load-misses": instr_rate * (p.llc_mpki0 * 2.5 + 1.0) / 1000.0,
        "context-switches": 120.0 * m_eff + 400.0 * float(np.asarray(jm.u_disk)),
        "page-faults": 30.0 * m_eff + p.footprint_per_task / 2**22,
    }
    window = min(constants.learning_period_s, duration)
    observed = window / len(PMU_EVENTS)
    counts = {}
    for group in PMU_EVENTS:
        for event in group:
            rel_err = sigma / np.sqrt(max(observed, 1e-9))
            counts[event] = max(
                rates[event] * window * (1.0 + rng.normal(0.0, rel_err)), 0.0
            )
    return window, counts


def _reference_profile(instance, config, seed, node=ATOM_C2758,
                       constants=DEFAULT_CONSTANTS):
    """``profile_features`` as it was on the array kernel."""
    base = rng_from(seed)
    perf_rng = derive_rng(int(base.integers(2**31)), "perf", instance.label, config.label)
    dstat_rng = derive_rng(int(base.integers(2**31)), "dstat", instance.label, config.label)
    window, counts = _reference_perf(instance, config, perf_rng, node, constants)
    avg = _reference_dstat_means(instance, config, dstat_rng, node, constants)
    instr = counts["instructions"]
    return {
        "cpu_user": avg["cpu_user"],
        "cpu_sys": avg["cpu_sys"],
        "cpu_idle": avg["cpu_idle"],
        "cpu_iowait": avg["cpu_iowait"],
        "io_read_mbps": avg["io_read_bps"] / MB,
        "io_write_mbps": avg["io_write_bps"] / MB,
        "mem_footprint_mb": avg["mem_footprint_bytes"] / MB,
        "mem_cache_mb": avg["mem_cache_bytes"] / MB,
        "ipc": instr / counts["cycles"],
        "icache_mpki": counts["L1-icache-load-misses"] / instr * 1000.0,
        "dcache_mpki": counts["L1-dcache-load-misses"] / instr * 1000.0,
        "llc_mpki": counts["LLC-load-misses"] / instr * 1000.0,
        "branch_mpki": counts["branch-misses"] / instr * 1000.0,
        "ctx_switch_rate": counts["context-switches"] / window,
    }


#: Three configurations: the profiling one and two corners, so windows
#: shorter than the learning period and single-mapper runs are covered.
_CONFIGS = (
    PROFILING_CONFIG,
    JobConfig(frequency=1.2 * GHZ, block_size=64 * MB, n_mappers=1),
    JobConfig(frequency=2.0 * GHZ, block_size=1024 * MB, n_mappers=5),
)


def _hex(features):
    return {name: float(value).hex() for name, value in features.items()}


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("code", ALL_APPS)
def test_bit_identical_to_the_array_kernel_reference(code, seed):
    """11 applications x 4 sizes x 3 configurations x 2 seeds: every
    feature equal to the per-row array-kernel profile, bit for bit."""
    for size in (256 * MB, 1 * GB, 5 * GB, 10 * GB):
        inst = AppInstance(get_app(code), size)
        for config in _CONFIGS:
            got = profile_features(inst, config, seed=seed)
            assert list(got) == list(FEATURE_NAMES)
            assert _hex(got) == _hex(_reference_profile(inst, config, seed)), (
                inst.label, config.label, seed
            )


def test_dstat_rows_and_means_agree_bit_for_bit():
    """``sample_means`` is ``average_rows(sample_run(...))`` bit for bit,
    and the rows' own CPU check holds on every second."""
    monitor = DstatMonitor()
    for code in ALL_APPS:
        inst = AppInstance(get_app(code), 5 * GB)
        args = (inst, 2.4 * GHZ, 256 * MB, 8)
        rows = monitor.sample_run(*args, seed=3)
        assert [r.time for r in rows] == [float(t) for t in range(len(rows))]
        assert _hex(average_rows(rows)) == _hex(monitor.sample_means(*args, seed=3))
        rows = monitor.sample_run(*args, duration_s=7.4, seed=4)
        assert len(rows) == 7
        assert _hex(average_rows(rows)) == _hex(
            monitor.sample_means(*args, duration_s=7.4, seed=4)
        )


def test_dstat_check_is_np_isclose():
    from repro.telemetry.dstat import _cpu_sum_ok

    for total in (100.0, 99.499, 99.4989, 100.501, 100.50101, 0.0, -100.0,
                  float("nan"), float("inf"), float("-inf"), 1e308):
        assert _cpu_sum_ok(total) == bool(np.isclose(total, 100.0, atol=0.5))
