"""The 14-feature profiling vector (§3.1-§3.2 of the paper).

A "learning period" run of an application under a known configuration
is observed with the simulated perf and dstat; the combined feature
vector is what the classifier, PCA analysis and the self-tuning
predictors consume.  Feature order is fixed and public
(:data:`FEATURE_NAMES`) so model inputs are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.telemetry.dstat import DstatMonitor
from repro.telemetry.perf import PerfSampler
from repro.utils.rng import SeedLike, derive_rng, rng_from
from repro.utils.units import MB
from repro.workloads.base import AppInstance

#: The 14 collected metrics, in canonical order.
FEATURE_NAMES: tuple[str, ...] = (
    "cpu_user",          # dstat, %
    "cpu_sys",           # dstat, %
    "cpu_idle",          # dstat, %
    "cpu_iowait",        # dstat, %
    "io_read_mbps",      # dstat
    "io_write_mbps",     # dstat
    "mem_footprint_mb",  # dstat
    "mem_cache_mb",      # dstat
    "ipc",               # perf
    "icache_mpki",       # perf
    "dcache_mpki",       # perf
    "llc_mpki",          # perf
    "branch_mpki",       # perf
    "ctx_switch_rate",   # perf, per second
)

#: The 7 features retained after PCA + clustering (§3.2).
REDUCED_FEATURE_NAMES: tuple[str, ...] = (
    "cpu_user",
    "cpu_iowait",
    "io_read_mbps",
    "io_write_mbps",
    "ipc",
    "mem_footprint_mb",
    "llc_mpki",
)


def profile_features(
    instance: AppInstance,
    config: JobConfig,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: SeedLike = None,
) -> dict[str, float]:
    """Run the learning-period profiling and return the 14 features.

    Deterministic for a given ``(instance, config, seed)`` triple: the
    perf/dstat noise streams are derived from the identity of the run.
    Both samplers run the cost kernel's scalar twin, which tests hold
    bit-identical to the array kernel.
    """
    base = rng_from(seed)
    label, config_label = instance.label, config.label
    perf_rng = derive_rng(int(base.integers(2**31)), "perf", label, config_label)
    dstat_rng = derive_rng(int(base.integers(2**31)), "dstat", label, config_label)

    perf = PerfSampler(node, constants=constants).sample(
        instance, config.frequency, config.block_size, config.n_mappers,
        seed=perf_rng,
    )
    avg = DstatMonitor(node, constants=constants).sample_means(
        instance, config.frequency, config.block_size, config.n_mappers,
        seed=dstat_rng,
    )
    window = perf.duration_s
    return {
        "cpu_user": avg["cpu_user"],
        "cpu_sys": avg["cpu_sys"],
        "cpu_idle": avg["cpu_idle"],
        "cpu_iowait": avg["cpu_iowait"],
        "io_read_mbps": avg["io_read_bps"] / MB,
        "io_write_mbps": avg["io_write_bps"] / MB,
        "mem_footprint_mb": avg["mem_footprint_bytes"] / MB,
        "mem_cache_mb": avg["mem_cache_bytes"] / MB,
        "ipc": perf.ipc,
        "icache_mpki": perf.mpki("L1-icache-load-misses"),
        "dcache_mpki": perf.mpki("L1-dcache-load-misses"),
        "llc_mpki": perf.mpki("LLC-load-misses"),
        "branch_mpki": perf.mpki("branch-misses"),
        "ctx_switch_rate": perf.counts["context-switches"] / window,
    }


def feature_vector(features: dict[str, float]) -> np.ndarray:
    """Features dict → array in :data:`FEATURE_NAMES` order."""
    missing = [n for n in FEATURE_NAMES if n not in features]
    if missing:
        raise KeyError(f"missing features: {missing}")
    return np.array([features[n] for n in FEATURE_NAMES], dtype=float)


def reduced_vector(features: dict[str, float]) -> np.ndarray:
    """Features dict → array in :data:`REDUCED_FEATURE_NAMES` order."""
    missing = [n for n in REDUCED_FEATURE_NAMES if n not in features]
    if missing:
        raise KeyError(f"missing features: {missing}")
    return np.array([features[n] for n in REDUCED_FEATURE_NAMES], dtype=float)
