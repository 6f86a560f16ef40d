"""``build_offline``: each pair's sweep is reduced before the next runs.

``build_offline`` must store the same database entries and bit-identical
dataset arrays as the two-step composition it replaced — a full
``sweep_pair`` per training pair, all kept until the sampling loop has
read every one — while holding at most one full sweep at a time, and
must store them again on a repeat build in the same process.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.database import DatabaseEntry, training_pairs
from repro.core.stp import (
    TrainingDataset,
    _row_block,
    build_offline,
    describe_instance,
    pair_code,
)
from repro.model.sweep import sweep_pair
from repro.utils.rng import rng_from
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

MiB = 1 << 20


def reference_offline(instances, *, rows_per_pair, seed=0):
    """Every pair's full sweep first, then the per-pair sampling loop."""
    rng = rng_from(seed)
    descriptors = {
        inst.label: describe_instance(inst, seed=seed) for inst in instances
    }
    pairs = training_pairs(instances)
    sweeps = [sweep_pair(a, b) for a, b in pairs]
    entries, X_rows, y_rows, codes = [], [], [], []
    for (a, b), sweep in zip(pairs, sweeps):
        cfg_a, cfg_b = sweep.best_configs
        entries.append(
            DatabaseEntry(
                class_a=a.app_class,
                class_b=b.app_class,
                size_a=a.data_bytes,
                size_b=b.data_bytes,
                config_a=cfg_a,
                config_b=cfg_b,
                best_edp=sweep.best_edp,
                label_a=a.label,
                label_b=b.label,
            )
        )
        n = len(sweep.edp)
        take = min(rows_per_pair, n)
        idx = rng.choice(n, size=take, replace=False)
        if sweep.best_index not in idx:
            idx[0] = sweep.best_index
        da, db = descriptors[a.label], descriptors[b.label]
        X_rows.append(
            _row_block(
                da.reduced(), a.data_bytes, db.reduced(), b.data_bytes,
                sweep.freq_a[idx], sweep.block_a[idx], sweep.mappers_a[idx],
                sweep.freq_b[idx], sweep.block_b[idx], sweep.mappers_b[idx],
            )
        )
        y_rows.append(sweep.edp[idx])
        codes.extend([pair_code(a.app_class, b.app_class)] * take)
    dataset = TrainingDataset(
        X=np.vstack(X_rows),
        y=np.concatenate(y_rows),
        pair_codes=np.array(codes),
        train_features=np.vstack([d.reduced() for d in descriptors.values()]),
        train_sizes=np.array([d.data_bytes for d in descriptors.values()], dtype=float),
    )
    return entries, dataset


def assert_same_offline(built, reference):
    database, dataset = built
    entries, ref = reference
    assert database.entries == entries
    for name in ("X", "y", "pair_codes", "train_features", "train_sizes"):
        got, want = getattr(dataset, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.fixture(scope="module")
def reference(small_training_instances):
    return reference_offline(small_training_instances, rows_per_pair=200)


@pytest.mark.parametrize("builds", [1, 2])
def test_reduced_set_matches_reference(small_training_instances, reference, builds):
    """Each of ``builds`` builds in a row matches: nothing one leaves
    behind in the process (the cost model's caches) changes the next."""
    for _ in range(builds):
        built = build_offline(small_training_instances, rows_per_pair=200, seed=0)
        assert_same_offline(built, reference)


@pytest.mark.parametrize("builds", [1, 2])
def test_rows_per_pair_above_grid_size_takes_whole_grid(builds):
    instances = [AppInstance(get_app(code), 1 * GB) for code in ("wc", "ts")]
    reference = reference_offline(instances, rows_per_pair=3000)
    for _ in range(builds):
        built = build_offline(instances, rows_per_pair=3000, seed=0)
        assert_same_offline(built, reference)
        assert len(built[1].y) == 2800 * len(training_pairs(instances))


def test_reduced_build_traced_peak_stays_small(small_training_instances):
    """36 pairs at 200 rows: the build keeps about 2.2 MiB traced, and
    one that kept every sweep until sampling peaked at 40 MiB."""
    tracemalloc.start()
    try:
        build_offline(small_training_instances, rows_per_pair=200, seed=0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * MiB, f"traced peak {peak / MiB:.1f} MiB"
