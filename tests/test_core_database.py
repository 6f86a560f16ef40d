"""Configuration-database tests (built on the small fixture set)."""

import pytest

from repro.core.database import ConfigDatabase, database_from_optima, training_pairs
from repro.core.stp import build_offline
from repro.model.sweep import sweep_pair
from repro.utils.units import GB
from repro.workloads.base import AppClass, AppInstance
from repro.workloads.registry import get_app


def test_training_pairs_canonical_and_counted(small_training_instances):
    pairs = training_pairs(small_training_instances)
    # C(8, 2) = 28 unordered pairs, then the 8 self-pairs.
    assert len(pairs) == 36
    assert pairs[28:] == [(a, a) for a in small_training_instances]


def test_database_entry_count(small_database, small_training_instances):
    assert len(small_database) == 36


def test_lookup_exact_class_size_match(small_database):
    cfg_a, cfg_b, entry = small_database.lookup(
        AppClass.IO, AppClass.IO, 5 * GB, 5 * GB
    )
    assert entry.class_a is AppClass.IO and entry.class_b is AppClass.IO
    assert entry.size_a == 5 * GB and entry.size_b == 5 * GB
    assert cfg_a == entry.config_a


def test_lookup_orientation_swapped(small_database):
    """Querying (M, C) must return configs mirrored from the canonical
    (C, M) entry."""
    a1, b1, _ = small_database.lookup(AppClass.COMPUTE, AppClass.MEMORY, 5 * GB, 5 * GB)
    a2, b2, _ = small_database.lookup(AppClass.MEMORY, AppClass.COMPUTE, 5 * GB, 5 * GB)
    assert (a1, b1) == (b2, a2)


def test_lookup_nearest_size(small_database):
    # 10 GB is absent from the small fixture; nearest (5 GB) serves.
    _, _, entry = small_database.lookup(AppClass.IO, AppClass.IO, 10 * GB, 10 * GB)
    assert entry.size_a == 5 * GB


def test_entries_for_classes(small_database):
    entries = small_database.entries_for_classes(AppClass.COMPUTE, AppClass.MEMORY)
    assert entries
    for e in entries:
        assert {e.class_a, e.class_b} == {AppClass.COMPUTE, AppClass.MEMORY}


def test_best_configs_are_oracle_minima(small_database, small_training_instances):
    by_label = {inst.label: inst for inst in small_training_instances}
    for entry in small_database.entries[:5]:
        sweep = sweep_pair(by_label[entry.label_a], by_label[entry.label_b])
        assert entry.best_edp == pytest.approx(sweep.best_edp)
        assert (entry.config_a, entry.config_b) == sweep.best_configs


def test_empty_database_rejected():
    with pytest.raises(ValueError):
        ConfigDatabase([])


def test_build_database_needs_at_least_one_pair():
    assert training_pairs([]) == []
    with pytest.raises(ValueError, match="at least one entry"):
        database_from_optima([])


def test_build_database_single_self_pair():
    insts = [AppInstance(get_app("wc"), 1 * GB)]
    db = build_offline(insts, rows_per_pair=20)[0]
    assert len(db) == 1
    entry = db.entries[0]
    assert entry.label_a == entry.label_b == "wc@1GB"
