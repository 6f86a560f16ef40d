"""The configuration database (§6.2).

Built offline from exhaustive sweeps of the *training* applications:
for every co-located training pair it stores the tuning parameters
that minimised EDP, keyed by the pair's classes and input sizes.
Unknown incoming pairs are answered by nearest-key lookup (this is
the data behind LkT-STP); the same sweeps provide the training rows
for the learned models (MLM-STP, see :func:`repro.core.stp.build_offline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from repro.ml.lookup import LookupTable
from repro.model.config import JobConfig
from repro.utils.units import GB
from repro.workloads.base import AppClass, AppInstance

_CLASS_CODE = {AppClass.COMPUTE: 0, AppClass.HYBRID: 1, AppClass.IO: 2, AppClass.MEMORY: 3}


@dataclass(frozen=True)
class DatabaseEntry:
    """Best known configuration for one training pair."""

    class_a: AppClass
    class_b: AppClass
    size_a: int
    size_b: int
    config_a: JobConfig
    config_b: JobConfig
    best_edp: float
    label_a: str
    label_b: str

    def key(self) -> np.ndarray:
        """Numeric lookup key: (class codes, log2 sizes)."""
        return np.array(
            [
                _CLASS_CODE[self.class_a],
                _CLASS_CODE[self.class_b],
                np.log2(self.size_a / GB + 1.0),
                np.log2(self.size_b / GB + 1.0),
            ]
        )


def _canonical(inst_a: AppInstance, inst_b: AppInstance) -> bool:
    """True when (a, b) is already in canonical order.

    Canonical order sorts by (class code, size, app code) so lookups
    are order-insensitive.
    """
    ka = (_CLASS_CODE[inst_a.app_class], inst_a.data_bytes, inst_a.code)
    kb = (_CLASS_CODE[inst_b.app_class], inst_b.data_bytes, inst_b.code)
    return ka <= kb


def query_key(
    class_a: AppClass, class_b: AppClass, size_a: int, size_b: int
) -> tuple[np.ndarray, bool]:
    """(lookup key, swapped) for a possibly non-canonical query."""
    swapped = (_CLASS_CODE[class_a], size_a) > (_CLASS_CODE[class_b], size_b)
    if swapped:
        class_a, class_b = class_b, class_a
        size_a, size_b = size_b, size_a
    key = np.array(
        [
            _CLASS_CODE[class_a],
            _CLASS_CODE[class_b],
            np.log2(size_a / GB + 1.0),
            np.log2(size_b / GB + 1.0),
        ]
    )
    return key, swapped


class ConfigDatabase:
    """Nearest-key store of best pair configurations."""

    def __init__(self, entries: Sequence[DatabaseEntry]) -> None:
        if not entries:
            raise ValueError("database needs at least one entry")
        self.entries = list(entries)
        keys = np.vstack([e.key() for e in entries])
        self._table: LookupTable[DatabaseEntry] = LookupTable().fit(keys, self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(
        self, class_a: AppClass, class_b: AppClass, size_a: int, size_b: int
    ) -> tuple[JobConfig, JobConfig, DatabaseEntry]:
        """Best known configs for a (class, size) pair description.

        Returns configs in the caller's argument order (the stored
        entry may be the swapped orientation).
        """
        key, swapped = query_key(class_a, class_b, size_a, size_b)
        entry = self._table.lookup(key)
        if swapped:
            return entry.config_b, entry.config_a, entry
        return entry.config_a, entry.config_b, entry

    def entries_for_classes(
        self, class_a: AppClass, class_b: AppClass
    ) -> list[DatabaseEntry]:
        """All entries matching a class pair (either orientation)."""
        want = {class_a, class_b}
        return [e for e in self.entries if {e.class_a, e.class_b} == want]


def training_pairs(
    instances: Sequence[AppInstance],
) -> list[tuple[AppInstance, AppInstance]]:
    """Unordered instance pairs in canonical orientation, then each
    instance paired with itself."""
    pairs = []
    for a, b in combinations(instances, 2):
        pairs.append((a, b) if _canonical(a, b) else (b, a))
    pairs.extend((a, a) for a in instances)
    return pairs


def database_from_optima(optima: Sequence["PairSweepBest"]) -> ConfigDatabase:
    """The database of swept pair optima, one entry per pair in order."""
    return ConfigDatabase(
        [
            DatabaseEntry(
                class_a=best.instance_a.app_class,
                class_b=best.instance_b.app_class,
                size_a=best.instance_a.data_bytes,
                size_b=best.instance_b.data_bytes,
                config_a=best.best_configs[0],
                config_b=best.best_configs[1],
                best_edp=best.best_edp,
                label_a=best.instance_a.label,
                label_b=best.instance_b.label,
            )
            for best in optima
        ]
    )
