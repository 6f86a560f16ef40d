"""Tuning-parameter configurations and grid enumeration.

The paper's configuration space (§2.4): 5 HDFS block sizes × 8 mapper
counts × 4 frequencies = 160 settings per application.  For co-located
pairs the mapper counts are a core partition (m1 + m2 = 8 on the
8-core node), giving 7 partitions × (4·5)² per-app knob combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.hardware.node import NodeSpec
from repro.hdfs.blocks import HDFS_BLOCK_SIZES
from repro.utils.units import GHZ, MB, fmt_bytes, fmt_freq


@dataclass(frozen=True, order=True)
class JobConfig:
    """One setting of the three tuning knobs for one application."""

    frequency: float  # Hz — must be a DVFS level
    block_size: int  # bytes — must be a studied HDFS block size
    n_mappers: int  # concurrently running map tasks on the node

    def __post_init__(self) -> None:
        if self.n_mappers < 1:
            raise ValueError(f"n_mappers must be >= 1, got {self.n_mappers}")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    def validate_for(self, node: NodeSpec) -> "JobConfig":
        """Check the config against a node's DVFS table and core count."""
        node.dvfs.point_for(self.frequency)
        node.validate_mappers(self.n_mappers)
        if self.block_size not in HDFS_BLOCK_SIZES:
            raise ValueError(
                f"block size {fmt_bytes(self.block_size)} is not a studied HDFS size"
            )
        return self

    @property
    def label(self) -> str:
        """Compact human-readable form, e.g. ``2.4GHz/512MB/4m``."""
        return f"{fmt_freq(self.frequency)}/{fmt_bytes(self.block_size)}/{self.n_mappers}m"

    def as_row(self) -> tuple[float, int, int]:
        """(GHz, block MB, mappers) — the paper's table format."""
        return (round(self.frequency / GHZ, 1), self.block_size // MB, self.n_mappers)


def iter_configs(
    node: NodeSpec,
    *,
    mappers: Sequence[int] | None = None,
    block_sizes: Sequence[int] = HDFS_BLOCK_SIZES,
) -> Iterator[JobConfig]:
    """Enumerate the single-application configuration space."""
    if mappers is None:
        mappers = range(1, node.n_cores + 1)
    for f in node.frequencies:
        for b in block_sizes:
            for m in mappers:
                yield JobConfig(frequency=f, block_size=b, n_mappers=m)


def config_grid(
    node: NodeSpec,
    *,
    mappers: Sequence[int] | None = None,
    block_sizes: Sequence[int] = HDFS_BLOCK_SIZES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single-app grid as parallel (freq, block, mappers) arrays.

    Default size is the paper's 4 × 5 × 8 = 160 settings.
    """
    configs = list(iter_configs(node, mappers=mappers, block_sizes=block_sizes))
    f = np.array([c.frequency for c in configs])
    b = np.array([c.block_size for c in configs], dtype=float)
    m = np.array([c.n_mappers for c in configs], dtype=float)
    return f, b, m


def core_partitions(
    n_cores: int, partitions: Sequence[tuple[int, int]] | None = None
) -> tuple[tuple[int, int], ...]:
    """The pair grid's core splits ``(m1, m2)``, checked against
    ``n_cores``: by default every full partition ``m1 + m2 = n_cores``."""
    if partitions is None:
        partitions = [(m, n_cores - m) for m in range(1, n_cores)]
    for m1, m2 in partitions:
        if m1 < 1 or m2 < 1 or m1 + m2 > n_cores:
            raise ValueError(f"invalid core partition ({m1}, {m2})")
    return tuple((m1, m2) for m1, m2 in partitions)


def pair_config_grid(
    node: NodeSpec,
    *,
    block_sizes: Sequence[int] = HDFS_BLOCK_SIZES,
    partitions: Sequence[tuple[int, int]] | None = None,
) -> tuple[np.ndarray, ...]:
    """The co-located pair grid as six parallel arrays.

    Returns ``(f1, b1, m1, f2, b2, m2)``.  By default the mapper counts
    enumerate all full core partitions ``m1 + m2 = n_cores`` (the
    "every combination of core partitioning" of Fig. 5); pass
    ``partitions`` to study under-committed splits too.
    """
    partitions = core_partitions(node.n_cores, partitions)
    freqs = np.asarray(node.frequencies)
    blocks = np.asarray(block_sizes, dtype=float)
    parts = np.asarray(partitions, dtype=float)
    # meshgrid over (f1, b1, f2, b2, partition)
    f1, b1, f2, b2, pi = np.meshgrid(
        freqs, blocks, freqs, blocks, np.arange(len(parts)), indexing="ij"
    )
    m1 = parts[pi.astype(int), 0]
    m2 = parts[pi.astype(int), 1]
    flat = lambda a: a.reshape(-1)
    return flat(f1), flat(b1), flat(m1), flat(f2), flat(b2), flat(m2)


def grid_to_configs(f: np.ndarray, b: np.ndarray, m: np.ndarray) -> list[JobConfig]:
    """Convert parallel arrays back into :class:`JobConfig` objects."""
    return [
        JobConfig(frequency=float(fi), block_size=int(bi), n_mappers=int(mi))
        for fi, bi, mi in zip(f, b, m)
    ]
