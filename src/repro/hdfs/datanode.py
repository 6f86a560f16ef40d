"""DataNode: per-node block storage with capacity accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdfs.blocks import Block
from repro.utils.units import GB
from repro.utils.validation import check_positive


@dataclass
class DataNode:
    """Block storage on one cluster node."""

    node_id: int
    capacity_bytes: float = 500 * GB
    _blocks: dict[str, Block] = field(default_factory=dict, repr=False)
    _used: float = 0.0

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be >= 0")
        check_positive("capacity_bytes", self.capacity_bytes)

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self._used

    def store(self, block: Block) -> None:
        """Store a replica of ``block``; raises when out of space."""
        if block.block_id in self._blocks:
            raise ValueError(f"block {block.block_id} already stored on node {self.node_id}")
        if block.length > self.free_bytes:
            raise IOError(
                f"datanode {self.node_id} full: need {block.length}, free {self.free_bytes:.0f}"
            )
        self._blocks[block.block_id] = block
        self._used += block.length

    def get_block(self, block_id: str) -> Block:
        """The stored replica's metadata (re-replication source read)."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise KeyError(f"block {block_id} not on node {self.node_id}") from None

    def drop(self, block_id: str) -> None:
        """Remove a replica (file deletion / rebalancing)."""
        block = self._blocks.pop(block_id, None)
        if block is None:
            raise KeyError(f"block {block_id} not on node {self.node_id}")
        self._used -= block.length

    def block_ids(self) -> list[str]:
        return list(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)
