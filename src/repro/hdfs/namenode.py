"""NameNode: block placement, replication and locality metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdfs.blocks import Block
from repro.hdfs.datanode import DataNode


@dataclass
class NameNode:
    """Placement and lookup authority for the mini-HDFS.

    Placement policy: the first replica goes to the writer's node
    (write affinity, as in real HDFS), the remaining replicas
    round-robin across other nodes.  With single-node clusters the
    effective replication is capped at the node count.

    Failure handling mirrors real HDFS: a datanode reported dead via
    :meth:`handle_node_failure` has its replicas dropped, every block it
    held becomes under-replicated, and the namenode immediately
    re-replicates each one from a surviving replica onto a live node
    that lacks it.  A block with no surviving replica is *lost*
    (:meth:`locate` then returns an empty list); a node that returns via
    :meth:`mark_alive` comes back empty, exactly as a re-imaged node
    rejoining the cluster would.
    """

    datanodes: list[DataNode]
    replication: int = 3
    _placement: dict[str, list[int]] = field(default_factory=dict, repr=False)
    _rr_cursor: int = 0
    _dead: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if not self.datanodes:
            raise ValueError("namenode needs at least one datanode")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")

    @property
    def n_nodes(self) -> int:
        return len(self.datanodes)

    @property
    def n_live_nodes(self) -> int:
        return self.n_nodes - len(self._dead)

    def effective_replication(self) -> int:
        return min(self.replication, self.n_live_nodes)

    def place_block(self, block: Block, writer_node: int) -> list[int]:
        """Choose replica nodes for ``block`` and store the replicas."""
        if not 0 <= writer_node < self.n_nodes:
            raise ValueError(f"writer_node {writer_node} out of range")
        if writer_node in self._dead:
            raise ValueError(f"writer_node {writer_node} is dead")
        if block.block_id in self._placement:
            raise ValueError(f"block {block.block_id} already placed")
        targets = [writer_node]
        while len(targets) < self.effective_replication():
            candidate = self._rr_cursor % self.n_nodes
            self._rr_cursor += 1
            if candidate not in targets and candidate not in self._dead:
                targets.append(candidate)
        for node_id in targets:
            self.datanodes[node_id].store(block)
        self._placement[block.block_id] = targets
        return list(targets)

    def locate(self, block_id: str) -> list[int]:
        """Replica node ids for a block ([] when every replica was lost)."""
        try:
            return list(self._placement[block_id])
        except KeyError:
            raise KeyError(f"unknown block {block_id}") from None

    def is_local(self, block_id: str, node_id: int) -> bool:
        """Whether a block has a replica on ``node_id`` (task locality)."""
        return node_id in self.locate(block_id)

    def locality_fraction(self, block_ids: list[str], node_id: int) -> float:
        """Fraction of the given blocks readable locally from ``node_id``."""
        if not block_ids:
            return 1.0
        local = sum(1 for b in block_ids if self.is_local(b, node_id))
        return local / len(block_ids)

    # ------------------------------------------------------ failure path
    def _pick_rereplication_target(self, holders: list[int], length: float) -> int | None:
        """Next live node (round-robin) without a replica and with space."""
        for _ in range(self.n_nodes):
            candidate = self._rr_cursor % self.n_nodes
            self._rr_cursor += 1
            if candidate in self._dead or candidate in holders:
                continue
            if length <= self.datanodes[candidate].free_bytes:
                return candidate
        return None

    def handle_node_failure(self, node_id: int) -> tuple[int, int]:
        """Report a datanode dead and re-replicate what it held.

        Every replica on the node is dropped; each affected block with a
        surviving replica is copied to a live node that lacks it (when
        one with space exists).  Returns ``(n_rereplicated, n_lost)``
        where *lost* blocks had their last replica on the dead node.
        """
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node_id {node_id} out of range")
        if node_id in self._dead:
            raise ValueError(f"node {node_id} is already dead")
        self._dead.add(node_id)
        dn = self.datanodes[node_id]
        rereplicated = lost = 0
        for block_id in dn.block_ids():
            holders = self._placement[block_id]
            holders.remove(node_id)
            if not holders:
                lost += 1
                dn.drop(block_id)
                continue
            block = self.datanodes[holders[0]].get_block(block_id)
            dn.drop(block_id)
            target = self._pick_rereplication_target(holders, block.length)
            if target is not None:
                self.datanodes[target].store(block)
                holders.append(target)
                rereplicated += 1
        return rereplicated, lost

    def mark_alive(self, node_id: int) -> None:
        """A dead datanode rejoined (empty — its replicas were dropped)."""
        if node_id not in self._dead:
            raise ValueError(f"node {node_id} is not dead")
        self._dead.remove(node_id)
