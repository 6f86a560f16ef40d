"""MiniHdfs: the file-level facade over namenode/datanodes.

Supports writing (placing) files, listing them, and computing the
input splits MapReduce will create; the fault injector reads block
locality and re-replication through :attr:`MiniHdfs.namenode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdfs.blocks import Block, split_file, validate_block_size
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class HdfsFile:
    """Metadata of one stored file."""

    name: str
    size: int
    block_size: int
    blocks: tuple[Block, ...]


@dataclass
class MiniHdfs:
    """A minimal but real HDFS: files → blocks → replicated placement."""

    n_nodes: int = 8
    replication: int = 3
    namenode: NameNode = field(init=False)
    _files: dict[str, HdfsFile] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        datanodes = [DataNode(node_id=i) for i in range(self.n_nodes)]
        self.namenode = NameNode(datanodes=datanodes, replication=self.replication)

    def write_file(
        self, name: str, size: int, block_size: int, *, writer_node: int = 0
    ) -> HdfsFile:
        """Create a file of ``size`` bytes with the given block size."""
        if name in self._files:
            raise FileExistsError(f"HDFS file {name!r} already exists")
        check_positive("size", size)
        validate_block_size(block_size)
        blocks = split_file(name, size, block_size)
        for i, block in enumerate(blocks):
            # Round-robin the writer across nodes so large files spread
            # evenly, as a distributed TeraGen/producer job would.
            self.namenode.place_block(block, (writer_node + i) % self.n_nodes)
        f = HdfsFile(name=name, size=size, block_size=block_size, blocks=tuple(blocks))
        self._files[name] = f
        return f

    def get_file(self, name: str) -> HdfsFile:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"no HDFS file {name!r}") from None

    def list_files(self) -> list[str]:
        return sorted(self._files)

    def splits_for(self, name: str) -> list[Block]:
        """Input splits for a MapReduce job over ``name`` (1 per block)."""
        return list(self.get_file(name).blocks)
