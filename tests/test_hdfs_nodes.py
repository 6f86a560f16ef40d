"""DataNode and NameNode tests."""

import pytest

from repro.hdfs.blocks import Block
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.utils.units import MB


def _block(i=0, length=64 * MB, name="f"):
    return Block(file_name=name, index=i, offset=i * length, length=length)


class TestDataNode:
    def test_store_and_account(self):
        dn = DataNode(node_id=0)
        dn.store(_block())
        assert dn.capacity_bytes - dn.free_bytes == 64 * MB
        assert dn.block_ids() == ["f#0"]
        assert len(dn) == 1

    def test_duplicate_store_rejected(self):
        dn = DataNode(node_id=0)
        dn.store(_block())
        with pytest.raises(ValueError, match="already stored"):
            dn.store(_block())

    def test_capacity_enforced(self):
        dn = DataNode(node_id=0, capacity_bytes=100 * MB)
        dn.store(_block(0))
        with pytest.raises(IOError, match="full"):
            dn.store(_block(1))

    def test_drop_frees_space(self):
        dn = DataNode(node_id=0)
        dn.store(_block())
        dn.drop("f#0")
        assert dn.free_bytes == dn.capacity_bytes
        with pytest.raises(KeyError):
            dn.drop("f#0")


class TestNameNode:
    def _nn(self, n=4, replication=3):
        return NameNode(
            datanodes=[DataNode(node_id=i) for i in range(n)],
            replication=replication,
        )

    def test_first_replica_on_writer(self):
        nn = self._nn()
        targets = nn.place_block(_block(), writer_node=2)
        assert targets[0] == 2
        assert len(targets) == 3
        assert len(set(targets)) == 3

    def test_replication_capped_by_cluster_size(self):
        nn = self._nn(n=2, replication=3)
        targets = nn.place_block(_block(), writer_node=0)
        assert len(targets) == 2

    def test_locate_and_locality(self):
        nn = self._nn()
        targets = nn.place_block(_block(), writer_node=1)
        assert nn.locate("f#0") == targets
        assert nn.is_local("f#0", 1)
        outside = next(i for i in range(4) if i not in targets)
        assert not nn.is_local("f#0", outside)

    def test_double_placement_rejected(self):
        nn = self._nn()
        nn.place_block(_block(), writer_node=0)
        with pytest.raises(ValueError, match="already placed"):
            nn.place_block(_block(), writer_node=1)

    def test_delete_block_drops_all_replicas(self):
        nn = self._nn()
        nn.place_block(_block(), writer_node=0)
        nn.delete_block("f#0")
        assert all("f#0" not in dn.block_ids() for dn in nn.datanodes)
        with pytest.raises(KeyError):
            nn.locate("f#0")

    def test_locality_fraction(self):
        nn = self._nn(n=8)
        b0, b1 = _block(0), _block(1)
        nn.place_block(b0, writer_node=0)
        nn.place_block(b1, writer_node=1)
        frac = nn.locality_fraction([b0.block_id, b1.block_id], 0)
        assert 0.0 <= frac <= 1.0
        assert nn.locality_fraction([], 0) == 1.0

    def test_invalid_writer(self):
        nn = self._nn()
        with pytest.raises(ValueError):
            nn.place_block(_block(), writer_node=99)
