"""MiniHdfs facade tests."""

import pytest

from repro.hdfs.filesystem import MiniHdfs
from repro.utils.units import GB, MB


@pytest.fixture
def fs():
    return MiniHdfs(n_nodes=4)


def test_write_and_get(fs):
    f = fs.write_file("input", 1 * GB, 256 * MB)
    assert f.size == 1 * GB
    assert len(f.blocks) == 4
    assert fs.get_file("input") is f
    assert fs.list_files() == ["input"]


def test_duplicate_write_rejected(fs):
    fs.write_file("x", 64 * MB, 64 * MB)
    with pytest.raises(FileExistsError):
        fs.write_file("x", 64 * MB, 64 * MB)


def test_invalid_block_size_rejected(fs):
    with pytest.raises(ValueError):
        fs.write_file("x", 64 * MB, 100 * MB)


def test_missing_file(fs):
    with pytest.raises(FileNotFoundError):
        fs.get_file("nope")


def test_splits_one_per_block(fs):
    fs.write_file("input", 1 * GB, 128 * MB)
    assert len(fs.splits_for("input")) == 8


def test_blocks_spread_across_nodes(fs):
    fs.write_file("big", 4 * GB, 256 * MB)
    # Round-robin writers: each node holds a primary share.
    primaries = [fs.namenode.locate(b.block_id)[0] for b in fs.get_file("big").blocks]
    assert set(primaries) == {0, 1, 2, 3}


def test_single_node_cluster():
    fs = MiniHdfs(n_nodes=1)
    fs.write_file("x", 256 * MB, 64 * MB)
    splits = fs.splits_for("x")
    assert len(splits) == 4
    assert all(fs.namenode.locate(b.block_id) == [0] for b in splits)
