"""HDFS block-splitting tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdfs.blocks import (
    HDFS_BLOCK_SIZES,
    Block,
    split_file,
    validate_block_size,
)
from repro.utils.units import GB, MB


def test_paper_block_sizes():
    assert [b // MB for b in HDFS_BLOCK_SIZES] == [64, 128, 256, 512, 1024]


def test_split_exact_multiple():
    blocks = split_file("f", 4 * 64 * MB, 64 * MB)
    assert len(blocks) == 4
    assert all(b.length == 64 * MB for b in blocks)
    assert [b.index for b in blocks] == [0, 1, 2, 3]


def test_split_partial_tail():
    blocks = split_file("f", 100 * MB, 64 * MB)
    assert len(blocks) == 2
    assert blocks[-1].length == 36 * MB


def test_split_smaller_than_block():
    blocks = split_file("f", 10 * MB, 64 * MB)
    assert len(blocks) == 1
    assert blocks[0].length == 10 * MB


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=20 * GB),
    block=st.sampled_from(HDFS_BLOCK_SIZES),
)
def test_split_covers_file_exactly(size, block):
    blocks = split_file("f", size, block)
    assert sum(b.length for b in blocks) == size
    assert len(blocks) == -(-size // block)
    # Offsets are contiguous and ordered.
    offset = 0
    for b in blocks:
        assert b.offset == offset
        offset += b.length


def test_block_ids_unique():
    ids = {b.block_id for b in split_file("f", 1 * GB, 64 * MB)}
    assert len(ids) == 16


def test_validate_block_size():
    assert validate_block_size(256 * MB) == 256 * MB
    with pytest.raises(ValueError):
        validate_block_size(100 * MB)


def test_block_validation():
    with pytest.raises(ValueError):
        Block("f", index=-1, offset=0, length=1)
    with pytest.raises(ValueError):
        Block("f", index=0, offset=0, length=0)


def test_split_invalid_inputs():
    with pytest.raises(ValueError):
        split_file("f", 0, 64 * MB)
    with pytest.raises(ValueError):
        split_file("f", 1 * GB, 0)
