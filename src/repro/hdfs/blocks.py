"""Block arithmetic: splitting files into HDFS blocks.

A file of ``size`` bytes with block size ``b`` yields ``ceil(size/b)``
blocks, the last one partial.  MapReduce creates one input split per
block, so this function is the origin of the paper's
block-size/mapper-count interplay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import MB
from repro.utils.validation import check_in, check_positive

#: The five block sizes studied in the paper (§2.4), in bytes.
HDFS_BLOCK_SIZES: tuple[int, ...] = (
    64 * MB,
    128 * MB,
    256 * MB,
    512 * MB,
    1024 * MB,
)


@dataclass(frozen=True)
class Block:
    """One HDFS block of a file."""

    file_name: str
    index: int
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("block index must be >= 0")
        if self.offset < 0:
            raise ValueError("block offset must be >= 0")
        check_positive("length", self.length)

    @property
    def block_id(self) -> str:
        return f"{self.file_name}#{self.index}"


def validate_block_size(block_size: int) -> int:
    """Require one of the paper's five studied block sizes."""
    return check_in("block_size", block_size, HDFS_BLOCK_SIZES)


def split_file(file_name: str, size: int, block_size: int) -> list[Block]:
    """Split a file into blocks of ``block_size`` (last one partial)."""
    check_positive("size", size)
    check_positive("block_size", block_size)
    blocks = []
    offset = 0
    index = 0
    while offset < size:
        length = min(block_size, size - offset)
        blocks.append(Block(file_name=file_name, index=index, offset=offset, length=length))
        offset += length
        index += 1
    return blocks
