"""HDFS substrate: block-structured files, placement and replication.

The tuning knob the paper studies (§2.4) is the HDFS block size —
64 MB to 1024 MB — which determines both the number of map tasks (one
per block/split) and the contiguous extent size seen by the disk.
This package implements enough of HDFS for those effects to be real:
files are split into blocks, blocks are placed on datanodes by a
namenode with rack-unaware round-robin + replication.  The fault
injector queries block locality when it picks the node that
re-executes a killed job, and has the namenode re-replicate a crashed
node's blocks.
"""

from repro.hdfs.blocks import HDFS_BLOCK_SIZES, Block, split_file
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.filesystem import HdfsFile, MiniHdfs

__all__ = [
    "HDFS_BLOCK_SIZES",
    "Block",
    "split_file",
    "DataNode",
    "NameNode",
    "HdfsFile",
    "MiniHdfs",
]
