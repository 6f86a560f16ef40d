"""Microserver hardware substrate.

Models the paper's testbed — an Intel Atom C2758 microserver node with
8 cores, a shared last-level cache, one DDR3-1600 memory channel and a
local disk — as a set of small, stateless, calibrated component models.
Mutable execution state lives in the MapReduce engine; these classes
hold each component's calibration and answer the per-component
questions the cost kernel asks ("what is the effective IPC at this
frequency with this much cache?").

The paper measures whole-system power with a Wattsup meter.
:class:`~repro.hardware.power.PowerModel` holds the parameters of the
equivalent whole-node figure (idle + active cores + memory + disk
activity); the cost kernel (:mod:`repro.model.costmodel`) computes
that figure from them.
"""

from repro.hardware.frequency import DVFS_LEVELS, DvfsTable, OperatingPoint
from repro.hardware.cpu import CoreModel
from repro.hardware.cache import SharedCacheModel
from repro.hardware.memorybw import MemoryBandwidthModel
from repro.hardware.disk import DiskModel
from repro.hardware.power import PowerModel
from repro.hardware.node import NodeSpec, ATOM_C2758
from repro.hardware.classes import (
    ATOM,
    NODE_CLASSES,
    NodeClass,
    XEON,
    XEON_DVFS_LEVELS,
    XEON_E5,
    class_name_of,
    get_node_class,
    roster_from_classes,
)

__all__ = [
    "DVFS_LEVELS",
    "DvfsTable",
    "OperatingPoint",
    "CoreModel",
    "SharedCacheModel",
    "MemoryBandwidthModel",
    "DiskModel",
    "PowerModel",
    "NodeSpec",
    "ATOM_C2758",
    "NodeClass",
    "NODE_CLASSES",
    "ATOM",
    "XEON",
    "XEON_E5",
    "XEON_DVFS_LEVELS",
    "class_name_of",
    "get_node_class",
    "roster_from_classes",
]
