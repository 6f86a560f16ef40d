"""Microserver hardware substrate.

Models the paper's testbed — an Intel Atom C2758 microserver node with
8 cores, a shared last-level cache, one DDR3-1600 memory channel and a
local disk — as a set of small, stateless, calibrated component models.
Mutable execution state lives in the MapReduce engine; these classes
answer questions like "what is the effective IPC at this frequency with
this much cache?" and "what does the node draw at this utilisation?".

The paper measures whole-system power with a Wattsup meter; our
:class:`~repro.hardware.power.PowerModel` produces the equivalent
whole-node figure (idle + active cores + memory + disk activity).
"""

from repro.hardware.frequency import DVFS_LEVELS, DvfsTable, OperatingPoint
from repro.hardware.governor import DvfsGovernor, GOVERNOR_KINDS
from repro.hardware.cpu import CoreModel
from repro.hardware.cache import SharedCacheModel, CacheAllocation
from repro.hardware.memorybw import MemoryBandwidthModel
from repro.hardware.disk import DiskModel
from repro.hardware.power import PowerModel, PowerBreakdown
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
    "DvfsGovernor",
    "GOVERNOR_KINDS",
    "CoreModel",
    "SharedCacheModel",
    "CacheAllocation",
    "MemoryBandwidthModel",
    "DiskModel",
    "PowerModel",
    "PowerBreakdown",
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
