"""Named node classes for heterogeneous clusters.

The paper's testbed is eight identical Atom C2758 microservers, but
its EDP story changes qualitatively on mixed fleets: "Hadoop in
Low-Power Processors" (arXiv:1408.2284) measures Atom vs. Xeon nodes
trading energy for runtime per workload class, and "Energy-Optimal
Configurations for Single-Node HPC Applications" (arXiv:1805.00998)
shows the energy-optimal frequency point moving with the hardware.

A :class:`NodeClass` is a *named* :class:`~repro.hardware.node.NodeSpec`
registered in :data:`NODE_CLASSES`; scenario descriptions, the fuzzer
and the CLI refer to classes by name ("atom", "xeon") and resolve them
here, so a roster serialises as a tuple of short strings.

Both presets share the same four studied DVFS frequencies (1.2, 1.6,
2.0, 2.4 GHz) so any :class:`~repro.model.config.JobConfig` validates
on any node — what differs is the voltage curve, core count,
micro-architecture (out-of-order Xeon cores hide far more memory
latency), memory capacity, disk, and above all the power envelope:
the Xeon draws roughly twice the Atom's wall power at idle and ~4x per
busy core, reproducing the energy-vs-runtime trade the two cited
papers measure.

The Xeon preset also records its 20 MB LLC, but that changes no
simulated number: nothing reads
:attr:`~repro.hardware.cache.SharedCacheModel.capacity_bytes`.  The
cost kernel's cache coupling uses only the co-runners' cache
pressures and miss-curve exponents, the cache modules their cores
share, and ``max_inflation``, which is 3.0 on both presets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cache import SharedCacheModel
from repro.hardware.cpu import CoreModel
from repro.hardware.disk import DiskModel
from repro.hardware.frequency import DvfsTable, OperatingPoint
from repro.hardware.memorybw import MemoryBandwidthModel
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.hardware.power import PowerModel
from repro.utils.units import GB, GHZ, MB

#: Xeon V/f curve over the same studied frequencies.  Server cores run
#: a higher, flatter voltage curve than the low-power Silvermont ladder;
#: the absolute values only matter through ``dynamic_scale`` ratios.
XEON_DVFS_LEVELS: tuple[OperatingPoint, ...] = (
    OperatingPoint(frequency=1.2 * GHZ, voltage=0.95),
    OperatingPoint(frequency=1.6 * GHZ, voltage=1.00),
    OperatingPoint(frequency=2.0 * GHZ, voltage=1.08),
    OperatingPoint(frequency=2.4 * GHZ, voltage=1.20),
)

#: A dual-socket-era Xeon E5 node per arXiv:1408.2284's "big core"
#: column: 16 out-of-order cores, 32 GB DDR3, a faster disk — and a
#: power envelope that idles at roughly twice the Atom's whole-system
#: draw with ~4x the per-core busy power.  Its 20 MB shared LLC is
#: recorded for reference only (see the module docstring).
XEON_E5 = NodeSpec(
    name="xeon-e5",
    n_cores=16,
    memory_bytes=32 * GB,
    reserved_memory_bytes=2.5 * GB,
    nic_bw=119 * MB,
    core=CoreModel(mem_latency_s=75e-9, mlp_overlap=0.70),
    cache=SharedCacheModel(capacity_bytes=20 * MB, max_inflation=3.0),
    membw=MemoryBandwidthModel(achievable_bw=40.0 * GB),
    disk=DiskModel(peak_bw=250.0 * MB, half_extent=12.0 * MB, seek_penalty=0.05),
    power=PowerModel(
        idle_power=65.0,
        core_max_power=8.5,
        stall_power_fraction=0.55,
        mem_max_power=6.0,
        disk_max_power=4.0,
    ),
    dvfs=DvfsTable(XEON_DVFS_LEVELS),
)


@dataclass(frozen=True)
class NodeClass:
    """A named node specification, resolvable from scenario data."""

    name: str
    spec: NodeSpec

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node class name must be non-empty")


#: The paper's testbed node, as a named class.
ATOM = NodeClass(name="atom", spec=ATOM_C2758)
#: The arXiv:1408.2284 "big core" comparison node.
XEON = NodeClass(name="xeon", spec=XEON_E5)

#: Registry: class name -> :class:`NodeClass`.  Scenario rosters,
#: the fuzzer and the CLI resolve names through this mapping.
NODE_CLASSES: dict[str, NodeClass] = {c.name: c for c in (ATOM, XEON)}


def get_node_class(name: str) -> NodeClass:
    """Look up a node class by name, with the valid names in the error."""
    try:
        return NODE_CLASSES[name]
    except KeyError:
        valid = ", ".join(sorted(NODE_CLASSES))
        raise KeyError(f"unknown node class {name!r} (valid: {valid})") from None


def class_name_of(spec: NodeSpec) -> str:
    """The registered class name of ``spec`` (falls back to its own name)."""
    for cls in NODE_CLASSES.values():
        if cls.spec is spec or cls.spec == spec:
            return cls.name
    return spec.name


def roster_from_classes(names) -> tuple[NodeSpec, ...]:
    """Resolve a sequence of class names into a node-spec roster."""
    return tuple(get_node_class(n).spec for n in names)
