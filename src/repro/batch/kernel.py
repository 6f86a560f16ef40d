"""Structure-of-arrays inputs and co-location helpers for the batch layer.

There is one array cost kernel,
:func:`repro.model.costmodel.standalone_metrics` /
:func:`~repro.model.costmodel.pair_metrics`.  It reads every profile
constant by attribute, so it takes either one
:class:`~repro.workloads.base.AppProfile` or a :class:`ProfileSoA` —
one contiguous float64 array per profile field, one lane per evaluated
job — and with SoA lanes a whole batch of (job, pair, frequency,
placement) scenarios flows through one call with *per-lane* profiles.

This module holds what the batch solvers need around that kernel:

* :class:`ProfileSoA` / :class:`NodeSoA`, the transposed profile and
  node-class constants;
* :func:`colocation_context_soa`, the batched twin of the engine's
  :func:`~repro.model.costmodel.colocation_context_scalar`;
* :func:`node_state_soa` and :func:`solo_disk_scale`, the engine's
  segment state and single-job context over ``(scenario, slot)`` lanes;
* :func:`hetero_total_energy`, the per-node idle fold of a mixed roster.

Numerical contract
------------------
Each helper mirrors its engine twin operation for operation.  IEEE-754
elementwise array arithmetic is identical to the same scalar
arithmetic per lane, so a one-row batch is **bit-identical** to the
engine's scalar path (``tests/test_costmodel_scalar.py`` asserts exact
equality of the contexts), and any batch agrees with the discrete-event
engine to well below the 1e-9 conformance bound.  Two details matter:

* sums over co-resident job slots accumulate **sequentially in slot
  order** — the same order :func:`~repro.model.costmodel._npsum` and
  the engine's segment-state loop add in (NumPy's pairwise reduction
  only kicks in at length >= 8, and the batch engine routes sets that
  large to the event engine);
* padded slots contribute exact ``0.0`` terms, which leave IEEE sums
  unchanged.

The layout is numba/Cython-ready: contiguous float64 arrays indexed
``(scenario, slot)``, no per-scenario Python objects anywhere in the
hot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.costmodel import JobMetrics
from repro.workloads.base import AppProfile

#: Per-profile constants the kernel consumes, in ProfileSoA field order.
PROFILE_FIELDS: tuple[str, ...] = (
    "instructions_per_byte",
    "cpi0",
    "llc_mpki0",
    "read_factor",
    "spill_factor",
    "shuffle_factor",
    "output_factor",
    "reduce_instr_per_byte",
    "io_overlap",
    "cache_pressure",
    "cache_alpha",
    "mem_stream_factor",
    "footprint_per_task",
)


@dataclass(frozen=True)
class ProfileSoA:
    """Application profiles transposed into parallel float64 arrays.

    One slot per profile; :meth:`take` gathers slots into any shape, so
    a ``(scenario, job)`` index array turns the registry's profile list
    into per-lane kernel inputs with zero Python-object traffic.
    """

    instructions_per_byte: np.ndarray
    cpi0: np.ndarray
    llc_mpki0: np.ndarray
    read_factor: np.ndarray
    spill_factor: np.ndarray
    shuffle_factor: np.ndarray
    output_factor: np.ndarray
    reduce_instr_per_byte: np.ndarray
    io_overlap: np.ndarray
    cache_pressure: np.ndarray
    cache_alpha: np.ndarray
    mem_stream_factor: np.ndarray
    footprint_per_task: np.ndarray

    @classmethod
    def from_profiles(cls, profiles: Sequence[AppProfile]) -> "ProfileSoA":
        """Transpose a profile list into contiguous field arrays.

        ``cpi0`` is materialised exactly as the scalar property computes
        it (``1.0 / ipc0``), so downstream arithmetic matches bit for
        bit.
        """
        if not profiles:
            raise ValueError("need at least one profile")
        cols: dict[str, np.ndarray] = {}
        for name in PROFILE_FIELDS:
            if name == "cpi0":
                vals = [1.0 / p.ipc0 for p in profiles]
            else:
                vals = [float(getattr(p, name)) for p in profiles]
            cols[name] = np.ascontiguousarray(vals, dtype=np.float64)
        return cls(**cols)

    def take(self, indices) -> "ProfileSoA":
        """Gather profile slots by index (any shape, e.g. (S, K))."""
        idx = np.asarray(indices, dtype=np.intp)
        return ProfileSoA(
            **{
                name: np.ascontiguousarray(getattr(self, name)[idx])
                for name in PROFILE_FIELDS
            }
        )

    def __len__(self) -> int:
        return self.instructions_per_byte.shape[0] if self.instructions_per_byte.ndim else 1


#: Per-node-class constants the batch layer consumes, in NodeSoA order.
NODE_FIELDS: tuple[str, ...] = (
    "n_cores",
    "idle_power",
    "core_max_power",
    "mem_max_power",
    "disk_max_power",
    "membw",
    "nic_bw",
)


@dataclass(frozen=True)
class NodeSoA:
    """Node-class constants transposed into parallel float64 arrays.

    One lane per roster position, so heterogeneous batch folds (idle
    energy across a mixed roster, per-node bandwidth caps) read
    contiguous arrays instead of chasing ``NodeSpec`` attribute chains
    per node.  Built once per (case, roster) group by
    :meth:`from_specs`; :meth:`take` gathers lanes like
    :meth:`ProfileSoA.take` does.
    """

    n_cores: np.ndarray
    idle_power: np.ndarray
    core_max_power: np.ndarray
    mem_max_power: np.ndarray
    disk_max_power: np.ndarray
    membw: np.ndarray
    nic_bw: np.ndarray

    @classmethod
    def from_specs(cls, specs: Sequence[NodeSpec]) -> "NodeSoA":
        """Transpose a node roster into contiguous constant arrays."""
        if not specs:
            raise ValueError("need at least one node spec")
        cols = {
            "n_cores": [float(n.n_cores) for n in specs],
            "idle_power": [n.power.idle_power for n in specs],
            "core_max_power": [n.power.core_max_power for n in specs],
            "mem_max_power": [n.power.mem_max_power for n in specs],
            "disk_max_power": [n.power.disk_max_power for n in specs],
            "membw": [n.membw.achievable_bw for n in specs],
            "nic_bw": [float(n.nic_bw) for n in specs],
        }
        return cls(
            **{
                name: np.ascontiguousarray(cols[name], dtype=np.float64)
                for name in NODE_FIELDS
            }
        )

    def take(self, indices) -> "NodeSoA":
        """Gather node lanes by index (any shape)."""
        idx = np.asarray(indices, dtype=np.intp)
        return NodeSoA(
            **{
                name: np.ascontiguousarray(getattr(self, name)[idx])
                for name in NODE_FIELDS
            }
        )

    def __len__(self) -> int:
        return self.n_cores.shape[0] if self.n_cores.ndim else 1


def hetero_total_energy(busy_energy, makespan, nodes: NodeSoA, busy_by_node):
    """Cluster energy on a mixed roster: per-node idle accumulation.

    ``busy_by_node`` maps node id -> busy seconds on that node (float or
    per-scenario array); omitted nodes are fully idle.  The accumulation
    runs node-by-node in roster order with identical operations for
    float and array operands, so a float fold and a one-row batch stay
    bit-identical.
    """
    total = busy_energy
    for node_id in range(len(nodes)):
        busy_here = busy_by_node.get(node_id, 0.0)
        total = total + nodes.idle_power[node_id] * (makespan - busy_here)
    return total


def colocation_context_soa(
    p: ProfileSoA,
    n_mappers: np.ndarray,
    active: np.ndarray,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SoA twin of :func:`~repro.model.costmodel.colocation_context_scalar`.

    ``p`` and ``n_mappers`` are ``(S, K)`` (scenario, co-resident slot)
    arrays; ``active`` is the boolean slot mask (padded slots must carry
    valid-but-ignored values).  Returns per-slot
    ``(mpki_scale, disk_traffic_scale, extra_streams)`` arrays of the
    same shape — bit-identical per scenario to the scalar context for
    co-resident sets of fewer than 8 jobs (larger sets hit NumPy's
    pairwise summation in ``_npsum`` and are the batch engine's event
    fallback).

    All cross-slot sums accumulate sequentially in slot order, exactly
    like the scalar path's Python loops; padded slots contribute
    ``0.0``, which leaves each partial sum unchanged.
    """
    m = np.asarray(n_mappers, dtype=float)
    active = np.asarray(active, dtype=bool)
    if m.ndim != 2 or m.shape != active.shape:
        raise ValueError("n_mappers and active must be matching (S, K) arrays")
    S, K = m.shape
    if K >= 8:
        raise ValueError(
            "co-resident sets of >= 8 jobs take NumPy's pairwise summation "
            "path in the scalar context; route them to the event engine"
        )
    if np.any(m[active] < 1):
        raise ValueError("mapper counts must be >= 1")

    cores_per_module = 2.0
    n_modules = node.n_cores / cores_per_module
    zeros = np.zeros(S)
    m_act = np.where(active, m, 0.0)
    mods = np.where(active, np.ceil(m / cores_per_module), 0.0)

    mods_sum = zeros
    total_m = zeros
    footprint = zeros
    pres_total = zeros
    pres = np.where(active, p.cache_pressure * m, 0.0)
    for j in range(K):
        mods_sum = mods_sum + mods[:, j]
        total_m = total_m + m_act[:, j]
        footprint = footprint + np.where(active[:, j], m[:, j] * p.footprint_per_task[:, j], 0.0)
        pres_total = pres_total + pres[:, j]
    shared = np.maximum(mods_sum - n_modules, 0.0)

    over = np.maximum(footprint / node.available_memory_bytes - 1.0, 0.0)
    disk_scale_row = 1.0 + constants.swap_penalty * over

    n_jobs = active.sum(axis=1)
    solo = n_jobs == 1

    floor = constants.cache_share_floor
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.minimum(np.maximum(pres / pres_total[:, None], floor), 1.0 - floor)
        infl = np.minimum(
            np.maximum(np.power(np.minimum(share, 1.0), -p.cache_alpha), 1.0),
            node.cache.max_inflation,
        )
        frac = np.minimum(shared[:, None] / mods, 1.0)
    mpki_scale = 1.0 + frac * (infl - 1.0)
    mpki_scale = np.where(solo[:, None] | ~active, 1.0, mpki_scale)

    disk_scale = np.where(active, disk_scale_row[:, None], 1.0)
    extra = np.where(active, total_m[:, None] - m_act, 0.0)
    return mpki_scale, disk_scale, extra


def node_state_soa(
    metrics: JobMetrics,
    active: np.ndarray,
    *,
    node: NodeSpec = ATOM_C2758,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched twin of the engine's segment state: (stretch, node watts).

    ``metrics`` holds ``(S, K)`` per-slot arrays; ``active`` masks real
    slots.  Mirrors ``NodeEngine._segment_state``: sequential slot-order
    demand sums, then the same max chain and power composition.
    """
    active = np.asarray(active, dtype=bool)
    S, K = active.shape
    bw = node.membw.achievable_bw
    zeros = np.zeros(S)
    sum_disk = zeros
    sum_net = zeros
    sum_mem = zeros
    sum_core = zeros
    for j in range(K):
        on = active[:, j]
        sum_disk = sum_disk + np.where(on, metrics.u_disk[:, j], 0.0)
        sum_net = sum_net + np.where(on, metrics.u_net[:, j], 0.0)
        sum_mem = sum_mem + np.where(on, metrics.mem_demand[:, j], 0.0)
        sum_core = sum_core + np.where(on, metrics.core_power[:, j], 0.0)
    s = np.maximum(np.maximum(np.maximum(1.0, sum_disk), sum_net), sum_mem / bw)
    pm = node.power
    core = sum_core / s
    u_disk = np.minimum(sum_disk / s, 1.0)
    u_mem = np.minimum(sum_mem / s / bw, 1.0)
    watts = (
        pm.idle_power
        + core
        + pm.mem_max_power * u_mem
        + pm.disk_max_power * u_disk
    )
    return s, watts


def solo_disk_scale(
    p: ProfileSoA,
    n_mappers,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> np.ndarray:
    """The ``k = 1`` context's disk-traffic scale (mpki 1, extra 0).

    Mirrors the scalar context's single-job branch: the job's own
    footprint can still overcommit memory and spill to disk.
    """
    m = np.asarray(n_mappers, dtype=float)
    footprint = np.zeros(np.broadcast(m, p.footprint_per_task).shape)
    footprint = footprint + m * p.footprint_per_task
    over = np.maximum(footprint / node.available_memory_bytes - 1.0, 0.0)
    return 1.0 + constants.swap_penalty * over
