"""The analytic MapReduce cost kernel.

Everything the reproduction measures — execution time, power, energy,
EDP — derives from the closed-form job model implemented here.  The
model is written entirely in broadcastable NumPy operations so a whole
configuration grid evaluates in one call (see :mod:`repro.model.sweep`),
following the vectorise-don't-loop idiom of the HPC guides.

Job model
---------
A job processing ``D`` input bytes with ``m`` mapper slots, HDFS block
size ``b`` and core frequency ``f`` decomposes into resource times:

* **CPU** — ``instr · spi(f, CPI₀, MPKI_eff)`` core-seconds spread over
  ``m_eff`` cores with last-wave imbalance; ``spi`` has a frequency-
  scaled pipeline term plus a frequency-independent memory-stall term
  (the memory wall — see :class:`repro.hardware.cpu.CoreModel`).
* **Disk** — input reads + map-side spills + shuffle write and partial
  re-read + output writes, at the aggregate bandwidth the disk delivers
  for the current stream count and extent (block) size.
* **Network** — the remote fraction of the shuffle across the 1 GbE NIC.
* **Overhead** — per-wave task scheduling/JVM cost (punishes small
  blocks).

The three resource times compose with the application's ``io_overlap``:

    T_work = ov · max(T_cpu, T_disk, T_net) + (1 − ov) · ΣT

so an I/O-bound app (low overlap) leaves every resource mostly idle —
the property that makes co-location profitable (§4.2 of the paper).

Co-location applies three couplings before evaluating each job:
LLC capacity partitioning (pressure-proportional, power-law miss
inflation), memory-footprint overcommit (extra disk traffic), and disk
stream interleaving; then a fluid *stretch* slows both jobs when their
aggregate disk/NIC/DRAM demand oversubscribes a resource, and a
two-segment schedule yields makespan and energy.

One array kernel, :func:`standalone_metrics` / :func:`pair_metrics`,
serves the grid sweeps, one :class:`~repro.workloads.base.AppProfile`
per call.  The discrete-event engine calls the kernel one job at a
time, where array overhead dominates, so it runs the scalar twin
:func:`standalone_metrics_scalar` / :func:`colocation_context_scalar`;
the online shadow scorer prices one pair configuration at a time
with :func:`pair_edp_scalar`.  Tests hold both twins bit-identical to
the array code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.workloads.base import AppProfile

_CACHE_LINE = 64.0


@dataclass(frozen=True)
class JobMetrics:
    """Closed-form metrics of one job execution (all fields broadcast).

    ``duration`` is wall time; the ``u_*`` fields are time-average
    utilisations *demanded* by this job alone (used both for power and
    for co-location contention); ``power``/``energy``/``edp`` are
    whole-node figures including idle draw, matching the paper's
    Wattsup methodology.
    """

    duration: np.ndarray
    t_cpu: np.ndarray
    t_disk: np.ndarray
    t_net: np.ndarray
    t_overhead: np.ndarray
    u_cpu: np.ndarray  # busy fraction of each of the job's cores
    u_disk: np.ndarray
    u_net: np.ndarray
    mem_demand: np.ndarray  # DRAM bytes/s demanded
    stall_fraction: np.ndarray
    m_eff: np.ndarray
    n_tasks: np.ndarray
    waves: np.ndarray
    mpki_eff: np.ndarray
    core_power: np.ndarray  # watts above idle from this job's cores
    power: np.ndarray  # whole-node watts when running alone
    energy: np.ndarray  # J, whole node
    edp: np.ndarray  # J·s

    def scalar(self, field: str) -> float:
        """Convenience: a 0-d metric as a Python float."""
        return float(np.asarray(getattr(self, field)))

    @property
    def pipeline_seconds(self) -> np.ndarray:
        """Core-pipeline CPU seconds: ``t_cpu`` minus its memory-stall
        share.  This is the component that scales as 1/f under DVFS —
        the frequency-doubling metamorphic relation pins exactly this.
        """
        return self.t_cpu * (1.0 - self.stall_fraction)


@dataclass(frozen=True, slots=True)
class ScalarJobMetrics:
    """Scalar twin of :class:`JobMetrics` — plain floats, no arrays.

    The discrete-event engine evaluates the cost kernel once per
    running job per membership change, always with scalar knobs; going
    through the broadcastable NumPy path costs ~50 array allocations
    per call.  :func:`standalone_metrics_scalar` produces this record
    instead, mirroring the array kernel operation-for-operation so the
    two are bit-identical (``tests/test_costmodel_scalar.py`` asserts
    exact equality over the full configuration grid).
    """

    duration: float
    t_cpu: float
    t_disk: float
    t_net: float
    t_overhead: float
    u_cpu: float
    u_disk: float
    u_net: float
    mem_demand: float
    stall_fraction: float
    m_eff: float
    n_tasks: float
    waves: float
    mpki_eff: float
    core_power: float
    power: float
    energy: float
    edp: float

    def scalar(self, field: str) -> float:
        """API parity with :meth:`JobMetrics.scalar`."""
        return getattr(self, field)

    @property
    def pipeline_seconds(self) -> float:
        """Scalar twin of :attr:`JobMetrics.pipeline_seconds`."""
        return self.t_cpu * (1.0 - self.stall_fraction)


@dataclass(frozen=True)
class PairMetrics:
    """Closed-form metrics of a co-located pair on one node.

    ``job_a`` and ``job_b`` are each job's metrics at the pair's
    points, or None where :func:`pair_step` read them from other points
    (a factored sweep keeps them per job point, see
    :class:`~repro.model.sweep.PairSweepResult`).
    """

    makespan: np.ndarray
    energy: np.ndarray
    edp: np.ndarray
    stretch: np.ndarray
    t_first_done: np.ndarray  # when the shorter job completes
    duration_a: np.ndarray  # completion time of job A
    duration_b: np.ndarray
    job_a: JobMetrics | None
    job_b: JobMetrics | None

    def scalar(self, field: str) -> float:
        return float(np.asarray(getattr(self, field)))


def _dyn_scale_lookup(node: NodeSpec, frequency) -> np.ndarray:
    """Vectorised V²f dynamic-power scale for arrays of DVFS levels."""
    freqs = node.dvfs.frequency_array
    f = np.asarray(frequency, dtype=float)
    idx = np.searchsorted(freqs, f * (1 - 1e-6))
    idx = np.clip(idx, 0, len(freqs) - 1)
    if not np.allclose(freqs[idx], f, rtol=1e-3):
        raise ValueError("frequency array contains non-DVFS levels")
    return node.dvfs.dyn_scale_array[idx]


def _dyn_scale_scalar(node: NodeSpec, frequency: float) -> float:
    """Scalar twin of :func:`_dyn_scale_lookup` (same tolerance rule)."""
    table = node.dvfs.dyn_scales
    hit = table.get(frequency)
    if hit is not None:
        return hit
    for f, scale in table.items():  # rtol=1e-3, like the array path
        if abs(f - frequency) <= 1e-3 * abs(frequency):
            return scale
    raise ValueError("frequency array contains non-DVFS levels")


def standalone_metrics(
    profile: AppProfile,
    data_bytes,
    frequency,
    block_size,
    n_mappers,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    mpki_scale=1.0,
    disk_traffic_scale=1.0,
    extra_streams=0.0,
    remote_fraction: float | None = None,
) -> JobMetrics:
    """Evaluate one job under one (or a grid of) configuration(s).

    All of ``data_bytes``, ``frequency``, ``block_size``, ``n_mappers``,
    ``mpki_scale``, ``disk_traffic_scale`` and ``extra_streams``
    broadcast together.  The three ``*_scale``/``extra_streams`` hooks
    are how :func:`pair_metrics` injects co-location couplings while
    reusing this single kernel.
    """
    D = np.asarray(data_bytes, dtype=float)
    f = np.asarray(frequency, dtype=float)
    b = np.asarray(block_size, dtype=float)
    m = np.asarray(n_mappers, dtype=float)
    if np.any(D <= 0):
        raise ValueError("data_bytes must be positive")
    if np.any(m < 1):
        raise ValueError("n_mappers must be >= 1")
    if remote_fraction is None:
        remote_fraction = constants.remote_shuffle_fraction

    p = profile
    n_tasks = np.ceil(D / b)
    m_eff = np.minimum(m, n_tasks)
    waves = np.ceil(n_tasks / m_eff)
    imbalance = waves * m_eff / n_tasks

    mpki_eff = p.llc_mpki0 * np.asarray(mpki_scale, dtype=float)
    spi = node.core.seconds_per_instruction(f, p.cpi0, mpki_eff)
    instr = D * (p.instructions_per_byte + p.shuffle_factor * p.reduce_instr_per_byte)
    t_cpu = instr * spi * imbalance / m_eff

    disk_bytes = (
        D
        * (
            p.read_factor
            + p.spill_factor
            + (1.0 + constants.shuffle_reread_fraction) * p.shuffle_factor
            + p.output_factor
        )
        * np.asarray(disk_traffic_scale, dtype=float)
    )
    streams = m_eff + np.asarray(extra_streams, dtype=float)
    agg_bw = node.disk.aggregate_bw(streams, b)
    t_disk = disk_bytes / agg_bw

    net_bytes = D * p.shuffle_factor * remote_fraction
    t_net = net_bytes / node.nic_bw

    t_overhead = waves * constants.task_overhead_s

    ov = p.io_overlap

    def compose(t_cpu_):
        t_bound = np.maximum(np.maximum(t_cpu_, t_disk), t_net)
        t_sum = t_cpu_ + t_disk + t_net
        return t_overhead + ov * t_bound + (1.0 - ov) * t_sum

    # Memory-bandwidth saturation: if the job's DRAM traffic would
    # exceed the channel at the unthrottled rate, compute stretches by
    # the oversubscription factor (one fixed-point pass — the second
    # iterate changes durations by <1% for all studied profiles).
    mem_traffic = instr * (mpki_eff / 1000.0) * _CACHE_LINE * p.mem_stream_factor
    duration0 = compose(t_cpu)
    over = np.maximum((mem_traffic / duration0) / node.membw.achievable_bw, 1.0)
    t_cpu = t_cpu * over
    duration = compose(t_cpu)

    u_cpu = t_cpu / duration
    u_disk = t_disk / duration
    u_net = t_net / duration
    stall = node.core.stall_fraction(f, p.cpi0, mpki_eff)

    mem_demand = mem_traffic / duration
    u_mem = np.minimum(mem_demand / node.membw.achievable_bw, 1.0)

    pm = node.power
    activity = u_cpu * (1.0 - stall * (1.0 - pm.stall_power_fraction))
    core_power = m_eff * pm.core_max_power * _dyn_scale_lookup(node, f) * activity
    power = (
        pm.idle_power
        + core_power
        + pm.mem_max_power * u_mem
        + pm.disk_max_power * np.minimum(u_disk, 1.0)
    )
    energy = power * duration
    edp = energy * duration

    as_arr = np.asarray
    return JobMetrics(
        duration=duration,
        t_cpu=as_arr(t_cpu),
        t_disk=as_arr(t_disk),
        t_net=as_arr(t_net),
        t_overhead=as_arr(t_overhead),
        u_cpu=as_arr(u_cpu),
        u_disk=as_arr(u_disk),
        u_net=as_arr(u_net),
        mem_demand=as_arr(mem_demand),
        stall_fraction=as_arr(stall),
        m_eff=as_arr(m_eff),
        n_tasks=as_arr(n_tasks),
        waves=as_arr(waves),
        mpki_eff=as_arr(mpki_eff),
        core_power=as_arr(core_power),
        power=as_arr(power),
        energy=as_arr(energy),
        edp=as_arr(edp),
    )


def standalone_metrics_scalar(
    profile: AppProfile,
    data_bytes: float,
    frequency: float,
    block_size: float,
    n_mappers: float,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    mpki_scale: float = 1.0,
    disk_traffic_scale: float = 1.0,
    extra_streams: float = 0.0,
    remote_fraction: float | None = None,
) -> ScalarJobMetrics:
    """Scalar-in/scalar-out twin of :func:`standalone_metrics`.

    Every expression mirrors the array kernel in the same operation
    order, so results are bit-identical to evaluating it on 0-d inputs
    — both are IEEE-754 double arithmetic.  No array is allocated
    anywhere on this path: one call costs 13-15 µs, against 150-190 µs
    through the array kernel on 0-d inputs, which is why the engine
    keeps this twin (``tests/test_costmodel_scalar.py`` pins it to the
    array kernel).
    """
    D = float(data_bytes)
    f = float(frequency)
    b = float(block_size)
    m = float(n_mappers)
    if D <= 0:
        raise ValueError("data_bytes must be positive")
    if m < 1:
        raise ValueError("n_mappers must be >= 1")
    if remote_fraction is None:
        remote_fraction = constants.remote_shuffle_fraction

    p = profile
    n_tasks = float(math.ceil(D / b))
    m_eff = min(m, n_tasks)
    waves = float(math.ceil(n_tasks / m_eff))
    imbalance = waves * m_eff / n_tasks

    mpki_eff = p.llc_mpki0 * float(mpki_scale)
    lat = node.core.effective_latency_s
    spi = p.cpi0 / f + (mpki_eff / 1000.0) * lat
    instr = D * (p.instructions_per_byte + p.shuffle_factor * p.reduce_instr_per_byte)
    t_cpu = instr * spi * imbalance / m_eff

    disk_bytes = (
        D
        * (
            p.read_factor
            + p.spill_factor
            + (1.0 + constants.shuffle_reread_fraction) * p.shuffle_factor
            + p.output_factor
        )
        * float(disk_traffic_scale)
    )
    streams = m_eff + float(extra_streams)
    disk = node.disk
    eff = b / (b + disk.half_extent)
    interleave = 1.0 / (1.0 + disk.seek_penalty * max(streams - 1.0, 0.0))
    agg_bw = disk.peak_bw * eff * interleave if streams > 0 else 0.0
    t_disk = disk_bytes / agg_bw

    net_bytes = D * p.shuffle_factor * remote_fraction
    t_net = net_bytes / node.nic_bw

    t_overhead = waves * constants.task_overhead_s

    ov = p.io_overlap

    def compose(t_cpu_: float) -> float:
        t_bound = max(max(t_cpu_, t_disk), t_net)
        t_sum = t_cpu_ + t_disk + t_net
        return t_overhead + ov * t_bound + (1.0 - ov) * t_sum

    mem_traffic = instr * (mpki_eff / 1000.0) * _CACHE_LINE * p.mem_stream_factor
    duration0 = compose(t_cpu)
    over = max((mem_traffic / duration0) / node.membw.achievable_bw, 1.0)
    t_cpu = t_cpu * over
    duration = compose(t_cpu)

    u_cpu = t_cpu / duration
    u_disk = t_disk / duration
    u_net = t_net / duration
    stall = ((mpki_eff / 1000.0) * lat) / spi

    mem_demand = mem_traffic / duration
    u_mem = min(mem_demand / node.membw.achievable_bw, 1.0)

    pm = node.power
    activity = u_cpu * (1.0 - stall * (1.0 - pm.stall_power_fraction))
    core_power = m_eff * pm.core_max_power * _dyn_scale_scalar(node, f) * activity
    power = (
        pm.idle_power
        + core_power
        + pm.mem_max_power * u_mem
        + pm.disk_max_power * min(u_disk, 1.0)
    )
    energy = power * duration
    edp = energy * duration

    return ScalarJobMetrics(
        duration=duration,
        t_cpu=t_cpu,
        t_disk=t_disk,
        t_net=t_net,
        t_overhead=t_overhead,
        u_cpu=u_cpu,
        u_disk=u_disk,
        u_net=u_net,
        mem_demand=mem_demand,
        stall_fraction=stall,
        m_eff=m_eff,
        n_tasks=n_tasks,
        waves=waves,
        mpki_eff=mpki_eff,
        core_power=core_power,
        power=power,
        energy=energy,
        edp=edp,
    )


def _cache_coupling(
    pa: AppProfile, ma, pb: AppProfile, mb, node: NodeSpec, constants: SimConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Module-aware LLC contention → per-job MPKI inflation.

    The Atom C2758 exposes its L2 as four 2-core *modules*, not one
    monolithic LLC, so core-partitioned co-runners only contend for
    cache on modules their core allocations both touch.  An even 4+4
    split shares no module (zero inflation); odd splits share one.
    The inflation on the shared fraction uses the pressure-proportional
    power-law model of :class:`repro.hardware.cache.SharedCacheModel`.
    """
    ma = np.asarray(ma, dtype=float)
    mb = np.asarray(mb, dtype=float)
    cores_per_module = 2.0
    n_modules = node.n_cores / cores_per_module
    mods_a = np.ceil(ma / cores_per_module)
    mods_b = np.ceil(mb / cores_per_module)
    shared = np.maximum(mods_a + mods_b - n_modules, 0.0)
    frac_a = shared / mods_a
    frac_b = shared / mods_b

    pres_a = pa.cache_pressure * ma
    pres_b = pb.cache_pressure * mb
    floor = constants.cache_share_floor
    share_a = np.clip(pres_a / (pres_a + pres_b), floor, 1.0 - floor)
    share_b = 1.0 - share_a
    infl_a = node.cache.mpki_inflation(share_a, pa.cache_alpha)
    infl_b = node.cache.mpki_inflation(share_b, pb.cache_alpha)
    scale_a = 1.0 + frac_a * (infl_a - 1.0)
    scale_b = 1.0 + frac_b * (infl_b - 1.0)
    return scale_a, scale_b


def _footprint_coupling(
    pa: AppProfile, ma, pb: AppProfile, mb, node: NodeSpec, constants: SimConstants
) -> np.ndarray:
    """Memory overcommit → shared disk-traffic multiplier."""
    footprint = np.asarray(ma, dtype=float) * pa.footprint_per_task + np.asarray(
        mb, dtype=float
    ) * pb.footprint_per_task
    over = np.maximum(footprint / node.available_memory_bytes - 1.0, 0.0)
    return 1.0 + constants.swap_penalty * over


def _npsum(vals: list[float]) -> float:
    """Sum a small float list exactly like ``np.ndarray.sum`` would.

    NumPy's reduction is sequential below 8 elements but switches to an
    8-accumulator pairwise scheme at length >= 8.  Every seeded engine
    result (the goldens included) depends on the engine's context
    summing that way, so lengths >= 8 defer to NumPy itself (one tiny
    allocation on a rare path).
    """
    if len(vals) < 8:
        total = 0.0
        for v in vals:
            total += v
        return total
    return float(np.asarray(vals, dtype=float).sum())


def colocation_context_scalar(
    profiles: list[AppProfile],
    mappers: list[float],
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> list[tuple[float, float, float]]:
    """Coupling parameters for ``k`` co-located jobs on one node.

    Generalises the pairwise couplings (module-aware LLC inflation,
    footprint overcommit, disk stream interleaving) to any number of
    co-runners; with ``k = 1`` everything degenerates to the neutral
    standalone context.  Used by the discrete-event engine, whose
    running set changes over time.

    Returns one ``(mpki_scale, disk_traffic_scale, extra_streams)``
    tuple per job without allocating arrays for the common small
    running sets.  For fewer than 8 jobs the result is bit-identical to
    the array reference ``colocation_context_soa`` in
    ``tests/test_costmodel_scalar.py``, which asserts it.
    """
    if len(profiles) != len(mappers):
        raise ValueError("profiles and mappers must have equal length")
    if not profiles:
        raise ValueError("need at least one job")
    m = [float(x) for x in mappers]
    if any(x < 1 for x in m):
        raise ValueError("mapper counts must be >= 1")
    k = len(profiles)

    cores_per_module = 2.0
    n_modules = node.n_cores / cores_per_module
    mods = [float(math.ceil(x / cores_per_module)) for x in m]
    shared = max(_npsum(mods) - n_modules, 0.0)

    total_m = _npsum(m)
    footprint = 0.0
    for i in range(k):
        footprint += m[i] * profiles[i].footprint_per_task
    over = max(footprint / node.available_memory_bytes - 1.0, 0.0)
    disk_scale = 1.0 + constants.swap_penalty * over

    if k == 1:
        return [(1.0, disk_scale, total_m - m[0])]

    pres = [profiles[i].cache_pressure * m[i] for i in range(k)]
    pres_total = _npsum(pres)
    floor = constants.cache_share_floor
    cache = node.cache
    out = []
    for i in range(k):
        share = min(max(pres[i] / pres_total, floor), 1.0 - floor)
        # np.power, not **: NumPy's pow differs from libm by ULPs, and
        # the array code (pair_metrics, the tests' reference) uses it.
        infl = min(
            max(float(np.power(min(share, 1.0), -profiles[i].cache_alpha)), 1.0),
            cache.max_inflation,
        )
        frac = min(shared / mods[i], 1.0)
        mpki_scale = 1.0 + frac * (infl - 1.0)
        out.append((mpki_scale, disk_scale, total_m - m[i]))
    return out


def _metric_as_float(value) -> float:
    return value if type(value) is float else float(np.asarray(value))


def fluid_stretch(
    jobs: list[JobMetrics | ScalarJobMetrics], node: NodeSpec = ATOM_C2758
) -> float:
    """Common slowdown of co-resident jobs from shared-resource demand.

    ``max(1, Σu_disk, Σu_net, Σdemand_mem / capacity)`` — the same rule
    :func:`pair_metrics` applies in closed form, exposed for the
    discrete-event engine.  Accepts array-backed and scalar metrics.
    """
    if not jobs:
        return 1.0
    u_disk = sum(_metric_as_float(j.u_disk) for j in jobs)
    u_net = sum(_metric_as_float(j.u_net) for j in jobs)
    u_mem = sum(_metric_as_float(j.mem_demand) for j in jobs) / node.membw.achievable_bw
    return max(1.0, u_disk, u_net, u_mem)


def pair_metrics(
    profile_a: AppProfile,
    data_a,
    freq_a,
    block_a,
    mappers_a,
    profile_b: AppProfile,
    data_b,
    freq_b,
    block_b,
    mappers_b,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> PairMetrics:
    """Evaluate a co-located pair under (grids of) configurations.

    Mapper counts must satisfy ``m_a + m_b <= node.n_cores`` — cores are
    partitioned between the two applications, so CPU is not a contended
    resource; disk, NIC, DRAM bandwidth and LLC capacity are.
    """
    ma = np.asarray(mappers_a, dtype=float)
    mb = np.asarray(mappers_b, dtype=float)
    if np.any(ma + mb > node.n_cores):
        raise ValueError("core partition exceeds the node's core count")

    mpki_scale_a, mpki_scale_b = _cache_coupling(
        profile_a, ma, profile_b, mb, node, constants
    )
    disk_scale = _footprint_coupling(profile_a, ma, profile_b, mb, node, constants)

    job_a = standalone_metrics(
        profile_a, data_a, freq_a, block_a, ma,
        node=node, constants=constants,
        mpki_scale=mpki_scale_a, disk_traffic_scale=disk_scale,
        extra_streams=mb,
    )
    job_b = standalone_metrics(
        profile_b, data_b, freq_b, block_b, mb,
        node=node, constants=constants,
        mpki_scale=mpki_scale_b, disk_traffic_scale=disk_scale,
        extra_streams=ma,
    )
    return pair_step(job_a, job_b, node)


def _step_inputs(job: JobMetrics, take: np.ndarray | None) -> tuple[np.ndarray, ...]:
    """The five job fields :func:`pair_step` reads, at ``take`` if given."""
    fields = (job.duration, job.core_power, job.mem_demand, job.u_disk, job.u_net)
    return fields if take is None else tuple(v[take] for v in fields)


def pair_step(
    job_a: JobMetrics,
    job_b: JobMetrics,
    node: NodeSpec,
    take_a: np.ndarray | None = None,
    take_b: np.ndarray | None = None,
) -> PairMetrics:
    """The pair's fluid stretch and two-segment schedule from its two
    co-located jobs: the last step of :func:`pair_metrics`.

    Without ``take_a``/``take_b`` both jobs are evaluated at the pair's
    points.  The factored sweep (:func:`repro.model.sweep.sweep_pair`)
    evaluates each job once per job point and passes, for each pair
    point ``g``, the job point ``take_a[g]`` (``take_b[g]``) to read;
    the result's ``job_a``/``job_b`` are then None.
    """
    dur_a, core_a, mem_a, disk_a, net_a = _step_inputs(job_a, take_a)
    dur_b, core_b, mem_b, disk_b, net_b = _step_inputs(job_b, take_b)
    cap = node.membw.achievable_bw
    u_mem_pair = (mem_a + mem_b) / cap
    u_disk_pair = disk_a + disk_b
    u_net_pair = net_a + net_b
    stretch = np.maximum(
        1.0, np.maximum(u_disk_pair, np.maximum(u_net_pair, u_mem_pair))
    )

    t_short = np.minimum(dur_a, dur_b)
    t_long = np.maximum(dur_a, dur_b)
    t_first_done = stretch * t_short
    makespan = t_first_done + (t_long - t_short)
    duration_a = np.where(dur_a <= dur_b, t_first_done, makespan)
    duration_b = np.where(dur_b <= dur_a, t_first_done, makespan)

    pm = node.power
    # Overlap segment: both jobs progress at rate 1/stretch, so their
    # per-unit-time resource occupancy scales by 1/stretch (the binding
    # resource runs at exactly 1.0).
    p_overlap = (
        pm.idle_power
        + (core_a + core_b) / stretch
        + pm.mem_max_power * np.minimum(u_mem_pair / stretch, 1.0)
        + pm.disk_max_power * np.minimum(u_disk_pair / stretch, 1.0)
    )
    # Tail segment: the longer job alone (still with its co-location
    # cache/footprint context — a documented approximation).
    a_is_long = dur_a > dur_b
    tail_core = np.where(a_is_long, core_a, core_b)
    tail_mem = np.where(
        a_is_long, np.minimum(mem_a / cap, 1.0), np.minimum(mem_b / cap, 1.0)
    )
    tail_disk = np.where(a_is_long, disk_a, disk_b)
    p_tail = (
        pm.idle_power
        + tail_core
        + pm.mem_max_power * tail_mem
        + pm.disk_max_power * np.minimum(tail_disk, 1.0)
    )
    energy = p_overlap * t_first_done + p_tail * (t_long - t_short)
    edp = energy * makespan

    return PairMetrics(
        makespan=np.asarray(makespan),
        energy=np.asarray(energy),
        edp=np.asarray(edp),
        stretch=np.asarray(stretch),
        t_first_done=np.asarray(t_first_done),
        duration_a=np.asarray(duration_a),
        duration_b=np.asarray(duration_b),
        job_a=job_a if take_a is None else None,
        job_b=job_b if take_b is None else None,
    )


def pair_edp_scalar(
    profile_a: AppProfile,
    data_a: float,
    freq_a: float,
    block_a: float,
    mappers_a: float,
    profile_b: AppProfile,
    data_b: float,
    freq_b: float,
    block_b: float,
    mappers_b: float,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> float:
    """Scalar twin of ``pair_metrics(...).edp`` at one configuration.

    Mirrors :func:`pair_metrics` operation for operation in Python
    floats: the two-job cache coupling (``share_b = 1 - share_a``, as
    :func:`_cache_coupling` computes it), the footprint coupling, two
    :func:`standalone_metrics_scalar` calls and the EDP of
    :func:`pair_step`.  The engine's :func:`colocation_context_scalar`
    divides each job's pressure by the total instead, which differs
    from ``1 - share_a`` in the last bit for some pairs, so it cannot
    stand in here.  ``tests/test_costmodel_scalar.py`` pins this twin
    to one-point :func:`pair_metrics`.
    """
    ma = float(mappers_a)
    mb = float(mappers_b)
    if ma + mb > node.n_cores:
        raise ValueError("core partition exceeds the node's core count")
    pa, pb = profile_a, profile_b

    cores_per_module = 2.0
    n_modules = node.n_cores / cores_per_module
    mods_a = float(math.ceil(ma / cores_per_module))
    mods_b = float(math.ceil(mb / cores_per_module))
    shared = max(mods_a + mods_b - n_modules, 0.0)
    pres_a = pa.cache_pressure * ma
    pres_b = pb.cache_pressure * mb
    floor = constants.cache_share_floor
    share_a = min(max(pres_a / (pres_a + pres_b), floor), 1.0 - floor)
    share_b = 1.0 - share_a
    cache = node.cache
    # np.power, not **: NumPy's pow differs from libm by ULPs.
    infl_a = min(
        max(float(np.power(min(share_a, 1.0), -pa.cache_alpha)), 1.0),
        cache.max_inflation,
    )
    infl_b = min(
        max(float(np.power(min(share_b, 1.0), -pb.cache_alpha)), 1.0),
        cache.max_inflation,
    )
    frac_a = shared / mods_a
    frac_b = shared / mods_b
    scale_a = 1.0 + frac_a * (infl_a - 1.0)
    scale_b = 1.0 + frac_b * (infl_b - 1.0)

    footprint = ma * pa.footprint_per_task + mb * pb.footprint_per_task
    over = max(footprint / node.available_memory_bytes - 1.0, 0.0)
    disk_scale = 1.0 + constants.swap_penalty * over

    job_a = standalone_metrics_scalar(
        pa, data_a, freq_a, block_a, ma, node=node, constants=constants,
        mpki_scale=scale_a, disk_traffic_scale=disk_scale, extra_streams=mb,
    )
    job_b = standalone_metrics_scalar(
        pb, data_b, freq_b, block_b, mb, node=node, constants=constants,
        mpki_scale=scale_b, disk_traffic_scale=disk_scale, extra_streams=ma,
    )

    cap = node.membw.achievable_bw
    u_mem_pair = (job_a.mem_demand + job_b.mem_demand) / cap
    u_disk_pair = job_a.u_disk + job_b.u_disk
    u_net_pair = job_a.u_net + job_b.u_net
    stretch = max(1.0, max(u_disk_pair, max(u_net_pair, u_mem_pair)))
    t_short = min(job_a.duration, job_b.duration)
    t_long = max(job_a.duration, job_b.duration)
    t_first_done = stretch * t_short
    makespan = t_first_done + (t_long - t_short)
    pm = node.power
    p_overlap = (
        pm.idle_power
        + (job_a.core_power + job_b.core_power) / stretch
        + pm.mem_max_power * min(u_mem_pair / stretch, 1.0)
        + pm.disk_max_power * min(u_disk_pair / stretch, 1.0)
    )
    tail = job_a if job_a.duration > job_b.duration else job_b
    p_tail = (
        pm.idle_power
        + tail.core_power
        + pm.mem_max_power * min(tail.mem_demand / cap, 1.0)
        + pm.disk_max_power * min(tail.u_disk, 1.0)
    )
    energy = p_overlap * t_first_done + p_tail * (t_long - t_short)
    return energy * makespan


def serial_pair_edp(job_a: JobMetrics, job_b: JobMetrics) -> np.ndarray:
    """EDP of running two (already evaluated) jobs back to back.

    This is the ILAO composition rule: makespan is the sum of the two
    durations, energy the sum of the two whole-node energies.
    """
    makespan = job_a.duration + job_b.duration
    energy = job_a.energy + job_b.energy
    return np.asarray(energy * makespan)


def distributed_metrics(
    profile: AppProfile,
    total_bytes,
    n_nodes: int,
    frequency,
    block_size,
    n_mappers,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
) -> Mapping[str, np.ndarray]:
    """A job spread over ``n_nodes`` nodes (the §8 scalability runs).

    Each node processes ``total / n_nodes`` bytes; a straggler factor
    models skew growing with scale; the remote shuffle fraction is
    ``(n − 1)/n``.  Returns makespan, whole-cluster energy and EDP.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    share = np.asarray(total_bytes, dtype=float) / n_nodes
    remote = (n_nodes - 1) / n_nodes
    jm = standalone_metrics(
        profile, share, frequency, block_size, n_mappers,
        node=node, constants=constants, remote_fraction=remote,
    )
    straggle = 1.0 + constants.straggler_coeff * np.log2(n_nodes) if n_nodes > 1 else 1.0
    makespan = jm.duration * straggle
    energy = jm.power * makespan * n_nodes
    return {
        "makespan": np.asarray(makespan),
        "energy": np.asarray(energy),
        "edp": np.asarray(energy * makespan),
        "per_node": jm,
    }
