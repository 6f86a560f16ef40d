"""The §8 application mapping policies and the brute-force upper bound.

Seven policies place a 16-application workload (Table 3) on a 1/2/4/8
node cluster:

=======  ====== ====== =====================================================
policy   paired tuned  placement
=======  ====== ====== =====================================================
SM        no     no    each app serially over the whole cluster
MNM1      no     no    2 apps in parallel, each over half the nodes
MNM2      no     no    4 apps in parallel, each over a quarter of the nodes
SNM       no     no    1 app per node (all 8 cores), untuned
CBM       yes    no    2 apps per node, 4 cores each, untuned
PTM       no     yes   1 app per node, configuration predicted by STP
ECoST     yes    yes   the full pipeline (classify/pair/self-tune)
UB        yes    yes   brute force: optimal pairing (exact min-cost
                       matching) + oracle per-pair configurations
=======  ====== ====== =====================================================

Energy accounting is uniform: every node of the cluster draws idle
power for the entire workload makespan (a rack is powered whether or
not its nodes compute), plus each job's dynamic energy.  Node-level
policies run on the discrete-event engine; whole-cluster policies use
the closed-form distributed model — the two are consistent by
construction (they share the cost kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.classify import NearestCentroidClassifier
from repro.core.controller import ECoSTController
from repro.core.stp import MLMSTP, SoloSTP, describe_instance
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.mapreduce.engine import ClusterEngine
from repro.mapreduce.job import JobSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.costmodel import distributed_metrics
from repro.model.sweep import sweep_pair
from repro.utils.units import GHZ, MB
from repro.workloads.base import AppInstance

#: Stock defaults for the [NT] (not-tuned) policies: Hadoop 1.x's
#: 64 MB block size and the microserver's shipping powersave governor,
#: which holds the lowest DVFS point.  An ondemand governor would
#: settle there too: the I/O-heavy duty cycles these nodes see rarely
#: keep a core busy enough to raise the clock.  Mapper count is set
#: per policy (SNM: all cores; CBM: half).
#: These are the "running without tuning the studied parameters"
#: baselines of §8.
DEFAULT_UNTUNED_CONFIG = dict(frequency=1.2 * GHZ, block_size=64 * MB)


@dataclass(frozen=True)
class PolicyOutcome:
    """Cluster-level result of one policy on one workload."""

    policy: str
    n_nodes: int
    makespan: float
    energy: float
    details: tuple[str, ...] = ()

    @property
    def edp(self) -> float:
        return self.energy * self.makespan


@dataclass(frozen=True)
class TunedComponents:
    """Trained pieces shared by PTM / ECoST / UB evaluations."""

    solo_stp: SoloSTP
    pair_stp: MLMSTP
    classifier: NearestCentroidClassifier


# ----------------------------------------------------------------- helpers
def _dyn_energy_distributed(
    inst: AppInstance, k: int, m: int, node: NodeSpec, constants: SimConstants
) -> tuple[float, float]:
    """(makespan, dynamic energy over all k nodes) of one distributed job."""
    dm = distributed_metrics(
        inst.profile, inst.data_bytes, k,
        DEFAULT_UNTUNED_CONFIG["frequency"], DEFAULT_UNTUNED_CONFIG["block_size"], m,
        node=node, constants=constants,
    )
    makespan = float(np.asarray(dm["makespan"]))
    per_node_power = float(np.asarray(dm["per_node"].power))
    dyn = (per_node_power - node.power.idle_power) * makespan * k
    return makespan, dyn


def _cluster_outcome(
    policy: str,
    n_nodes: int,
    makespan: float,
    dyn_energy: float,
    node: NodeSpec,
    details: Sequence[str] = (),
) -> PolicyOutcome:
    energy = node.power.idle_power * n_nodes * makespan + dyn_energy
    return PolicyOutcome(
        policy=policy,
        n_nodes=n_nodes,
        makespan=makespan,
        energy=energy,
        details=tuple(details),
    )


# ------------------------------------------------------------ NT policies
def _serial_mapping(
    workload: Sequence[AppInstance], n_nodes: int,
    node: NodeSpec, constants: SimConstants, _c: TunedComponents | None,
) -> PolicyOutcome:
    makespan = 0.0
    dyn = 0.0
    for inst in workload:
        t, e = _dyn_energy_distributed(inst, n_nodes, node.n_cores, node, constants)
        makespan += t
        dyn += e
    return _cluster_outcome("SM", n_nodes, makespan, dyn, node)


def _multi_node_mapping(groups: int) -> Callable:
    def policy(
        workload: Sequence[AppInstance], n_nodes: int,
        node: NodeSpec, constants: SimConstants, _c: TunedComponents | None,
    ) -> PolicyOutcome:
        g = min(groups, n_nodes)  # degenerate gracefully on small clusters
        per_group = n_nodes // g
        busy = [0.0] * g
        dyn = 0.0
        for i, inst in enumerate(workload):
            grp = i % g
            t, e = _dyn_energy_distributed(
                inst, per_group, node.n_cores, node, constants
            )
            busy[grp] += t
            dyn += e
        return _cluster_outcome(f"MNM{1 if groups == 2 else 2}", n_nodes, max(busy), dyn, node)

    return policy


def _engine_policy(
    name: str,
    config_for: Callable[[AppInstance], JobConfig],
) -> Callable:
    """A node-level policy on the DES: fixed per-app configs, FIFO."""

    def policy(
        workload: Sequence[AppInstance], n_nodes: int,
        node: NodeSpec, constants: SimConstants, _c: TunedComponents | None,
    ) -> PolicyOutcome:
        # Only makespan/total-horizon energy are reported — skip the
        # per-segment interval records entirely.
        cluster = ClusterEngine(n_nodes, node, constants=constants, recorder="off")
        for inst in workload:
            cluster.submit(JobSpec(instance=inst, config=config_for(inst)))
        cluster.run()
        makespan = cluster.makespan
        return PolicyOutcome(
            policy=name,
            n_nodes=n_nodes,
            makespan=makespan,
            energy=cluster.total_energy(makespan),
        )

    return policy


def _snm(workload, n_nodes, node, constants, components):
    cfg = lambda inst: JobConfig(n_mappers=node.n_cores, **DEFAULT_UNTUNED_CONFIG)
    return _engine_policy("SNM", cfg)(workload, n_nodes, node, constants, components)


def _cbm(workload, n_nodes, node, constants, components):
    cfg = lambda inst: JobConfig(n_mappers=node.n_cores // 2, **DEFAULT_UNTUNED_CONFIG)
    return _engine_policy("CBM", cfg)(workload, n_nodes, node, constants, components)


# --------------------------------------------------------- tuned policies
def _ptm(workload, n_nodes, node, constants, components):
    if components is None:
        raise ValueError("PTM requires trained components")
    def cfg(inst: AppInstance) -> JobConfig:
        desc = describe_instance(inst, node=node, constants=constants)
        return components.solo_stp.predict_config(desc)
    return _engine_policy("PTM", cfg)(workload, n_nodes, node, constants, components)


def _ecost(workload, n_nodes, node, constants, components):
    if components is None:
        raise ValueError("ECoST requires trained components")
    cluster = ClusterEngine(n_nodes, node, constants=constants, recorder="off")
    controller = ECoSTController(
        cluster, components.pair_stp, components.classifier,
        node=node, constants=constants,
    )
    for inst in workload:
        controller.submit(inst)
    controller.run()
    makespan = cluster.makespan
    return PolicyOutcome(
        policy="ECoST",
        n_nodes=n_nodes,
        makespan=makespan,
        energy=cluster.total_energy(makespan),
        details=tuple(controller.decisions),
    )


def _min_cost_matching(cost: np.ndarray) -> list[tuple[int, int]]:
    """Exact minimum-cost perfect matching via bitmask DP.

    ``cost`` is a symmetric (n, n) matrix, n even and ≤ ~18 (2ⁿ DP).
    """
    n = cost.shape[0]
    if n % 2:
        raise ValueError("perfect matching requires an even count")
    full = (1 << n) - 1
    INF = float("inf")
    dp = np.full(1 << n, INF)
    dp[0] = 0.0
    choice: dict[int, tuple[int, int]] = {}
    for mask in range(1 << n):
        if dp[mask] == INF:
            continue
        # Lowest unmatched index anchors the next pair (canonical order
        # keeps the DP linear in matchings rather than permutations).
        rest = full & ~mask
        if rest == 0:
            continue
        i = (rest & -rest).bit_length() - 1
        for j in range(i + 1, n):
            if rest >> j & 1:
                nmask = mask | (1 << i) | (1 << j)
                cand = dp[mask] + cost[i, j]
                if cand < dp[nmask]:
                    dp[nmask] = cand
                    choice[nmask] = (i, j)
    pairs = []
    mask = full
    while mask:
        i, j = choice[mask]
        pairs.append((i, j))
        mask &= ~((1 << i) | (1 << j))
    return pairs


def _ub(workload, n_nodes, node, constants, components):
    """Brute-force upper bound: oracle pairing + oracle configurations.

    Pairing is the exact min-total-EDP perfect matching over the
    workload; pairs are then placed LPT (longest processing time
    first) onto nodes, each executing its oracle configuration.
    """
    n = len(workload)
    if n % 2:
        raise ValueError("UB expects an even number of applications")
    # The matching reads each pair's best EDP and the schedule its
    # makespan and energy there; a pair's full sweep (~1 MB) is dropped
    # before the next one runs.
    optimum = {}
    cost = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s = sweep_pair(workload[i], workload[j], node=node, constants=constants)
            k = s.best_index
            optimum[(i, j)] = (float(s.metrics.makespan[k]), float(s.metrics.energy[k]))
            cost[i, j] = cost[j, i] = s.best_edp
    pairs = _min_cost_matching(cost)
    # LPT scheduling of pairs onto nodes.
    jobs = [optimum[(min(i, j), max(i, j))] for i, j in pairs]
    jobs.sort(reverse=True)
    busy = [0.0] * n_nodes
    dyn = 0.0
    for makespan_j, energy_j in jobs:
        k = int(np.argmin(busy))
        busy[k] += makespan_j
        dyn += energy_j - node.power.idle_power * makespan_j
    return _cluster_outcome("UB", n_nodes, max(busy), dyn, node)


#: Policy registry in the paper's presentation order.
POLICIES: dict[str, Callable] = {
    "SM": _serial_mapping,
    "MNM1": _multi_node_mapping(2),
    "MNM2": _multi_node_mapping(4),
    "SNM": _snm,
    "CBM": _cbm,
    "PTM": _ptm,
    "ECoST": _ecost,
    "UB": _ub,
}


def evaluate_policy(
    policy: str,
    workload: Sequence[AppInstance],
    n_nodes: int,
    *,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    components: TunedComponents | None = None,
) -> PolicyOutcome:
    """Run one mapping policy over a workload on an n-node cluster."""
    try:
        fn = POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; valid: {', '.join(POLICIES)}"
        ) from None
    if not workload:
        raise ValueError("empty workload")
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    return fn(workload, n_nodes, node, constants, components)
