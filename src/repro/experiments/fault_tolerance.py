"""Fault-tolerance extension: EDP degradation vs. injection rate.

The paper's EDP claims are measured on a healthy cluster; a production
scheduler is judged by how gracefully those numbers degrade when tasks
die, nodes crash, and stragglers appear.  This extension replays the
same seeded Poisson job stream under increasing fault-injection rates
— through :class:`~repro.faults.injector.FaultInjector`'s Hadoop-style
recovery (task re-execution, speculative duplicates, HDFS
re-replication) — and reports makespan/EDP degradation relative to the
healthy (rate 0) run for two steady-state policies:

``tuned``
    Every arrival at its class's converged ECoST configuration
    (:data:`~repro.workloads.streams.TUNED_CLASS_CONFIGS`) — the
    post-learning steady state of the paper's controller.
``untuned``
    Knobs drawn uniformly from the full grids — the uncontrolled
    baseline the controller is compared against.

Everything is seeded: the job stream (with explicit job ids), the
injection plan, and HDFS placement, so the report — and the recovery
trace behind it — is bit-identical across runs.  The rate-0 row runs
with an *empty* plan, making it byte-identical to a fault-free engine
run; ``tests/test_golden_equivalence.py`` pins exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import FaultInjector
from repro.faults.plan import InjectionPlan
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.hdfs.filesystem import MiniHdfs
from repro.mapreduce.engine import ClusterEngine
from repro.mapreduce.job import JobSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.utils.rng import SeedLike
from repro.utils.tables import render_table
from repro.utils.units import MB
from repro.workloads.streams import poisson_job_stream

#: Injection rates (faults per 1000 simulated seconds) swept by default.
DEFAULT_RATES: tuple[float, ...] = (0.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class FaultRunMetrics:
    """Outcome of one (policy, rate) run."""

    policy: str
    rate_per_1ks: float
    n_jobs: int
    n_faults: int
    tasks_retried: int
    speculative_wasted: int
    blocks_rereplicated: int
    makespan: float
    edp: float


@dataclass(frozen=True)
class FaultToleranceReport:
    """All runs plus the recovery traces that produced them."""

    runs: tuple[FaultRunMetrics, ...]
    #: ``(policy, rate)`` -> the injector's recovery trace; the golden
    #: suite pins the faulty trace bytes, and notebooks can inspect the
    #: exact recovery decisions behind any row.
    traces: dict[tuple[str, float], tuple[str, ...]]

    def baseline(self, policy: str) -> FaultRunMetrics:
        """The healthy (lowest-rate) run of a policy."""
        candidates = [r for r in self.runs if r.policy == policy]
        if not candidates:
            raise ValueError(f"no runs for policy {policy!r}")
        return min(candidates, key=lambda r: r.rate_per_1ks)

    def render(self) -> str:
        rows = []
        for r in self.runs:
            base = self.baseline(r.policy)
            rows.append(
                [
                    r.policy,
                    r.rate_per_1ks,
                    r.n_jobs,
                    r.n_faults,
                    r.tasks_retried,
                    r.speculative_wasted,
                    r.blocks_rereplicated,
                    r.makespan,
                    100.0 * (r.makespan / base.makespan - 1.0),
                    100.0 * (r.edp / base.edp - 1.0),
                ]
            )
        return render_table(
            [
                "policy", "rate/1ks", "jobs", "faults", "retries",
                "spec waste", "re-repl", "makespan (s)",
                "makespan +%", "EDP +%",
            ],
            rows,
            title="Fault-tolerance extension — EDP degradation vs injection rate",
            floatfmt=".1f",
        )


def _build_hdfs(
    specs: list[JobSpec], n_nodes: int
) -> tuple[MiniHdfs, dict[int, str]]:
    """One HDFS file per distinct input, shared by the jobs reading it.

    Mirrors a real cluster's datasets: every job of the same
    application/size pair reads the same replicated file, so locality
    and re-replication act on shared blocks.  Placement is the
    deterministic round-robin writer of :meth:`MiniHdfs.write_file`.
    """
    hdfs = MiniHdfs(n_nodes=n_nodes, replication=min(3, n_nodes))
    job_files: dict[int, str] = {}
    for i, spec in enumerate(specs):
        name = f"{spec.instance.app.code}-{spec.instance.data_bytes}.dat"
        if name not in hdfs.list_files():
            # Cap the modelled extent: block metadata is all we track,
            # and a few hundred blocks per file keeps plans cheap.
            size = min(spec.instance.data_bytes, 512 * MB)
            hdfs.write_file(name, size, spec.config.block_size, writer_node=i)
        job_files[spec.job_id] = name
    return hdfs, job_files


def run_fault_tolerance(
    *,
    rates: tuple[float, ...] = DEFAULT_RATES,
    n_jobs: int = 120,
    mean_interarrival_s: float = 8.0,
    n_nodes: int = 4,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: SeedLike = 0,
    fault_seed: SeedLike = 7,
) -> FaultToleranceReport:
    """Sweep injection rates over tuned and untuned steady-state streams.

    Each (policy, rate) cell replays the *same* seeded workload with a
    fresh cluster and a plan drawn from ``fault_seed`` — rates differ
    but the workload does not, so every delta in the table is caused by
    faults and recovery, not by workload noise.
    """
    if not rates:
        raise ValueError("rates must be non-empty")
    runs: list[FaultRunMetrics] = []
    traces: dict[tuple[str, float], tuple[str, ...]] = {}
    for policy, tuned in (("tuned", True), ("untuned", False)):
        for rate in sorted(rates):
            specs = list(
                poisson_job_stream(
                    n_jobs,
                    mean_interarrival_s=mean_interarrival_s,
                    seed=seed,
                    tuned=tuned,
                    job_ids_from=1,
                )
            )
            cluster = ClusterEngine(
                n_nodes, node, constants=constants, recorder="off"
            )
            for s in specs:
                cluster.submit(s)
            horizon = specs[-1].submit_time + 4000.0
            if rate > 0:
                plan = InjectionPlan.generate(
                    n_nodes, horizon, rate_per_1ks=rate, seed=fault_seed
                )
            else:
                plan = InjectionPlan.empty()
            hdfs, job_files = _build_hdfs(specs, n_nodes)
            injector = FaultInjector(
                cluster, plan, hdfs=hdfs, job_files=job_files
            ).install()
            results = cluster.run()
            if len(results) != n_jobs:
                raise RuntimeError(
                    f"{policy}@{rate}: {len(results)}/{n_jobs} jobs completed"
                )
            tel = cluster.telemetry
            runs.append(
                FaultRunMetrics(
                    policy=policy,
                    rate_per_1ks=rate,
                    n_jobs=len(results),
                    n_faults=tel.faults_injected,
                    tasks_retried=tel.tasks_retried,
                    speculative_wasted=tel.speculative_wasted,
                    blocks_rereplicated=tel.blocks_rereplicated,
                    makespan=cluster.makespan,
                    edp=cluster.edp(),
                )
            )
            traces[(policy, rate)] = tuple(injector.trace)
    return FaultToleranceReport(runs=tuple(runs), traces=traces)
