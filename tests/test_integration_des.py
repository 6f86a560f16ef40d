"""Property-based integration tests of the discrete-event cluster.

Random job mixes exercise the engine end to end; the assertions are
conservation laws that must hold for *any* schedule:

* makespan ≥ the longest standalone duration among the jobs;
* cluster energy ≥ idle power × nodes × makespan;
* per-job co-run duration ≥ its standalone duration (contention never
  speeds a job up);
* every submitted job completes exactly once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdfs.blocks import HDFS_BLOCK_SIZES
from repro.mapreduce.engine import ClusterEngine, NodeEngine
from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.model.costmodel import standalone_metrics
from repro.utils.units import GB, GHZ
from repro.workloads.registry import ALL_APPS, get_app

job_strategy = st.tuples(
    st.sampled_from(ALL_APPS),
    st.sampled_from([1 * GB, 5 * GB]),
    st.sampled_from([1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ]),
    st.sampled_from(HDFS_BLOCK_SIZES),
    st.integers(min_value=1, max_value=4),
)


def _spec(code, size, f, b, m):
    return JobSpec(
        instance=__import__("repro.workloads.base", fromlist=["AppInstance"]).AppInstance(
            get_app(code), size
        ),
        config=JobConfig(frequency=f, block_size=b, n_mappers=m),
    )


@settings(max_examples=25, deadline=None)
@given(jobs=st.lists(job_strategy, min_size=1, max_size=6))
def test_cluster_conservation_laws(jobs):
    cluster = ClusterEngine(n_nodes=2)
    specs = [_spec(*j) for j in jobs]
    for spec in specs:
        cluster.submit(spec)
    results = cluster.run()

    # Completion exactly once per job.
    assert sorted(r.spec.job_id for r in results) == sorted(
        s.job_id for s in specs
    )

    makespan = cluster.makespan
    # Makespan bounded below by the slowest job alone.
    longest = max(
        float(
            np.asarray(
                standalone_metrics(
                    s.instance.profile, s.instance.data_bytes,
                    s.config.frequency, s.config.block_size, s.config.n_mappers,
                ).duration
            )
        )
        for s in specs
    )
    assert makespan >= longest - 1e-6

    # Energy floor: both nodes draw idle power the whole horizon.
    idle = cluster.nodes[0].node.power.idle_power
    assert cluster.total_energy(makespan) >= 2 * idle * makespan - 1e-6

    # Per-job time never beats standalone execution.
    for r in results:
        s = r.spec
        alone = float(
            np.asarray(
                standalone_metrics(
                    s.instance.profile, s.instance.data_bytes,
                    s.config.frequency, s.config.block_size, s.config.n_mappers,
                ).duration
            )
        )
        assert r.duration >= alone * 0.999


@settings(max_examples=15, deadline=None)
@given(
    jobs=st.lists(job_strategy, min_size=2, max_size=4),
    stagger=st.floats(min_value=0.0, max_value=200.0),
)
def test_staggered_arrivals_never_start_early(jobs, stagger):
    cluster = ClusterEngine(n_nodes=1)
    arrival = 0.0
    specs = []
    for j in jobs:
        spec = _spec(*j)
        spec = JobSpec(
            instance=spec.instance, config=spec.config, submit_time=arrival
        )
        specs.append(spec)
        cluster.submit(spec)
        arrival += stagger
    results = cluster.run()
    for r in results:
        assert r.start_time >= r.spec.submit_time - 1e-9


def test_three_way_colocation_supported():
    """The engine handles more than two co-residents (the §4.2 case)."""
    engine = NodeEngine()
    for code in ("st", "wc", "gp"):
        engine.submit(_spec(code, 1 * GB, 2.4 * GHZ, HDFS_BLOCK_SIZES[2], 2))
    assert len(engine.running) == 3
    results = engine.run_to_completion()
    assert len(results) == 3
    assert engine.free_cores == 8
