"""Property-based invariants: engine conservation laws under faults.

Every test here is a *property* checked over many generated cases:
random workloads (job count, arrival rate, tuned/untuned knobs, node
count) and random fault plans (rate, seed), all derived from one
integer case seed.  With ``hypothesis`` installed the cases come from
its integer strategy (shrinking included); without it a seeded
``parametrize`` fallback runs the same properties over a fixed seed
range, so the suite never silently loses coverage on a bare box.

The suite asserts the invariants the fault-injection PR must preserve:

* every submitted job completes exactly once — healthy or faulty;
* no node is busy longer than the horizon, and downtime never
  overlaps busy time;
* the O(1) prefix-sum energy path agrees with the windowed
  segment-scan path (and energy is additive over window splits);
* the recontext cache is semantically transparent (tiny cache ==
  default cache, byte-identical results);
* a node generation bump invalidates stale completion events — an
  evicted job never completes from its pre-eviction schedule;
* repeated identical runs yield identical recovery traces.

Six properties: 180 generated cases under the ``dev`` hypothesis
profile (30 each), 720 under ``ci`` (120 each), and 235 fixed seeds
without hypothesis.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector, InjectionPlan
from repro.mapreduce.engine import ClusterEngine, RecontextCache
from repro.utils.rng import rng_from
from repro.workloads.streams import poisson_job_stream

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare boxes only
    HAVE_HYPOTHESIS = False


def seeded_cases(n: int):
    """Run the test once per generated integer ``case_seed``.

    With hypothesis: cases drawn from the full int32 range (plus
    shrinking on failure), at the *depth of the active profile* —
    ``tests/conftest.py`` registers derandomized ``dev``/``ci``
    profiles selected via ``REPRO_HYPOTHESIS_PROFILE``, so each CI
    lane picks its own example budget instead of this file hard-coding
    one.  Without hypothesis: ``case_seed`` sweeps ``range(n)`` via
    ``parametrize`` — same property, fixed seeds, ``n`` per test.
    """

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return given(case_seed=st.integers(min_value=0, max_value=2**31 - 1))(fn)
        return pytest.mark.parametrize("case_seed", range(n))(fn)

    return deco


# -------------------------------------------------------- generators
def _case(case_seed: int, *, max_jobs: int = 10, faulty: bool = True):
    """Derive one (n_nodes, specs, plan) workload from a case seed."""
    rng = rng_from(case_seed)
    n_nodes = int(rng.integers(1, 5))
    n_jobs = int(rng.integers(1, max_jobs + 1))
    specs = list(
        poisson_job_stream(
            n_jobs,
            mean_interarrival_s=float(rng.uniform(2.0, 60.0)),
            seed=int(rng.integers(2**31)),
            tuned=bool(rng.integers(2)),
            job_ids_from=1,
        )
    )
    horizon = specs[-1].submit_time + 4000.0
    rate = float(rng.choice([0.0, 2.0, 10.0, 30.0])) if faulty else 0.0
    if rate > 0:
        plan = InjectionPlan.generate(
            n_nodes, horizon, rate_per_1ks=rate, seed=int(rng.integers(2**31))
        )
    else:
        plan = InjectionPlan.empty()
    return n_nodes, specs, plan


def _run(n_nodes, specs, plan, *, recorder="off", cache=None):
    cluster = ClusterEngine(
        n_nodes, recorder=recorder, metrics_cache=cache
    )
    for s in specs:
        cluster.submit(s)
    injector = FaultInjector(cluster, plan).install()
    results = cluster.run()
    return cluster, injector, results


def _rows(results):
    return [
        (r.spec.label, r.node_id, r.start_time, r.finish_time, r.energy_joules)
        for r in results
    ]


# -------------------------------------------------------- properties
@seeded_cases(60)
def test_every_job_completes_exactly_once(case_seed):
    n_nodes, specs, plan = _case(case_seed)
    _cluster, _inj, results = _run(n_nodes, specs, plan)
    finished = sorted(r.spec.job_id for r in results)
    assert finished == sorted(s.job_id for s in specs)


@seeded_cases(45)
def test_busy_time_within_horizon(case_seed):
    n_nodes, specs, plan = _case(case_seed)
    cluster, _inj, results = _run(n_nodes, specs, plan)
    horizon = cluster.now
    assert cluster.makespan <= horizon + 1e-6
    for node in cluster.nodes:
        node.advance_to(horizon)
        busy = node.busy_seconds
        down = node.down_seconds(0.0, horizon)
        assert 0.0 <= busy <= horizon + 1e-6
        # Downtime and busy time never overlap: a crashed node runs
        # nothing, so the two together still fit in the horizon.
        assert busy + down <= horizon + 1e-6


@seeded_cases(40)
def test_energy_prefix_sum_equals_segment_scan(case_seed):
    n_nodes, specs, plan = _case(case_seed)
    cluster, _inj, _results = _run(n_nodes, specs, plan, recorder="full")
    # Late plan events (e.g. a recovery after the last completion) can
    # advance node clocks past the makespan; the engine clock bounds all.
    horizon = max(cluster.now, 1.0)
    rng = rng_from(case_seed + 1)
    mid = float(rng.uniform(0.0, horizon))
    for node in cluster.nodes:
        node.advance_to(horizon)
        full = node.energy_between(0.0, horizon)  # O(1) prefix-sum path
        split = node.energy_between(0.0, mid) + node.energy_between(mid, horizon)
        assert split == pytest.approx(full, rel=1e-9, abs=1e-6)
        assert full >= 0.0


@seeded_cases(35)
def test_recontext_cache_is_transparent(case_seed):
    n_nodes, specs, plan = _case(case_seed)
    _c1, i1, r1 = _run(n_nodes, specs, plan)
    _c2, i2, r2 = _run(
        n_nodes, specs, plan, cache=RecontextCache(maxsize=1)
    )
    assert _rows(r1) == _rows(r2)  # exact: the cache may never alter bytes
    assert i1.trace == i2.trace


@seeded_cases(30)
def test_repeat_run_is_deterministic(case_seed):
    n_nodes, specs, plan = _case(case_seed, max_jobs=6)
    c1, i1, r1 = _run(n_nodes, specs, plan)
    c2, i2, r2 = _run(n_nodes, specs, plan)
    assert i1.trace == i2.trace
    assert _rows(r1) == _rows(r2)
    assert c1.edp() == c2.edp()


@seeded_cases(25)
def test_no_completion_survives_generation_bump(case_seed):
    """Evicting a job at t must cancel its scheduled completion."""
    rng = rng_from(case_seed)
    specs = list(
        poisson_job_stream(
            1, seed=int(rng.integers(2**31)), tuned=bool(rng.integers(2)),
            job_ids_from=1,
        )
    )
    spec = specs[0]
    # Healthy duration, to aim the eviction mid-flight.
    ref = ClusterEngine(1, recorder="off")
    ref.submit(spec)
    d = ref.run()[0].finish_time - spec.submit_time
    cut = spec.submit_time + d * float(rng.uniform(0.2, 0.8))

    cluster = ClusterEngine(1, recorder="off")
    cluster.submit(spec)
    evicted = []

    def evict_and_resubmit(c, t):
        engine = c.nodes[0]
        if not engine.running:  # pragma: no cover - guard, never expected
            return
        engine.advance_to(t)
        evicted.append(engine.evict(spec.job_id))
        c._arm(engine)
        c.pending.append(spec)
        c.scheduler(c, t)

    cluster.call_at(cut, evict_and_resubmit)
    results = cluster.run()
    # Exactly one completion, and not the stale pre-eviction one: the
    # job restarted from scratch at `cut`, so it finishes a full
    # duration later, never at the originally-armed time.
    assert len(results) == 1
    assert len(evicted) == 1
    assert results[0].finish_time == pytest.approx(cut + d)
    assert results[0].finish_time > spec.submit_time + d + 1e-9
