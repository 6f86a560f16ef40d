"""Discrete-event engine tests: consistency with the closed form."""

import numpy as np
import pytest

from repro.mapreduce.engine import ClusterEngine, NodeEngine
from repro.mapreduce.job import JobSpec
from repro.model.config import JobConfig
from repro.model.costmodel import pair_metrics, standalone_metrics
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app


def spec(code="st", gb=5, f=2.4, b=256, m=4, **kw):
    return JobSpec(
        instance=AppInstance(get_app(code), gb * GB),
        config=JobConfig(frequency=f * GHZ, block_size=b * MB, n_mappers=m),
        **kw,
    )


class TestNodeEngine:
    def test_solo_duration_matches_closed_form_exactly(self):
        s = spec()
        engine = NodeEngine()
        engine.submit(s)
        result = engine.run_to_completion()[0]
        cf = standalone_metrics(
            s.instance.profile, s.instance.data_bytes,
            s.config.frequency, s.config.block_size, s.config.n_mappers,
        )
        assert result.duration == pytest.approx(float(np.asarray(cf.duration)))

    def test_solo_energy_matches_closed_form(self):
        s = spec("wc")
        engine = NodeEngine()
        engine.submit(s)
        result = engine.run_to_completion()[0]
        cf = standalone_metrics(
            s.instance.profile, s.instance.data_bytes,
            s.config.frequency, s.config.block_size, s.config.n_mappers,
        )
        assert result.energy_joules == pytest.approx(float(np.asarray(cf.energy)), rel=1e-6)

    def test_pair_close_to_closed_form(self):
        sa, sb = spec("st", m=4), spec("wc", m=4)
        engine = NodeEngine()
        engine.submit(sa)
        engine.submit(sb)
        results = engine.run_to_completion()
        makespan = max(r.finish_time for r in results)
        pm = pair_metrics(
            sa.instance.profile, sa.instance.data_bytes,
            sa.config.frequency, sa.config.block_size, sa.config.n_mappers,
            sb.instance.profile, sb.instance.data_bytes,
            sb.config.frequency, sb.config.block_size, sb.config.n_mappers,
        )
        # The engine re-evaluates the tail context; the closed form
        # keeps it — bounded documented deviation.
        assert makespan == pytest.approx(float(np.asarray(pm.makespan)), rel=0.05)
        assert engine.energy_between(0, makespan) == pytest.approx(
            float(np.asarray(pm.energy)), rel=0.05
        )

    def test_capacity_enforced(self):
        engine = NodeEngine()
        engine.submit(spec(m=6))
        assert engine.free_cores == 2
        assert not engine.can_fit(spec(m=3))
        with pytest.raises(RuntimeError, match="free cores"):
            engine.submit(spec(m=3))

    def test_completions_ordered_in_time(self):
        engine = NodeEngine()
        engine.submit(spec("st", gb=1, m=2))
        engine.submit(spec("wc", gb=10, m=2))
        results = engine.run_to_completion()
        assert results[0].finish_time <= results[1].finish_time
        assert results[0].spec.instance.code == "st"

    def test_work_conserved_across_context_changes(self):
        """A co-run job that loses its partner finishes no later than a
        pair that keeps it (the survivor speeds up, never slows)."""
        alone = NodeEngine()
        alone.submit(spec("wc", m=4))
        t_alone = alone.run_to_completion()[0].duration

        shared = NodeEngine()
        shared.submit(spec("wc", m=4))
        shared.submit(spec("st", gb=1, m=4))
        results = shared.run_to_completion()
        wc = next(r for r in results if r.spec.instance.code == "wc")
        assert wc.duration >= t_alone * 0.999

    def test_intervals_cover_execution(self):
        engine = NodeEngine()
        engine.submit(spec())
        result = engine.run_to_completion()[0]
        window = engine.recorder
        covered = sum(e - s for s, e in zip(window.starts, window.ends))
        assert covered == pytest.approx(result.duration)

    def test_energy_between_includes_idle(self):
        engine = NodeEngine()
        engine.submit(spec(gb=1))
        result = engine.run_to_completion()[0]
        horizon = result.finish_time + 100.0
        e = engine.energy_between(0, horizon)
        assert e == pytest.approx(
            result.energy_joules + 100.0 * engine.node.power.idle_power, rel=1e-6
        )

    def test_time_cannot_go_backwards(self):
        engine = NodeEngine()
        engine.advance_to(10.0)
        with pytest.raises(ValueError):
            engine.advance_to(5.0)


class TestClusterEngine:
    def test_fifo_first_fit_runs_everything(self):
        cluster = ClusterEngine(n_nodes=2)
        for _ in range(6):
            cluster.submit(spec(m=4))
        results = cluster.run()
        assert len(results) == 6
        assert cluster.makespan > 0

    def test_two_jobs_per_node_with_four_mappers(self):
        cluster = ClusterEngine(n_nodes=1)
        cluster.submit(spec(m=4))
        cluster.submit(spec(m=4))
        cluster.run()
        # Both must have started immediately (they fit together).
        starts = [r.start_time for r in cluster.results]
        assert starts == [0.0, 0.0]

    def test_total_energy_charges_idle_nodes(self):
        cluster = ClusterEngine(n_nodes=4)
        cluster.submit(spec(gb=1, m=8))
        cluster.run()
        t = cluster.makespan
        e = cluster.total_energy(t)
        idle = cluster.nodes[0].node.power.idle_power
        assert e >= 3 * idle * t  # three nodes never ran anything

    def test_edp_is_energy_times_makespan(self):
        cluster = ClusterEngine(n_nodes=1)
        cluster.submit(spec(gb=1))
        cluster.run()
        assert cluster.edp() == pytest.approx(
            cluster.total_energy() * cluster.makespan
        )

    def test_arrival_times_respected(self):
        cluster = ClusterEngine(n_nodes=1)
        cluster.submit(spec(gb=1, m=8, submit_time=0.0))
        cluster.submit(spec(gb=1, m=8, submit_time=50.0))
        cluster.run()
        second = cluster.results[-1]
        assert second.start_time >= 50.0

    @pytest.mark.parametrize("exponent", [36, 40, 44, 48])
    def test_completions_hold_at_large_clock_values(self, exponent):
        """From about 2**35 s the clock's float spacing exceeds the
        engine's 1e-6 s completion tolerance, so the tolerance is
        floored at the clock's resolution."""
        start = 2.0**exponent
        for codes in (("wc", "st", "km"), ("gp", "ts", "hmm"), ("st", "st", "wc")):
            for gaps in ((0.0, 3.0, 7.0), (0.0, 0.0, 0.0), (0.0, 11.0, 19.0)):
                cluster = ClusterEngine(n_nodes=1)
                specs = []
                t = start
                for code, gap, m in zip(codes, gaps, (2, 3, 3)):
                    t += gap
                    specs.append(
                        spec(code, gb=1, b=128, m=m, submit_time=t)
                    )
                    cluster.submit(specs[-1])
                results = cluster.run()
                assert sorted(r.spec.job_id for r in results) == sorted(
                    s.job_id for s in specs
                )
                assert all(np.isfinite(r.energy_joules) for r in results)
                assert np.isfinite(cluster.total_energy())
