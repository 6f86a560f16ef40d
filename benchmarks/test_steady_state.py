"""Steady-state benchmark: queue behaviour under continuous arrivals.

Extension artefact: the paper's §5 queue is exercised the way a
datacenter actually sees it — a Poisson stream of unknown
applications — validating that the head reservation prevents
starvation even though the decision tree de-prioritises memory-bound
applications.
"""

from repro.experiments.artifacts import train_pipeline
from repro.experiments.steady_state import run_steady_state


def test_steady_state(benchmark, save):
    pipeline = train_pipeline()
    stp = pipeline.pair_stp("mlp")
    classifier = pipeline.classifier
    report = benchmark.pedantic(
        run_steady_state,
        args=(stp, classifier),
        rounds=1,
        iterations=1,
    )
    save("steady_state", report.render())

    ecost, fifo = report.runs
    assert ecost.n_jobs == fifo.n_jobs == 40

    # No starvation: the head reservation bounds every job's wait well
    # below the horizon, for both pairing policies.
    for run in report.runs:
        assert run.max_wait_s < run.makespan * 0.75
        # Every class got scheduled and measured.
        assert len(run.mean_wait_by_class) == 4

    # De-prioritising M cannot starve it: the between-class mean-wait
    # spread stays a small fraction of the horizon (leap-forward is
    # guarded by the head reservation).
    assert ecost.fairness_spread_s() < ecost.makespan * 0.25
