"""FIG8 benchmark: training and prediction cost of each technique.

Paper reference: Figure 8 — LR/REPTree train orders of magnitude
faster than LkT (which needs the exhaustive sweeps) and MLP; at
prediction time LkT is the cheapest and MLP the most expensive, which
is why §7.2 recommends REPTree as the accuracy/cost sweet spot.
"""

from repro.experiments.fig8_overhead import run_fig8


def test_fig8_overhead(benchmark, save):
    report = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    save("fig8_overhead", report.render())

    train, predict = report.train_s, report.predict_s
    # Training: the cheap closed-form fits beat the MLP; the lookup
    # table's cost is the measurement campaign it requires.
    assert train["LR"] < train["MLP"]
    assert train["LR"] < train["REPTree"]
    # Prediction: the lookup table is the cheapest of all techniques;
    # model-based techniques must evaluate the whole config grid.
    assert predict["LkT"] < predict["LR"]
    assert predict["LkT"] < predict["REPTree"]
    assert predict["LkT"] < predict["MLP"]
    # The paper's reason to prefer REPTree: it predicts faster than MLP.
    assert predict["REPTree"] < predict["MLP"]
