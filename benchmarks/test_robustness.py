"""Robustness extension benchmark: STP under injected faults.

Not a paper artefact — one of DESIGN.md §5's extensions.  Quantifies
how measurement noise and misclassification degrade the recommended
REPTree self-tuner, substantiating the deployment claim that the
pipeline tolerates its classifier's realistic error modes.
"""

from repro.experiments.artifacts import train_pipeline
from repro.experiments.robustness import run_robustness


def test_robustness_injection(benchmark, save):
    stp = train_pipeline().pair_stp("reptree")
    report = benchmark.pedantic(
        run_robustness, args=(stp,), rounds=1, iterations=1
    )
    save("robustness", report.render())

    base = report.mean_error["counter noise x1"]
    heavy_noise = report.mean_error["counter noise x10"]
    half_flip = report.mean_error["misclassify p=0.5"]
    full_flip = report.mean_error["misclassify p=1"]

    # Counter noise is absorbed entirely: the training-manifold
    # projection snaps the noisy feature vector back onto a known
    # application, so even 10x the nominal PMU noise costs nothing.
    assert heavy_noise <= base + 2.0
    # Misclassification, by contrast, is NOT free: the class tag
    # drives pair orientation and model routing, so adjacent-class
    # confusion degrades the selection materially — which is why the
    # paper invests in a reliable classifier (Step 1).  Degradation is
    # monotone in the error probability and bounded well below LR's
    # ~1000% selection error.
    assert base <= half_flip <= full_flip
    assert full_flip < 150.0
