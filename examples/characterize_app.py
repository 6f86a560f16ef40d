"""Characterise an unknown application the way ECoST's Step 1 does.

Runs the simulated measurement stack — perf (multiplexed PMU
counters), dstat (1 Hz resource monitor) and the Wattsup power meter —
over a learning-period execution of an application, assembles the
paper's 14-feature vector, and classifies the app into one of the four
classes using the nearest-centroid classifier trained on the five
known applications.

Run:  python examples/characterize_app.py [app_code] [size_gb]
"""

import sys

from repro.analysis.classify import NearestCentroidClassifier
from repro.analysis.features import PROFILING_CONFIG, build_feature_matrix
from repro.mapreduce.engine import NodeEngine
from repro.mapreduce.job import JobSpec
from repro.telemetry.profiling import FEATURE_NAMES, profile_features
from repro.telemetry.wattsup import WattsupMeter
from repro.utils.tables import render_table
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import TRAINING_APPS, get_app, instances_for


def main(code: str = "km", size_gb: int = 5) -> None:
    instance = AppInstance(get_app(code), size_gb * GB)
    print(f"Profiling unknown application {instance.label} "
          f"(true class {instance.app_class}, hidden from the pipeline)\n")

    # Learning-period measurement: perf + dstat -> 14 features.
    feats = profile_features(instance, PROFILING_CONFIG, seed=0)
    print(render_table(
        ["feature", "value"],
        [[name, feats[name]] for name in FEATURE_NAMES],
        title="Learning-period feature vector",
        floatfmt=".2f",
    ))

    # Wall-power trace of a full run (the Wattsup view).
    engine = NodeEngine()
    engine.submit(JobSpec(instance=instance, config=PROFILING_CONFIG))
    result = engine.run_to_completion()[0]
    trace = WattsupMeter().trace(engine, seed=0)
    print(f"\nWattsup: {trace.duration_s:.0f}s trace, "
          f"avg {trace.average_watts:.1f}W wall, "
          f"{trace.average_above_idle:.1f}W above idle "
          f"(paper's §2.5 idle-subtraction methodology)")
    print(f"run: {result.duration:.0f}s, {result.energy_joules/1e3:.1f}kJ")

    # Classification against the known training applications.
    training = instances_for(TRAINING_APPS)
    fm = build_feature_matrix(training, seed=0)
    classifier = NearestCentroidClassifier().fit(
        fm, [i.app_class for i in training]
    )
    predicted = classifier.classify(feats)
    distances = classifier.distances(feats)
    print("\nCentroid distances: " + ", ".join(
        f"{cls.value}={d:.2f}" for cls, d in sorted(distances.items(), key=lambda kv: kv[1])
    ))
    verdict = "correct" if predicted is instance.app_class else (
        f"differs from true class {instance.app_class} (borderline app)"
    )
    print(f"Classified as: {predicted}  [{verdict}]")


if __name__ == "__main__":
    code = sys.argv[1] if len(sys.argv) > 1 else "km"
    size = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    main(code, size)
