"""End-to-end ECoST controller tests (small fixture pipeline)."""

import pytest

from repro.analysis.classify import NearestCentroidClassifier
from repro.analysis.features import build_feature_matrix
from repro.core.controller import ECoSTController
from repro.core.stp import MLMSTP
from repro.mapreduce.engine import ClusterEngine
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app


@pytest.fixture(scope="module")
def pipeline(small_dataset, small_training_instances):
    stp = MLMSTP("reptree").fit(small_dataset)
    fm = build_feature_matrix(small_training_instances, seed=0)
    classifier = NearestCentroidClassifier().fit(
        fm, [i.app_class for i in small_training_instances]
    )
    return stp, classifier


# Make the session-scoped fixtures visible at module scope.
@pytest.fixture(scope="module")
def small_dataset(request):
    return request.getfixturevalue("small_dataset")


def _controller(pipeline, n_nodes=2):
    stp, classifier = pipeline
    cluster = ClusterEngine(n_nodes=n_nodes)
    return ClusterEngine, ECoSTController(cluster, stp, classifier), cluster


def test_runs_all_jobs_to_completion(pipeline):
    _, ctrl, cluster = _controller(pipeline)
    for code in ("svm", "st", "wc", "nb", "cf", "km"):
        ctrl.submit(AppInstance(get_app(code), 1 * GB))
    results = ctrl.run()
    assert len(results) == 6
    assert cluster.makespan > 0
    assert not ctrl.queue


def test_two_jobs_share_each_node_initially(pipeline):
    _, ctrl, cluster = _controller(pipeline, n_nodes=2)
    for code in ("svm", "st", "wc", "nb"):
        ctrl.submit(AppInstance(get_app(code), 1 * GB))
    ctrl.run()
    starts_at_zero = [r for r in cluster.results if r.start_time == 0.0]
    assert len(starts_at_zero) == 4  # 2 nodes × 2 co-located jobs


def test_memory_apps_scheduled_last(pipeline):
    """The decision tree gives M the lowest priority: with one node and
    a mixed queue, the M application must not leap ahead."""
    _, ctrl, cluster = _controller(pipeline, n_nodes=1)
    ctrl.submit(AppInstance(get_app("svm"), 1 * GB))  # head: reserved
    ctrl.submit(AppInstance(get_app("cf"), 1 * GB))   # M
    ctrl.submit(AppInstance(get_app("st"), 1 * GB))   # I
    ctrl.run()
    order = [r.spec.instance.code for r in sorted(cluster.results, key=lambda r: r.start_time)]
    assert order.index("st") < order.index("cf")


def test_decisions_logged(pipeline):
    _, ctrl, cluster = _controller(pipeline)
    ctrl.submit(AppInstance(get_app("wc"), 1 * GB))
    ctrl.submit(AppInstance(get_app("st"), 1 * GB))
    ctrl.run()
    assert len(ctrl.decisions) == 2
    assert all("start" in d for d in ctrl.decisions)


def test_staggered_arrivals(pipeline):
    _, ctrl, cluster = _controller(pipeline, n_nodes=1)
    ctrl.submit(AppInstance(get_app("wc"), 1 * GB), arrival_time=0.0)
    ctrl.submit(AppInstance(get_app("st"), 1 * GB), arrival_time=30.0)
    ctrl.run()
    st = next(r for r in cluster.results if r.spec.instance.code == "st")
    assert st.start_time >= 30.0


def test_negative_arrival_rejected(pipeline):
    _, ctrl, _ = _controller(pipeline)
    with pytest.raises(ValueError):
        ctrl.submit(AppInstance(get_app("wc"), 1 * GB), arrival_time=-1.0)


def test_cluster_edp_positive(pipeline):
    _, ctrl, cluster = _controller(pipeline)
    for code in ("st", "st", "wc", "wc"):
        ctrl.submit(AppInstance(get_app(code), 1 * GB))
    ctrl.run()
    assert cluster.edp() > 0
    assert cluster.total_energy() > 0


@pytest.mark.hetero
def test_hetero_roster_ranks_empty_nodes_by_class_edp(pipeline):
    from repro.hardware import roster_from_classes

    stp, classifier = pipeline
    cluster = ClusterEngine(roster=roster_from_classes(("xeon", "atom")))
    ctrl = ECoSTController(cluster, stp, classifier)
    ctrl.submit(AppInstance(get_app("wc"), 1 * GB))
    order = ctrl._empty_node_order(cluster)
    assert sorted(e.node_id for e in order) == [0, 1]
    # On a homogeneous cluster the order is the untouched id-order list.
    homo = ClusterEngine(n_nodes=2)
    ctrl_homo = ECoSTController(homo, stp, classifier)
    ctrl_homo.submit(AppInstance(get_app("wc"), 1 * GB))
    assert ctrl_homo._empty_node_order(homo) is homo.nodes


@pytest.mark.hetero
def test_hetero_roster_runs_all_jobs_to_completion(pipeline):
    from repro.hardware import roster_from_classes

    stp, classifier = pipeline
    cluster = ClusterEngine(roster=roster_from_classes(("atom", "xeon")))
    ctrl = ECoSTController(cluster, stp, classifier)
    for code in ("svm", "st", "wc", "nb"):
        ctrl.submit(AppInstance(get_app(code), 1 * GB))
    results = ctrl.run()
    assert len(results) == 4
    assert cluster.makespan > 0
    assert not ctrl.queue


def test_due_arrivals_queue_in_submission_order(pipeline):
    """Arrivals submitted out of time order enter the wait queue in
    submission order once a wake-up finds them due."""
    _, ctrl, cluster = _controller(pipeline, n_nodes=1)
    late, early = AppInstance(get_app("wc"), 1 * GB), AppInstance(get_app("st"), 1 * GB)
    ctrl.submit(late, arrival_time=5.0, notify=False)
    ctrl.submit(early, arrival_time=3.0, notify=False)
    ctrl.blacklisted.add(0)  # keep both in the queue
    cluster.notify_at(6.0)
    with pytest.raises(RuntimeError, match="still queued"):
        ctrl.run()
    assert [qa.instance for qa in ctrl.queue] == [late, early]


def test_run_raises_on_arrivals_never_woken(pipeline):
    _, ctrl, cluster = _controller(pipeline, n_nodes=1)
    ctrl.submit(AppInstance(get_app("wc"), 1 * GB), arrival_time=0.0)
    ctrl.submit(AppInstance(get_app("st"), 1 * GB), arrival_time=1e9, notify=False)
    with pytest.raises(RuntimeError, match="still queued"):
        ctrl.run()
    assert len(cluster.results) == 1 and not ctrl.queue


def test_nan_arrival_time_refused(pipeline):
    _, ctrl, _cluster = _controller(pipeline)
    with pytest.raises(ValueError, match="arrival_time"):
        ctrl.submit(AppInstance(get_app("wc"), 1 * GB), arrival_time=float("nan"))


def test_each_application_classified_once(pipeline):
    """A running job's class is remembered with its profile, not
    re-derived in every partner-fill round; a cluster change forgets
    both."""
    _, ctrl, cluster = _controller(pipeline, n_nodes=2)
    calls = []
    classify = ctrl.classifier.classify

    def counting(features):
        calls.append(features)
        return classify(features)

    ctrl.classifier = type("Counting", (), {"classify": staticmethod(counting)})()
    instances = [
        AppInstance(get_app(code), size)
        for code in ("svm", "st", "wc", "nb")
        for size in (1 * GB, 5 * GB)
    ]
    for i, inst in enumerate(instances * 3):
        ctrl.submit(inst, arrival_time=20.0 * i)
    ctrl.run()
    assert len(cluster.results) == 24
    assert len(calls) == len(instances)
    ctrl.on_cluster_change(1e6, [0, 1])
    assert not ctrl._features_memo and not ctrl._class_memo
