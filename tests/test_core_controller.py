"""End-to-end ECoST controller tests (small fixture pipeline)."""

import pytest

import repro.core.stp as stp_module
from repro.analysis.classify import NearestCentroidClassifier
from repro.analysis.features import build_feature_matrix
from repro.core.controller import ECoSTController
from repro.core.stp import MLMSTP
from repro.mapreduce.engine import ClusterEngine
from repro.utils.units import GB, MB
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
    """A running job's class is remembered in its descriptor, not
    re-derived in every partner-fill round; a cluster change forgets
    the descriptors."""
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
    assert not ctrl._descriptor_memo


@pytest.mark.hetero
def test_per_application_memos_stay_at_the_cap(pipeline, monkeypatch):
    """A tenant may send any input size: more distinct (application,
    size) arrivals than the cap keep every per-application memo at the
    cap, and the decisions equal those of a run that evicts nothing."""
    from repro.hardware import roster_from_classes

    stp, classifier = pipeline
    instances = [
        AppInstance(get_app(code), (2 + k) * 256 * MB)
        for k in range(8)
        for code in ("wc", "st")
    ]

    def run():
        stp.clear_memo()
        cluster = ClusterEngine(roster=roster_from_classes(("atom", "xeon")))
        ctrl = ECoSTController(cluster, stp, classifier)
        for i, inst in enumerate(instances * 2):
            ctrl.submit(inst, arrival_time=40.0 * i)
        assert len(ctrl.run()) == 2 * len(instances)
        return ctrl

    reference = run()
    memos = ("_descriptor_memo", "_class_edp_memo")
    assert all(len(getattr(reference, m)) > 5 for m in memos)
    monkeypatch.setattr(stp_module, "DECISION_MEMO_CAP", 5)
    capped = run()
    assert capped.decisions == reference.decisions
    assert [len(getattr(capped, m)) for m in memos] == [5] * len(memos)



def test_profiling_across_a_cluster_change(pipeline, monkeypatch):
    """Crash and recovery each drop the learning-period profiles.  A
    queued application keeps the profile it was queued with, while a
    running job and a new arrival are profiled again, once per
    application; every profile is classified once.

    Node 1's crash at 60 s finds cf and km queued.  Both are placed
    without a profile; km is profiled again at 194 s only as a lone
    running job, and cf not at all before the recovery at 350 s.  The
    re-executed wc is profiled again as a running job.  After the
    recovery, the wc, hmm and st arrivals are profiled (the second wc
    hits the memo), and so is the running cf."""
    import repro.core.controller as controller_module
    from repro.faults import FaultEvent, FaultInjector, InjectionPlan

    _, ctrl, cluster = _controller(pipeline, n_nodes=2)
    profiled, classified = [], []
    profile = controller_module.profile_features
    classify = ctrl.classifier.classify

    def counting_profile(instance, *args, **kwargs):
        profiled.append((cluster.now, instance.code))
        return profile(instance, *args, **kwargs)

    def counting_classify(features):
        classified.append(cluster.now)
        return classify(features)

    monkeypatch.setattr(controller_module, "profile_features", counting_profile)
    ctrl.classifier = type(
        "Counting", (), {"classify": staticmethod(counting_classify)}
    )()
    for code in ("svm", "st", "wc", "nb", "cf", "km"):
        ctrl.submit(AppInstance(get_app(code), 1 * GB), arrival_time=0.0)
    for t, code in ((400.0, "wc"), (450.0, "hmm"), (500.0, "wc"), (550.0, "st")):
        ctrl.submit(AppInstance(get_app(code), 1 * GB), arrival_time=t)
    crash, recovery = 60.0, 350.0
    plan = InjectionPlan(
        events=(
            FaultEvent(crash, "node_crash", 1),
            FaultEvent(recovery, "node_recover", 1),
        )
    )
    FaultInjector(cluster, plan, controller=ctrl).install()
    assert len(ctrl.run()) == 10
    assert ctrl.relearn_count == 2

    def phase(t):
        return (t >= crash) + (t >= recovery)

    by_phase = [[code for t, code in profiled if phase(t) == k] for k in range(3)]
    assert by_phase == [
        ["svm", "st", "wc", "nb", "cf", "km"],
        ["wc", "km"],
        ["wc", "cf", "hmm", "st"],
    ]
    assert [phase(t) for t in classified] == [phase(t) for t, _ in profiled]
