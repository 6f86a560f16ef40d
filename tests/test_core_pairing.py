"""Pairing decision-tree tests."""

import pytest

from repro.core.pairing import CLASS_PRIORITY, PairingPolicy, derive_priority
from repro.core.wait_queue import QueuedApp, WaitQueue
from repro.utils.units import GB
from repro.workloads.base import AppClass, AppInstance
from repro.workloads.registry import get_app


def qa(code, cls):
    return QueuedApp(
        instance=AppInstance(get_app(code), 1 * GB), app_class=cls, arrival_time=0.0
    )


def test_paper_priority_order():
    """§5 Step 2: I first, then H/C, M last."""
    assert CLASS_PRIORITY[AppClass.IO] > CLASS_PRIORITY[AppClass.HYBRID]
    assert CLASS_PRIORITY[AppClass.HYBRID] >= CLASS_PRIORITY[AppClass.COMPUTE]
    assert CLASS_PRIORITY[AppClass.COMPUTE] > CLASS_PRIORITY[AppClass.MEMORY]


def test_choose_partner_prefers_io():
    policy = PairingPolicy()
    q = WaitQueue()
    m = qa("fp", AppClass.MEMORY)
    i = qa("st", AppClass.IO)
    q.push(m)
    q.push(i)
    got = policy.choose_partner(q, AppClass.COMPUTE)
    assert got is i


def test_choose_partner_empty_node_takes_head():
    policy = PairingPolicy()
    q = WaitQueue()
    m = qa("fp", AppClass.MEMORY)
    i = qa("st", AppClass.IO)
    q.push(m)
    q.push(i)
    got = policy.choose_partner(q, None)
    assert got is m  # reservation: head starts first


def test_choose_partner_empty_queue():
    assert PairingPolicy().choose_partner(WaitQueue(), AppClass.IO) is None
    assert PairingPolicy().choose_partner(WaitQueue(), None) is None


def test_derive_priority_from_fig5_data():
    """Feed a synthetic Fig. 5 table shaped like the paper's and check
    the derived decision tree ranks I > H > C > M."""
    C, H, I, M = AppClass.COMPUTE, AppClass.HYBRID, AppClass.IO, AppClass.MEMORY
    table = {
        (I, I): 1.0, (H, I): 2.0, (C, I): 3.0,
        (H, H): 4.0, (C, H): 5.0, (C, C): 6.0,
        (I, M): 7.0, (H, M): 8.0, (C, M): 9.0, (M, M): 10.0,
    }
    prio = derive_priority(table)
    assert prio[I] > prio[H] > prio[C] > prio[M]


def test_derive_priority_missing_pair():
    with pytest.raises(KeyError):
        derive_priority({(AppClass.IO, AppClass.IO): 1.0,
                         (AppClass.MEMORY, AppClass.MEMORY): 2.0})


def test_derive_priority_empty():
    with pytest.raises(ValueError):
        derive_priority({})


def test_reproduction_fig5_derives_paper_tree():
    """End-to-end: our own Fig. 5 sweep data yields the paper's tree."""
    from repro.experiments.fig5_priority import run_fig5

    report = run_fig5()
    C, H, I, M = AppClass.COMPUTE, AppClass.HYBRID, AppClass.IO, AppClass.MEMORY
    assert report.priority[I] > report.priority[H]
    assert report.priority[H] >= report.priority[C]
    assert report.priority[C] > report.priority[M]
