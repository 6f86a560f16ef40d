"""Self-tuning prediction tests (on the small fixture pipeline)."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.core.stp as stp_module
from repro.core.stp import (
    AppDescriptor,
    LkTSTP,
    MLMSTP,
    SoloSTP,
    TrainingDataset,
    _canonical_order,
    _column_median,
    _column_span,
    _nearest_row,
    _row_block,
    basin_select,
    describe_instance,
    pair_code,
)
from repro.hardware.classes import XEON_E5
from repro.hardware.node import ATOM_C2758
from repro.model.config import JobConfig, pair_config_grid
from repro.model.costmodel import pair_metrics
from repro.model.sweep import sweep_pair, sweep_solo
from repro.online.drift import PageHinkley
from repro.online.scenario import (
    DRIFT_CODES,
    DRIFT_SIZES,
    PIPELINE_CODES,
    PIPELINE_SIZES,
    pipeline_components,
)
from repro.online.stp import OnlineSTP, PairObservation, _RecentPair
from repro.online.updates import OnlineRidge
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppClass, AppInstance
from repro.workloads.registry import get_app


def test_pair_code_canonical():
    assert pair_code(AppClass.MEMORY, AppClass.COMPUTE) == "C-M"
    assert pair_code(AppClass.IO, AppClass.IO) == "I-I"


def test_describe_instance_defaults_to_true_class():
    d = describe_instance(AppInstance(get_app("st"), 5 * GB))
    assert d.app_class is AppClass.IO
    assert d.data_bytes == 5 * GB
    assert d.reduced().shape == (7,)


class TestBasinSelect:
    def test_picks_central_point_of_flat_basin(self):
        pred = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
        knobs = np.arange(5.0)[:, None]
        assert basin_select(pred, knobs) == 2

    def test_unique_minimum_selected(self):
        pred = np.array([3.0, 1.0, 2.0])
        knobs = np.arange(3.0)[:, None]
        assert basin_select(pred, knobs) == 1

    def test_eps_widens_basin(self):
        pred = np.array([0.0, 0.01, 0.02, 5.0])
        knobs = np.arange(4.0)[:, None]
        assert basin_select(pred, knobs, eps=0.001) == 0
        assert basin_select(pred, knobs, eps=0.05) == 1  # median of {0,1,2}

    @given(
        rows=st.lists(
            st.tuples(
                # Few distinct predictions and knob values: basins of
                # every size, one point included, and tied knobs.
                st.sampled_from([0.0, 0.01, 0.04, 0.05, 0.3, 2.0]),
                st.lists(
                    st.sampled_from([0.5, 1.0, 1.2, 2.4, 3.0, 6.0, 7.5]),
                    min_size=3, max_size=3,
                ),
            ),
            min_size=1, max_size=40,
        )
    )
    @example(rows=[(0.0, [1.0, 2.4, 3.0])])
    @example(rows=[(0.0, [1.0, 2.4, 3.0]), (0.01, [1.2, 6.0, 0.5])])
    @example(rows=[(0.0, [1.0, 2.4, 3.0]), (0.3, [1.2, 6.0, 0.5])])
    def test_median_as_np_median(self, rows):
        """The basin's knob median is ``np.median``'s, bit for bit, and
        so is the selected point."""
        pred = np.array([p for p, _ in rows])
        knobs = np.array([k for _, k in rows])
        basin = np.flatnonzero(pred <= pred.min() + 0.05)
        want = np.median(knobs[basin], axis=0)
        assert _column_median(knobs[basin]).tobytes() == want.tobytes()
        d = np.linalg.norm((knobs[basin] - want) / _column_span(knobs), axis=1)
        assert basin_select(pred, knobs) == int(basin[np.argmin(d)])

    def test_median_of_even_count_is_the_mean_of_the_middle_two(self):
        points = np.array([[3.0, 0.1], [1.0, 0.2], [2.0, 0.7], [9.0, 0.3]])
        assert _column_median(points).tolist() == [2.5, (0.2 + 0.3) / 2]


def test_descriptor_reduces_once_read_only():
    d = describe_instance(AppInstance(get_app("wc"), 1 * GB))
    vec = d.reduced()
    assert d.reduced() is vec
    assert not vec.flags.writeable
    assert vec.tolist() == [d.features[name] for name in stp_module.REDUCED_FEATURE_NAMES]


def test_one_decision_leaves_numpy_ma_unimported():
    """The first ECoST decision of a process imports no ``numpy.ma``
    (``np.median`` would)."""
    script = """
import json, sys
from repro.core.controller import ECoSTController
from repro.mapreduce.engine import ClusterEngine
from repro.online.scenario import pipeline_components
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app

stp, classifier, _dataset = pipeline_components("reptree")
before = "numpy.ma" in sys.modules
cluster = ClusterEngine(n_nodes=1)
controller = ECoSTController(cluster, stp, classifier)
controller.submit(AppInstance(get_app("wc"), 1 * GB))
controller.submit(AppInstance(get_app("st"), 5 * GB))
controller.run()
print(json.dumps([before, "numpy.ma" in sys.modules, len(controller.decisions)]))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=600, check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [False, False, 2]


class TestLkT:
    def test_predicts_valid_configs(self, small_database):
        stp = LkTSTP(small_database)
        a = describe_instance(AppInstance(get_app("nb"), 5 * GB))
        b = describe_instance(AppInstance(get_app("km"), 5 * GB))
        cfg_a, cfg_b = stp.predict_configs(a, b)
        cfg_a.validate_for(ATOM_C2758)
        cfg_b.validate_for(ATOM_C2758)
        assert cfg_a.n_mappers + cfg_b.n_mappers <= ATOM_C2758.n_cores

    def test_known_pair_recovers_oracle_config(self, small_database):
        """Looking up a pair that is literally in the database returns
        its stored optimum (sizes and classes match exactly and the
        class pair has a unique app combo)."""
        stp = LkTSTP(small_database)
        a = describe_instance(AppInstance(get_app("wc"), 5 * GB))
        b = describe_instance(AppInstance(get_app("fp"), 5 * GB))
        cfg_a, cfg_b = stp.predict_configs(a, b)
        sweep = sweep_pair(
            AppInstance(get_app("wc"), 5 * GB), AppInstance(get_app("fp"), 5 * GB)
        )
        oa, ob = sweep.best_configs
        assert (cfg_a, cfg_b) == (oa, ob)

    def test_orientation_consistency(self, small_database):
        stp = LkTSTP(small_database)
        a = describe_instance(AppInstance(get_app("wc"), 1 * GB))
        b = describe_instance(AppInstance(get_app("fp"), 5 * GB))
        ab = stp.predict_configs(a, b)
        ba = stp.predict_configs(b, a)
        assert ab == (ba[1], ba[0])


class TestMLM:
    @pytest.fixture(scope="class")
    def fitted(self, small_dataset):
        return MLMSTP("reptree").fit(small_dataset)

    def test_predicts_valid_partition(self, fitted):
        a = describe_instance(AppInstance(get_app("nb"), 5 * GB))
        b = describe_instance(AppInstance(get_app("cf"), 5 * GB))
        cfg_a, cfg_b = fitted.predict_configs(a, b)
        assert cfg_a.n_mappers + cfg_b.n_mappers == ATOM_C2758.n_cores

    def test_orientation_consistency(self, fitted):
        a = describe_instance(AppInstance(get_app("nb"), 1 * GB))
        b = describe_instance(AppInstance(get_app("cf"), 5 * GB))
        ab = fitted.predict_configs(a, b)
        ba = fitted.predict_configs(b, a)
        assert ab == (ba[1], ba[0])

    def test_selection_close_to_oracle_for_known_pair(self, fitted):
        a_inst = AppInstance(get_app("st"), 5 * GB)
        b_inst = AppInstance(get_app("wc"), 5 * GB)
        sweep = sweep_pair(a_inst, b_inst)
        cfg_a, cfg_b = fitted.predict_configs(
            describe_instance(a_inst), describe_instance(b_inst)
        )
        pm = pair_metrics(
            a_inst.profile, a_inst.data_bytes,
            cfg_a.frequency, cfg_a.block_size, cfg_a.n_mappers,
            b_inst.profile, b_inst.data_bytes,
            cfg_b.frequency, cfg_b.block_size, cfg_b.n_mappers,
        )
        err = (float(pm.edp) - sweep.best_edp) / sweep.best_edp
        assert err < 0.35

    def test_unfitted_raises(self):
        stp = MLMSTP("lr")
        a = describe_instance(AppInstance(get_app("nb"), 1 * GB))
        with pytest.raises(RuntimeError):
            stp.predict_configs(a, a)

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            MLMSTP("forest")


def _reference_predict_configs(stp, a, b):
    """MLM-STP's decision with the grid, rows and knob matrix rebuilt
    for every call."""
    swapped = not _canonical_order(a, b)
    ca, cb = (b, a) if swapped else (a, b)
    f1, b1, m1, f2, b2, m2 = pair_config_grid(stp.node)
    X = _row_block(
        stp._project(ca.reduced(), ca.data_bytes), ca.data_bytes,
        stp._project(cb.reduced(), cb.data_bytes), cb.data_bytes,
        f1, b1, m1, f2, b2, m2,
    )
    pred = stp.global_model_.predict(X)
    knobs = np.column_stack(
        [f1 / GHZ, np.log2(b1 / MB), m1, f2 / GHZ, np.log2(b2 / MB), m2]
    )
    i = basin_select(pred, knobs)
    cfg_a = JobConfig(frequency=float(f1[i]), block_size=int(b1[i]), n_mappers=int(m1[i]))
    cfg_b = JobConfig(frequency=float(f2[i]), block_size=int(b2[i]), n_mappers=int(m2[i]))
    return (cfg_b, cfg_a) if swapped else (cfg_a, cfg_b)


class TestPairGridReuse:
    def test_row_block_column_layout(self):
        rng = np.random.default_rng(0)
        fa, fb = rng.normal(size=7), rng.normal(size=7)
        f1, b1, m1, f2, b2, m2 = pair_config_grid(ATOM_C2758)
        n = len(f1)
        expected = np.hstack(
            [
                np.tile(fa, (n, 1)),
                np.full((n, 1), np.log2(5 * GB / GB + 1.0)),
                np.tile(fb, (n, 1)),
                np.full((n, 1), np.log2(1 * GB / GB + 1.0)),
                (f1 / GHZ)[:, None],
                np.log2(b1 / MB)[:, None],
                m1[:, None],
                (f2 / GHZ)[:, None],
                np.log2(b2 / MB)[:, None],
                m2[:, None],
            ]
        )
        got = _row_block(fa, 5 * GB, fb, 1 * GB, f1, b1, m1, f2, b2, m2)
        assert np.array_equal(got, expected)

    def test_same_configs_as_per_decision_reference(self):
        """Every ordered pair of the drift pipeline's descriptors, so
        each pair is decided in both orientations."""
        stp, _classifier, _dataset = pipeline_components("reptree")
        descs = [
            describe_instance(AppInstance(get_app(code), size))
            for codes, sizes in (
                (PIPELINE_CODES, PIPELINE_SIZES),
                (DRIFT_CODES, DRIFT_SIZES),
            )
            for code in codes
            for size in sizes
        ]
        for a in descs:
            for b in descs:
                assert stp.predict_configs(a, b) == _reference_predict_configs(
                    stp, a, b
                )

    def test_grid_follows_the_node(self, small_dataset):
        stp = MLMSTP("lr").fit(small_dataset)
        a = describe_instance(AppInstance(get_app("wc"), 1 * GB))
        b = describe_instance(AppInstance(get_app("fp"), 5 * GB))
        stp.predict_configs(a, b)
        stp.node = XEON_E5
        assert stp.predict_configs(a, b) == _reference_predict_configs(stp, a, b)


class TestSoloSTP:
    def test_predicts_reasonable_solo_config(self, small_training_instances):
        stp = SoloSTP("reptree").fit(
            small_training_instances,
            [describe_instance(inst).reduced() for inst in small_training_instances],
        )
        inst = AppInstance(get_app("wc"), 5 * GB)
        cfg = stp.predict_config(describe_instance(inst))
        cfg.validate_for(ATOM_C2758)
        sweep = sweep_solo(inst)
        from repro.model.costmodel import standalone_metrics

        jm = standalone_metrics(
            inst.profile, inst.data_bytes, cfg.frequency, cfg.block_size, cfg.n_mappers
        )
        err = (float(jm.edp) - sweep.best_edp) / sweep.best_edp
        assert err < 0.5

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SoloSTP("lr").predict_config(
                describe_instance(AppInstance(get_app("wc"), 1 * GB))
            )

    def test_unknown_model_kind_raises_as_mlm_stp_does(self):
        with pytest.raises(ValueError) as mlm:
            MLMSTP("forest")
        with pytest.raises(ValueError) as solo:
            SoloSTP("forest")
        assert str(solo.value) == str(mlm.value)
        assert "unknown model kind 'forest'" in str(solo.value)


def _reference_project(stp, feat, size):
    """Nearest same-size training row, the span recomputed per call."""
    train, sizes = stp.train_features_, stp.train_sizes_
    idx = np.flatnonzero(np.isclose(sizes, size, rtol=1e-6))
    if idx.size == 0:
        idx = np.arange(len(train))
    span = train.max(axis=0) - train.min(axis=0)
    span = np.where(span < 1e-12, 1.0, span)
    d = np.linalg.norm((train[idx] - feat) / span, axis=1)
    return train[idx][int(np.argmin(d))]


def _drift_descriptors():
    return [
        describe_instance(AppInstance(get_app(code), size))
        for codes, sizes in (
            (PIPELINE_CODES, PIPELINE_SIZES),
            (DRIFT_CODES, DRIFT_SIZES),
        )
        for code in codes
        for size in sizes
    ]


def _decisions(stp, descs):
    """Every ordered pair's decision, checked against the references."""
    for d in descs:
        assert np.array_equal(
            stp._project(d.reduced(), d.data_bytes),
            _reference_project(stp, d.reduced(), d.data_bytes),
        )
    out = {}
    for i, a in enumerate(descs):
        for j, b in enumerate(descs):
            got = stp.predict_configs(a, b)
            assert got == _reference_predict_configs(stp, a, b)
            out[i, j] = got
    return out


class _CountingModel:
    """Wraps a regressor and counts the rows it is asked to predict."""

    def __init__(self, model):
        self.model = model
        self.rows = 0

    def predict(self, X):
        self.rows += len(X)
        return self.model.predict(X)


class TestDecisionMemo:
    @pytest.fixture(scope="class")
    def descs(self):
        return _drift_descriptors()

    def test_hit_evaluates_no_model(self, small_dataset, descs):
        stp = MLMSTP("reptree").fit(small_dataset)
        counting = _CountingModel(stp.global_model_)
        stp.revise(model=counting)
        a, b = descs[0], descs[-1]
        first = stp.predict_configs(a, b)
        assert counting.rows == len(stp._pair_grid().knobs)
        # Both orientations of the pair share one canonical entry.
        assert stp.predict_configs(b, a) == (first[1], first[0])
        assert stp.predict_configs(a, b) == first
        assert counting.rows == len(stp._pair_grid().knobs)
        stp.clear_memo()
        assert stp.predict_configs(a, b) == first
        assert counting.rows == 2 * len(stp._pair_grid().knobs)

    def test_key_is_the_projected_pair(self, small_dataset):
        """Descriptors profiled with different noise project onto the
        same training rows, so they share one decision."""
        stp = MLMSTP("reptree").fit(small_dataset)
        counting = _CountingModel(stp.global_model_)
        stp.revise(model=counting)
        descs = [
            describe_instance(AppInstance(get_app(code), size), seed=seed)
            for code, size in (("wc", 1 * GB), ("st", 5 * GB))
            for seed in range(4)
        ]
        assert len({d.reduced().tobytes() for d in descs}) == 8
        got = {(i, j): stp.predict_configs(a, b)
               for i, a in enumerate(descs) for j, b in enumerate(descs)}
        # wc-wc, wc-st and st-st: three model inputs in 64 decisions.
        assert len(stp._memo) == 3
        assert counting.rows == 3 * len(stp._pair_grid().knobs)
        for (i, j), configs in got.items():
            assert configs == _reference_predict_configs(stp, descs[i], descs[j])

    def test_exact_across_fit(self, small_dataset, descs):
        stp = MLMSTP("reptree").fit(small_dataset)
        before = _decisions(stp, descs)
        half = TrainingDataset(
            X=small_dataset.X[::2],
            y=small_dataset.y[::2],
            pair_codes=small_dataset.pair_codes[::2],
            train_features=small_dataset.train_features,
            train_sizes=small_dataset.train_sizes,
        )
        stp.fit(half)
        assert len(stp._memo) == 0
        after = _decisions(stp, descs)
        assert after != before

    def test_exact_across_node_change(self, small_dataset, descs):
        stp = MLMSTP("reptree").fit(small_dataset)
        before = _decisions(stp, descs[:6])
        stp.node = XEON_E5
        after = _decisions(stp, descs[:6])
        assert after != before

    def test_span_follows_the_manifold(self):
        """The projection span is computed once per manifold, and a new
        manifold gets a new span."""
        stp = MLMSTP("lr")
        feat = np.array([0.5, 0.9])
        stp.revise(train_features=np.array([[0.0, 0.0], [10.0, 1.0]]))
        assert stp._project(feat).tolist() == [0.0, 0.0]
        # A wide first column leaves the second to decide.
        stp.revise(
            train_features=np.array([[0.0, 0.0], [10.0, 1.0], [1000.0, 0.0]])
        )
        assert stp._project(feat).tolist() == [10.0, 1.0]
        stp.train_features_ = np.array([[0.0, 0.0], [10.0, 1.0]])
        assert stp._project(feat).tolist() == [0.0, 0.0]

    def test_exact_across_online_window_refresh(self, descs):
        base, _classifier, dataset = pipeline_components("reptree")
        online = OnlineSTP(base, dataset=dataset, window=512)
        before = _decisions(online.stp, descs)
        model = online.stp.global_model_
        online._refresh()
        assert online.stp.global_model_ is not model
        assert len(online.stp._memo) == 0
        after = _decisions(online.stp, descs)
        assert after != before
        # The base (champion) keeps its own memo and its decisions.
        assert _decisions(base, descs) == before

    def test_exact_across_in_place_rls_update(self, small_dataset, descs):
        """``lr`` mode updates the live ``OnlineRidge`` in place, so the
        model object stays the same while its decisions move."""
        online = OnlineSTP(
            MLMSTP("lr").fit(small_dataset),
            dataset=small_dataset,
            detector=PageHinkley(threshold=1e300),
        )
        stp = online.stp
        model = stp.global_model_
        a_inst = AppInstance(get_app("wc"), 1 * GB)
        b_inst = AppInstance(get_app("st"), 5 * GB)
        a, b = describe_instance(a_inst), describe_instance(b_inst)
        first = stp.predict_configs(a, b)
        changed = False
        for _ in range(40):
            cfg_a, cfg_b = stp.predict_configs(a, b)
            # Report the chosen configuration as very expensive.
            online.partial_fit(
                PairObservation(
                    t=0.0, desc_a=a, desc_b=b, inst_a=a_inst, inst_b=b_inst,
                    cfg_a=cfg_a, cfg_b=cfg_b, edp=1e30,
                )
            )
            assert stp.global_model_ is model
            got = stp.predict_configs(a, b)
            assert got == _reference_predict_configs(stp, a, b)
            if got != first:
                changed = True
                break
        assert changed
        _decisions(stp, descs[:6])

    def test_exact_across_manifold_extension(self, descs):
        base, _classifier, dataset = pipeline_components("reptree")
        online = OnlineSTP(base, dataset=dataset, window=512)
        stp = online.stp
        _decisions(stp, descs)
        rows = len(stp.train_features_)
        online.refit(reason="test")
        drift = [
            AppInstance(get_app(code), size)
            for code in DRIFT_CODES
            for size in DRIFT_SIZES
        ]
        for inst_a, inst_b in zip(drift, drift[1:]):
            online.observe_pair(
                t=0.0,
                desc_a=describe_instance(inst_a),
                desc_b=describe_instance(inst_b),
                inst_a=inst_a,
                inst_b=inst_b,
            )
        assert len(stp.train_features_) > rows
        _decisions(stp, descs)

    def test_deep_copy_after_the_original_changes(self, small_dataset, descs):
        stp = MLMSTP("lr").fit(small_dataset)
        _decisions(stp, descs[:6])
        ridge = OnlineRidge(lam=1e-6).fit(
            small_dataset.X[::3], np.log(small_dataset.y[::3])
        )
        stp.revise(model=ridge)
        original = _decisions(stp, descs[:6])
        clone = copy.deepcopy(stp)
        assert _decisions(clone, descs[:6]) == original
        # The copy's memo is its own: an in-place change of the copy's
        # model leaves the original's decisions alone.
        clone.global_model_.partial_fit(small_dataset.X[0], 50.0)
        clone.revise(model=clone.global_model_)
        _decisions(clone, descs[:6])
        assert _decisions(stp, descs[:6]) == original

    def test_memo_never_exceeds_its_cap(self, small_dataset, descs, monkeypatch):
        assert stp_module.DECISION_MEMO_CAP >= 1024
        monkeypatch.setattr(stp_module, "DECISION_MEMO_CAP", 3)
        stp = MLMSTP("reptree").fit(small_dataset)
        sizes = []
        for a in descs:
            for b in descs:
                assert stp.predict_configs(a, b) == _reference_predict_configs(
                    stp, a, b
                )
                sizes.append(len(stp._memo))
        assert max(sizes) == 3
        # Least recently used goes first: a pair just decided stays.
        counting = _CountingModel(stp.global_model_)
        stp.revise(model=counting)
        a, b = descs[0], descs[-1]
        stp.predict_configs(a, b)
        for other in descs[1:4]:
            stp.predict_configs(other, other)
            stp.predict_configs(a, b)
        assert counting.rows == 4 * len(stp._pair_grid().knobs)

    def test_hit_projects_nothing(self, small_dataset, descs, monkeypatch):
        """A repeated decision costs memo lookups: no projection and no
        model evaluation."""
        stp = MLMSTP("reptree").fit(small_dataset)
        a, b = descs[0], descs[-1]
        first = stp.predict_configs(a, b)
        calls = []
        nearest = stp_module._nearest_row
        monkeypatch.setattr(
            stp_module, "_nearest_row",
            lambda *args: calls.append(args) or nearest(*args),
        )
        # A new model object misses the decision memo; the projections
        # (same manifold) still hit theirs.
        counting = _CountingModel(stp.global_model_)
        stp.global_model_ = counting
        stp.predict_configs(a, b)
        assert calls == [] and counting.rows == len(stp._pair_grid().knobs)
        assert stp.predict_configs(a, b) == stp.predict_configs(b, a)[::-1] == first
        assert calls == [] and counting.rows == len(stp._pair_grid().knobs)

    def test_non_finite_feature_refused_before_projection(
        self, small_dataset, descs
    ):
        stp = MLMSTP("reptree").fit(small_dataset)
        good = descs[0]
        feats = dict(good.features)
        feats["ipc"] = float("nan")
        bad = AppDescriptor(
            features=feats, app_class=good.app_class, data_bytes=good.data_bytes
        )
        stp.predict_configs(good, good)
        with pytest.raises(ValueError, match="'ipc' is nan"):
            stp.predict_configs(bad, good)
        with pytest.raises(ValueError, match="must be finite"):
            stp.predict_configs(good, bad)
        assert len(stp._memo) == 1


class TestProjectionMemo:
    @pytest.fixture(scope="class")
    def descs(self):
        return _drift_descriptors()

    @staticmethod
    def _nearest(stp, d):
        span = _column_span(stp.train_features_)
        return _nearest_row(
            stp.train_features_, stp.train_sizes_, span, d.reduced(), d.data_bytes
        )

    def test_rows_are_the_nearest_rows(self, small_dataset, descs):
        stp = MLMSTP("reptree").fit(small_dataset)
        for d in descs:
            row = stp._project(d.reduced(), d.data_bytes)
            assert row.tobytes() == self._nearest(stp, d).tobytes()
            assert stp._project(d.reduced(), d.data_bytes) is row
            assert not row.flags.writeable
        keys = {(d.reduced().tobytes(), d.data_bytes) for d in descs}
        assert len(stp._proj_memo) == len(keys)

    def test_capped_like_the_decision_memo(self, small_dataset, descs, monkeypatch):
        monkeypatch.setattr(stp_module, "DECISION_MEMO_CAP", 3)
        stp = MLMSTP("reptree").fit(small_dataset)
        for d in descs:
            assert stp._project(d.reduced(), d.data_bytes).tobytes() == (
                self._nearest(stp, d).tobytes()
            )
            assert len(stp._proj_memo) <= 3
        assert len(stp._proj_memo) == 3

    def test_clear_memo_fit_and_revise_drop_it(self, small_dataset, descs):
        stp = MLMSTP("reptree").fit(small_dataset)
        drops = (
            stp.clear_memo,
            lambda: stp.fit(small_dataset),
            lambda: stp.revise(model=stp.global_model_),
        )
        for drop in drops:
            for d in descs:
                stp._project(d.reduced(), d.data_bytes)
            assert len(stp._proj_memo) > 0
            drop()
            assert len(stp._proj_memo) == 0

    def test_manifold_extension_drops_it(self, descs):
        base, _classifier, dataset = pipeline_components("reptree")
        online = OnlineSTP(base, dataset=dataset, window=512)
        stp = online.stp
        before = {}
        for i, d in enumerate(descs):
            before[i] = stp._project(d.reduced(), d.data_bytes)
        assert len(stp._proj_memo) > 0
        drift = [
            AppInstance(get_app(code), size)
            for code in DRIFT_CODES
            for size in DRIFT_SIZES
        ]
        rows = len(stp.train_features_)
        online._extend_manifold(
            _RecentPair(
                desc_a=describe_instance(drift[0]),
                desc_b=describe_instance(drift[1]),
                inst_a=drift[0],
                inst_b=drift[1],
            )
        )
        assert len(stp.train_features_) == rows + 2
        assert len(stp._proj_memo) == 0
        moved = 0
        for i, d in enumerate(descs):
            row = stp._project(d.reduced(), d.data_bytes)
            assert row.tobytes() == self._nearest(stp, d).tobytes()
            moved += row.tobytes() != before[i].tobytes()
        # The two drift applications now project onto their own rows.
        assert moved >= 2
