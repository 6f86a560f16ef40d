"""Self-tuning prediction tests (on the small fixture pipeline)."""

import numpy as np
import pytest

from repro.core.stp import (
    AppDescriptor,
    LkTSTP,
    MLMSTP,
    SoloSTP,
    _canonical_order,
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
from repro.online.scenario import (
    DRIFT_CODES,
    DRIFT_SIZES,
    PIPELINE_CODES,
    PIPELINE_SIZES,
    pipeline_components,
)
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


def test_describe_instance_accepts_classifier_output():
    d = describe_instance(AppInstance(get_app("st"), 5 * GB), AppClass.HYBRID)
    assert d.app_class is AppClass.HYBRID


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

    def test_invalid_scope(self):
        with pytest.raises(ValueError, match="scope"):
            MLMSTP("lr", scope="everything")

    def test_per_class_scope_trains_submodels(self, small_dataset):
        stp = MLMSTP("lr", scope="per-class").fit(small_dataset)
        assert stp.models_
        assert set(stp.models_) == set(small_dataset.class_pairs)


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
    pred = stp._model_for(pair_code(ca.app_class, cb.app_class)).predict(X)
    knobs = np.column_stack(
        [f1 / GHZ, np.log2(b1 / MB), m1, f2 / GHZ, np.log2(b2 / MB), m2]
    )
    i = basin_select(pred, knobs, eps=stp.basin_eps)
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
        stp = SoloSTP("reptree").fit(small_training_instances)
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
