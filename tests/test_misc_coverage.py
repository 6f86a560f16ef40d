"""Edge-case coverage for small APIs not exercised elsewhere."""

import numpy as np
import pytest

from repro.core.stp import MLMSTP, describe_instance
from repro.mapreduce.job import JobResult, JobSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.costmodel import serial_pair_edp, standalone_metrics
from repro.baselines.mapping import PolicyOutcome
from repro.utils.units import GB, GHZ, MB
from repro.workloads.base import AppInstance, AppProfile
from repro.workloads.registry import get_app


class TestSimConstants:
    def test_with_creates_modified_copy(self):
        c = DEFAULT_CONSTANTS.with_(task_overhead_s=2.0)
        assert c.task_overhead_s == 2.0
        assert c is not DEFAULT_CONSTANTS
        assert DEFAULT_CONSTANTS.task_overhead_s != 2.0

    def test_validation_on_copy(self):
        with pytest.raises(ValueError):
            DEFAULT_CONSTANTS.with_(task_overhead_s=-1.0)

    def test_fraction_fields_validated(self):
        with pytest.raises(ValueError):
            SimConstants(shuffle_reread_fraction=1.5)
        with pytest.raises(ValueError):
            SimConstants(remote_shuffle_fraction=-0.1)


class TestJobRecords:
    def test_wait_time_and_duration(self):
        spec = JobSpec(
            instance=AppInstance(get_app("wc"), 1 * GB),
            config=JobConfig(frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=4),
            submit_time=10.0,
        )
        result = JobResult(
            spec=spec, node_id=0, start_time=25.0, finish_time=125.0,
            energy_joules=4000.0,
        )
        assert result.wait_time == 15.0
        assert result.duration == 100.0

    def test_job_ids_unique_and_increasing(self):
        cfg = JobConfig(frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=1)
        inst = AppInstance(get_app("wc"), 1 * GB)
        a = JobSpec(instance=inst, config=cfg)
        b = JobSpec(instance=inst, config=cfg)
        assert b.job_id > a.job_id

    def test_label_mentions_app_and_config(self):
        cfg = JobConfig(frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=1)
        spec = JobSpec(instance=AppInstance(get_app("st"), 5 * GB), config=cfg)
        assert "st@5GB" in spec.label and "2.4GHz" in spec.label


class TestAppProfile:
    def test_disk_bytes_accounting(self):
        p = AppProfile(
            instructions_per_byte=100, ipc0=1.0, llc_mpki0=1.0,
            icache_mpki=1.0, branch_mpki=1.0,
            read_factor=1.0, spill_factor=0.5, shuffle_factor=0.25,
            output_factor=0.25,
        )
        assert p.disk_bytes_per_input_byte == pytest.approx(2.0)
        assert p.cpi0 == pytest.approx(1.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            AppProfile(
                instructions_per_byte=0, ipc0=1.0, llc_mpki0=1.0,
                icache_mpki=1.0, branch_mpki=1.0,
            )
        with pytest.raises(ValueError):
            AppProfile(
                instructions_per_byte=1, ipc0=1.0, llc_mpki0=1.0,
                icache_mpki=1.0, branch_mpki=1.0, io_overlap=1.5,
            )


class TestPolicyOutcome:
    def test_edp_property(self):
        out = PolicyOutcome(policy="X", n_nodes=2, makespan=10.0, energy=100.0)
        assert out.edp == 1000.0
        assert out.details == ()


class TestSerialPairEdp:
    def test_matches_manual_composition(self):
        wc = get_app("wc").profile
        st = get_app("st").profile
        a = standalone_metrics(wc, 1 * GB, 2.4 * GHZ, 256 * MB, 4)
        b = standalone_metrics(st, 1 * GB, 2.4 * GHZ, 256 * MB, 4)
        expected = (float(a.energy) + float(b.energy)) * (
            float(a.duration) + float(b.duration)
        )
        assert float(serial_pair_edp(a, b)) == pytest.approx(expected)


class TestMlmOptions:
    def test_projection_snaps_to_training_rows(self, small_dataset):
        stp = MLMSTP("lr").fit(small_dataset)
        a = describe_instance(AppInstance(get_app("nb"), 1 * GB))
        projected = stp._project(a.reduced(), a.data_bytes)
        found = any(
            np.allclose(projected, row) for row in stp.train_features_
        )
        assert found


class TestJobMetricsScalar:
    def test_scalar_accessor(self):
        jm = standalone_metrics(
            get_app("wc").profile, 1 * GB, 2.4 * GHZ, 256 * MB, 4
        )
        assert jm.scalar("duration") == float(np.asarray(jm.duration))
        assert jm.scalar("power") > 0
