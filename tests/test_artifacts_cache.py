"""Hardened artifact-cache tests: keys, corruption, staleness, races.

The cache must never fail a caller because of what's on disk: corrupt
or stale files are quarantined and rebuilt, writes are atomic, and
concurrent writers on the same key both succeed.  An entry's
fingerprint covers the ``repro`` sources and its key, so a code edit
misses every entry built before it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import artifacts
from repro.workloads.base import AppInstance


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    artifacts.reset_cache_stats()
    return tmp_path


def _fingerprint_of(package: Path) -> str:
    """``content_fingerprint()`` computed in a fresh interpreter that
    imports ``repro`` from ``package``."""
    code = (
        "import repro;"
        "from repro.experiments.artifacts import content_fingerprint;"
        "print(repro.__file__);"
        "print(content_fingerprint())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={
            **os.environ,
            "PYTHONPATH": str(package.parent),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert Path(out[0]).parent == package
    return out[1]


class TestContentKeys:
    def test_cache_dir_override(self, cache_dir):
        assert artifacts.cache_dir() == cache_dir
        artifacts.cached("where", lambda: 1)
        assert list(cache_dir.glob("where-*.pkl"))

    def test_path_embeds_fingerprint(self, cache_dir):
        path = artifacts.cache_path("item", model_kind="lr")
        fp = artifacts.content_fingerprint(model_kind="lr")
        assert path.name == f"item-{fp}.pkl"
        assert len(fp) == 12
        assert fp != artifacts.content_fingerprint(model_kind="mlp")

    def test_non_json_key_is_refused(self):
        with pytest.raises(TypeError):
            artifacts.content_fingerprint(model=object())

    def test_fingerprint_is_stable(self):
        assert artifacts.content_fingerprint() == artifacts.content_fingerprint()

    def test_fingerprint_stable_across_processes(self):
        """The digest must be identical in fresh interpreters, or the
        content-keyed cache never hits across runs (regression: a
        default ``repr`` leaked a memory address into the payload)."""
        package = Path(artifacts.__file__).parents[1]
        seen = {_fingerprint_of(package) for _ in range(2)}
        assert seen == {artifacts.content_fingerprint()}

    def test_changed_key_rebuilds(self, cache_dir):
        calls = []
        build = lambda: calls.append(1) or "value"
        artifacts.cached("keyed", build, rows_per_pair=200)
        artifacts.cached("keyed", build, rows_per_pair=200)
        assert len(calls) == 1
        artifacts.cached("keyed", build, rows_per_pair=100)
        assert len(calls) == 2  # new key => rebuilt under a new name
        # both entries now coexist on disk
        assert len(list(cache_dir.glob("keyed-*.pkl"))) == 2

    def test_fingerprint_follows_source_bytes(self, tmp_path):
        """A byte-identical copy of the package digests the same; one
        appended comment line digests differently, so a code edit
        misses every entry built before it."""
        package = Path(artifacts.__file__).parents[1]
        copy = tmp_path / "src" / "repro"
        shutil.copytree(
            package, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        original = _fingerprint_of(package)
        assert _fingerprint_of(copy) == original
        with (copy / "model" / "costmodel.py").open("a") as fh:
            fh.write("# one more comment line\n")
        assert _fingerprint_of(copy) != original


class TestCorruptionTolerance:
    def test_garbage_file_is_quarantined_and_rebuilt(self, cache_dir):
        path = artifacts.cache_path("item")
        path.write_bytes(b"\x04not a pickle at all")
        value = artifacts.cached("item", lambda: {"ok": True})
        assert value == {"ok": True}
        # the bad file moved aside; the rebuilt one loads cleanly
        assert (cache_dir / (path.name + ".corrupt")).exists()
        assert artifacts.cached("item", lambda: {"ok": False}) == {"ok": True}
        stats = artifacts.cache_stats()
        assert stats.corrupt == 1 and stats.misses == 1 and stats.hits == 1

    def test_truncated_pickle_recovers(self, cache_dir):
        path = artifacts.cache_path("trunc")
        blob = pickle.dumps(
            {"fingerprint": artifacts.content_fingerprint(), "payload": 1}
        )
        path.write_bytes(blob[: len(blob) // 2])
        assert artifacts.cached("trunc", lambda: 42) == 42

    def test_unpicklable_class_reference_recovers(self, cache_dir):
        path = artifacts.cache_path("ghost")
        # references a class that does not exist => AttributeError on load
        blob = (
            b"\x80\x04\x95%\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94"
            b"\x8c\x10NoSuchClassEver42\x94\x93\x94."
        )
        path.write_bytes(blob)
        assert artifacts.cached("ghost", lambda: "rebuilt") == "rebuilt"
        assert artifacts.cache_stats().corrupt == 1

    def test_legacy_raw_payload_treated_as_stale(self, cache_dir):
        path = artifacts.cache_path("legacy")
        with path.open("wb") as fh:
            pickle.dump({"not": "an envelope"}, fh)
        assert artifacts.cached("legacy", lambda: "fresh") == "fresh"
        assert artifacts.cache_stats().stale == 1

    def test_foreign_fingerprint_envelope_is_stale(self, cache_dir):
        path = artifacts.cache_path("moved")
        with path.open("wb") as fh:
            pickle.dump(
                {
                    "fingerprint": "deadbeefdead",
                    "payload": "from another calibration",
                },
                fh,
            )
        assert artifacts.cached("moved", lambda: "rebuilt") == "rebuilt"
        assert artifacts.cache_stats().stale == 1


class TestAtomicity:
    def test_no_temp_files_left_behind(self, cache_dir):
        for i in range(5):
            artifacts.cached(f"tmpcheck-{i}", lambda: list(range(100)))
        assert list(cache_dir.glob(".*.tmp")) == []

    def test_failed_build_writes_nothing(self, cache_dir):
        with pytest.raises(RuntimeError):
            artifacts.cached("boom", _raise_build)
        assert list(cache_dir.glob("boom-*")) == []
        assert list(cache_dir.glob(".*.tmp")) == []


def _raise_build():
    raise RuntimeError("build failed")


def _race_one(args: tuple[str, str]) -> dict:
    """Child-process body for the concurrent-writer race."""
    cache_root, key = args
    os.environ["REPRO_CACHE_DIR"] = cache_root
    from repro.experiments import artifacts as child_artifacts

    return child_artifacts.cached(key, lambda: {"winner": True, "n": 123})


class TestConcurrentWriters:
    def test_two_processes_racing_same_key(self, cache_dir):
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        with ctx.Pool(2) as pool:
            results = pool.map(
                _race_one, [(str(cache_dir), "raced")] * 2
            )
        assert results == [{"winner": True, "n": 123}] * 2
        # whoever lost the race, the surviving file is a valid envelope
        assert artifacts.cached("raced", lambda: {"winner": False}) == {
            "winner": True,
            "n": 123,
        }


class TestClearCache:
    def test_counts_everything_it_removes(self, cache_dir):
        artifacts.cached("one", lambda: 1)
        artifacts.cached("two", lambda: 2)
        bad = artifacts.cache_path("bad")
        bad.write_bytes(b"junk")
        artifacts.cached("bad", lambda: 3)  # quarantines junk, writes fresh
        n = artifacts.clear_cache()
        assert n == 4  # three .pkl + one .pkl.corrupt
        assert list(cache_dir.glob("*.pkl")) == []
        assert list(cache_dir.glob("*.corrupt")) == []
        assert artifacts.clear_cache() == 0


class TestStats:
    def test_hits_misses_and_rate(self, cache_dir):
        artifacts.reset_cache_stats()
        artifacts.cached("s", lambda: 1)
        artifacts.cached("s", lambda: 1)
        artifacts.cached("s", lambda: 1)
        stats = artifacts.cache_stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_rate_none_when_untouched(self):
        artifacts.reset_cache_stats()
        assert artifacts.cache_stats().hit_rate is None


class TestCliWithPoisonedCache:
    def test_classify_command_survives_garbage_pickle(
        self, cache_dir, capsys
    ):
        """The seed failure: a garbage ``.pkl`` pre-seeded exactly where
        the pipeline holding the classifier lives must not crash the
        CLI."""
        key = {
            "training": [
                [inst.code, inst.data_bytes, dataclasses.asdict(inst.profile)]
                for inst in artifacts.TRAINING
            ],
            "rows_per_pair": 500,
        }
        artifacts.cache_path("pipeline", **key).write_bytes(b"\x04garbage bytes")
        from repro.__main__ import main

        assert main(["classify", "st", "1"]) == 0
        out = capsys.readouterr().out
        assert "classified as" in out
        assert artifacts.cache_stats().corrupt >= 1


class TestPipeline:
    def test_build_profiles_each_training_instance_once(
        self, cache_dir, monkeypatch
    ):
        """The STP descriptors' profiles also fit the classifier, which
        pickles to the same bytes as one fitted on a fresh profiling."""
        import repro.analysis.features as features
        import repro.core.stp as stp
        from repro.analysis.classify import NearestCentroidClassifier
        from repro.workloads.registry import get_app
        from repro.utils.units import GB

        training = [AppInstance(get_app(code), GB) for code in ("wc", "st", "ts")]
        profiled = []
        profile_features = stp.profile_features

        def counting_profile_features(inst, *args, **kwargs):
            profiled.append(inst.label)
            return profile_features(inst, *args, **kwargs)

        monkeypatch.setattr(stp, "profile_features", counting_profile_features)
        monkeypatch.setattr(features, "profile_features", counting_profile_features)
        pipeline = artifacts.train_pipeline(training, rows_per_pair=20)
        assert sorted(profiled) == sorted(inst.label for inst in training)
        fresh = NearestCentroidClassifier().fit(
            features.build_feature_matrix(training, seed=0),
            [inst.app_class for inst in training],
        )
        assert pickle.dumps(pipeline.classifier) == pickle.dumps(fresh)

    def test_two_model_kinds_build_the_pipeline_once(
        self, cache_dir, monkeypatch
    ):
        """The fitted STPs are separate entries on one pipeline entry, so
        a second model kind reuses the sweeps instead of redoing them."""
        from repro.online.scenario import pipeline_components

        sweeps = []
        build_offline = artifacts.build_offline

        def counting_build_offline(*args, **kwargs):
            sweeps.append(1)
            return build_offline(*args, **kwargs)

        monkeypatch.setattr(artifacts, "build_offline", counting_build_offline)
        lr, _classifier, dataset_a = pipeline_components("lr")
        reptree, _classifier, dataset_b = pipeline_components("reptree")
        assert len(sweeps) == 1
        assert (lr.model_kind, reptree.model_kind) == ("lr", "reptree")
        assert dataset_a.X.tobytes() == dataset_b.X.tobytes()
        assert len(list(cache_dir.glob("pipeline-*.pkl"))) == 1
        assert len(list(cache_dir.glob("pair-stp-*.pkl"))) == 2
        stats = artifacts.cache_stats()
        assert (stats.hits, stats.misses) == (1, 3)
