"""Shared fixtures: small, fast artifacts reused across test modules.

Heavyweight pipeline pieces (databases, training datasets, fitted
models) are built once per session from a *reduced* instance set so
the unit suite stays fast; the full-scale variants live behind the
benchmarks.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

try:
    from hypothesis import HealthCheck, settings as _hyp_settings

    # Explicit, derandomized profiles so property-test depth is a lane
    # decision (REPRO_HYPOTHESIS_PROFILE=dev|ci), never a library
    # default: ``dev`` keeps the local/PR suite fast, ``ci`` is the
    # full-matrix depth.  Both are fully deterministic — no flaky
    # random seeds, shrinking still works on failure.
    _COMMON = dict(
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    _hyp_settings.register_profile("dev", max_examples=30, **_COMMON)
    _hyp_settings.register_profile("ci", max_examples=120, **_COMMON)
    _hyp_settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - property tests parametrize instead
    pass

from repro.core.stp import build_offline
from repro.hardware.node import ATOM_C2758
from repro.utils.units import GB
from repro.workloads.base import AppInstance
from repro.workloads.registry import get_app


@pytest.fixture(scope="session", autouse=True)
def isolated_cache_dir(tmp_path_factory):
    """Point the artifact cache at a throwaway directory for the whole
    suite, so tests never read or write the repo-level ``.repro_cache``
    (a stale or corrupt file there must not be able to flake a test).

    An explicitly pre-set ``REPRO_CACHE_DIR`` is honoured — CI's
    cache-reuse job uses that to run the suite twice against one
    persistent directory.
    """
    preset = os.environ.get("REPRO_CACHE_DIR")
    if preset:
        yield Path(preset)
        return
    path = tmp_path_factory.mktemp("repro-cache")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture(scope="session", autouse=True)
def isolated_workers():
    """Strip ``REPRO_WORKERS`` for the whole suite.

    A developer's exported env must never flip the parallel-path
    selection inside the byte-identity suites (serial vs pool is a
    *test parameter* there, not an inherited setting).  CI's
    worker-pool lane opts back in by setting
    ``REPRO_TEST_KEEP_WORKERS=1`` alongside ``REPRO_WORKERS``.
    """
    if os.environ.get("REPRO_TEST_KEEP_WORKERS"):
        yield
        return
    saved = os.environ.pop("REPRO_WORKERS", None)
    yield
    if saved is not None:
        os.environ["REPRO_WORKERS"] = saved


@pytest.fixture(scope="session", autouse=True)
def isolated_service_env():
    """Strip pre-set ``REPRO_SERVICE_*`` knobs for the whole suite.

    Same rationale as ``isolated_workers``: a developer's exported
    admission limits or scheduler choice must never reshape
    ``ServiceConfig.from_env()`` inside the service suites.  Restored
    on exit so the shell is left as found.
    """
    from repro.service.config import ENV_PREFIX

    saved = {
        key: os.environ.pop(key)
        for key in list(os.environ)
        if key.startswith(ENV_PREFIX)
    }
    yield
    for key, value in saved.items():
        os.environ[key] = value


@pytest.fixture(autouse=True)
def service_env_guard():
    """Snapshot/restore ``REPRO_SERVICE_*`` around every single test.

    Tests that exercise the env-knob path set variables directly; this
    guard guarantees they cannot leak into a later test even on
    assertion failure mid-test.
    """
    from repro.service.config import ENV_PREFIX

    before = {
        key: value for key, value in os.environ.items()
        if key.startswith(ENV_PREFIX)
    }
    yield
    for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        if key not in before:
            del os.environ[key]
    os.environ.update(before)


@pytest.fixture(scope="session")
def node():
    return ATOM_C2758


@pytest.fixture(scope="session")
def small_training_instances():
    """A reduced training set: 4 classes × 2 sizes = 8 instances."""
    return [
        AppInstance(get_app(code), size)
        for code in ("wc", "st", "ts", "fp")
        for size in (1 * GB, 5 * GB)
    ]


@pytest.fixture(scope="session")
def small_offline(small_training_instances):
    """(database, 200-rows-per-pair dataset) from one sweep of the
    reduced training pairs."""
    return build_offline(small_training_instances, rows_per_pair=200, seed=0)


@pytest.fixture(scope="session")
def small_database(small_offline):
    return small_offline[0]


@pytest.fixture(scope="session")
def small_dataset(small_offline):
    return small_offline[1]
