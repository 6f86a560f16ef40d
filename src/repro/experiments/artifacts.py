"""The offline stage (§6), built once and disk-cached.

The paper's offline stage sweeps the known training pairs once, keeps
each pair's best configuration as the database and a sample of its
grid rows to train the STP, and fits the class centroids on the
training applications' profiles.  :func:`train_pipeline` is that
stage: every experiment, the CLI, the service and the benchmarks read
their database, dataset, classifier and fitted STPs from the
:class:`Pipeline` it returns.

Cache design
------------
* **Keyed on the code and the inputs.**  Files live under
  ``.repro_cache/`` (or ``REPRO_CACHE_DIR``) as
  ``<name>-<fingerprint>.pkl``.  The fingerprint is a SHA-256 digest
  of every ``src/repro/**/*.py`` path and its bytes (read once per
  process) together with the entry's key, which is plain JSON: the
  training instances' codes, sizes and profiles, ``rows_per_pair``
  and, for a fitted STP, the model kind.  Editing any source file or
  changing any key input therefore misses every entry built before.
  Those entries stay on disk until ``python -m repro clear-cache``.
* **Self-describing payloads.**  Each pickle wraps its value in an
  envelope recording the fingerprint it was built under; a file whose
  envelope disagrees (e.g. one copied between machines) is treated as
  stale and rebuilt.
* **Corruption tolerance.**  A truncated, garbled, or unreadable
  pickle — or one referencing classes that no longer exist — is
  logged, quarantined to ``<file>.corrupt``, and rebuilt instead of
  crashing the caller.
* **Atomic, race-safe writes.**  Values are written to a uniquely
  named temp file and ``os.replace``-d into place, so two processes
  racing on the same key both succeed and readers never observe a
  partial file.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.analysis.classify import NearestCentroidClassifier
from repro.analysis.features import feature_matrix
from repro.core.database import ConfigDatabase
from repro.core.stp import MLMSTP, SoloSTP, TrainingDataset, build_offline, describe_instance
from repro.workloads.base import AppInstance
from repro.workloads.registry import TRAINING_APPS, instances_for

log = logging.getLogger("repro.cache")

#: Errors that mean "this pickle cannot be trusted": garbage bytes,
#: truncation, classes that moved/vanished since it was written, or an
#: unreadable file.
CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    OSError,
)

#: The package whose sources every fingerprint digests.
_PACKAGE = Path(__file__).resolve().parents[1]


@dataclass
class CacheStats:
    """Counters for cache behaviour (observable by telemetry/tests)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0  # quarantined after a failed load
    stale: int = 0  # envelope fingerprint mismatch

    @property
    def hit_rate(self) -> float | None:
        total = self.hits + self.misses
        return None if total == 0 else self.hits / total


_STATS = CacheStats()


def cache_stats() -> CacheStats:
    """A snapshot of the process-wide cache counters."""
    return dataclasses.replace(_STATS)


def reset_cache_stats() -> None:
    """Zero the counters (test isolation)."""
    global _STATS
    _STATS = CacheStats()


def cache_dir() -> Path:
    """The cache directory (override with ``REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        path = Path(root)
    else:
        path = Path(__file__).resolve().parents[3] / ".repro_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


@functools.cache
def _source_digest() -> str:
    """SHA-256 of every ``repro`` source file's relative path and bytes.

    Read once per process.  Paths are relative to the package, so a
    byte-identical copy of the tree elsewhere digests the same.
    """
    digest = hashlib.sha256()
    for rel, path in sorted(
        (p.relative_to(_PACKAGE).as_posix(), p) for p in _PACKAGE.rglob("*.py")
    ):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def content_fingerprint(**key: Any) -> str:
    """Digest of the ``repro`` sources together with one entry's key.

    The key must be plain JSON: ``json.dumps`` raises on anything
    else, so no process-dependent text such as a memory address can
    reach the digest.
    """
    blob = json.dumps(key, sort_keys=True)
    return hashlib.sha256(f"{_source_digest()}\0{blob}".encode()).hexdigest()[:12]


def cache_path(name: str, **key: Any) -> Path:
    """Where :func:`cached` keeps the entry ``name`` under ``key``."""
    return cache_dir() / f"{name}-{content_fingerprint(**key)}.pkl"


def _quarantine(path: Path, reason: str) -> None:
    """Move a bad cache file aside (or drop it) so rebuilds are clean."""
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
        log.warning("quarantined %s cache file %s -> %s", reason, path, target.name)
    except OSError:
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - unwritable cache dir
            pass
        log.warning("removed %s cache file %s", reason, path)


def _load_envelope(path: Path, fingerprint: str) -> tuple[Any, bool]:
    """(payload, ok) for one cache file; never raises on bad content."""
    try:
        with path.open("rb") as fh:
            envelope = pickle.load(fh)
    except CORRUPTION_ERRORS as exc:
        _STATS.corrupt += 1
        log.warning("unreadable cache file %s (%s: %s)", path, type(exc).__name__, exc)
        _quarantine(path, "corrupt")
        return None, False
    if (
        not isinstance(envelope, dict)
        or envelope.get("fingerprint") != fingerprint
        or "payload" not in envelope
    ):
        _STATS.stale += 1
        _quarantine(path, "stale")
        return None, False
    return envelope["payload"], True


def _atomic_write(path: Path, value: Any, fingerprint: str) -> None:
    """Write-and-rename with a per-writer unique temp name.

    ``os.replace`` is atomic on POSIX for same-filesystem paths, so
    concurrent writers on the same key simply last-write-win and no
    reader ever sees a partial pickle.
    """
    envelope = {"fingerprint": fingerprint, "payload": value}
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("wb") as fh:
            pickle.dump(envelope, fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cached(name: str, build: Callable[[], Any], **key: Any) -> Any:
    """Load ``name`` under ``key`` from the cache or build and store it.

    Never trusts the disk: corrupt or stale files are quarantined and
    the artifact is rebuilt, so a bad cache can slow a run down but
    can't fail it.
    """
    fingerprint = content_fingerprint(**key)
    path = cache_path(name, **key)
    if path.exists():
        value, ok = _load_envelope(path, fingerprint)
        if ok:
            _STATS.hits += 1
            return value
    _STATS.misses += 1
    value = build()
    _atomic_write(path, value, fingerprint)
    return value


def clear_cache() -> int:
    """Delete all cached artifacts (including quarantined and temp
    files); returns the number removed."""
    n = 0
    for pattern in ("*.pkl", "*.pkl.corrupt", ".*.tmp"):
        for p in cache_dir().glob(pattern):
            try:
                p.unlink()
                n += 1
            except OSError:  # pragma: no cover - raced with another cleaner
                pass
    return n


# ------------------------------------------------------------ pipeline
#: The known training applications at every studied input size (§7).
TRAINING: tuple[AppInstance, ...] = tuple(instances_for(TRAINING_APPS))


@dataclass(frozen=True)
class Pipeline:
    """One offline stage: the database, dataset and classifier from one
    sweep of the training pairs, with STPs fitted (and cached) on
    demand under the pipeline's key plus the model kind."""

    training: tuple[AppInstance, ...]
    key: dict[str, Any]
    database: ConfigDatabase
    dataset: TrainingDataset
    classifier: NearestCentroidClassifier

    def pair_stp(self, kind: str) -> MLMSTP:
        """The MLM-STP (``"lr"``, ``"reptree"`` or ``"mlp"``) fitted on
        :attr:`dataset`."""
        return cached(
            "pair-stp",
            lambda: MLMSTP(kind).fit(self.dataset),
            model_kind=kind,
            **self.key,
        )

    def solo_stp(self, kind: str) -> SoloSTP:
        """The standalone-application tuner (PTM backend) of ``kind``."""
        return cached(
            "solo-stp",
            lambda: SoloSTP(kind).fit(self.training, seed=0),
            model_kind=kind,
            **self.key,
        )

    def components(self, kind: str):
        """The PTM/ECoST/UB component bundle for the §8 policies."""
        from repro.baselines.mapping import TunedComponents

        return TunedComponents(
            solo_stp=self.solo_stp(kind),
            pair_stp=self.pair_stp(kind),
            classifier=self.classifier,
        )


def train_pipeline(
    training: Sequence[AppInstance] = TRAINING, *, rows_per_pair: int = 500
) -> Pipeline:
    """The offline stage on ``training``, built once per key and code.

    The cached payload holds the built artifacts only: unpickling the
    training instances would copy the registry's application objects.
    """
    training = tuple(training)
    key = {
        "training": [
            [inst.code, inst.data_bytes, dataclasses.asdict(inst.profile)]
            for inst in training
        ],
        "rows_per_pair": rows_per_pair,
    }

    def build() -> tuple[ConfigDatabase, TrainingDataset, NearestCentroidClassifier]:
        # One profile per instance feeds both the STP rows and the
        # classifier's centroids.
        descriptors = [describe_instance(inst, seed=0) for inst in training]
        database, dataset = build_offline(
            training, rows_per_pair=rows_per_pair, seed=0, descriptors=descriptors
        )
        classifier = NearestCentroidClassifier().fit(
            feature_matrix(training, [desc.features for desc in descriptors]),
            [inst.app_class for inst in training],
        )
        return database, dataset, classifier

    return Pipeline(training, key, *cached("pipeline", build, **key))
