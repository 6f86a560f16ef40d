"""Disk-cached heavyweight artifacts shared across experiments.

Building the configuration database, training dataset, and fitted STP
models takes tens of seconds to minutes; every experiment and
benchmark that needs them goes through these accessors so the work
happens once per calibration version.

Cache design
------------
* **Content-keyed paths.**  Files live under ``.repro_cache/`` (or
  ``REPRO_CACHE_DIR``) as ``<name>-<CACHE_VERSION>-<fingerprint>.pkl``
  where the fingerprint is a SHA-256 digest of everything the cached
  artifacts are a function of: the training workload profiles, the
  hardware node spec, the simulation constants, and the cache version
  itself.  Changing any calibration input silently invalidates every
  stale entry — no manual version bump required (though bumping
  :data:`CACHE_VERSION` still works and is the right move for pipeline
  changes that don't show up in those inputs).
* **Self-describing payloads.**  Each pickle wraps its value in an
  envelope recording the version and fingerprint it was built under;
  a file whose envelope disagrees with the current scheme (e.g. one
  copied between machines) is treated as stale and rebuilt.
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
import hashlib
import json
import logging
import os
import pickle
import re
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.analysis.classify import NearestCentroidClassifier
from repro.analysis.features import build_feature_matrix
from repro.core.database import ConfigDatabase, build_database
from repro.core.stp import (
    LkTSTP,
    MLMSTP,
    SoloSTP,
    TrainingDataset,
    build_training_dataset,
)
from repro.workloads.registry import TRAINING_APPS, get_app, instances_for

log = logging.getLogger("repro.cache")

#: Bump when the STP pipeline changes in ways the content fingerprint
#: cannot see (profiles and hardware constants are fingerprinted).
#: v3: REPTree keeps flat node arrays instead of a ``_Node`` tree, so a
#: v2 pickle of a fitted tree cannot predict.
#: v4: a fitted ``MLMSTP`` carries its decision memo and manifold span,
#: and a fitted ``SoloSTP`` its span, which v3 pickles lack.
CACHE_VERSION = "v4"

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


@dataclass
class CacheStats:
    """Counters for cache behaviour (observable by telemetry/tests)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0  # quarantined after a failed load
    stale: int = 0  # envelope version/fingerprint mismatch

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


_ADDR_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _jsonable(obj: Any) -> Any:
    """Last-resort canonicaliser for fingerprint serialisation.

    Must never emit process-dependent text: a memory address leaking
    into the digest (e.g. via a default ``repr``) would give every
    process its own fingerprint and silently disable the cache.
    """
    if hasattr(obj, "tolist"):  # numpy arrays / scalars
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    state = getattr(obj, "__dict__", None)
    if state:  # plain objects (e.g. DvfsTable): type name + attributes
        return {"__class__": type(obj).__qualname__, "state": state}
    return _ADDR_RE.sub("", repr(obj))


_FINGERPRINTS: dict[str, str] = {}


def content_fingerprint() -> str:
    """Digest of every input the cached artifacts are a function of.

    Covers the training applications' calibrated profiles, the node
    hardware spec, the simulation constants, and the cache version.
    Deterministic across processes and runs (pure values, sorted keys).
    """
    cached_fp = _FINGERPRINTS.get(CACHE_VERSION)
    if cached_fp is not None:
        return cached_fp
    from repro.hardware.node import ATOM_C2758
    from repro.model.calibration import DEFAULT_CONSTANTS

    payload = {
        "version": CACHE_VERSION,
        "node": dataclasses.asdict(ATOM_C2758),
        "constants": dataclasses.asdict(DEFAULT_CONSTANTS),
        "profiles": {
            code: dataclasses.asdict(get_app(code).profile)
            for code in TRAINING_APPS
        },
    }
    blob = json.dumps(payload, sort_keys=True, default=_jsonable)
    fp = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    _FINGERPRINTS[CACHE_VERSION] = fp
    return fp


def cache_path(name: str) -> Path:
    """Content-keyed path for one named artifact."""
    return cache_dir() / f"{name}-{CACHE_VERSION}-{content_fingerprint()}.pkl"


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


def _load_envelope(path: Path) -> tuple[Any, bool]:
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
        or envelope.get("version") != CACHE_VERSION
        or envelope.get("fingerprint") != content_fingerprint()
        or "payload" not in envelope
    ):
        _STATS.stale += 1
        _quarantine(path, "stale")
        return None, False
    return envelope["payload"], True


def _atomic_write(path: Path, value: Any) -> None:
    """Write-and-rename with a per-writer unique temp name.

    ``os.replace`` is atomic on POSIX for same-filesystem paths, so
    concurrent writers on the same key simply last-write-win and no
    reader ever sees a partial pickle.
    """
    envelope = {
        "version": CACHE_VERSION,
        "fingerprint": content_fingerprint(),
        "payload": value,
    }
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("wb") as fh:
            pickle.dump(envelope, fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cached(name: str, build: Callable[[], Any]) -> Any:
    """Load ``name`` from the cache or build and store it.

    Never trusts the disk: corrupt or stale files are quarantined and
    the artifact is rebuilt, so a bad cache can slow a run down but
    can't fail it.
    """
    path = cache_path(name)
    if path.exists():
        value, ok = _load_envelope(path)
        if ok:
            _STATS.hits += 1
            return value
    _STATS.misses += 1
    value = build()
    _atomic_write(path, value)
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


# ------------------------------------------------------------ accessors
def get_database_and_sweep_labels() -> ConfigDatabase:
    """The training-pair configuration database (§6.2)."""
    return cached("database", lambda: build_database(instances_for(TRAINING_APPS))[0])


def get_training_dataset(rows_per_pair: int = 500) -> TrainingDataset:
    """Model-training rows from the training-pair sweeps."""
    def build() -> TrainingDataset:
        training = instances_for(TRAINING_APPS)
        _db, sweeps = build_database(training, keep_sweeps=True)
        return build_training_dataset(
            training, sweeps=sweeps, rows_per_pair=rows_per_pair, seed=0
        )

    return cached(f"dataset-rpp{rows_per_pair}", build)


def get_lkt() -> LkTSTP:
    """The lookup-table STP over the cached database."""
    return LkTSTP(get_database_and_sweep_labels())


def get_mlm(model_kind: str) -> MLMSTP:
    """A fitted MLM-STP (``"lr"``, ``"reptree"``, or ``"mlp"``)."""
    def build() -> MLMSTP:
        return MLMSTP(model_kind).fit(get_training_dataset())

    return cached(f"mlm-{model_kind}", build)


def get_solo_stp(model_kind: str = "reptree") -> SoloSTP:
    """A fitted standalone-application tuner (PTM backend)."""
    def build() -> SoloSTP:
        return SoloSTP(model_kind).fit(instances_for(TRAINING_APPS), seed=0)

    return cached(f"solo-{model_kind}", build)


def get_classifier() -> NearestCentroidClassifier:
    """Nearest-centroid classifier fitted on the training apps."""
    def build() -> NearestCentroidClassifier:
        training = instances_for(TRAINING_APPS)
        fm = build_feature_matrix(training, seed=0)
        return NearestCentroidClassifier().fit(fm, [i.app_class for i in training])

    return cached("classifier", build)


def get_components(model_kind: str = "reptree"):
    """The PTM/ECoST/UB component bundle for the §8 policies."""
    from repro.baselines.mapping import TunedComponents

    return TunedComponents(
        solo_stp=get_solo_stp(model_kind),
        pair_stp=get_mlm(model_kind),
        classifier=get_classifier(),
    )
