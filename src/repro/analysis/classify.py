"""The incoming-application analyser/classifier (ECoST Step 1, §5).

Tags an unknown application with one of the four classes —
compute-bound (C), hybrid (H), I/O-bound (I), memory-bound (M) — from
its learning-period feature vector.  Two implementations:

* :class:`RuleBasedClassifier` — the paper's §3.2/§6.1 narrative rules
  ("CPU user above average with low iowait and I/O rates → compute
  intensive"), useful as an interpretable reference;
* :class:`NearestCentroidClassifier` — classifies against the known
  *training* applications' class centroids in scaled feature space,
  which is how ECoST handles genuinely unknown apps (§5 Step 1:
  "classifies the application based on the characteristics of known
  (training) applications").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.analysis.features import FeatureMatrix
from repro.ml.preprocessing import StandardScaler
from repro.telemetry.profiling import FEATURE_NAMES
from repro.workloads.base import AppClass


class AppClassifier(Protocol):
    """Anything that maps a 14-feature dict to an :class:`AppClass`."""

    def classify(self, features: Mapping[str, float]) -> AppClass: ...


@dataclass(frozen=True)
class RuleBasedClassifier:
    """Threshold rules mirroring the paper's characterisation prose.

    Order matters: memory-bound behaviour (pathological LLC miss rates)
    dominates, then I/O wait, then the compute/hybrid split.
    """

    memory_llc_mpki: float = 4.0
    io_wait_pct: float = 40.0
    compute_user_pct: float = 80.0
    compute_llc_mpki: float = 1.6

    def classify(self, features: Mapping[str, float]) -> AppClass:
        llc = features["llc_mpki"]
        iowait = features["cpu_iowait"]
        user = features["cpu_user"]
        if llc >= self.memory_llc_mpki:
            return AppClass.MEMORY
        if iowait >= self.io_wait_pct:
            return AppClass.IO
        if user >= self.compute_user_pct and llc < self.compute_llc_mpki:
            return AppClass.COMPUTE
        return AppClass.HYBRID


class NearestCentroidClassifier:
    """Nearest class centroid in unit-normal feature space.

    Fitted from the training applications' feature matrix and their
    known class labels; unknown apps inherit the class of the closest
    centroid (Euclidean distance over all 14 scaled features).
    """

    def __init__(self) -> None:
        self._centroids: dict[AppClass, np.ndarray] | None = None
        self._scaler: StandardScaler | None = None

    def fit(
        self, matrix: FeatureMatrix, labels: Sequence[AppClass]
    ) -> "NearestCentroidClassifier":
        if len(labels) != matrix.n_instances:
            raise ValueError("one label per feature-matrix row required")
        centroids: dict[AppClass, np.ndarray] = {}
        labels_arr = np.array([l.value for l in labels])
        # Sorted, so the centroid order (classify's tie-break and the
        # pickle's bytes) does not follow the hash seed.
        for cls in sorted(set(labels), key=lambda c: c.value):
            idx = np.flatnonzero(labels_arr == cls.value)
            centroids[cls] = matrix.scaled[idx].mean(axis=0)
        self._centroids = centroids
        self._scaler = matrix.scaler
        return self

    @property
    def classes_(self) -> list[AppClass]:
        if self._centroids is None:
            raise RuntimeError("classifier is not fitted")
        return sorted(self._centroids, key=lambda c: c.value)

    def classify(self, features: Mapping[str, float]) -> AppClass:
        if self._centroids is None or self._scaler is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        x = np.array([features[n] for n in FEATURE_NAMES], dtype=float)
        z = self._scaler.transform(x)
        best = None
        best_d = np.inf
        for cls, centroid in self._centroids.items():
            d = float(np.linalg.norm(z - centroid))
            if d < best_d:
                best, best_d = cls, d
        assert best is not None
        return best

    def distances(self, features: Mapping[str, float]) -> dict[AppClass, float]:
        """Distance to every class centroid (diagnostics)."""
        if self._centroids is None or self._scaler is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        x = np.array([features[n] for n in FEATURE_NAMES], dtype=float)
        z = self._scaler.transform(x)
        return {
            cls: float(np.linalg.norm(z - centroid))
            for cls, centroid in self._centroids.items()
        }
