"""Feature-matrix construction and unit-normal scaling (§3.2, §6.1).

The feature matrix (FM) has one row per profiled application instance
and one column per collected metric.  The paper normalises "to the
unit normal distribution" before PCA so no metric dominates through
its unit; :func:`zscore` implements that and returns the fitted
:class:`~repro.ml.preprocessing.StandardScaler`, so unknown
applications are projected consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.ml.preprocessing import StandardScaler
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.telemetry.profiling import FEATURE_NAMES, feature_vector, profile_features
from repro.utils.rng import SeedLike
from repro.utils.units import GHZ, MB
from repro.workloads.base import AppInstance

#: The configuration used for profiling runs (a fixed, known setting —
#: features must be comparable across applications).
PROFILING_CONFIG = JobConfig(frequency=2.4 * GHZ, block_size=256 * MB, n_mappers=8)


def zscore(X: np.ndarray) -> tuple[np.ndarray, StandardScaler]:
    """Scale columns to zero mean / unit variance.

    Constant columns scale to zero (std is floored at machine epsilon
    scale) rather than dividing by zero.
    """
    scaler = StandardScaler().fit(X)
    return scaler.transform(X), scaler


@dataclass(frozen=True)
class FeatureMatrix:
    """Profiled features for a set of application instances."""

    instances: tuple[AppInstance, ...]
    names: tuple[str, ...]
    raw: np.ndarray  # (n_instances, n_features), unscaled
    scaled: np.ndarray  # unit-normal columns
    scaler: StandardScaler

    def row_for(self, label: str) -> np.ndarray:
        """Scaled feature row of the instance with the given label."""
        for i, inst in enumerate(self.instances):
            if inst.label == label:
                return self.scaled[i]
        raise KeyError(f"no instance {label!r} in the feature matrix")

    def column(self, name: str, *, scaled: bool = True) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise KeyError(f"no feature {name!r}") from None
        return (self.scaled if scaled else self.raw)[:, j]

    @property
    def n_instances(self) -> int:
        return len(self.instances)


def build_feature_matrix(
    instances: Sequence[AppInstance],
    *,
    config: JobConfig = PROFILING_CONFIG,
    node: NodeSpec = ATOM_C2758,
    constants: SimConstants = DEFAULT_CONSTANTS,
    seed: SeedLike = 0,
) -> FeatureMatrix:
    """Profile every instance and assemble the scaled feature matrix."""
    return feature_matrix(
        instances,
        [
            profile_features(inst, config, node=node, constants=constants, seed=seed)
            for inst in instances
        ],
    )


def feature_matrix(
    instances: Sequence[AppInstance], features: Sequence[Mapping[str, float]]
) -> FeatureMatrix:
    """The scaled feature matrix of instances already profiled:
    ``features[i]`` is instance ``i``'s profile (say, its STP
    descriptor's features)."""
    if not instances:
        raise ValueError("need at least one instance")
    raw = np.vstack([feature_vector(feats) for feats in features])
    scaled, scaler = zscore(raw)
    return FeatureMatrix(
        instances=tuple(instances),
        names=FEATURE_NAMES,
        raw=raw,
        scaled=scaled,
        scaler=scaler,
    )
