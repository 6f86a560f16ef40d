"""Oracle self-tuning backend: brute-force configs behind the STP API.

Plugging this into :class:`~repro.core.controller.ECoSTController`
isolates the contributions of ECoST's two decisions: with oracle
tuning, any remaining gap to the UB policy is purely the *decoupled
scheduling* (queue + pairing decision tree); the difference between
oracle-tuned and model-tuned ECoST is purely the *self-tuning
prediction* error.  The decoupling ablation benchmark uses both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.stp import AppDescriptor
from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.model.calibration import DEFAULT_CONSTANTS, SimConstants
from repro.model.config import JobConfig
from repro.model.sweep import sweep_pair
from repro.telemetry.profiling import reduced_vector
from repro.workloads.base import AppInstance


@dataclass
class OraclePairSTP:
    """predict_configs via exhaustive search over the true pair.

    Descriptors carry only features/class/size, so the oracle must
    first resolve which registered instance a descriptor denotes; it
    matches by (size, nearest features), which is exact for distinct
    applications and identity-preserving for replicas.
    """

    node: NodeSpec = ATOM_C2758
    constants: SimConstants = DEFAULT_CONSTANTS
    _instances: list[AppInstance] = field(default_factory=list)
    _features: list[np.ndarray] = field(default_factory=list)
    #: Unordered label pair -> (label_a, label_b, the optimum's configs
    #: in that orientation); the sweep itself is not kept.
    _cache: dict = field(default_factory=dict)

    def register(self, instance: AppInstance, descriptor: AppDescriptor) -> None:
        """Associate an instance with its learning-period descriptor."""
        self._instances.append(instance)
        self._features.append(reduced_vector(dict(descriptor.features)))

    def register_workload(self, instances, describe) -> "OraclePairSTP":
        """Register every instance using a descriptor factory."""
        for inst in instances:
            self.register(inst, describe(inst))
        return self

    def _resolve(self, d: AppDescriptor) -> AppInstance:
        if not self._instances:
            raise RuntimeError("oracle has no registered instances")
        feat = reduced_vector(dict(d.features))
        candidates = [
            i for i, inst in enumerate(self._instances)
            if inst.data_bytes == d.data_bytes
        ] or list(range(len(self._instances)))
        stacked = np.vstack([self._features[i] for i in candidates])
        span = stacked.max(axis=0) - stacked.min(axis=0)
        span = np.where(span < 1e-12, 1.0, span)
        dists = np.linalg.norm((stacked - feat) / span, axis=1)
        return self._instances[candidates[int(np.argmin(dists))]]

    def predict_configs(
        self, a: AppDescriptor, b: AppDescriptor
    ) -> tuple[JobConfig, JobConfig]:
        inst_a = self._resolve(a)
        inst_b = self._resolve(b)
        key = tuple(sorted((inst_a.label, inst_b.label)))
        if key not in self._cache:
            sweep = sweep_pair(inst_a, inst_b, node=self.node, constants=self.constants)
            self._cache[key] = (inst_a.label, inst_b.label, sweep.best_configs)
        label_a, label_b, (cfg_a, cfg_b) = self._cache[key]
        if (label_a, label_b) != (inst_a.label, inst_b.label):
            cfg_a, cfg_b = cfg_b, cfg_a
        return cfg_a, cfg_b
