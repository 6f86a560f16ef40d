"""repro.batch — vectorised structure-of-arrays scenario evaluation.

The discrete-event engine answers "what happens in this one run"; this
package answers "what happens in these four thousand runs" in a handful
of NumPy passes.  Three layers:

* :mod:`repro.batch.kernel` — :class:`ProfileSoA` lanes (per-lane
  application profiles, contiguous float64) for the one array cost
  kernel, :func:`repro.model.costmodel.standalone_metrics`, plus the
  batched co-location context and segment-state helpers;
* :mod:`repro.batch.pack` — :class:`ScenarioBatch`, the pack/unpack
  bridge between declarative scenarios and SoA buffers;
* :mod:`repro.batch.engine` — :func:`evaluate_scenarios` with
  ``backend={"event", "batch"}`` and per-class vectorised solvers,
  falling back to the event engine on shapes the closed forms do not
  cover.

The event engine remains the reference: the batch backend is
differentially tested against it (and the analytic conformance
oracles) to 1e-9 on every solvable scenario class — see
``docs/TESTING.md``.
"""

from repro.batch.engine import (
    BACKENDS,
    BatchOutcome,
    SOLVABLE_CASES,
    classify,
    evaluate_scenarios,
)
from repro.batch.kernel import (
    PROFILE_FIELDS,
    ProfileSoA,
    colocation_context_soa,
    node_state_soa,
    solo_disk_scale,
)
from repro.batch.pack import ScenarioBatch

__all__ = [
    "BACKENDS",
    "BatchOutcome",
    "PROFILE_FIELDS",
    "ProfileSoA",
    "SOLVABLE_CASES",
    "ScenarioBatch",
    "classify",
    "colocation_context_soa",
    "evaluate_scenarios",
    "node_state_soa",
    "solo_disk_scale",
]
