"""Property-based guarantees of the SoA batch layer.

Two properties, each over many generated cases (hypothesis when
available, seeded ``parametrize`` fallback otherwise, matching
``test_invariants_property.py``):

* ``ScenarioBatch`` pack → unpack is the identity on any scenario mix
  the fuzzer can generate (including fault plans and recorder modes);
* one :class:`ProfileSoA` lane through the cost kernel is
  *bit-identical* to the engine's scalar twin — same floats, not just
  close ones.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.batch import ProfileSoA, ScenarioBatch
from repro.conformance.fuzzer import generate_scenario
from repro.hardware.node import ATOM_C2758
from repro.model.costmodel import standalone_metrics, standalone_metrics_scalar
from repro.utils.units import GHZ, MB
from repro.workloads.registry import ALL_APPS, get_app

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on bare boxes only
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.batch

_FREQUENCIES = (1.2 * GHZ, 1.6 * GHZ, 2.0 * GHZ, 2.4 * GHZ)
_BLOCKS = (64 * MB, 128 * MB, 256 * MB, 512 * MB)


def seeded_cases(n: int):
    """Hypothesis integers when available, seeded parametrize otherwise."""

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return given(case_seed=st.integers(min_value=0, max_value=2**31 - 1))(fn)
        return pytest.mark.parametrize("case_seed", range(n))(fn)

    return deco


def _lane(value) -> float:
    """First lane of a (1,)-or-scalar kernel output, as a float."""
    return float(np.asarray(value).reshape(-1)[0])


# ---------------------------------------------------- pack round-trip
@seeded_cases(40)
def test_pack_unpack_identity(case_seed):
    scenario = generate_scenario(random.Random(f"pack:{case_seed}"))
    batch = ScenarioBatch.from_scenarios([scenario])
    [restored] = batch.scenarios()
    assert restored.n_nodes == scenario.n_nodes
    assert restored.jobs == scenario.jobs
    assert restored.recorder == scenario.recorder
    assert restored.fault_events == scenario.fault_events


@seeded_cases(20)
def test_pack_unpack_identity_mixed_widths(case_seed):
    rng = random.Random(f"mix:{case_seed}")
    scenarios = [
        generate_scenario(random.Random(f"mix:{case_seed}:{i}"))
        for i in range(rng.randint(2, 6))
    ]
    batch = ScenarioBatch.from_scenarios(scenarios)
    assert batch.width == max(len(s.jobs) for s in scenarios)
    for original, restored in zip(scenarios, batch.scenarios()):
        assert restored == original or (
            restored.n_nodes == original.n_nodes
            and restored.jobs == original.jobs
            and restored.fault_events == original.fault_events
        )


# ------------------------------------------- kernel batch-of-1 parity
@seeded_cases(40)
def test_soa_kernel_batch_of_one_is_bit_identical_to_scalar(case_seed):
    rng = random.Random(f"kernel:{case_seed}")
    profile = get_app(rng.choice(ALL_APPS)).profile
    data = float(rng.randint(1, 10_000)) * MB
    freq = rng.choice(_FREQUENCIES)
    block = rng.choice(_BLOCKS)
    mappers = float(rng.randint(1, ATOM_C2758.n_cores))
    mpki_scale = rng.uniform(1.0, 3.0)
    disk_scale = rng.uniform(1.0, 2.0)
    extra = float(rng.randint(0, 4))

    want = standalone_metrics_scalar(
        profile, data, freq, block, mappers,
        mpki_scale=mpki_scale, disk_traffic_scale=disk_scale,
        extra_streams=extra,
    )
    got = standalone_metrics(
        ProfileSoA.from_profiles([profile]),
        np.array([data]), np.array([freq]), np.array([block]),
        np.array([mappers]),
        mpki_scale=np.array([mpki_scale]),
        disk_traffic_scale=np.array([disk_scale]),
        extra_streams=np.array([extra]),
    )
    for f in dataclasses.fields(want):
        assert _lane(getattr(got, f.name)) == getattr(want, f.name), (
            f"kernel field {f.name} not bit-identical"
        )
