"""NodeSpec tests."""

import pytest

from repro.hardware.node import ATOM_C2758, NodeSpec
from repro.utils.units import GB


def test_default_node_matches_paper_testbed():
    assert ATOM_C2758.n_cores == 8
    assert ATOM_C2758.memory_bytes == 8 * GB
    assert len(ATOM_C2758.frequencies) == 4


def test_available_memory_subtracts_reserved():
    assert ATOM_C2758.available_memory_bytes == (
        ATOM_C2758.memory_bytes - ATOM_C2758.reserved_memory_bytes
    )


def test_validate_mappers():
    assert ATOM_C2758.validate_mappers(8) == 8
    with pytest.raises(ValueError):
        ATOM_C2758.validate_mappers(0)
    with pytest.raises(ValueError):
        ATOM_C2758.validate_mappers(9)


def test_node_reserved_memory_validation():
    with pytest.raises(ValueError, match="reserved"):
        NodeSpec(memory_bytes=1 * GB, reserved_memory_bytes=2 * GB)


def test_node_core_count_validation():
    with pytest.raises(ValueError):
        NodeSpec(n_cores=0)
