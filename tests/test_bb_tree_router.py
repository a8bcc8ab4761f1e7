"""Tests for the BB QRAM router tree structure."""

import pytest

from repro.bucket_brigade.tree import BBTree, RouterId, validate_capacity


def test_validate_capacity():
    assert validate_capacity(8) == 3
    for bad in (0, 1, 3, 6, 100):
        with pytest.raises(ValueError):
            validate_capacity(bad)


def test_router_id_relations():
    root = RouterId(0, 0)
    left = root.child(0)
    right = root.child(1)
    assert left == RouterId(1, 0) and right == RouterId(1, 1)
    with pytest.raises(ValueError):
        RouterId(1, 5)


def test_tree_counts():
    """Fig. 2: an N-leaf BB tree has N - 1 routers of 4 qubits each."""
    tree = BBTree(16)
    assert tree.address_width == 4
    assert tree.num_routers == 15
    assert len(list(tree.routers())) == 15
    assert tree.num_tree_qubits == 60
    assert len(tree.all_qubits()) == 60

