"""Tests for the BB QRAM router tree structure."""

import pytest
from hypothesis import given, settings, strategies as st

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


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_path_to_leaf_consistent_with_address_bits(n, data):
    """Sec. 2: address bit l steers the routers of level l, so each address has
    one root-to-leaf path."""
    capacity = 2**n
    tree = BBTree(capacity)
    address = data.draw(st.integers(min_value=0, max_value=capacity - 1))
    path = tree.path_to_leaf(address)
    assert len(path) == n
    assert path[0] == RouterId(0, 0)
    # Each step follows the address bit of that level.
    for level in range(n - 1):
        bit = tree.address_bit(address, level)
        assert path[level + 1] == path[level].child(bit)
    router, direction = tree.leaf_position(address)
    assert router == path[-1]
    assert direction == address % 2
    assert tree.leaf_qubit(address) == tree.output_qubit(router, direction)


def test_leaf_qubits_are_distinct():
    """Fig. 2: every classical address owns its own leaf cell."""
    tree = BBTree(32)
    leaves = {tree.leaf_qubit(a) for a in range(32)}
    assert len(leaves) == 32
