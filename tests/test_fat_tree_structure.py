"""Fat-Tree structure: router counts, wiring, sub-QRAM decomposition (Sec. 4.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fat_tree import FatTreeRouterId, FatTreeStructure
from repro.core.subqram import SubQRAM, decompose


@pytest.mark.parametrize("capacity,expected", [(4, 4), (8, 11), (32, 57), (1024, 2036)])
def test_router_count_formula(capacity, expected):
    structure = FatTreeStructure(capacity)
    assert structure.num_routers == expected
    assert structure.num_routers == len(list(structure.routers()))


def test_node_sizes_decrease_down_the_tree():
    """Sec. 4.1: node (i, j) holds n - i routers, 2^i nodes per level."""
    structure = FatTreeStructure(32)
    assert [structure.routers_in_node(level) for level in range(5)] == [5, 4, 3, 2, 1]
    assert structure.routers_at_level(0) == 5
    assert structure.routers_at_level(4) == 16


def test_wire_counts_match_paper():
    """Sec. 4.1: n external wires at the root, n - i - 1 wires to each child
    below level i."""
    structure = FatTreeStructure(32)
    assert structure.external_ports == 5
    assert [structure.wires_to_children(level) for level in range(5)] == [4, 3, 2, 1, 0]


def test_output_rule_transient_routers():
    """Sec. 4.1: router (i, j, k) has outputs iff k > i or i = n - 1; the k = i
    router is transient."""
    structure = FatTreeStructure(16)
    n = structure.address_width
    for router in structure.routers():
        expected = router.label > router.level or router.level == n - 1
        assert structure.has_outputs(router) == expected
        assert structure.is_transient(router) != expected
    # Transient routers expose no output qubits.
    transient = FatTreeRouterId(1, 0, 1)
    with pytest.raises(ValueError):
        structure.output_qubit(transient, 0)


def test_router_id_validation():
    with pytest.raises(ValueError):
        FatTreeRouterId(2, 0, 1)      # label < level
    with pytest.raises(ValueError):
        FatTreeRouterId(1, 2, 1)      # node index out of range


def test_leaf_qubits_unique_and_on_last_level():
    """Fig. 5: only sub-QRAM n - 1 reaches the leaf cells, one per address."""
    structure = FatTreeStructure(16)
    leaves = {structure.leaf_qubit(a) for a in range(16)}
    assert len(leaves) == 16
    for leaf in leaves:
        assert leaf[2] == structure.address_width - 1


def test_all_qubits_counts_outputs_only_where_present():
    """Sec. 4.1: transient routers carry no output qubits (2 qubits instead of 4)."""
    structure = FatTreeStructure(8)
    # 11 routers; transient routers (one per node except the last level)
    # contribute 2 qubits, the rest 4.
    transient = sum(
        1 for r in structure.routers() if structure.is_transient(r)
    )
    expected = 4 * structure.num_routers - 2 * transient
    assert structure.num_tree_qubits == expected


def test_subqram_decomposition():
    """Sec. 4 / Fig. 5 sub-QRAM decomposition: n nested BB QRAMs, widths 1..n."""
    structure = FatTreeStructure(16)
    subqrams = decompose(structure)
    assert [s.address_width for s in subqrams] == [1, 2, 3, 4]
    assert [s.num_routers for s in subqrams] == [1, 3, 7, 15]
    assert sum(s.num_routers for s in subqrams) == structure.num_routers
    assert subqrams[-1].reaches_data and not subqrams[0].reaches_data
    assert subqrams[1].neighbour_above().label == 2
    assert subqrams[0].neighbour_below() is None
    assert list(subqrams[2].swap_partner_levels()) == [0, 1, 2]


def test_subqram_label_validation():
    """Fig. 5: sub-QRAM labels run 0..n - 1."""
    structure = FatTreeStructure(8)
    with pytest.raises(ValueError):
        SubQRAM(structure, 3)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=8))
def test_router_count_is_about_twice_bb(n):
    capacity = 2**n
    structure = FatTreeStructure(capacity)
    assert structure.num_routers == 2 * capacity - 2 - n
    # Never more than twice the BB router count.
    assert structure.num_routers <= 2 * (capacity - 1)


def test_qubit_count_per_node_grows_with_height():
    """Sec. 4.1: nodes hold n - i routers, so they shrink towards the leaves."""
    structure = FatTreeStructure(64)
    counts = [structure.qubit_count_per_node(level) for level in range(6)]
    assert counts == sorted(counts, reverse=True)
