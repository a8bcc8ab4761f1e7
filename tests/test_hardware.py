"""Hardware models: parameters, components, H-tree layout, planarity (Sec. 4.2)."""

import pytest

from repro.bucket_brigade.tree import RouterId
from repro.hardware import (
    DEFAULT_PARAMETERS,
    HardwareParameters,
    HTreeLayout,
    ModularNodeLayout,
    OnChipLayout,
    fat_tree_connectivity_graph,
    is_planar,
    node_bill_of_materials,
    two_plane_decomposition,
)
from repro.hardware.components import tree_bill_of_materials
from repro.hardware.parameters import TABLE3_PARAMETERS
from repro.hardware.planarity import (
    crossing_free_modular_wiring,
    thickness_is_at_most_two,
)


def test_default_parameters_match_paper():
    assert DEFAULT_PARAMETERS.cswap_time_us == pytest.approx(1.0)
    assert DEFAULT_PARAMETERS.clops == pytest.approx(1e6)
    assert DEFAULT_PARAMETERS.total_gate_error == pytest.approx(0.005)
    assert set(TABLE3_PARAMETERS) == {1e-3, 1e-4, 1e-5}


def test_parameter_validation():
    with pytest.raises(ValueError):
        HardwareParameters(cswap_time_us=0.0)
    with pytest.raises(ValueError):
        HardwareParameters(cswap_error=1.5)


def test_node_bill_of_materials():
    root = node_bill_of_materials(32, 0)
    assert root.num_routers == 5
    # One transient router (2 cavities), four full routers (4 cavities).
    assert root.components.cavities == 2 + 4 * 4
    assert root.components.transmons == 5
    assert root.components.coax_wires == 5 + 2 * 4
    leaf = node_bill_of_materials(32, 4)
    assert leaf.num_routers == 1
    assert leaf.components.cavities == 4        # leaf router keeps its outputs
    with pytest.raises(ValueError):
        node_bill_of_materials(32, 5)


def test_tree_bill_of_materials_scales_linearly():
    small = tree_bill_of_materials(16)
    large = tree_bill_of_materials(64)
    assert large.cavities > 3 * small.cavities
    assert large.transmons == 2 * 64 - 2 - 6


def test_htree_layout_properties():
    """Figs. 2(c), 3: the H-tree places every node at a distinct site with
    wires shrinking down the tree."""
    layout = HTreeLayout(64)
    placements = layout.placements()
    assert len(placements) == 63
    positions = {(round(p.x, 9), round(p.y, 9)) for p in placements}
    assert len(positions) == 63              # no two nodes collide
    assert layout.position(RouterId(0, 0)) == (0.0, 0.0)
    assert len(layout.leaf_positions()) == 32
    # Wire lengths shrink as we go down the tree.
    assert layout.wire_length(RouterId(0, 0), 0) > layout.wire_length(RouterId(2, 0), 0)
    assert layout.max_wire_length() == pytest.approx(layout.wire_length(RouterId(0, 0), 0))
    lo_x, lo_y, hi_x, hi_y = layout.bounding_box()
    assert lo_x < 0 < hi_x and lo_y < 0 < hi_y


def test_full_connectivity_graph_is_not_planar_but_thickness_two():
    """Sec. 4.2.2: the Fat-Tree wiring is not planar but splits into two planar
    layers."""
    graph = fat_tree_connectivity_graph(16)
    assert graph.number_of_nodes() > 0
    assert not is_planar(graph)
    assert thickness_is_at_most_two(16)
    plane0, plane1 = two_plane_decomposition(16)
    assert plane0.number_of_edges() + plane1.number_of_edges() == graph.number_of_edges()


@pytest.mark.parametrize("capacity", [4, 8, 32])
def test_two_plane_decomposition_scales(capacity):
    """Sec. 4.2.2: the two-layer split stays planar at every capacity."""
    assert thickness_is_at_most_two(capacity)


def test_onchip_layout_alternates_planes():
    """Sec. 4.2.2 / Fig. 4(d-e): each node shares a plane with exactly one
    child, one TSV per node."""
    layout = OnChipLayout(32)
    # Each internal node keeps exactly one child on its own plane.
    for level in range(4):
        for index in range(2**level):
            plane = layout.plane_of(level, index)
            children = [layout.plane_of(level + 1, 2 * index + d) for d in (0, 1)]
            assert sorted(children) == sorted([plane, 1 - plane])
    assert layout.tsv_count() == 15          # one crossing child per internal node
    plane0, plane1 = layout.planes_balanced()
    assert plane0 + plane1 == 31
    assert layout.both_planes_planar()


def test_modular_node_layout():
    """Sec. 4.2.1 / Fig. 4(a-c): a node module has one top port per router and
    no internal crossings."""
    node = ModularNodeLayout(32, 1)
    assert node.num_routers == 4
    assert node.wire_count() == {"incoming": 4, "outgoing": 6}
    assert len(node.top_ports()) == 4
    assert len(node.bottom_ports()) == 6
    assert not node.has_internal_crossings()
    assert crossing_free_modular_wiring(64)
    leaf_node = ModularNodeLayout(32, 4)
    assert leaf_node.bottom_ports() == []
    with pytest.raises(ValueError):
        ModularNodeLayout(32, 9)
