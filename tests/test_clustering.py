"""Grid-bucket clustering and vacuous placements."""

import math

import pytest

from gridplace.clustering import (
    apply_vacuous_placement,
    cluster_by_grid,
    no_clustering,
)
from gridplace.errors import MissingLocation, PointOutsideCanvas
from gridplace.geometry import build_grid
from gridplace.netlist import (
    Canvas,
    Net,
    Netlist,
    Node,
    NodeKind,
    Orientation,
    Pin,
    Pose,
)


def _clusters(cnl):
    return [n for n in cnl.netlist.nodes if n.kind is NodeKind.CLUSTER]


def _fixture():
    nodes = [
        Node("s0", NodeKind.STDCELL, 2.0, 3.0, movable=True),
        Node("s1", NodeKind.STDCELL, 1.0, 4.0, movable=True),
        Node("s2", NodeKind.STDCELL, 2.0, 2.0, movable=True),
        Node("sf", NodeKind.STDCELL, 1.0, 1.0, movable=False),
        Node("m0", NodeKind.MACRO, 8.0, 8.0, movable=True),
        Node("p0", NodeKind.PORT, 0.0, 0.0, movable=False),
    ]
    nets = [
        # Both pins land in one bucket: collapses to one pin, dropped.
        Net("internal", [Pin("s0", is_source=True), Pin("s1")]),
        # First-seen member pin is not the source; the collapse must still
        # mark the cluster pin as source when any member pin was.
        Net("mix", [Pin("s1", 0.5, 0.5), Pin("s0", is_source=True), Pin("m0")]),
        Net("keep", [Pin("s2", is_source=True), Pin("p0")], weight=2.0),
    ]
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(40.0, 40.0))
    initial = {
        "s0": Pose(5.0, 5.0, Orientation.N),
        "s1": Pose(7.0, 3.0, Orientation.FN),
        "s2": Pose(25.0, 15.0, Orientation.N),
        "sf": Pose(5.0, 5.0, Orientation.N),
        "m0": Pose(35.0, 35.0, Orientation.S),
        "p0": Pose(0.0, 20.0, Orientation.N),
    }
    grid = build_grid(netlist.canvas, n_cols=4, n_rows=4)
    return netlist, initial, grid


def test_buckets_name_and_order():
    netlist, initial, grid = _fixture()
    cnl = cluster_by_grid(netlist, initial, grid)
    # s0 and s1 share cell (0, 0); s2 sits in cell (2, 1).
    assert [c.name for c in _clusters(cnl)] == ["grp_0_0", "grp_1_2"]
    # Rewired order: sf, m0, p0, grp_0_0, grp_1_2; flat cells row * 4 + col.
    assert cnl.cluster_of.tolist() == [3, 3, 4, -1, -1, -1]
    assert cnl.cell_of.tolist() == [-1, -1, -1, 0, 6]
    assert cnl.members.tolist() == [2, 1]


def test_cluster_side_is_sqrt_of_total_area():
    netlist, initial, grid = _fixture()
    cnl = cluster_by_grid(netlist, initial, grid)
    by_name = {c.name: c for c in _clusters(cnl)}
    side = math.sqrt(2.0 * 3.0 + 1.0 * 4.0)
    assert by_name["grp_0_0"].width == side
    assert by_name["grp_0_0"].height == side
    assert by_name["grp_1_2"].width == 2.0


def test_non_stdcell_nodes_survive_unclustered():
    netlist, initial, grid = _fixture()
    cnl = cluster_by_grid(netlist, initial, grid)
    names = {n.name for n in cnl.netlist.nodes}
    # Fixed standard cells, macros, and ports pass through untouched.
    assert {"sf", "m0", "p0"} <= names
    assert "s0" not in names and "s1" not in names and "s2" not in names
    assert cnl.netlist.nodes[cnl.netlist.arrays.index["sf"]].kind is NodeKind.STDCELL


def test_rewired_pins_collapse_with_source_union():
    netlist, initial, grid = _fixture()
    cnl = cluster_by_grid(netlist, initial, grid)
    by_name = {n.name: n for n in cnl.netlist.nets}
    assert "internal" not in by_name
    mix = by_name["mix"]
    assert [p.node for p in mix.pins] == ["grp_0_0", "m0"]
    assert mix.pins[0].is_source and (mix.pins[0].dx, mix.pins[0].dy) == (0.0, 0.0)
    keep = by_name["keep"]
    assert [p.node for p in keep.pins] == ["grp_1_2", "p0"]
    assert keep.weight == 2.0


def test_cluster_name_collision_appends_underscore():
    netlist, initial, grid = _fixture()
    clash = Netlist(
        nodes=list(netlist.nodes) + [Node("grp_0_0", NodeKind.MACRO, 2.0, 2.0, movable=False)],
        nets=list(netlist.nets),
        canvas=netlist.canvas,
    )
    cnl = cluster_by_grid(clash, initial, grid)
    assert [c.name for c in _clusters(cnl)] == ["grp_0_0_", "grp_1_2"]


def test_missing_initial_location():
    netlist, initial, grid = _fixture()
    partial = {k: v for k, v in initial.items() if k != "s1"}
    with pytest.raises(MissingLocation):
        cluster_by_grid(netlist, partial, grid)
    with pytest.raises(MissingLocation):
        no_clustering(netlist, partial, grid)


def test_seed_placement_mixes_centers_and_poses():
    netlist, initial, grid = _fixture()
    cnl = cluster_by_grid(netlist, initial, grid)
    seed = cnl.seed_placement(initial)
    assert seed["grp_0_0"] == Pose(5.0, 5.0, Orientation.N)
    assert seed["grp_1_2"] == Pose(25.0, 15.0, Orientation.N)
    # Non-cluster nodes keep their incoming pose.
    assert seed["m0"] == initial["m0"]
    assert seed["p0"] == initial["p0"]
    assert "s0" not in seed


@pytest.mark.parametrize("cluster", [cluster_by_grid, no_clustering])
def test_seed_placement_keeps_the_poses_of_input_clusters(cluster):
    netlist, initial, grid = _fixture()
    nodes = list(netlist.nodes) + [Node("c0", NodeKind.CLUSTER, 3.0, 3.0, movable=True)]
    with_c0 = Netlist(nodes=nodes, nets=list(netlist.nets), canvas=netlist.canvas)
    pose = Pose(21.0, 33.0, Orientation.FS)
    cnl = cluster(with_c0, {**initial, "c0": pose}, grid)
    assert cnl.cell_of[cnl.netlist.arrays.index["c0"]] == -1
    assert cnl.cluster_of[with_c0.arrays.index["c0"]] == -1
    assert len(cnl.members) == (3 if cluster is no_clustering else 2)
    assert cnl.seed_placement({**initial, "c0": pose})["c0"] == pose
    assert "c0" not in cnl.seed_placement(initial)


def test_no_clustering_keeps_ids_and_squares_cells():
    netlist, initial, grid = _fixture()
    cnl = no_clustering(netlist, initial, grid)
    # Singletons keep their cells' places: s0, s1, s2, sf, m0, p0.
    assert cnl.cluster_of.tolist() == [0, 1, 2, -1, -1, -1]
    assert cnl.cell_of.tolist() == [0, 0, 6, -1, -1, -1]
    assert cnl.members.tolist() == [1, 1, 1]
    s0 = cnl.netlist.nodes[cnl.netlist.arrays.index["s0"]]
    assert s0.kind is NodeKind.CLUSTER
    assert s0.width == pytest.approx(math.sqrt(6.0))
    # The internal net still collapses only when members share one cluster;
    # singletons keep both pins.
    assert {n.name for n in cnl.netlist.nets} == {"internal", "mix", "keep"}


def test_vacuous_modes():
    netlist, _, _ = _fixture()
    ll = apply_vacuous_placement(netlist, "lower-left")
    assert set(ll) == {"s0", "s1", "s2", "m0"}
    assert all(p == Pose(0.0, 0.0, Orientation.N) for p in ll.values())
    ur = apply_vacuous_placement(netlist, "upper-right")
    assert ur["m0"] == Pose(40.0, 40.0, Orientation.N)
    pt = apply_vacuous_placement(netlist, "point", point=(12.0, 30.0))
    assert pt["s2"] == Pose(12.0, 30.0, Orientation.N)


def test_vacuous_point_validation():
    netlist, _, _ = _fixture()
    with pytest.raises(ValueError):
        apply_vacuous_placement(netlist, "point")
    with pytest.raises(PointOutsideCanvas):
        apply_vacuous_placement(netlist, "point", point=(41.0, 0.0))
    with pytest.raises(ValueError):
        apply_vacuous_placement(netlist, "diagonal")


def test_vacuous_placement_funnels_into_single_cluster():
    netlist, _, grid = _fixture()
    initial = apply_vacuous_placement(netlist, "lower-left")
    cnl = cluster_by_grid(netlist, initial, grid)
    assert [c.name for c in _clusters(cnl)] == ["grp_0_0"]
    assert cnl.cluster_of.tolist() == [3, 3, 3, -1, -1, -1]
    assert cnl.members.tolist() == [3]
