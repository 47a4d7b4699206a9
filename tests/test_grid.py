"""Grid geometry, orientation transforms, and legality predicates."""

import math
import random

import numpy as np
import pytest

import oracles
from gen import legality_instance
from gridplace.errors import InvalidDimension, OutOfRange
from gridplace.geometry import MacroState, bbox_inside_canvas, build_grid, node_bbox, placement_is_legal
from gridplace.netlist import (
    Canvas,
    Net,
    Netlist,
    Node,
    NodeKind,
    Orientation,
    Pin,
    PlacementState,
    Pose,
    transform_pin_offset,
)


def _grid10():
    return build_grid(Canvas(100.0, 100.0), 10, 10)


def test_cell_centers():
    g = _grid10()
    assert g.cell_w == 10.0 and g.cell_h == 10.0 and g.n_cells == 100
    assert g.cell_center(0, 0) == (5.0, 5.0)
    assert g.cell_center(9, 9) == (95.0, 95.0)


def test_cell_center_out_of_range():
    g = _grid10()
    for col, row in ((-1, 0), (0, -1), (10, 0), (0, 10)):
        with pytest.raises(OutOfRange):
            g.cell_center(col, row)


def test_cell_of_point_boundaries():
    g = _grid10()
    assert g.cell_of_point(0.0, 0.0) == (0, 0)
    # A point on an interior boundary belongs to the cell on its right/top.
    assert g.cell_of_point(10.0, 10.0) == (1, 1)
    # Far edges and outside points clamp onto the grid.
    assert g.cell_of_point(100.0, 100.0) == (9, 9)
    assert g.cell_of_point(-5.0, 55.0) == (0, 5)
    assert g.cell_of_point(55.0, 1e9) == (5, 9)


def test_build_grid_default_capacities():
    # h capacity tracks cell height, v capacity tracks cell width.
    g = build_grid(Canvas(320.0, 64.0))
    assert g.n_cols == 32 and g.n_rows == 32
    assert g.cell_w == 10.0 and g.cell_h == 2.0
    assert g.h_capacity == 20.0
    assert g.v_capacity == 100.0


def test_build_grid_explicit_capacities():
    g = build_grid(Canvas(100.0, 100.0), 10, 10, h_capacity=7.0, v_capacity=3.0)
    assert g.h_capacity == 7.0 and g.v_capacity == 3.0


def test_build_grid_validation():
    with pytest.raises(InvalidDimension):
        build_grid(Canvas(100.0, 100.0), 0, 10)
    with pytest.raises(InvalidDimension):
        build_grid(Canvas(100.0, 100.0), 10, 10, h_capacity=-1.0)
    for cap in (math.nan, math.inf):
        with pytest.raises(InvalidDimension):
            build_grid(Canvas(100.0, 100.0), 10, 10, h_capacity=cap)
        with pytest.raises(InvalidDimension):
            build_grid(Canvas(100.0, 100.0), 10, 10, v_capacity=cap)


def test_grid_tolerance_scales_with_canvas():
    g = build_grid(Canvas(200.0, 100.0), 10, 10)
    assert g.tol == pytest.approx(1e-9 * 200.0, rel=1e-12)


def test_transform_pin_offset_table():
    cases = {
        Orientation.N: (3.0, 4.0),
        Orientation.FN: (-3.0, 4.0),
        Orientation.S: (-3.0, -4.0),
        Orientation.FS: (3.0, -4.0),
    }
    for orient, want in cases.items():
        got = transform_pin_offset(3.0, 4.0, orient)
        assert got == want
        assert abs(got[0]) == 3.0 and abs(got[1]) == 4.0  # norm preserved


def test_transform_fn_twice_is_identity():
    dx, dy = transform_pin_offset(3.0, 4.0, Orientation.FN)
    assert transform_pin_offset(dx, dy, Orientation.FN) == (3.0, 4.0)


def test_mirror_orientation_composition():
    # A mirror negates one orientation sign of a placement state, as the
    # annealer's mirror move does: sx mirrors about the y axis, sy about x.
    netlist = Netlist(nodes=[Node("a", NodeKind.MACRO, 4.0, 2.0, movable=True)], nets=[],
                      canvas=Canvas(10.0, 10.0))

    def mirror(orient, axes):
        st = PlacementState.of(netlist.arrays, {"a": Pose(5.0, 5.0, orient)})
        for axis in axes:
            signs = st.sx if axis == "x" else st.sy
            signs[0] = -signs[0]
        return st["a"].orient

    assert mirror(Orientation.N, "x") == Orientation.FN
    assert mirror(Orientation.N, "y") == Orientation.FS
    assert mirror(Orientation.FN, "x") == Orientation.N
    # x then y mirrors compose to a 180-degree turn.
    assert mirror(Orientation.N, "xy") == Orientation.S


def test_node_bbox_orientation_keeps_outline():
    node = Node("a", NodeKind.MACRO, 10.0, 20.0, movable=True)
    for orient in Orientation:
        assert node_bbox(node, Pose(50.0, 50.0, orient)) == (45.0, 40.0, 55.0, 60.0)


def test_bbox_inside_canvas_edges():
    cv = Canvas(100.0, 100.0)
    assert bbox_inside_canvas((0.0, 0.0, 100.0, 100.0), cv)
    assert not bbox_inside_canvas((-0.1, 0.0, 50.0, 50.0), cv)
    assert not bbox_inside_canvas((0.0, 0.0, 100.1, 50.0), cv)
    assert bbox_inside_canvas((-0.1, 0.0, 50.0, 50.0), cv, tol=0.2)


def test_overlap_area_cases():
    a = (0.0, 0.0, 10.0, 10.0)
    assert oracles.rect_overlap(a, (10.0, 0.0, 20.0, 10.0)) == 0.0  # touching
    assert oracles.rect_overlap(a, (5.0, 5.0, 15.0, 15.0)) == 25.0
    assert oracles.rect_overlap(a, (2.0, 2.0, 4.0, 4.0)) == 4.0  # nested
    assert oracles.rect_overlap(a, (30.0, 30.0, 40.0, 40.0)) == 0.0


def test_boxes_overlap_tolerance():
    # Two 10 x 10 macros side by side; an overlap must exceed grid.tol to
    # make the placement illegal.
    nodes = [Node("a", NodeKind.MACRO, 10.0, 10.0, movable=True),
             Node("b", NodeKind.MACRO, 10.0, 10.0, movable=True)]
    nl = Netlist(nodes=nodes, nets=[], canvas=Canvas(100.0, 100.0))
    grid = _grid10()
    for overlap, legal in ((0.0, True), (0.5 * grid.tol, True), (2.0 * grid.tol, False), (0.1, False)):
        pl = {"a": Pose(5.0, 5.0), "b": Pose(15.0 - overlap, 5.0)}
        assert placement_is_legal(nl, pl, grid) is legal, overlap


def _legality_fixture():
    nodes = [
        Node("m0", NodeKind.MACRO, 10.0, 10.0, movable=True),
        Node("m1", NodeKind.MACRO, 10.0, 10.0, movable=True),
        Node("fix", NodeKind.MACRO, 10.0, 10.0, movable=False),
        Node("p", NodeKind.PORT, 0.0, 0.0, movable=False),
    ]
    nets = [Net("n", [Pin("m0", is_source=True), Pin("m1")])]
    nl = Netlist(nodes=nodes, nets=nets, canvas=Canvas(100.0, 100.0))
    pl = {
        "m0": Pose(5.0, 5.0),
        "m1": Pose(25.0, 5.0),
        "fix": Pose(45.0, 5.0),
        "p": Pose(0.0, 0.0),
    }
    return nl, pl, _grid10()


def test_placement_is_legal():
    nl, pl, grid = _legality_fixture()
    assert placement_is_legal(nl, pl, grid)
    bad = dict(pl, m1=Pose(9.0, 5.0))  # overlaps m0
    assert not placement_is_legal(nl, bad, grid)
    out = dict(pl, m1=Pose(99.0, 5.0))  # pokes past the right edge
    assert not placement_is_legal(nl, out, grid)


def _legal_with_m1_at(cell):
    nl, pl, grid = _legality_fixture()
    return placement_is_legal(nl, dict(pl, m1=Pose(*grid.cell_center(*cell))), grid)


def test_is_legal_macro_location():
    # Empty cell: fine. Cells under m0 and under the fixed macro: not fine.
    assert _legal_with_m1_at((2, 2))
    assert not _legal_with_m1_at((0, 0))
    assert not _legal_with_m1_at((4, 0))


def test_is_legal_macro_location_edge_fit():
    # A macro exactly the size of a cell fits an edge cell: touching counts
    # as inside.
    assert _legal_with_m1_at((9, 9))


def test_is_legal_macro_location_adjacent_touching_ok():
    # m0 occupies cell (0, 0); the neighbor cell only touches it.
    assert _legal_with_m1_at((1, 0))


def test_is_legal_macro_location_oversized():
    nodes = [Node("big", NodeKind.MACRO, 150.0, 10.0, movable=True)]
    nl = Netlist(nodes=nodes, nets=[], canvas=Canvas(100.0, 100.0))
    grid = _grid10()
    assert not placement_is_legal(nl, {"big": Pose(*grid.cell_center(5, 5))}, grid)


def _touching_pairs(netlist, placement):
    """Placed macro pairs whose intervals meet exactly on one axis and
    overlap on the other."""
    boxes = [node_bbox(n, placement[n.name]) for n in netlist.nodes
             if n.kind is NodeKind.MACRO and n.name in placement]
    count = 0
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            ox = min(a[2], b[2]) - max(a[0], b[0])
            oy = min(a[3], b[3]) - max(a[1], b[1])
            count += (ox == 0.0 and oy > 0.0) or (oy == 0.0 and ox > 0.0)
    return count


def test_placement_is_legal_matches_interval_oracle():
    legal = illegal = touching = 0
    for seed in range(2000):
        nl, pl, grid = legality_instance(seed)
        got = placement_is_legal(nl, pl, grid)
        assert got == oracles.placement_is_legal(nl, pl, grid), seed
        legal += got
        illegal += not got
        touching += _touching_pairs(nl, pl) if got else 0
    # Both outcomes occur, and legal placements hold outlines that meet
    # exactly edge to edge.
    assert legal >= 100 and illegal >= 100 and touching >= 50, (legal, illegal, touching)


def _move_targets(rng, st, grid, k):
    """k centers: cell centers, points off the grid and other macros' spots."""
    p = st.placement
    spots = [(p.x[m], p.y[m]) for m in st.macros.tolist() if not math.isnan(p.x[m])]
    out = []
    for _ in range(k):
        pick = rng.random()
        if pick < 0.3 and spots:
            out.append(rng.choice(spots))
            continue
        x, y = grid.cell_center(rng.randrange(grid.n_cols), rng.randrange(grid.n_rows))
        out.append((x + rng.uniform(-5.0, 5.0), y + rng.uniform(-5.0, 5.0)) if pick > 0.8 else (x, y))
    return out


def test_try_moves_matches_interval_oracle():
    """A move of any set of movable macros is taken exactly when each moved
    macro passes the interval oracle where it lands. A rejected move leaves
    x and y bit for bit as they were, and so does the undo of a taken one."""
    rng = random.Random(0)
    taken = rejected = 0
    for seed in range(600):
        nl, pl, grid = legality_instance(seed)
        st = MacroState(nl, grid, PlacementState.of(nl.arrays, pl), require_fixed=False)
        movable = st.movable_idx.tolist()
        for _ in range(3 if movable else 0):
            ids = np.array(rng.sample(movable, rng.randint(1, len(movable))))
            xs, ys = (np.array(v) for v in zip(*_move_targets(rng, st, grid, ids.size)))
            moved = dict(pl, **{nl.arrays.names[i]: Pose(x, y) for i, x, y in zip(ids, xs, ys)})
            want = all(oracles.macro_is_legal(nl, moved, grid, nl.arrays.names[i]) for i in ids)
            before = st.placement.x.tobytes(), st.placement.y.tobytes()
            undo = st.try_moves(ids, xs, ys)
            assert (undo is not None) == want, seed
            if undo is None:
                rejected += 1
            else:
                taken += 1
                assert st.placement.x[ids].tobytes() == xs.tobytes(), seed
                assert st.placement.y[ids].tobytes() == ys.tobytes(), seed
                undo()
            assert (st.placement.x.tobytes(), st.placement.y.tobytes()) == before, seed
    assert taken >= 100 and rejected >= 100, (taken, rejected)
