"""PlacementState: the array form of a placement and its one decoder."""

import math
import pickle
import random

import numpy as np
import pytest

from gen import ORIENTS, small_instance
from gridplace.cost import Evaluator
from gridplace.errors import MissingLocation, OutOfRange
from gridplace.fd import FDParams, fd_place
from gridplace.geometry import build_grid, placement_is_legal
from gridplace.netlist import (
    ORIENT_SIGNS,
    Canvas,
    Netlist,
    Node,
    NodeKind,
    Orientation,
    PlacementState,
    Pose,
)


def _reference_arrays(netlist, placement):
    """Node-order x, y, sx, sy by a per-node loop over the netlist."""
    n = len(netlist.nodes)
    x, y, sx, sy = np.full(n, np.nan), np.full(n, np.nan), np.ones(n), np.ones(n)
    for i, node in enumerate(netlist.nodes):
        pose = placement.get(node.name)
        if pose is not None:
            x[i], y[i] = pose.x, pose.y
            sx[i], sy[i] = ORIENT_SIGNS[pose.orient]
    return x, y, sx, sy


def _mixed_placement(netlist, placement, rng):
    """`placement` with some nodes left out, some names outside the netlist,
    random orientations and some integer coordinates."""
    out = {}
    for name, pose in placement.items():
        if rng.random() < 0.2:
            continue
        x, y = pose.x, pose.y
        if rng.random() < 0.3:
            x, y = int(x), int(y)
        out[name] = Pose(x, y, rng.choice(ORIENTS))
    for k in range(rng.randint(0, 3)):
        out[f"ghost{k}"] = Pose(rng.uniform(-5.0, 5.0), 1.0, rng.choice(ORIENTS))
    return out


def test_round_trip_on_random_instances():
    rng = random.Random(5)
    full = 0
    for seed in range(200):
        netlist, placement, grid = small_instance(seed)
        pl = _mixed_placement(netlist, placement, rng)
        st = PlacementState.of(netlist.arrays, pl)
        inside = {k: v for k, v in pl.items() if k in netlist.arrays.index}
        assert dict(st) == inside and st == inside and len(st) == len(inside)
        assert list(st) == [n.name for n in netlist.nodes if n.name in inside]
        for name in [*pl, *(n.name for n in netlist.nodes)]:
            assert (name in st) == (name in inside)
            assert st.get(name) == inside.get(name)
        for got, want in zip((st.x, st.y, st.sx, st.sy), _reference_arrays(netlist, pl)):
            assert np.array_equal(got, want, equal_nan=True)
        # A state of these arrays is handed over; a copy is independent.
        assert PlacementState.of(netlist.arrays, st) is st
        cp = st.copy()
        cp.x[:] = 0.0
        cp.sx[:] = -1.0
        assert dict(st) == inside
        # An unpickled state, and a state of another netlist with the same
        # nodes, decode by name.
        twin = Netlist(nodes=netlist.nodes, nets=netlist.nets, canvas=netlist.canvas)
        for other in (pickle.loads(pickle.dumps(st)), PlacementState.of(twin.arrays, pl)):
            again = PlacementState.of(netlist.arrays, other)
            assert again is not other and dict(again) == inside
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in
                       zip((again.x, again.y, again.sx, again.sy), (st.x, st.y, st.sx, st.sy)))
        ev = Evaluator(netlist, grid)
        if len(inside) < len(netlist.nodes):
            with pytest.raises(MissingLocation):
                ev.node_arrays(st)
            continue
        full += 1
        for a, b in zip(ev.node_arrays(pl), ev.node_arrays(st)):
            assert np.array_equal(a, b)
        assert ev.breakdown(pl) == ev.breakdown(st)
    assert full >= 10


def _two_macros():
    nodes = [
        Node("a", NodeKind.MACRO, 4.0, 4.0, movable=True),
        Node("b", NodeKind.MACRO, 4.0, 4.0, movable=False),
        Node("c", NodeKind.CLUSTER, 2.0, 2.0, movable=True),
    ]
    netlist = Netlist(nodes=nodes, nets=[], canvas=Canvas(20.0, 20.0))
    return netlist, build_grid(netlist.canvas, 4, 4)


def test_fd_place_returns_a_new_state():
    netlist, _ = _two_macros()
    given = {"a": Pose(3.0, 3.0, Orientation.FS), "b": Pose(15.0, 15.0, Orientation.S),
             "c": Pose(9.0, 9.0, Orientation.FN)}
    before = dict(given)
    out = fd_place(netlist, given, FDParams(num_iters=3))
    assert isinstance(out, PlacementState) and given == before
    # Clusters restart at orientation N; every other node keeps its pose.
    assert out["c"].orient is Orientation.N
    assert (out["a"], out["b"]) == (given["a"], given["b"])
    st = PlacementState.of(netlist.arrays, given)
    assert fd_place(netlist, st, FDParams(num_iters=3)) == out and dict(st) == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_rejected(bad):
    netlist, grid = _two_macros()
    ev = Evaluator(netlist, grid)
    for pl in ({"a": Pose(bad, 1.0), "b": Pose(5.0, 5.0), "c": Pose(9.0, 9.0)},
               {"a": Pose(3.0, 3.0), "b": Pose(5.0, bad), "c": Pose(9.0, 9.0)}):
        name = next(k for k, p in pl.items() if not (math.isfinite(p.x) and math.isfinite(p.y)))
        for call in (lambda: ev.breakdown(pl),
                     lambda: placement_is_legal(netlist, pl, grid),
                     lambda: fd_place(netlist, pl, FDParams(num_iters=2)),
                     lambda: PlacementState.of(netlist.arrays, pl)):
            with pytest.raises(OutOfRange, match=repr(name)):
                call()
    # Names outside the netlist are not read.
    assert dict(PlacementState.of(netlist.arrays, {"zz": Pose(math.nan, 0.0)})) == {}


def test_a_state_of_another_netlist_decodes_as_its_dict():
    # The other netlist holds some of the nodes, in another order, and one
    # of its own; the decode goes array to array.
    rng = random.Random(9)
    for seed in range(100):
        netlist, placement, _ = small_instance(seed)
        st = PlacementState.of(netlist.arrays, _mixed_placement(netlist, placement, rng))
        nodes = [n for n in netlist.nodes if rng.random() < 0.7] + [Node("own", NodeKind.MACRO, 1.0, 1.0, True)]
        rng.shuffle(nodes)
        other = Netlist(nodes=nodes, nets=[], canvas=netlist.canvas)
        got, want = PlacementState.of(other.arrays, st), PlacementState.of(other.arrays, dict(st))
        assert got.arrays is other.arrays
        for a, b in zip((got.x, got.y, got.sx, got.sy), (want.x, want.y, want.sx, want.sy)):
            assert a.tobytes() == b.tobytes()
    # A non-finite coordinate is named as the dict decode names it.
    netlist, _ = _two_macros()
    twin = Netlist(nodes=netlist.nodes[::-1], nets=[], canvas=netlist.canvas)
    st = PlacementState.of(netlist.arrays, {"a": Pose(3.0, 3.0), "b": Pose(5.0, 5.0), "c": Pose(9.0, 9.0)})
    st.y[1] = st.x[2] = math.inf
    with pytest.raises(OutOfRange, match="'b'"):
        PlacementState.of(twin.arrays, st)
    st.x[2] = math.nan   # an unplaced node is not read
    with pytest.raises(OutOfRange, match="'b'"):
        PlacementState.of(twin.arrays, st)
