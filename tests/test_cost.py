"""Proxy cost: wirelength, density, congestion, routing, pooling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridplace
import oracles
from gen import one_net_instance, small_instance, three_cell_instance
from gridplace.cost import (
    CostConfig,
    Evaluator,
    ProxyBreakdown,
    ProxyWeights,
    smooth_grid,
    top_fraction_mean,
)
from gridplace.errors import EmptyCellSet, OutOfRange
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


def _grid(w=80.0, h=80.0, cols=8, rows=8):
    return build_grid(Canvas(w, h), cols, rows)


def _netlist(nodes, nets, w=100.0, h=100.0):
    return Netlist(nodes=nodes, nets=nets, canvas=Canvas(w, h))


def _wirelength(nl, pl, grid):
    return Evaluator(nl, grid).components(pl)[0]


def _density_grid(nl, pl, grid):
    ev = Evaluator(nl, grid)
    return ev.density_grid_from_arrays(*ev.node_arrays(pl)[:2])


def _macro_congestion(nl, pl, grid, config=None):
    ev = Evaluator(nl, grid, config)
    return ev.macro_congestion_from_arrays(*ev.node_arrays(pl)[:2])


def _net_congestion(nl, pl, grid):
    ev = Evaluator(nl, grid)
    return ev.net_congestion_from_arrays(*ev.node_arrays(pl))


# ---------------------------------------------------------------------------
# Wirelength


def test_wirelength_two_pin_hand_value():
    # HPWL = 20 + 30 = 50 over canvas 100 + 100: 0.25.
    nl = _netlist(
        [Node("a", NodeKind.MACRO, 4.0, 4.0, movable=True),
         Node("b", NodeKind.MACRO, 4.0, 4.0, movable=True)],
        [Net("n", [Pin("a", 0.0, 0.0, is_source=True), Pin("b", 0.0, 0.0)])])
    pl = {"a": Pose(10.0, 10.0), "b": Pose(30.0, 40.0)}
    assert _wirelength(nl, pl, _grid()) == pytest.approx(0.25, rel=1e-12)


def test_wirelength_weight_and_mean_over_nets():
    # Weighted net counts double; mean divides by the number of nets.
    nl = _netlist(
        [Node("a", NodeKind.MACRO, 4.0, 4.0, movable=True),
         Node("b", NodeKind.MACRO, 4.0, 4.0, movable=True)],
        [Net("n1", [Pin("a", is_source=True), Pin("b")], weight=2.0),
         Net("n2", [Pin("a", is_source=True), Pin("b")], weight=1.0)])
    pl = {"a": Pose(10.0, 10.0), "b": Pose(30.0, 40.0)}
    # (2 * 50 + 1 * 50) / 200 / 2 nets
    assert _wirelength(nl, pl, _grid()) == pytest.approx(0.375, rel=1e-12)


def test_wirelength_orientation_moves_pins():
    # FN negates dx: a's pin sits at 10 + 5, b's at 30 - 5, so the x-span is
    # 10 instead of the 20 both-N would give.
    nl = _netlist(
        [Node("a", NodeKind.MACRO, 12.0, 12.0, movable=True),
         Node("b", NodeKind.MACRO, 12.0, 12.0, movable=True)],
        [Net("n", [Pin("a", 5.0, 0.0, is_source=True), Pin("b", 5.0, 0.0)])])
    mixed = {"a": Pose(10.0, 10.0), "b": Pose(30.0, 10.0, Orientation.FN)}
    both_n = {"a": Pose(10.0, 10.0), "b": Pose(30.0, 10.0)}
    assert _wirelength(nl, mixed, _grid()) == pytest.approx(10.0 / 200.0, rel=1e-12)
    assert _wirelength(nl, both_n, _grid()) == pytest.approx(20.0 / 200.0, rel=1e-12)


def test_wirelength_translation_invariant():
    nl, pl, grid = small_instance(3)
    base = _wirelength(nl, pl, grid)
    shifted = {k: Pose(p.x + 5.0, p.y + 7.0, p.orient) for k, p in pl.items()}
    assert _wirelength(nl, shifted, grid) == pytest.approx(base, rel=1e-9)


def test_wirelength_zero_nets_is_zero():
    # With no nets the wirelength term is 0.0; density and congestion still
    # come from the macro.
    nl = _netlist([Node("a", NodeKind.MACRO, 4.0, 4.0, movable=True)], [])
    pl = {"a": Pose(10.0, 10.0)}
    grid = _grid()
    wl, dens, cong = Evaluator(nl, grid).components(pl)
    assert wl == 0.0
    assert dens == pytest.approx(oracles.density(nl, pl, grid), rel=1e-12)
    assert cong == pytest.approx(oracles.congestion(nl, pl, grid), rel=1e-12)
    assert dens > 0.0 and cong > 0.0


# ---------------------------------------------------------------------------
# Density


def test_density_single_macro_covering_one_cell():
    # One 10x10 macro exactly on one cell of a 10x10 grid over 100x100:
    # top 10% of 100 cells is 10 cells, one holds ratio 1.0 -> mean 0.1.
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("a", NodeKind.MACRO, 10.0, 10.0, movable=True)],
                  [Net("n", [Pin("a", is_source=True), Pin("a")])])
    pl = {"a": Pose(15.0, 15.0)}
    assert Evaluator(nl, grid).components(pl)[1] == pytest.approx(0.1, rel=1e-12)


def test_density_grid_stacked_macros():
    # Two identical macros on the same cell push that cell's ratio to 2.0.
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("a", NodeKind.MACRO, 10.0, 10.0, movable=True),
                   Node("b", NodeKind.MACRO, 10.0, 10.0, movable=True)],
                  [Net("n", [Pin("a", is_source=True), Pin("b")])])
    pl = {"a": Pose(15.0, 15.0), "b": Pose(15.0, 15.0)}
    dg = _density_grid(nl, pl, grid)
    assert dg[1, 1] == pytest.approx(2.0, rel=1e-12)
    assert dg.sum() == pytest.approx(2.0, rel=1e-12)


def test_density_ignores_ports_and_stdcells():
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("a", NodeKind.STDCELL, 10.0, 10.0, movable=True),
                   Node("p", NodeKind.PORT, 0.0, 0.0, movable=False)],
                  [Net("n", [Pin("a", is_source=True), Pin("p")])])
    pl = {"a": Pose(15.0, 15.0), "p": Pose(0.0, 0.0)}
    assert _density_grid(nl, pl, grid).sum() == 0.0


def test_density_cluster_counts():
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("g", NodeKind.CLUSTER, 10.0, 10.0, movable=True)],
                  [Net("n", [Pin("g", is_source=True), Pin("g")])])
    pl = {"g": Pose(15.0, 15.0)}
    assert _density_grid(nl, pl, grid)[1, 1] == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Pooling


def test_top_fraction_mean_values():
    vals = np.array([float(i) for i in range(1, 11)])
    assert top_fraction_mean(vals, 0.1) == 10.0
    # ceil(0.25 * 10) = 3 -> mean(10, 9, 8) = 9.
    assert top_fraction_mean(vals, 0.25) == 9.0
    assert top_fraction_mean(np.array([4.0]), 0.05) == 4.0


def test_top_fraction_mean_empty_raises():
    with pytest.raises(EmptyCellSet):
        top_fraction_mean(np.array([]), 0.1)


def test_top_fraction_mean_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        vals = rng.uniform(0.0, 5.0, size=rng.integers(1, 60))
        frac = float(rng.choice([0.05, 0.1, 0.3, 1.0]))
        assert top_fraction_mean(vals, frac) == pytest.approx(
            oracles.top_mean(list(vals), frac), rel=1e-12)


# ---------------------------------------------------------------------------
# Smoothing


def test_smooth_radius_zero_is_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = smooth_grid(a, 0, axis=0)
    assert np.array_equal(out, a)
    assert out is not a


def test_smooth_spike_values():
    mid = np.zeros((3, 1))
    mid[1, 0] = 3.0
    assert smooth_grid(mid, 1, axis=0).ravel().tolist() == [1.0, 1.0, 1.0]
    edge = np.zeros((3, 1))
    edge[0, 0] = 3.0
    # The edge entry only reaches 2 cells, so each gets half.
    assert smooth_grid(edge, 1, axis=0).ravel().tolist() == [1.5, 1.5, 0.0]


def test_smooth_conserves_mass_and_matches_oracle():
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 3.0, size=(6, 5))
    for radius in (1, 2, 3):
        for axis in (0, 1):
            out = smooth_grid(a, radius, axis=axis)
            assert out.sum() == pytest.approx(a.sum(), rel=1e-12)
            want = oracles.smooth([list(col) for col in a], radius, axis)
            assert np.allclose(out, np.array(want), rtol=1e-12, atol=1e-15)


def test_smooth_negative_radius_raises():
    with pytest.raises(OutOfRange):
        smooth_grid(np.zeros((2, 2)), -1, axis=0)


# ---------------------------------------------------------------------------
# Routing patterns


def _route(src, sinks, weight, grid=None):
    """Raw demand (H, V) of one net with pins at the centers of the source
    cell and the sink cells, as the Evaluator routes it. The grid's
    capacities are 1, so demand / capacity is the demand itself."""
    grid = grid or build_grid(Canvas(80.0, 80.0), 8, 8, h_capacity=1.0, v_capacity=1.0)
    nl, pl = one_net_instance([src] + list(sinks), weight, grid)
    ev = Evaluator(nl, grid)
    return ev.net_congestion_from_arrays(*ev.node_arrays(pl))


def _oracle_route(src, sinks, weight, n_cols=8, n_rows=8):
    h = oracles.zeros(n_cols, n_rows)
    v = oracles.zeros(n_cols, n_rows)
    oracles.route_demand(h, v, weight, src, sorted(sinks))
    return np.array(h), np.array(v)


def test_route_two_cells_same_row():
    # (0,0) -> (2,0): crossings on the right boundaries of (0,0) and (1,0).
    h, v = _route((0, 0), [(2, 0)], 1.0)
    assert h[0, 0] == 1.0 and h[1, 0] == 1.0
    assert h.sum() == 2.0 and v.sum() == 0.0


def test_route_two_cells_l_turn():
    # Horizontal arm on the source row, vertical arm on the sink column.
    h, v = _route((0, 0), [(2, 3)], 1.0)
    assert {(c, r) for c, r in zip(*np.nonzero(h))} == {(0, 0), (1, 0)}
    assert {(c, r) for c, r in zip(*np.nonzero(v))} == {(2, 0), (2, 1), (2, 2)}


def test_route_weight_scales_demand():
    h1, v1 = _route((0, 0), [(2, 3)], 1.0)
    h2, v2 = _route((0, 0), [(2, 3)], 2.5)
    assert np.allclose(h2, 2.5 * h1) and np.allclose(v2, 2.5 * v1)


def test_route_three_cells_shared_row_and_tie_branch():
    # Source (0,0) and sink (2,0) share a row; third cell (1,2) is equidistant
    # from both ends, so it branches from the earlier one, (0,0).
    h, v = _route((0, 0), [(2, 0), (1, 2)], 1.0)
    assert h[0, 0] == 2.0 and h[1, 0] == 1.0 and h.sum() == 3.0
    assert v[1, 0] == 1.0 and v[1, 1] == 1.0 and v.sum() == 2.0


def test_route_three_cells_no_shared_line_falls_back_to_star():
    cells = [(0, 0), (3, 1), (1, 2)]
    h, v = _route(cells[0], cells[1:], 1.0)
    hs = np.zeros_like(h)
    vs = np.zeros_like(v)
    for sink in cells[1:]:
        dh, dv = _route(cells[0], [sink], 1.0)
        hs += dh
        vs += dv
    assert np.array_equal(h, hs) and np.array_equal(v, vs)


def test_route_star_is_sum_of_l_routes():
    # k > 3 distinct cells: demand equals the sum of source-anchored 2-cell
    # routes.
    src = (1, 1)
    sinks = [(0, 0), (3, 1), (1, 3), (2, 2)]
    h, v = _route(src, sinks, 1.5)
    hs = np.zeros_like(h)
    vs = np.zeros_like(v)
    for sink in sinks:
        dh, dv = _route(src, [sink], 1.5)
        hs += dh
        vs += dv
    assert np.array_equal(h, hs) and np.array_equal(v, vs)


def test_route_single_cell_no_demand():
    # Both pins in cell (3, 3): nothing to route.
    h, v = _route((3, 3), [(3, 3)], 1.0)
    assert h.sum() == 0.0 and v.sum() == 0.0
    h, v = _oracle_route((3, 3), [], 1.0)
    assert h.sum() == 0.0 and v.sum() == 0.0


def test_route_matches_oracle_walker():
    import random
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 6)
        cells = rng.sample([(c, r) for c in range(8) for r in range(8)], k)
        h, v = _route(cells[0], cells[1:], 1.0)
        ho, vo = _oracle_route(cells[0], cells[1:], 1.0)
        assert np.array_equal(h, ho)
        assert np.array_equal(v, vo)


def _three_cell_case(src, sinks):
    """(first pair sharing a line or 'star', 'row'/'col', tie, source sort position)."""
    ordered = [src] + sorted(sinks)
    rank = sorted(ordered).index(src)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b = ordered[i], ordered[j]
        t = ordered[3 - i - j]
        if a[1] == b[1] or a[0] == b[0]:
            tie = abs(t[0] - a[0]) + abs(t[1] - a[1]) == abs(t[0] - b[0]) + abs(t[1] - b[1])
            return (i, j), "row" if a[1] == b[1] else "col", tie, rank
    return "star", None, False, rank


def _net_cells(pl, grid, net):
    cells = [grid.cell_of_point(pl[p.node].x, pl[p.node].y) for p in net.pins]
    src = cells[oracles.source_index(net)]
    return src, sorted(set(cells) - {src})


@pytest.mark.parametrize("real_weights", [False, True])
def test_evaluator_three_cell_routes_match_route_net(real_weights):
    cases = set()
    for seed in range(6):
        nl, pl, grid = three_cell_instance(seed, real_weights=real_weights)
        ev = Evaluator(nl, grid)
        h, v = ev.net_congestion_from_arrays(*ev.node_arrays(pl))
        hs = np.zeros_like(h)
        vs = np.zeros_like(v)
        for net in nl.nets:
            src, sinks = _net_cells(pl, grid, net)
            if len(sinks) == 2:
                cases.add(_three_cell_case(src, sinks))
            dh, dv = _oracle_route(src, sinks, net.weight, grid.n_cols, grid.n_rows)
            hs += dh
            vs += dv
        hs /= grid.h_capacity
        vs /= grid.v_capacity
        if real_weights:
            # The running sum over +w/-w differences leaves rounding residue
            # where demand cancels to zero, so the bound scales with the grid.
            assert np.allclose(h, hs, rtol=1e-12, atol=1e-12 * np.abs(hs).max())
            assert np.allclose(v, vs, rtol=1e-12, atol=1e-12 * np.abs(vs).max())
        else:
            assert np.array_equal(h, hs) and np.array_equal(v, vs)
        got = ev.components(pl)[2]
        assert got == pytest.approx(oracles.components(nl, pl, grid)[2], rel=1e-9)
    # The instances reach every branch of the three-cell router.
    assert {c[0] for c in cases} == {(0, 1), (0, 2), (1, 2), "star"}
    assert {(c[0], c[1]) for c in cases} >= {((0, 1), "row"), ((0, 1), "col"),
                                             ((0, 2), "row"), ((0, 2), "col"),
                                             ((1, 2), "row"), ((1, 2), "col")}
    assert any(c[2] and c[1] == "row" for c in cases) and any(c[2] and c[1] == "col" for c in cases)
    assert {c[3] for c in cases} == {0, 1, 2}


# ---------------------------------------------------------------------------
# Macro congestion


def test_macro_congestion_hand_value():
    # 25x10 macro centered (20, 15) on a 10x10 grid over 100x100. It crosses
    # the vertical boundaries x = 10, 20, 30 with overlap length 10 in row 1;
    # h capacity is 10 * cell_h = 100, so each entry is 0.1. No horizontal
    # boundary falls strictly inside (10, 20), so v stays zero.
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("a", NodeKind.MACRO, 25.0, 10.0, movable=True)],
                  [Net("n", [Pin("a", is_source=True), Pin("a")])])
    pl = {"a": Pose(20.0, 15.0)}
    h, v = _macro_congestion(nl, pl, grid)
    assert h[0, 1] == pytest.approx(0.1, rel=1e-12)
    assert h[1, 1] == pytest.approx(0.1, rel=1e-12)
    assert h[2, 1] == pytest.approx(0.1, rel=1e-12)
    assert h.sum() == pytest.approx(0.3, rel=1e-12)
    assert v.sum() == 0.0


def test_macro_congestion_boundary_on_edge_excluded():
    # A macro whose edge lies exactly on a boundary does not cross it.
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("a", NodeKind.MACRO, 10.0, 10.0, movable=True)],
                  [Net("n", [Pin("a", is_source=True), Pin("a")])])
    pl = {"a": Pose(15.0, 15.0)}
    h, v = _macro_congestion(nl, pl, grid)
    assert h.sum() == 0.0 and v.sum() == 0.0


def test_macro_congestion_ignores_clusters():
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("g", NodeKind.CLUSTER, 25.0, 10.0, movable=True)],
                  [Net("n", [Pin("g", is_source=True), Pin("g")])])
    h, v = _macro_congestion(nl, {"g": Pose(20.0, 15.0)}, grid)
    assert h.sum() == 0.0 and v.sum() == 0.0


def test_macro_congestion_usage_scales():
    grid = build_grid(Canvas(100.0, 100.0), 10, 10)
    nl = _netlist([Node("a", NodeKind.MACRO, 25.0, 10.0, movable=True)],
                  [Net("n", [Pin("a", is_source=True), Pin("a")])])
    pl = {"a": Pose(20.0, 15.0)}
    h1, _ = _macro_congestion(nl, pl, grid)
    h2, _ = _macro_congestion(nl, pl, grid, config=CostConfig(macro_h_usage=2.0))
    assert np.allclose(h2, 2.0 * h1, rtol=1e-12)


# ---------------------------------------------------------------------------
# Composition


def test_congestion_surfaces_sum_entrywise():
    nl, pl, grid = small_instance(9)
    ev = Evaluator(nl, grid)
    x, y, sx, sy = ev.node_arrays(pl)
    hc, vc = ev.congestion_surfaces_from_arrays(x, y, sx, sy)
    hm, vm = ev.macro_congestion_from_arrays(x, y)
    hn, vn = ev.net_congestion_from_arrays(x, y, sx, sy)
    assert np.allclose(hc, hm + smooth_grid(hn, 2, axis=0), rtol=1e-12)
    assert np.allclose(vc, vm + smooth_grid(vn, 2, axis=1), rtol=1e-12)
    ho, vo = oracles.congestion_surfaces(nl, pl, grid)
    assert np.allclose(hc, np.array(ho), rtol=1e-9, atol=1e-15)
    assert np.allclose(vc, np.array(vo), rtol=1e-9, atol=1e-15)


def test_components_match_oracle():
    for seed in (0, 1, 2, 3, 4):
        nl, pl, grid = small_instance(seed)
        got = Evaluator(nl, grid).components(pl)
        want = oracles.components(nl, pl, grid)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9)


def test_congestion_cost_matches_oracle():
    nl, pl, grid = small_instance(21)
    got = Evaluator(nl, grid).components(pl)[2]
    assert got == pytest.approx(oracles.congestion(nl, pl, grid), rel=1e-9)


def test_net_congestion_matches_oracle():
    nl, pl, grid = small_instance(22)
    h, v = _net_congestion(nl, pl, grid)
    ho, vo = oracles.net_demand(nl, pl, grid)
    assert np.allclose(h, np.array(ho), rtol=1e-9, atol=1e-15)
    assert np.allclose(v, np.array(vo), rtol=1e-9, atol=1e-15)


def test_breakdown_combination():
    nl, pl, grid = small_instance(6)
    ev = Evaluator(nl, grid)
    wl, dens, cong = ev.components(pl)
    b = ev.breakdown(pl, ProxyWeights(0.25, 2.0))
    assert b.total == wl + 0.25 * dens + 2.0 * cong
    assert (b.wirelength, b.density, b.congestion) == (wl, dens, cong)


def test_proxy_cost_wrapper_defaults():
    # Without weights or a cost configuration, the total weighs density and
    # congestion by 0.5 each.
    nl, pl, grid = small_instance(8)
    b = Evaluator(nl, grid).breakdown(pl)
    wl, dens, cong = Evaluator(nl, grid).components(pl)
    assert b.total == wl + 0.5 * dens + 0.5 * cong


def test_proxy_weights_validation():
    with pytest.raises(OutOfRange):
        ProxyWeights(-0.1, 0.5)
    with pytest.raises(OutOfRange):
        ProxyWeights(0.5, float("nan"))
    with pytest.raises(OutOfRange):
        ProxyWeights(float("inf"), 0.5)


def test_smooth_radius_config_respected():
    nl, pl, grid = small_instance(13)
    c0 = Evaluator(nl, grid, CostConfig(smooth_radius=0)).components(pl)[2]
    want = oracles.congestion(nl, pl, grid, radius=0)
    assert c0 == pytest.approx(want, rel=1e-9)


_WIRELENGTH_SCRIPT = """
import sys
from gridplace.bookshelf import parse_aux, parse_bookshelf, read_placement
from gridplace.clustering import cluster_by_grid
from gridplace.cost import Evaluator
from gridplace.fd import FDParams, fd_place
from gridplace.geometry import build_grid

aux = sys.argv[1]
netlist = parse_bookshelf(aux)
initial = read_placement(parse_aux(aux)["pl"], netlist)
grid = build_grid(netlist.canvas, 32, 32)
cnl = cluster_by_grid(netlist, initial, grid)
evaluator = Evaluator(cnl.netlist, grid)
base = cnl.seed_placement(initial)
for placement in (base, fd_place(cnl.netlist, base, FDParams(num_iters=3, seed=0))):
    print(repr(evaluator.breakdown(placement).wirelength))
"""


def test_wirelength_independent_of_blas_threads(synth_aux):
    # The ibm01-scale design has over 10k nets: enough for OpenBLAS to split
    # a dot product over its threads, whose partial sums round by number.
    # After an FD pass the net lengths no longer sum exactly.
    env = dict(os.environ, PYTHONPATH=str(Path(gridplace.__file__).resolve().parents[1]))
    out = {}
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        out[threads] = subprocess.run([sys.executable, "-c", _WIRELENGTH_SCRIPT, str(synth_aux)],
                                      env=env, capture_output=True, text=True, check=True).stdout
    assert out["1"] == out["2"]
