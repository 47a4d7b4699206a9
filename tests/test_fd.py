"""Force-directed cluster placement."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import fixture_gen
import gridplace.fd as fd
from gridplace.bookshelf import parse_aux, parse_bookshelf, read_placement
from gridplace.clustering import cluster_by_grid, no_clustering
from gridplace.errors import DegenerateNet, MissingLocation, OutOfRange
from gridplace.fd import FDIterationInfo, FDParams, _RowSums, _star_pairs, fd_place
from gridplace.geometry import build_grid, node_bbox
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

import oracles
from gen import fd_contact_instance, fd_instance, fd_lattice_instance, fd_stacked_instance, stacked_pair


def test_decompose_star_pairs():
    # One pair from the driver to each other pin: the marked source, else the
    # first pin. A one-pin net has no pair.
    nodes = [Node(name, NodeKind.MACRO, 2.0, 2.0, movable=True) for name in "abcde"]
    nets = [Net("n", [Pin("a"), Pin("b"), Pin("c", is_source=True), Pin("d"), Pin("e")]),
            Net("n2", [Pin("d"), Pin("b")]),
            Net("n3", [Pin("a")])]
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(20.0, 20.0))
    a_idx, b_idx, _, _, _ = _star_pairs(netlist, {}, 1.0)
    assert a_idx.tolist() == [2, 2, 2, 2, 3]
    assert b_idx.tolist() == [0, 1, 3, 4, 1]
    with pytest.raises(DegenerateNet):
        Netlist(nodes=nodes, nets=[Net("n4", [])], canvas=Canvas(20.0, 20.0))


# Fixed 10 x 10 macro pairs whose repulsion runs along one axis only: x for
# rx0/rx1, y for ry0/ry1. They fix the per-axis normalisation of iteration 0
# at k_repel * f_r_max, so other nodes' normalised forces read as fractions
# of it.
_AXIS_PAIRS = [("rx0", NodeKind.MACRO, 10.0, 10.0, 10.0, 90.0),
               ("rx1", NodeKind.MACRO, 10.0, 10.0, 14.0, 90.0),
               ("ry0", NodeKind.MACRO, 10.0, 10.0, 90.0, 10.0),
               ("ry1", NodeKind.MACRO, 10.0, 10.0, 90.0, 14.0)]


def _iteration0(fixed, nets=(), **params):
    """Normalised forces of iteration 0, divided by the step length, by node
    name. `fixed` lists (name, kind, width, height, x, y) of fixed nodes on a
    100 x 100 canvas; one 2 x 2 cluster "g" starts at the canvas center."""
    nodes = [Node("g", NodeKind.CLUSTER, 2.0, 2.0, movable=True)]
    placement = {}
    for name, kind, w, h, x, y in fixed:
        nodes.append(Node(name, kind, w, h, movable=False))
        placement[name] = Pose(x, y)
    netlist = Netlist(nodes=nodes, nets=list(nets), canvas=Canvas(100.0, 100.0))
    infos = []
    fd_place(netlist, placement, FDParams(num_iters=1, **params), observer=infos.append)
    mmd = infos[0].max_move_distance
    return {n.name: (infos[0].norm_fx[i] / mmd, infos[0].norm_fy[i] / mmd)
            for i, n in enumerate(nodes)}


def test_attractive_force_magnitudes():
    # Port p sits (30, 40) below-left of the cluster at (50, 50), macro m
    # (15, 20) above-right. Each pull is k_attract * |delta| per axis toward
    # the other pin, scaled by io_factor when a port is an endpoint.
    fixed = [("p", NodeKind.PORT, 0.0, 0.0, 20.0, 10.0),
             ("m", NodeKind.MACRO, 2.0, 2.0, 65.0, 70.0),
             ("q", NodeKind.MACRO, 2.0, 2.0, 50.0, 80.0)]
    nets = [Net("n1", [Pin("g", is_source=True), Pin("p")]),
            Net("n2", [Pin("g", is_source=True), Pin("m")]),
            Net("n3", [Pin("g", is_source=True), Pin("q")])]
    for io_factor in (1.0, 0.5):
        f = _iteration0(fixed, nets, k_repel=0.0, io_factor=io_factor)
        assert f["p"][0] / f["m"][0] == pytest.approx(-2.0 * io_factor, rel=1e-12)
        assert f["p"][1] / f["m"][1] == pytest.approx(-2.0 * io_factor, rel=1e-12)
        assert f["p"][0] > 0.0 and f["p"][1] > 0.0
        # Same x as the cluster: no x pull.
        assert f["q"][0] == 0.0 and f["q"][1] < 0.0


def test_repulsive_force_zero_without_positive_overlap():
    # a and b touch along x = 11; c is apart from both. Only the axis pairs
    # overlap.
    fixed = _AXIS_PAIRS + [("a", NodeKind.MACRO, 2.0, 2.0, 10.0, 40.0),
                           ("b", NodeKind.MACRO, 2.0, 2.0, 12.0, 40.0),
                           ("c", NodeKind.MACRO, 2.0, 2.0, 30.0, 30.0)]
    f = _iteration0(fixed, k_attract=0.0)
    for name in ("a", "b", "c", "g"):
        assert f[name] == (0.0, 0.0)
    assert f["rx1"] == (1.0, 0.0) and f["ry1"] == (0.0, 1.0)


def test_repulsive_force_along_center_line():
    # s sits (3, 4) from r: each is pushed along the center line, 3/5 and 4/5
    # of k_repel * f_r_max on the two axes.
    fixed = _AXIS_PAIRS + [("r", NodeKind.MACRO, 10.0, 10.0, 30.0, 30.0),
                           ("s", NodeKind.MACRO, 10.0, 10.0, 33.0, 34.0)]
    f = _iteration0(fixed, k_attract=0.0)
    assert f["s"][0] == pytest.approx(0.6, rel=1e-12)
    assert f["s"][1] == pytest.approx(0.8, rel=1e-12)
    assert f["r"] == (-f["s"][0], -f["s"][1])


def test_repulsive_force_coincident_centers():
    # Coincident centers split along a direction drawn from the seed, one node
    # each way, with the full magnitude k_repel * f_r_max.
    fixed = _AXIS_PAIRS + [("u", NodeKind.MACRO, 4.0, 4.0, 30.0, 30.0),
                           ("w", NodeKind.MACRO, 4.0, 4.0, 30.0, 30.0)]
    seen = set()
    for seed in range(4):
        f = _iteration0(fixed, k_attract=0.0, k_repel=0.5, seed=seed)
        theta = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 2.0 * np.pi)
        assert f["u"][0] == pytest.approx(math.cos(theta), rel=1e-12)
        assert f["u"][1] == pytest.approx(math.sin(theta), rel=1e-12)
        assert f["w"] == (-f["u"][0], -f["u"][1])
        seen.add(f["u"])
    assert len(seen) == 4


def _cancel_fixture():
    nodes = [Node("c", NodeKind.CLUSTER, 8.0, 8.0, movable=True),
             Node("p", NodeKind.PORT, 0.0, 0.0, movable=False)]
    nets = [Net("n", [Pin("c", is_source=True), Pin("p")])]
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(10.0, 10.0))
    return netlist, {"p": Pose(10.0, 5.0, Orientation.N)}


def test_whole_move_cancellation():
    # One iteration, mmd = 10: the pull toward the boundary port asks the
    # 8-wide cluster to leave the canvas, so the move is dropped whole.
    netlist, placement = _cancel_fixture()
    infos = []
    out = fd_place(netlist, placement, FDParams(num_iters=1, k_repel=0.0),
                   observer=infos.append)
    assert out["c"] == Pose(5.0, 5.0, Orientation.N)
    info = infos[0]
    assert info.norm_fx[0] != 0.0
    assert info.applied_dx[0] == 0.0 and info.applied_dy[0] == 0.0


def test_zero_forces_hold_clusters_at_center():
    netlist, placement = fd_instance(11)
    out = fd_place(netlist, placement,
                   FDParams(num_iters=1, k_attract=0.0, k_repel=0.0))
    cv = netlist.canvas
    for node in netlist.nodes:
        if node.kind == NodeKind.CLUSTER:
            # Clusters restart at the canvas center regardless of input pose.
            assert out[node.name] == Pose(cv.width / 2, cv.height / 2, Orientation.N)


def test_param_validation():
    netlist, placement = fd_instance(0)
    with pytest.raises(OutOfRange):
        fd_place(netlist, placement, FDParams(num_iters=0))
    with pytest.raises(OutOfRange):
        fd_place(netlist, placement, FDParams(k_attract=-1.0))


@pytest.mark.parametrize("field, value", [
    ("num_iters", 0), ("num_iters", -3),
    ("k_attract", math.nan), ("k_attract", -1.0), ("k_repel", math.inf), ("k_repel", -0.5),
    ("io_factor", math.nan), ("io_factor", -math.inf), ("seed", -1),
    ("num_iters", 2.5), ("num_iters", "3"), ("seed", 1.5), ("seed", None),
])
def test_params_reject_values_that_cannot_run(field, value):
    # A NaN or infinite factor would make every force NaN, numpy's generator
    # takes no negative seed, and range() and the generator take integers.
    with pytest.raises(OutOfRange, match=field):
        FDParams(**{field: value})
    FDParams(**{field: 1})


def test_missing_fixed_location():
    netlist, _ = _cancel_fixture()
    with pytest.raises(MissingLocation):
        fd_place(netlist, {}, FDParams(num_iters=1))


def test_no_movable_clusters_is_noop():
    nodes = [Node("m", NodeKind.MACRO, 4.0, 4.0, movable=False),
             Node("p", NodeKind.PORT, 0.0, 0.0, movable=False)]
    netlist = Netlist(nodes=nodes, nets=[], canvas=Canvas(20.0, 20.0))
    placement = {"m": Pose(10.0, 10.0, Orientation.N), "p": Pose(0.0, 5.0, Orientation.N)}
    out = fd_place(netlist, placement, FDParams(num_iters=3))
    assert out == placement and out is not placement


def test_trajectory_invariants():
    # Every iteration: clusters inside the canvas, per-axis step within
    # max(W, H) / num_iters, and a live axis normalized to exactly that step.
    for seed in range(20):
        netlist, placement = fd_instance(seed)
        params = FDParams(num_iters=25, seed=seed)
        infos = []
        fd_place(netlist, placement, params, observer=infos.append)
        assert len(infos) == 25
        cv = netlist.canvas
        mmd = max(cv.width, cv.height) / params.num_iters
        hw = np.array([n.width / 2 for n in netlist.nodes])
        hh = np.array([n.height / 2 for n in netlist.nodes])
        mover = np.array([n.kind == NodeKind.CLUSTER and n.movable
                          for n in netlist.nodes])
        for it, info in enumerate(infos):
            assert info.iteration == it
            assert info.max_move_distance == mmd
            assert np.all(info.x[mover] - hw[mover] >= -1e-9)
            assert np.all(info.x[mover] + hw[mover] <= cv.width + 1e-9)
            assert np.all(info.y[mover] - hh[mover] >= -1e-9)
            assert np.all(info.y[mover] + hh[mover] <= cv.height + 1e-9)
            assert np.all(np.abs(info.applied_dx) <= mmd + 1e-9)
            assert np.all(np.abs(info.applied_dy) <= mmd + 1e-9)
            if np.any(info.norm_fx != 0.0):
                assert abs(np.max(np.abs(info.norm_fx)) - mmd) <= 1e-9
            if np.any(info.norm_fy != 0.0):
                assert abs(np.max(np.abs(info.norm_fy)) - mmd) <= 1e-9


def test_fixed_nodes_never_move():
    for seed in (3, 4, 5):
        netlist, placement = fd_instance(seed)
        out = fd_place(netlist, placement, FDParams(num_iters=15, seed=seed))
        for node in netlist.nodes:
            if node.kind != NodeKind.CLUSTER:
                assert out[node.name] == placement[node.name]


def test_determinism_and_seed_sensitivity():
    netlist, placement = stacked_pair(2)
    params = FDParams(num_iters=20, seed=9)
    a = fd_place(netlist, placement, params)
    b = fd_place(netlist, placement, params)
    assert a == b
    # Coincident centers take their split direction from the seed. The
    # per-axis normalization keeps only the direction's quadrant, so distinct
    # outcomes show up across a batch of seeds rather than every pair.
    outcomes = {tuple(fd_place(netlist, placement, replace(params, seed=s)).items())
                for s in range(8)}
    assert len(outcomes) > 1


def test_repulsive_only_matches_zero_attraction():
    # With zero attraction the nets exert nothing: the run equals the run on
    # the same nodes without nets.
    netlist, placement = fd_instance(6)
    assert netlist.nets
    params = FDParams(num_iters=12, seed=6, k_attract=0.0)
    no_nets = Netlist(nodes=netlist.nodes, nets=[], canvas=netlist.canvas)
    assert fd_place(netlist, placement, params) == fd_place(no_nets, placement, params)


def test_repulsion_separates_stacked_clusters():
    for seed in range(5):
        netlist, placement = stacked_pair(seed)
        g0, g1 = netlist.nodes
        center = Pose(netlist.canvas.width / 2, netlist.canvas.height / 2, Orientation.N)
        before = oracles.rect_overlap(node_bbox(g0, center), node_bbox(g1, center))
        out = fd_place(netlist, placement, FDParams(num_iters=40, seed=seed, k_attract=0.0))
        after = oracles.rect_overlap(node_bbox(g0, out["g0"]), node_bbox(g1, out["g1"]))
        assert before > 0.0
        assert after < before


# ---------------------------------------------------------------------------
# Bit-identity with the dense all-pairs definition in tests/oracles.py


def _assert_matches_dense(netlist, placement, params):
    """fd_place and oracles.fd_place_dense agree exactly: the returned
    placements and every field of every iteration snapshot."""
    got, want = [], []
    out = fd_place(netlist, placement, params, observer=got.append)
    ref = oracles.fd_place_dense(netlist, placement, params, observer=want.append)
    assert out == ref
    assert len(got) == len(want) == params.num_iters
    for a, b in zip(got, want):
        for f in fields(FDIterationInfo):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), (a.iteration, f.name)
    return got


def _contact_counts(netlist, placement, infos):
    """Per iteration, the dense predicate's coincident overlapping pairs and
    exact edge touches (overlap 0 on one axis, positive on the other), over
    the centers each iteration starts from."""
    cv = netlist.canvas
    mover = np.array([n.kind == NodeKind.CLUSTER for n in netlist.nodes])
    hw = np.array([n.width / 2 for n in netlist.nodes])
    hh = np.array([n.height / 2 for n in netlist.nodes])
    x = np.array([cv.width / 2 if m else placement[n.name].x
                  for n, m in zip(netlist.nodes, mover)])
    y = np.array([cv.height / 2 if m else placement[n.name].y
                  for n, m in zip(netlist.nodes, mover)])
    port = np.array([n.kind == NodeKind.PORT for n in netlist.nodes])
    counts = []
    for info in infos:
        dx = x[None, :] - x[:, None]
        dy = y[None, :] - y[:, None]
        ox = (hw[:, None] + hw[None, :]) - np.abs(dx)
        oy = (hh[:, None] + hh[None, :]) - np.abs(dy)
        upper = np.triu(np.ones(ox.shape, dtype=bool), k=1)
        coincident = upper & (ox > 0) & (oy > 0) & (dx == 0) & (dy == 0)
        touch = upper & (((ox == 0) & (oy > 0)) | ((oy == 0) & (ox > 0)))
        with_port = coincident & (port[:, None] | port[None, :])
        counts.append((int(coincident.sum()), int(with_port.sum()), int(touch.sum())))
        x, y = info.x, info.y
    return counts


def test_star_pairs_match_per_pin_loop():
    cases = [fd_contact_instance(s) for s in range(3)] + [fd_instance(s) for s in range(20)]
    cases.append(stacked_pair(0))
    for netlist, placement in cases:
        node_idx = {n.name: i for i, n in enumerate(netlist.nodes)}
        for io_factor in (1.0, 0.25):
            got = _star_pairs(netlist, placement, io_factor)
            want = oracles.star_pairs(netlist, placement, node_idx, io_factor)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)
    # No nets: float offsets and scales, so the attraction sums stay float.
    _, _, a_off, b_off, scale = _star_pairs(*stacked_pair(0), 1.0)
    assert a_off.dtype == b_off.dtype == scale.dtype == np.float64


def test_fd_matches_dense_on_contact_instances():
    touched = drawn = drawn_with_port = 0
    for seed in range(4):
        netlist, placement = fd_contact_instance(seed)
        assert 100 <= sum(n.kind == NodeKind.CLUSTER for n in netlist.nodes) <= 300
        params = FDParams(num_iters=40, seed=seed)
        infos = _assert_matches_dense(netlist, placement, params)
        counts = _contact_counts(netlist, placement, infos)
        drawn += sum(c[0] for c in counts)
        drawn_with_port += sum(c[1] for c in counts)
        touched += sum(c[2] for c in counts)
        # Zeroed forces on one side, and no nets at all.
        for p in (replace(params, k_attract=0.0), replace(params, k_repel=0.0)):
            _assert_matches_dense(netlist, placement, replace(p, num_iters=15))
        no_nets = Netlist(nodes=netlist.nodes, nets=[], canvas=netlist.canvas)
        _assert_matches_dense(no_nets, placement, replace(params, num_iters=15))
    # The instances exercise the boundary cases: random draws for coincident
    # centers (also against ports) and outlines that touch exactly.
    assert drawn > 0 and drawn_with_port > 0 and touched > 0


def test_fd_matches_dense_on_random_instances():
    for seed in range(100):
        netlist, placement = fd_instance(seed)
        params = FDParams(num_iters=25, seed=seed)
        _assert_matches_dense(netlist, placement, params)
        if seed < 20:
            _assert_matches_dense(netlist, placement, replace(params, k_attract=0.0))
            _assert_matches_dense(netlist, placement, replace(params, k_repel=0.0))
    for seed in range(50):
        _assert_matches_dense(*stacked_pair(seed), FDParams(num_iters=20, seed=seed))


def _stacked_start_cases(netlist, placement):
    """Which of iteration 0's boundary cases the instance has: a fixed node
    at the center, a zero-width or zero-height cluster, a single cluster,
    coincident pairs outside the stack of clusters, and among them pairs
    whose squared distance underflows to 0."""
    cv = netlist.canvas
    cx, cy = cv.width / 2, cv.height / 2
    cluster = np.array([n.kind == NodeKind.CLUSTER for n in netlist.nodes])
    hw = np.array([n.width / 2 for n in netlist.nodes])
    hh = np.array([n.height / 2 for n in netlist.nodes])
    x = np.array([cx if c else placement[n.name].x for n, c in zip(netlist.nodes, cluster)])
    y = np.array([cy if c else placement[n.name].y for n, c in zip(netlist.nodes, cluster)])
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    overlap = ((hw[:, None] + hw[None, :]) - np.abs(dx) > 0) & ((hh[:, None] + hh[None, :]) - np.abs(dy) > 0)
    drawn = np.triu(overlap & (dx * dx + dy * dy == 0.0), k=1)
    stack = (x == cx) & (y == cy) & (hw > 0) & (hh > 0)
    other = drawn & ~(stack[:, None] & stack[None, :])
    return {
        "fixed at center": bool(np.any(~cluster & (x == cx) & (y == cy))),
        "zero-size cluster": bool(np.any(cluster & ((hw == 0) | (hh == 0)))),
        "single cluster": int(cluster.sum()) == 1,
        "other draws": bool(other.any()),
        "underflow draws": bool(np.any(other & ((dx != 0) | (dy != 0)))),
    }


def test_fd_matches_dense_from_the_stacked_start():
    # Iteration 0 builds the stacked clusters' pairs directly; every other
    # coincident pair, such as a fixed pair sharing a center or a node whose
    # distance to the stack underflows, merges into the draws' row-major order.
    seen = dict.fromkeys(_stacked_start_cases(*fd_stacked_instance(0)), 0)
    for seed in range(200):
        netlist, placement = fd_stacked_instance(seed)
        for case, present in _stacked_start_cases(netlist, placement).items():
            seen[case] += present
        params = FDParams(num_iters=4, seed=seed)
        _assert_matches_dense(netlist, placement, params)
        if seed % 4 == 0:
            _assert_matches_dense(netlist, placement, replace(params, k_repel=0.0))
            _assert_matches_dense(netlist, placement, replace(params, k_attract=0.0))
    assert min(seen.values()) >= 10, seen


def test_fd_matches_dense_at_full_scale(synth_aux):
    # The ibm01-scale design: about 1,500 nodes, 1,024 clusters stacked at
    # the center, so the first iterations draw for about half a million pairs.
    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    cnl = cluster_by_grid(netlist, initial, build_grid(netlist.canvas, 32, 32))
    _assert_matches_dense(cnl.netlist, cnl.seed_placement(initial), FDParams(num_iters=6, seed=7))



def test_fd_matches_dense_through_the_crowded_iterations(synth_aux):
    # Iteration 0 splits the clusters stacked at the center; iteration 1 then
    # sums the repulsion of about 520k separated pairs.
    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    cnl = cluster_by_grid(netlist, initial, build_grid(netlist.canvas, 32, 32))
    _assert_matches_dense(cnl.netlist, cnl.seed_placement(initial), FDParams(num_iters=30, seed=7))


# ---------------------------------------------------------------------------
# Repulsion in bounded blocks


@pytest.fixture
def small_blocks(monkeypatch):
    """Sets a block cap so small, and no draw budget, that the passes take
    several blocks and the stacked start draws its pairs again; returns the
    block counts of the row passes and of the draw passes seen."""
    seen = {"rows": [], "draws": []}
    blocks = fd._blocks

    def counted(cost, size):
        bounds = blocks(cost, size)
        seen["rows" if size == fd._BLOCK_ENTRIES else "draws"].append(bounds.size - 1)
        return bounds

    def set_cap(cap):
        monkeypatch.setattr(fd, "_BLOCK_ENTRIES", cap)
        monkeypatch.setattr(fd, "_DRAW_BYTES", 0)
        monkeypatch.setattr(fd, "_blocks", counted)
        return seen
    return set_cap


@pytest.mark.parametrize("check, cap", [
    (lambda aux: test_fd_matches_dense_on_contact_instances(), 64),
    (lambda aux: test_fd_matches_dense_on_random_instances(), 16),
    (lambda aux: test_fd_matches_dense_from_the_stacked_start(), 16),
    (test_fd_matches_dense_at_full_scale, 4096),
    (test_fd_matches_dense_through_the_crowded_iterations, 4096),
], ids=["contact", "random", "stacked start", "full scale", "crowded"])
def test_fd_matches_dense_in_small_blocks(synth_aux, small_blocks, check, cap):
    seen = small_blocks(cap)
    check(synth_aux)
    assert max(seen["rows"]) > 1 and max(seen["draws"]) > 1


def test_blocked_draws_match_one_uniform_call(monkeypatch):
    # A stack and other coincident pairs, some in the stack's rows, merge
    # into one row-major draw order; blocked, kept or replayed draws must add
    # the values of one uniform call in the dense order and leave the
    # generator where that call leaves it.
    rng = np.random.default_rng(3)
    n, mag = 60, 1.7
    stack = np.sort(rng.choice(n, 30, replace=False))
    i, j = np.triu_indices(n, 1)
    other = ~(np.isin(i, stack) & np.isin(j, stack))
    drawn = np.sort(rng.choice((i * n + j)[other], 40, replace=False))
    ii, jj = np.divmod(np.sort(np.concatenate((drawn, (i * n + j)[~other]))), n)
    ref = np.random.Generator(np.random.PCG64(11))
    theta = ref.uniform(0.0, 2.0 * np.pi, size=ii.size)
    start = rng.normal(size=(2, n))
    want = start.copy()
    for f, turn in zip(want, (np.cos, np.sin)):
        np.add.at(f, ii, mag * turn(theta))
        np.add.at(f, jj, -(mag * turn(theta)))
    for cap, budget in ((fd._BLOCK_ENTRIES, fd._DRAW_BYTES), (64, fd._DRAW_BYTES), (64, 0)):
        monkeypatch.setattr(fd, "_BLOCK_ENTRIES", cap)
        monkeypatch.setattr(fd, "_DRAW_BYTES", budget)
        gen = np.random.Generator(np.random.PCG64(11))
        got = fd._add_draws(start.copy(), stack, drawn, mag, gen)
        assert np.array_equal(got, want), (cap, budget)
        assert gen.bit_generator.state == ref.bit_generator.state, (cap, budget)


def test_replayed_draws_leave_the_generator_for_later_iterations(small_blocks):
    # Two fixed macros share a center, so every iteration draws for them
    # after the stacked start has drawn, and replayed, its own pairs.
    nodes = [Node(f"g{i}", NodeKind.CLUSTER, 3.0, 2.0, movable=True) for i in range(40)]
    nodes += [Node("m0", NodeKind.MACRO, 8.0, 8.0, movable=False),
              Node("m1", NodeKind.MACRO, 5.0, 9.0, movable=False)]
    placement = {"m0": Pose(20.0, 30.0), "m1": Pose(20.0, 30.0)}
    netlist = Netlist(nodes=nodes, nets=[], canvas=Canvas(100.0, 80.0))
    seen = small_blocks(64)
    infos = _assert_matches_dense(netlist, placement, FDParams(num_iters=6, seed=2))
    assert max(seen["draws"]) > 1
    assert all(c[0] >= 1 for c in _contact_counts(netlist, placement, infos))


@pytest.mark.parametrize("cells", [2000, 4000])
def test_fd_memory_does_not_grow_with_the_stack(tmp_path, monkeypatch, cells):
    # Without clustering every cell starts in one stack at the center:
    # about 2 M and 8 M coincident pairs. Their draws and the later
    # iterations' pairs run in blocks, so one bound holds for both.
    monkeypatch.setattr(fixture_gen, "N_STDCELLS", cells)
    aux = fixture_gen.write_synthetic_design(tmp_path)
    netlist = parse_bookshelf(aux)
    initial = read_placement(parse_aux(aux)["pl"], netlist)
    cnl = no_clustering(netlist, initial, build_grid(netlist.canvas, 32, 32))
    base = cnl.seed_placement(initial)
    cnl.netlist.arrays
    tracemalloc.start()
    try:
        fd_place(cnl.netlist, base, FDParams(num_iters=3, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


# ---------------------------------------------------------------------------
# Exact row sums without a dense buffer


def _sparse_matrix(rng, n_rows, n_cols):
    """Entries of an (n_rows, n_cols) matrix in shuffled order: row 0 empty,
    row 1 full, the rest of random density; magnitudes from 1e-8 to 1e8 of
    either sign, and some entries +0.0 or -0.0."""
    present = rng.random((n_rows, n_cols)) < rng.random((n_rows, 1))
    present[0] = False
    present[1] = True
    rows, cols = np.nonzero(present)
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-8.0, 8.0, rows.size)
    zero = rng.random(rows.size) < 0.05
    vals[zero] = np.copysign(0.0, vals[zero])
    return rows, cols, vals


def _dense_row_sums(n_rows, n_cols, rows, cols, vals):
    m = np.zeros((n_rows, n_cols))
    m[rows, cols] = vals
    return m.sum(axis=1)


def test_row_sums_match_dense_rows():
    # Leaves shorter than 8 (n < 8), leaves with a tail, and trees of one to
    # sixteen leaves (n = 1,526, the benchmark designs' node count).
    rng = np.random.default_rng(0)
    for n in list(range(1, 301)) + [1526]:
        n_rows = 40 if n == 1526 else 5
        rows, cols, vals = _sparse_matrix(rng, n_rows, n)
        sums = _RowSums(n)(n_rows, rows, cols)
        # One entry layout serves several value vectors, as x and y in FD.
        for v in (vals, -vals[::-1].copy()):
            got = sums(v)
            want = _dense_row_sums(n_rows, n, rows, cols, v)
            assert np.array_equal(got, want), n
            assert np.array_equal(np.signbit(got), np.signbit(want)), n


def test_row_sums_follow_the_dense_order():
    # The same values summed in column order would round differently: the
    # test above checks the order, not just the total.
    rng = np.random.default_rng(1)
    rows, cols, vals = _sparse_matrix(rng, 40, 1526)
    want = _dense_row_sums(40, 1526, rows, cols, vals)
    order = np.lexsort((cols, rows))
    in_order = np.bincount(rows[order], vals[order], 40)
    assert not np.array_equal(in_order, want)
    assert np.array_equal(_RowSums(1526)(40, rows, cols)(vals), want)


def test_fd_allocates_no_dense_buffer():
    # About 3,100 nodes: one n x n float64 buffer would take 77 MB.
    netlist, placement = fd_lattice_instance(0)
    n = len(netlist.nodes)
    netlist.arrays   # built once per netlist, outside the measured call
    tracemalloc.start()
    try:
        fd_place(netlist, placement, FDParams(num_iters=5, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
