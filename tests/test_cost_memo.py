"""The Evaluator's memo: re-scoring only what a change moved gives the
components of a fresh Evaluator, bit for bit, and density and macro
congestion equal the dense oracle's grids bit for bit."""

import random

import numpy as np
import pytest

import gridplace.cost as cost
import oracles
from gen import (
    edge_coordinate,
    fd_instance,
    raster_instance,
    shuffle_instance,
    small_instance,
    three_cell_instance,
)
from gridplace import (
    ACTIONS,
    Evaluator,
    FDParams,
    SAConfig,
    anneal,
    build_grid,
    cluster_by_grid,
    fd_place,
    no_clustering,
    parse_aux,
    parse_bookshelf,
    read_placement,
    shuffle_same_size,
)
from gridplace.netlist import Canvas, Netlist, Node, NodeKind, PlacementState, Pose
from test_acceptance import _sa_instance


@pytest.fixture(params=["measured", "always"])
def memo_share(request, monkeypatch):
    """The default full-pass threshold, and one that never forces a full pass,
    so that the memo path runs on small instances too."""
    if request.param == "always":
        monkeypatch.setattr(cost, "MEMO_PIN_SHARE", 1.0)
    return request.param


@pytest.fixture
def routes(monkeypatch):
    """Records the `nets` argument of every routing call: None for all nets,
    else the number of nets routed."""
    seen = []
    original = Evaluator._route

    def spy(self, x, y, sx, sy, nets=slice(None), store=False):
        seen.append(None if isinstance(nets, slice) else len(nets))
        return original(self, x, y, sx, sy, nets, store)
    monkeypatch.setattr(Evaluator, "_route", spy)
    return seen


def _same(a, b) -> bool:
    """Equal dtype, shape and bytes: bit for bit, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def grid_checks(monkeypatch):
    """Checks every density and macro-congestion grid an Evaluator returns
    against a fresh Evaluator's and the dense oracle's, the horizontal and
    the vertical surface each on its own, and the route store after every
    net congestion call of a `components` call against the one a fresh
    Evaluator's full pass builds, all bit for bit. Counts the grids
    checked."""
    checked = {"density": 0, "macro": 0, "net": 0}
    density = Evaluator.density_grid_from_arrays
    macro = Evaluator.macro_congestion_from_arrays
    net = Evaluator.net_congestion_from_arrays

    def fresh(ev):
        return Evaluator(ev.netlist, ev.grid, ev.config)

    def check_density(self, x, y, step=None):
        got = density(self, x, y, step)
        assert _same(got, density(fresh(self), x, y))
        assert _same(got, oracles.density_grid_dense(self.netlist, self.grid, x, y))
        checked["density"] += 1
        return got

    def check_macro(self, x, y, step=None):
        got = macro(self, x, y, step)
        c = self.config
        dense = oracles.macro_congestion_dense(self.netlist, self.grid, x, y, c.macro_h_usage, c.macro_v_usage)
        for want in (macro(fresh(self), x, y), dense):
            assert _same(got[0], want[0]) and _same(got[1], want[1])
        checked["macro"] += 1
        return got

    def check_net(self, x, y, sx, sy, step=None):
        got = net(self, x, y, sx, sy, step)
        other = fresh(self)
        want = net(other, x, y, sx, sy, other._step((x, y, sx, sy)))
        assert _same(got[0], want[0]) and _same(got[1], want[1])
        if step is not None:
            assert _same(self._routes, other._routes)
        checked["net"] += 1
        return got
    monkeypatch.setattr(Evaluator, "density_grid_from_arrays", check_density)
    monkeypatch.setattr(Evaluator, "macro_congestion_from_arrays", check_macro)
    monkeypatch.setattr(Evaluator, "net_congestion_from_arrays", check_net)
    return checked


def _history(netlist, placement, grid, seed, steps, config=None):
    """Score a random sequence of edits with one Evaluator and compare each
    result with a fresh Evaluator's. The edits: moves to cell centers, moves
    onto cell or canvas edges or past them, swaps, mirrors and undos in
    place on one state, as the annealer makes them; FD passes or all-node
    moves; same-size shuffles; dict placements."""
    rng = random.Random(seed)
    ev = Evaluator(netlist, grid, config)
    a = netlist.arrays
    st = PlacementState.of(a, placement).copy()
    n = st.x.size
    has_clusters = bool((a.is_cluster & a.movable).any())
    prev = st.copy()
    for _ in range(steps):
        op = rng.choice(("move", "move", "edge", "swap", "mirror", "mirror", "undo", "all",
                         "shuffle", "dict", "aside"))
        scored = st
        if op != "undo":
            prev = st.copy()
        if op == "move":
            for i in rng.sample(range(n), min(n, rng.choice((1, 1, 2, 3)))):
                col, row = rng.randrange(grid.n_cols), rng.randrange(grid.n_rows)
                st.x[i], st.y[i] = grid.cell_center(col, row)
        elif op == "edge":
            i = rng.randrange(n)
            st.x[i] = edge_coordinate(rng, grid.cell_w, grid.n_cols, a.half_w[i])
            st.y[i] = edge_coordinate(rng, grid.cell_h, grid.n_rows, a.half_h[i])
        elif op == "swap" and n >= 2:
            i, j = rng.sample(range(n), 2)
            st.x[[i, j]], st.y[[i, j]] = st.x[[j, i]], st.y[[j, i]]
        elif op == "mirror":
            signs = st.sx if rng.random() < 0.5 else st.sy
            i = rng.randrange(n)
            signs[i] = -signs[i]
        elif op == "undo":
            for mine, old in ((st.x, prev.x), (st.y, prev.y), (st.sx, prev.sx), (st.sy, prev.sy)):
                mine[:] = old
        elif op == "all":
            if has_clusters:
                st = fd_place(netlist, st, FDParams(num_iters=2, seed=seed))
            else:
                st.x += rng.uniform(-1.0, 1.0) * grid.cell_w
                st.y += rng.uniform(-1.0, 1.0) * grid.cell_h
            scored = st
        elif op == "shuffle":
            scored = shuffle_same_size(netlist, st, rng.randrange(1 << 30))
            st = PlacementState.of(a, scored).copy()
        elif op == "dict":
            scored = dict(st)
        elif op == "aside":
            # One component alone scores other arrays between two `components`
            # calls: a full pass that leaves the memo and the route store alone.
            other = st.copy()
            i = rng.randrange(n)
            other.x[i], other.sy[i] = rng.uniform(0.0, grid.canvas.width), -other.sy[i]
            name = rng.choice(("wirelength", "density_grid", "macro_congestion", "net_congestion"))
            args = (other.x, other.y) if "grid" in name or "macro" in name else (other.x, other.y, other.sx, other.sy)
            memo, routes = ev._memo, None if ev._routes is None else ev._routes.copy()
            got = getattr(ev, f"{name}_from_arrays")(*args)
            want = getattr(Evaluator(netlist, grid, config), f"{name}_from_arrays")(*args)
            assert _same(np.asarray(got), np.asarray(want)), name
            assert ev._memo is memo
            assert (routes is None and ev._routes is None) or _same(ev._routes, routes)
        got = ev.components(scored)
        want = Evaluator(netlist, grid, config).components(scored)
        assert got == want, (op, got, want)


def test_memo_history_small_instances(memo_share, grid_checks):
    for seed in range(60):
        netlist, placement, grid = small_instance(seed)
        _history(netlist, placement, grid, seed, steps=25)
    assert grid_checks["density"] >= 60 * 25


def test_memo_history_fd_and_shuffle_instances(memo_share, grid_checks):
    for seed in range(20):
        netlist, placement = fd_instance(seed)
        grid = build_grid(netlist.canvas, 6, 6)
        _history(netlist, placement, grid, seed, steps=20)
        netlist, placement, grid = shuffle_instance(seed)
        _history(netlist, placement, grid, seed, steps=20)


def test_memo_history_three_cell_instances(memo_share, routes, grid_checks):
    for seed in range(12):
        netlist, placement, grid = three_cell_instance(seed)
        _history(netlist, placement, grid, seed, steps=30)
    assert any(k for k in routes if k is not None), "no evaluation took the memo path"


def test_memo_real_weights_take_the_full_path(memo_share, routes, grid_checks):
    for seed in range(12):
        netlist, placement, grid = three_cell_instance(seed, real_weights=True)
        _history(netlist, placement, grid, seed, steps=30)
    assert routes and all(k is None for k in routes)


def test_memo_history_raster_instances(memo_share, routes, grid_checks):
    """Outlines on cell edges and on the canvas edge, zero-width or
    zero-height nodes, nodes partly or wholly off the canvas, and each
    macro-congestion surface scaled on its own."""
    cases = dict.fromkeys(("on a cell edge", "zero width or height", "partly off", "wholly off"), 0)
    for seed in range(150):
        netlist, placement, grid, config = raster_instance(seed)
        a = netlist.arrays
        st = PlacementState.of(a, placement)
        x1, x2 = st.x - a.half_w, st.x + a.half_w
        edges = np.arange(grid.n_cols + 1) * grid.cell_w
        area = a.is_macro | a.is_cluster
        cases["on a cell edge"] += bool((area & (np.isin(x1, edges) | np.isin(x2, edges))).any())
        cases["zero width or height"] += bool((area & ((a.half_w == 0) | (a.half_h == 0))).any())
        cases["partly off"] += bool((area & (x1 < 0) & (x2 > 0)).any())
        cases["wholly off"] += bool((area & (x1 > grid.canvas.width)).any())
        _history(netlist, placement, grid, seed, steps=20, config=config)
    assert min(cases.values()) >= 10, cases
    assert grid_checks["macro"] >= 150 * 20
    assert any(k for k in routes if k is not None), "no evaluation took the memo path"


def test_memo_history_ibm01_scale(synth_aux, routes, grid_checks):
    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    grid = build_grid(netlist.canvas, 32, 32)
    cnl = cluster_by_grid(netlist, initial, grid)
    _history(cnl.netlist, cnl.seed_placement(initial), grid, 3, steps=30)
    assert any(k for k in routes if k is not None), "no evaluation took the memo path"


def _checked_components(monkeypatch):
    """Checks every `components` result against a fresh Evaluator's."""
    original = Evaluator.components
    calls = []

    def checked(self, placement):
        got = original(self, placement)
        want = original(Evaluator(self.netlist, self.grid, self.config), placement)
        assert got == want
        calls.append(got)
        return got
    monkeypatch.setattr(Evaluator, "components", checked)
    return calls


def _checked_anneal(monkeypatch, offset, cluster):
    """Criterion 06's anneal, with every evaluation checked against a fresh
    Evaluator of the same placement: all five actions, rejected candidates
    undone, and with clusters an FD pass every three macro actions."""
    calls = _checked_components(monkeypatch)
    cnl, fixed = _sa_instance(offset, cluster)
    cfg = SAConfig(seed=11, max_steps=150, t_init=1.0, fd_params=FDParams(num_iters=5),
                   fd_interval_multiplier=1)
    result = anneal(cnl, fixed, cfg)
    assert len(calls) > 100
    assert all(result.actions_taken[a] > 0 for a in ACTIONS)


@pytest.mark.parametrize("offset", [0.0, 3.0])
def test_annealer_memo_matches_fresh_evaluator(memo_share, monkeypatch, grid_checks, offset):
    _checked_anneal(monkeypatch, offset, cluster_by_grid)


@pytest.mark.parametrize("offset", [0.0, 3.0])
def test_annealer_memo_without_clusters(memo_share, monkeypatch, grid_checks, offset):
    _checked_anneal(monkeypatch, offset, no_clustering)


@pytest.mark.parametrize("cluster", [cluster_by_grid, no_clustering])
def test_annealer_memo_ibm01_scale(synth_aux, monkeypatch, grid_checks, routes, cluster):
    calls = _checked_components(monkeypatch)
    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    cnl = cluster(netlist, initial, build_grid(netlist.canvas, 32, 32))
    fixed = {n: initial[n] for n, movable in zip(netlist.arrays.names, netlist.arrays.movable) if not movable}
    cfg = SAConfig(seed=5, max_steps=25, probe_count=3, fd_params=FDParams(num_iters=3),
                   fd_interval_multiplier=1)
    anneal(cnl, fixed, cfg)
    assert len(calls) > 20
    assert any(k for k in routes if k is not None), "no evaluation took the memo path"


def test_memo_copies_its_inputs_and_results():
    """Writing into returned grids, or into the scored arrays after a call,
    leaves the memo alone."""
    netlist, placement, grid = small_instance(4)
    ev = Evaluator(netlist, grid)
    st = PlacementState.of(netlist.arrays, placement).copy()
    first = ev.components(st)
    ev.density_grid_from_arrays(st.x, st.y)[:] = 7.0
    for g in ev.macro_congestion_from_arrays(st.x, st.y):
        g[:] = 7.0
    assert ev.components(st) == first
    x0 = st.x[0]
    st.x[0] = grid.canvas.width - x0
    assert ev.components(st) == Evaluator(netlist, grid).components(st)
    st.x[0] = x0
    assert ev.components(st) == first


def test_a_call_that_raises_leaves_no_memo(monkeypatch):
    """A `components` call that raises after its components ran, and wrote
    the route store, leaves no memo, so the next call makes a full pass."""
    monkeypatch.setattr(cost, "MEMO_PIN_SHARE", 1.0)
    smooth = cost.smooth_grid

    def fail(*args, **kwargs):
        raise RuntimeError("injected")
    for seed in range(10):
        netlist, placement, grid = three_cell_instance(seed)
        rng = random.Random(seed)
        ev = Evaluator(netlist, grid)
        st = PlacementState.of(netlist.arrays, placement).copy()
        ev.components(st)
        for i in rng.sample(range(st.x.size), 2):
            st.x[i], st.y[i] = grid.cell_center(rng.randrange(grid.n_cols), rng.randrange(grid.n_rows))
        monkeypatch.setattr(cost, "smooth_grid", fail)
        with pytest.raises(RuntimeError, match="injected"):
            ev.components(st)
        assert ev._memo is None
        monkeypatch.setattr(cost, "smooth_grid", smooth)
        assert ev.components(st) == Evaluator(netlist, grid).components(st)


def test_memo_counts_a_signed_zero_as_a_move(monkeypatch):
    """The one comparison of a `components` call finds the node and its nets."""
    monkeypatch.setattr(cost, "MEMO_PIN_SHARE", 1.0)
    netlist, placement, grid = small_instance(1)
    ev = Evaluator(netlist, grid)
    st = PlacementState.of(netlist.arrays, placement).copy()
    st.x[0] = 0.0
    ev.components(st)
    st.x[0] = -0.0
    step = ev._step((st.x, st.y, st.sx, st.sy))
    assert list(step.moved) == [0]
    a = netlist.arrays
    assert list(step.nets) == sorted(set(a.net_of_pin[a.pin_owner == 0].tolist()))


def test_fine_grid_memory_grows_with_cells_and_overlaps():
    """On a 100,000-column grid, density and macro congestion allocate in
    proportion to the cells plus the (node, cell) overlaps, where the dense
    form held nodes x columns."""
    import tracemalloc
    rng = random.Random(5)
    nodes = [Node(f"n{i}", rng.choice((NodeKind.MACRO, NodeKind.CLUSTER)), rng.uniform(0.0, 2.0),
                  rng.uniform(0.0, 80.0), movable=True) for i in range(60)]
    netlist = Netlist(nodes=nodes, nets=[], canvas=Canvas(1000.0, 100.0))
    grid = build_grid(netlist.canvas, 100_000, 2)
    placement = {n.name: Pose(rng.uniform(0.0, 1000.0), rng.uniform(0.0, 100.0)) for n in nodes}
    ev = Evaluator(netlist, grid)
    x, y, sx, sy = ev.node_arrays(placement)
    step = ev._step((x, y, sx, sy))
    tracemalloc.start()
    try:
        dens = ev.density_grid_from_arrays(x, y, step)
        ev.macro_congestion_from_arrays(x, y, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sets = step.memo.density + step.memo.macro
    bound = 6 * 8 * (grid.n_cells + sum(cell.size for _, cell, _ in sets))
    assert len(nodes) * (grid.n_cols + 1) * 8 > bound
    assert peak < bound
    a = netlist.arrays
    area = np.clip(x + a.half_w, 0, 1000) - np.clip(x - a.half_w, 0, 1000)
    area *= np.clip(y + a.half_h, 0, 100) - np.clip(y - a.half_h, 0, 100)
    assert dens.sum() * grid.cell_w * grid.cell_h == pytest.approx(area.sum(), rel=1e-9)
