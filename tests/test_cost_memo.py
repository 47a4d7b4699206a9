"""The Evaluator's memo: re-scoring only the nets a change touches gives the
components of a fresh Evaluator, bit for bit."""

import random

import pytest

import gridplace.cost as cost
from gen import fd_instance, shuffle_instance, small_instance, three_cell_instance
from gridplace import (
    Evaluator,
    FDParams,
    SAConfig,
    anneal,
    build_grid,
    cluster_by_grid,
    fd_place,
    parse_aux,
    parse_bookshelf,
    read_placement,
    shuffle_same_size,
)
from gridplace.netlist import PlacementState
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

    def spy(self, x, y, sx, sy, nets=slice(None)):
        seen.append(None if isinstance(nets, slice) else len(nets))
        return original(self, x, y, sx, sy, nets)
    monkeypatch.setattr(Evaluator, "_route", spy)
    return seen


def _history(netlist, placement, grid, seed, steps):
    """Score a random sequence of edits with one Evaluator and compare each
    result with a fresh Evaluator's. The edits: moves, swaps, mirrors and
    undos in place on one state, as the annealer makes them; FD passes or
    all-node moves; same-size shuffles; dict placements."""
    rng = random.Random(seed)
    ev = Evaluator(netlist, grid)
    a = netlist.arrays
    st = PlacementState.of(a, placement).copy()
    n = st.x.size
    has_clusters = bool((a.is_cluster & a.movable).any())
    prev = st.copy()
    for _ in range(steps):
        op = rng.choice(("move", "move", "swap", "mirror", "mirror", "undo", "all",
                         "shuffle", "dict"))
        scored = st
        if op != "undo":
            prev = st.copy()
        if op == "move":
            for i in rng.sample(range(n), min(n, rng.choice((1, 1, 2, 3)))):
                col, row = rng.randrange(grid.n_cols), rng.randrange(grid.n_rows)
                st.x[i], st.y[i] = grid.cell_center(col, row)
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
        got = ev.components(scored)
        want = Evaluator(netlist, grid).components(scored)
        assert got == want, (op, got, want)


def test_memo_history_small_instances(memo_share):
    for seed in range(60):
        netlist, placement, grid = small_instance(seed)
        _history(netlist, placement, grid, seed, steps=25)


def test_memo_history_fd_and_shuffle_instances(memo_share):
    for seed in range(20):
        netlist, placement = fd_instance(seed)
        grid = build_grid(netlist.canvas, 6, 6)
        _history(netlist, placement, grid, seed, steps=20)
        netlist, placement, grid = shuffle_instance(seed)
        _history(netlist, placement, grid, seed, steps=20)


def test_memo_history_three_cell_instances(memo_share, routes):
    for seed in range(12):
        netlist, placement, grid = three_cell_instance(seed)
        _history(netlist, placement, grid, seed, steps=30)
    assert any(k for k in routes if k is not None), "no evaluation took the memo path"


def test_memo_real_weights_take_the_full_path(memo_share, routes):
    for seed in range(12):
        netlist, placement, grid = three_cell_instance(seed, real_weights=True)
        _history(netlist, placement, grid, seed, steps=30)
    assert routes and all(k is None for k in routes)


def test_memo_history_ibm01_scale(synth_aux, routes):
    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    grid = build_grid(netlist.canvas, 32, 32)
    cnl = cluster_by_grid(netlist, initial, grid)
    _history(cnl.netlist, cnl.seed_placement(initial), grid, 3, steps=30)
    assert any(k for k in routes if k is not None), "no evaluation took the memo path"


@pytest.mark.parametrize("offset", [0.0, 3.0])
def test_annealer_memo_matches_fresh_evaluator(memo_share, monkeypatch, offset):
    """Criterion 06's anneal, with every evaluation checked against a fresh
    Evaluator of the same placement."""
    original = Evaluator.components
    calls = []

    def checked(self, placement):
        got = original(self, placement)
        want = original(Evaluator(self.netlist, self.grid, self.config), placement)
        assert got == want
        calls.append(got)
        return got
    monkeypatch.setattr(Evaluator, "components", checked)
    cnl, fixed = _sa_instance(offset)
    cfg = SAConfig(seed=11, max_steps=150, t_init=1.0, fd_params=FDParams(num_iters=5))
    anneal(cnl, fixed, cfg)
    assert len(calls) > 100


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


def test_memo_counts_a_signed_zero_as_a_move():
    netlist, placement, grid = small_instance(1)
    ev = Evaluator(netlist, grid)
    x, y, sx, sy = (v.copy() for v in ev.node_arrays(placement))
    x[0] = 0.0
    ev.wirelength_from_arrays(x, y, sx, sy)
    x[0] = -0.0
    _, moved = ev._moved("wirelength", (x, y, sx, sy))
    assert list(moved) == [0]
