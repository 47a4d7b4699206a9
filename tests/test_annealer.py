"""Annealing loop, initializers, parallel workers, macro shuffling."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import gridplace.annealer as annealer
import oracles
from gen import initializer_instance, small_instance
from gridplace.annealer import (
    ParallelResult,
    SAConfig,
    anneal,
    derive_worker_seeds,
    init_greedy_pack,
    init_spiral,
    run_parallel,
    shuffle_same_size,
    spiral_cells,
    write_trace_csv,
)
from gridplace.bookshelf import parse_aux, parse_bookshelf, read_placement
from gridplace.clustering import cluster_by_grid
from gridplace.errors import InitFailed, InvalidSetting, OutOfRange, Unplaceable
from gridplace.fd import FDParams
from gridplace.geometry import build_grid, placement_is_legal
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


def test_spiral_cells_orders():
    assert spiral_cells(2, 2) == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert spiral_cells(3, 3) == [
        (0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), (1, 1)]
    assert spiral_cells(1, 3) == [(0, 0), (0, 1), (0, 2)]
    assert sorted(spiral_cells(5, 4)) == [(c, r) for c in range(5) for r in range(4)]


def _bare(nodes, nets=(), canvas=(30.0, 30.0)):
    return Netlist(nodes=list(nodes), nets=list(nets), canvas=Canvas(*canvas))


def test_init_spiral_skips_blocked_cells():
    netlist = _bare([
        Node("blk", NodeKind.MACRO, 20.0, 10.0, movable=False),
        Node("a", NodeKind.MACRO, 8.0, 8.0, movable=True),
        Node("b", NodeKind.MACRO, 8.0, 8.0, movable=True),
    ])
    grid = build_grid(netlist.canvas, 3, 3)
    # The fixed block covers cells (0, 0) and (1, 0).
    fixed = {"blk": Pose(10.0, 5.0, Orientation.N)}
    placed = init_spiral(netlist, grid, fixed)
    assert placed["a"] == Pose(25.0, 5.0, Orientation.N)
    assert placed["b"] == Pose(25.0, 15.0, Orientation.N)


def test_init_greedy_pack_places_big_first():
    netlist = _bare([
        Node("small", NodeKind.MACRO, 4.0, 4.0, movable=True),
        Node("big", NodeKind.MACRO, 8.0, 8.0, movable=True),
    ])
    grid = build_grid(netlist.canvas, 3, 3)
    placed = init_greedy_pack(netlist, grid, {})
    assert placed["big"] == Pose(5.0, 5.0, Orientation.N)
    assert placed["small"] == Pose(15.0, 5.0, Orientation.N)


def test_init_unplaceable():
    netlist = _bare([Node("huge", NodeKind.MACRO, 40.0, 40.0, movable=True)])
    grid = build_grid(netlist.canvas, 3, 3)
    with pytest.raises(Unplaceable):
        init_spiral(netlist, grid, {})


def _initializers_match_reference(netlist, grid, fixed) -> bool:
    """Both initializers against the reference scan; True when they place."""
    movable = [n for n in netlist.nodes if n.kind == NodeKind.MACRO and n.movable]
    by_area = sorted(movable, key=lambda n: (-n.width * n.height, movable.index(n)))
    row_major = [(c, r) for r in range(grid.n_rows) for c in range(grid.n_cols)]
    placed_any = False
    for init, order, cells in ((init_spiral, movable, spiral_cells(grid.n_cols, grid.n_rows)),
                               (init_greedy_pack, by_area, row_major)):
        try:
            want = oracles.place_macros(netlist, grid, fixed, order, cells)
        except Unplaceable as exc:
            with pytest.raises(Unplaceable) as got:
                init(netlist, grid, fixed)
            assert got.value.macro_id == exc.macro_id
            continue
        assert init(netlist, grid, fixed) == want
        placed_any = True
    return placed_any


def test_initializers_match_cell_by_cell_scan(synth_aux):
    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    fixed = {n.name: initial[n.name] for n in netlist.nodes if not n.movable}
    assert _initializers_match_reference(netlist, build_grid(netlist.canvas, 32, 32), fixed)


def test_initializers_match_cell_by_cell_scan_small_instances():
    placed = 0
    for seed in range(60):
        netlist, pl, grid = small_instance(seed, max_nodes=14)
        fixed = {n.name: pl[n.name] for n in netlist.nodes if not n.movable}
        if any(n.kind == NodeKind.MACRO and n.movable for n in netlist.nodes):
            placed += _initializers_match_reference(netlist, grid, fixed)
    assert placed >= 10


def test_initializers_match_cell_by_cell_scan_on_crowded_grids():
    # Fixed macros on cell centers, or off them covering other centers,
    # zero-width, tolerance-sized and wider-than-a-cell macros, neighbours
    # that overlap by less than the tolerance, stale locations, and
    # unplaceable macros.
    placed = fixed_on_center = fixed_covering = 0
    for seed in range(400):
        netlist, placement, grid = initializer_instance(seed)
        placed += _initializers_match_reference(netlist, grid, placement)
        centers = {grid.cell_center(c, r) for c in range(grid.n_cols) for r in range(grid.n_rows)}
        fixed = [n for n in netlist.nodes if n.kind == NodeKind.MACRO and not n.movable]
        fixed_on_center += any(min(n.width, n.height) > 2 * grid.tol
                               and placement[n.name][:2] in centers for n in fixed)
        fixed_covering += any(placement[n.name][:2] != c
                              and n.width / 2 - abs(placement[n.name].x - c[0]) > grid.tol
                              and n.height / 2 - abs(placement[n.name].y - c[1]) > grid.tol
                              for n in fixed for c in centers)
    assert 100 <= placed <= 300 and fixed_on_center >= 50 and fixed_covering >= 50


def test_config_validation():
    with pytest.raises(OutOfRange):
        SAConfig(cooling_ratio=0.0)
    with pytest.raises(OutOfRange):
        SAConfig(cooling_ratio=1.0)
    with pytest.raises(OutOfRange):
        SAConfig(max_steps=-1)
    with pytest.raises(OutOfRange):
        SAConfig(epoch_len=0)
    with pytest.raises(OutOfRange):
        SAConfig(fd_interval_multiplier=0)
    with pytest.raises(OutOfRange, match="seed"):
        SAConfig(seed=-1)


def _macro_fixture():
    """Three movable macros, one fixed macro, one port; no clusters."""
    nodes = [
        Node("m0", NodeKind.MACRO, 12.0, 12.0, movable=True),
        Node("m1", NodeKind.MACRO, 10.0, 10.0, movable=True),
        Node("m2", NodeKind.MACRO, 8.0, 8.0, movable=True),
        Node("blk", NodeKind.MACRO, 10.0, 10.0, movable=False),
        Node("p0", NodeKind.PORT, 0.0, 0.0, movable=False),
    ]
    nets = [
        Net("n0", [Pin("m0", is_source=True), Pin("m1")]),
        Net("n1", [Pin("m1", is_source=True), Pin("m2"), Pin("p0")]),
        Net("n2", [Pin("m2", is_source=True), Pin("blk")], weight=2.0),
    ]
    netlist = _bare(nodes, nets, canvas=(60.0, 60.0))
    grid = build_grid(netlist.canvas, 3, 3)
    fixed = {"blk": Pose(50.0, 50.0, Orientation.N),
             "p0": Pose(0.0, 30.0, Orientation.N)}
    cnl = cluster_by_grid(netlist, dict(fixed), grid)
    return cnl, fixed


def _cluster_fixture():
    """Macros plus standard cells that cluster into two groups."""
    nodes = [
        Node("m0", NodeKind.MACRO, 12.0, 12.0, movable=True),
        Node("m1", NodeKind.MACRO, 10.0, 10.0, movable=True),
        Node("p0", NodeKind.PORT, 0.0, 0.0, movable=False),
        Node("s0", NodeKind.STDCELL, 2.0, 2.0, movable=True),
        Node("s1", NodeKind.STDCELL, 2.0, 2.0, movable=True),
        Node("s2", NodeKind.STDCELL, 3.0, 3.0, movable=True),
    ]
    nets = [
        Net("n0", [Pin("m0", is_source=True), Pin("s0")]),
        Net("n1", [Pin("s0", is_source=True), Pin("s2"), Pin("p0")]),
        Net("n2", [Pin("m1", is_source=True), Pin("s2")]),
    ]
    netlist = _bare(nodes, nets, canvas=(60.0, 60.0))
    grid = build_grid(netlist.canvas, 3, 3)
    initial = {
        "s0": Pose(10.0, 10.0, Orientation.N),
        "s1": Pose(15.0, 12.0, Orientation.N),
        "s2": Pose(45.0, 45.0, Orientation.N),
        "p0": Pose(0.0, 30.0, Orientation.N),
    }
    cnl = cluster_by_grid(netlist, initial, grid)
    fixed = {"p0": initial["p0"]}
    return cnl, fixed


_FAST_FD = FDParams(num_iters=5)


def test_no_movable_macros_fails():
    nodes = [Node("p0", NodeKind.PORT, 0.0, 0.0, movable=False)]
    netlist = _bare(nodes, canvas=(60.0, 60.0))
    grid = build_grid(netlist.canvas, 3, 3)
    cnl = cluster_by_grid(netlist, {}, grid)
    with pytest.raises(InitFailed):
        anneal(cnl, {"p0": Pose(0.0, 30.0, Orientation.N)}, SAConfig(max_steps=0))


def test_unknown_initializer_fails():
    cnl, fixed = _macro_fixture()
    with pytest.raises(InitFailed):
        anneal(cnl, fixed, SAConfig(init="random", max_steps=0))


def test_zero_steps_returns_init():
    cnl, fixed = _macro_fixture()
    res = anneal(cnl, fixed, SAConfig(max_steps=0, t_init=0.0))
    assert res.steps_run == 0
    assert res.cost_trace == []
    assert res.best_cost.total == res.init_cost.total
    assert all(v == 0 for v in res.actions_taken.values())
    # The best placement is exactly the initialized state.
    assert res.best_placement["blk"] == fixed["blk"]
    assert res.best_placement["m0"] == Pose(10.0, 10.0, Orientation.N)


def test_zero_steps_with_clusters_reproduces_init():
    cnl, fixed = _cluster_fixture()
    cfg = SAConfig(max_steps=0, t_init=0.0, fd_params=_FAST_FD)
    res = anneal(cnl, fixed, cfg)
    assert res.best_cost.total == res.init_cost.total
    a = cnl.netlist.arrays
    for i in a.is_cluster.nonzero()[0]:
        assert a.names[i] in res.best_placement


def test_determinism_bitwise():
    cnl, fixed = _macro_fixture()
    cfg = SAConfig(seed=5, max_steps=250)
    a = anneal(cnl, fixed, cfg)
    b = anneal(cnl, fixed, cfg)
    assert a.best_placement == b.best_placement
    assert a.cost_trace == b.cost_trace
    assert a.actions_taken == b.actions_taken
    assert a.best_cost.total == b.best_cost.total


def test_zero_temperature_trace_monotone():
    cnl, fixed = _macro_fixture()
    res = anneal(cnl, fixed, SAConfig(seed=1, max_steps=200, t_init=0.0))
    costs = [c for _, c in res.cost_trace]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_actions_and_trace_bookkeeping():
    cnl, fixed = _macro_fixture()
    res = anneal(cnl, fixed, SAConfig(seed=2, max_steps=120, t_init=0.5))
    assert res.steps_run == 120
    assert sum(res.actions_taken.values()) == 120
    assert set(res.actions_taken) == set(annealer.ACTIONS)
    assert len(res.cost_trace) == 120
    assert [s for s, _ in res.cost_trace] == list(range(120))


def test_best_cost_never_above_init():
    cnl, fixed = _macro_fixture()
    for seed in range(4):
        res = anneal(cnl, fixed, SAConfig(seed=seed, max_steps=150))
        assert res.best_cost.total <= res.init_cost.total + 1e-12


def test_annealing_improves_this_instance():
    cnl, fixed = _macro_fixture()
    res = anneal(cnl, fixed, SAConfig(seed=0, max_steps=400, t_init=0.05))
    assert res.best_cost.total < res.init_cost.total


def test_fd_interval_multiplier_cycle():
    cnl, fixed = _macro_fixture()
    for seed in range(6):
        res = anneal(cnl, fixed, SAConfig(seed=seed, max_steps=0, t_init=0.0))
        assert res.fd_interval_multiplier == (2, 3, 4, 5)[seed % 4]
    res = anneal(cnl, fixed,
                 SAConfig(seed=3, max_steps=0, t_init=0.0, fd_interval_multiplier=7))
    assert res.fd_interval_multiplier == 7


def test_accepted_states_all_legal():
    cnl, fixed = _cluster_fixture()
    audited = []
    cfg = SAConfig(seed=4, max_steps=80, t_init=1.0, fd_params=_FAST_FD)
    anneal(cnl, fixed, cfg, accept_audit=lambda step, pl: audited.append(dict(pl)))
    assert audited
    for pl in audited:
        assert placement_is_legal(cnl.netlist, pl, cnl.grid)


@pytest.mark.parametrize("action", ["swap", "shuffle"])
def test_swap_and_shuffle_permute_macro_spots(action):
    cnl, fixed = _macro_fixture()
    audited = []
    cfg = SAConfig(seed=2, max_steps=40, t_init=1.0, action_weights={action: 1.0})
    anneal(cnl, fixed, cfg, accept_audit=lambda step, pl: audited.append(dict(pl)))
    spots = [sorted((pl[m].x, pl[m].y) for m in ("m0", "m1", "m2")) for pl in audited]
    assert all(s == spots[0] for s in spots)
    assert any(pl != audited[0] for pl in audited[1:])


def test_action_weights_restrict_moves():
    cnl, fixed = _macro_fixture()
    cfg = SAConfig(seed=0, max_steps=50, t_init=0.0,
                   action_weights={"mirror": 1.0})
    res = anneal(cnl, fixed, cfg)
    assert res.actions_taken["mirror"] == 50
    assert sum(res.actions_taken.values()) == 50
    with pytest.raises(ValueError):
        anneal(cnl, fixed, replace(cfg, action_weights={"teleport": 1.0}))
    with pytest.raises(ValueError):
        anneal(cnl, fixed, replace(cfg, action_weights={"swap": 0.0}))
    # Weights that are not finite, or whose sum is not, fail in the config,
    # before an initializer or FD runs.
    for bad in ({"swap": math.inf}, {"swap": math.nan, "move": 1.0}, {"swap": 1e308, "move": 1e308}):
        with pytest.raises(InvalidSetting):
            replace(cfg, action_weights=bad)


def test_derive_worker_seeds():
    assert derive_worker_seeds([0, 1], 4) == [0, 0, 1, 1]
    assert derive_worker_seeds([5, 6, 7], 3) == [5, 6, 7]
    assert derive_worker_seeds([9], 3) == [9, 9, 9]
    assert derive_worker_seeds(list(range(8)), 2) == [0, 4]
    with pytest.raises(InvalidSetting):
        derive_worker_seeds([], 2)


def test_run_parallel_single_worker_matches_anneal():
    cnl, fixed = _macro_fixture()
    base = SAConfig(seed=0, max_steps=100, t_init=0.2)
    direct = anneal(cnl, fixed, replace(base, seed=3))
    par = run_parallel(cnl, fixed, base, n_workers=1, seeds=[3], parallel=False)
    assert par.best.best_cost.total == direct.best_cost.total
    assert par.best.best_placement == direct.best_placement
    assert par.configs[0].seed == 3


def test_run_parallel_same_seed_workers_agree():
    cnl, fixed = _macro_fixture()
    base = SAConfig(seed=0, max_steps=80, t_init=0.2)
    par = run_parallel(cnl, fixed, base, n_workers=2, seeds=[7], parallel=False)
    a, b = par.workers
    assert a.best_cost.total == b.best_cost.total
    assert a.cost_trace == b.cost_trace


def test_run_parallel_best_index_is_argmin():
    cnl, fixed = _macro_fixture()
    base = SAConfig(seed=0, max_steps=120, t_init=0.3)
    par = run_parallel(cnl, fixed, base, n_workers=3, seeds=[0, 1, 2], parallel=False)
    totals = [w.best_cost.total for w in par.workers]
    assert par.best_index == min(range(3), key=lambda i: (totals[i], i))
    assert par.best.best_cost.total == min(totals)


def test_run_parallel_fork_pool_matches_sequential():
    cnl, fixed = _macro_fixture()
    base = SAConfig(seed=0, max_steps=60, t_init=0.2)
    seq = run_parallel(cnl, fixed, base, n_workers=2, seeds=[0, 1], parallel=False)
    par = run_parallel(cnl, fixed, base, n_workers=2, seeds=[0, 1], parallel=True)
    assert [w.best_cost.total for w in par.workers] == \
        [w.best_cost.total for w in seq.workers]
    assert par.best.best_placement == seq.best.best_placement


def test_run_parallel_partial_failure(monkeypatch):
    cnl, fixed = _macro_fixture()
    base = SAConfig(seed=0, max_steps=40, t_init=0.2)
    real_worker = annealer._worker

    def flaky(args):
        if args[2].seed == 1:
            raise RuntimeError("boom")
        return real_worker(args)

    monkeypatch.setattr(annealer, "_worker", flaky)
    par = run_parallel(cnl, fixed, base, n_workers=2, seeds=[0, 1], parallel=False)
    assert len(par.workers) == 1
    assert par.failed == [(1, "boom")]
    assert par.configs[0].seed == 0
    assert par.best_index == 0

    def always(args):
        raise RuntimeError("all dead")

    monkeypatch.setattr(annealer, "_worker", always)
    with pytest.raises(RuntimeError):
        run_parallel(cnl, fixed, base, n_workers=2, seeds=[0, 1], parallel=False)


def test_run_parallel_validates_workers():
    cnl, fixed = _macro_fixture()
    with pytest.raises(InvalidSetting):
        run_parallel(cnl, fixed, SAConfig(max_steps=0), n_workers=0, seeds=[0])


def test_run_parallel_zero_budget_is_a_deadline_at_launch():
    # A budget of 0 s stops every worker before its first step; it does not
    # mean "no deadline".
    cnl, fixed = _macro_fixture()
    result = run_parallel(cnl, fixed, SAConfig(max_steps=50, t_init=0.1), n_workers=1, seeds=[0],
                          wall_clock_budget=0.0, parallel=False)
    assert result.best.steps_run == 0


def test_write_trace_csv_round_trip(tmp_path):
    cnl, fixed = _macro_fixture()
    res = anneal(cnl, fixed, SAConfig(seed=6, max_steps=30, t_init=0.1))
    path = tmp_path / "trace.csv"
    write_trace_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,cost"
    assert len(lines) == 31
    for lineno, (step, cost) in enumerate(res.cost_trace, start=1):
        s, c = lines[lineno].split(",")
        assert int(s) == step
        assert float(c) == cost
    # Identical runs serialize byte for byte.
    res2 = anneal(cnl, fixed, SAConfig(seed=6, max_steps=30, t_init=0.1))
    path2 = tmp_path / "trace2.csv"
    write_trace_csv(res2, path2)
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# Same-size shuffling


def _shuffle_fixture():
    nodes = [
        Node("a0", NodeKind.MACRO, 8.0, 8.0, movable=True),
        Node("a1", NodeKind.MACRO, 8.0, 8.0, movable=True),
        Node("a2", NodeKind.MACRO, 8.0, 8.0, movable=True),
        Node("b0", NodeKind.MACRO, 8.0, 12.0, movable=True),
        Node("b1", NodeKind.MACRO, 8.0, 12.0, movable=True),
        Node("solo", NodeKind.MACRO, 5.0, 5.0, movable=True),
        Node("fix", NodeKind.MACRO, 8.0, 8.0, movable=False),
        Node("p", NodeKind.PORT, 0.0, 0.0, movable=False),
    ]
    netlist = _bare(nodes, canvas=(100.0, 100.0))
    placement = {
        "a0": Pose(10.0, 10.0, Orientation.N),
        "a1": Pose(30.0, 10.0, Orientation.FN),
        "a2": Pose(50.0, 10.0, Orientation.S),
        "b0": Pose(10.0, 40.0, Orientation.N),
        "b1": Pose(30.0, 40.0, Orientation.FS),
        "solo": Pose(50.0, 40.0, Orientation.N),
        "fix": Pose(80.0, 80.0, Orientation.N),
        "p": Pose(0.0, 50.0, Orientation.N),
    }
    return netlist, placement


def test_shuffle_preserves_pose_multisets_per_class():
    netlist, placement = _shuffle_fixture()
    for seed in range(10):
        out = shuffle_same_size(netlist, placement, seed)
        a_poses = sorted((out[n].x, out[n].y, out[n].orient.value)
                         for n in ("a0", "a1", "a2"))
        assert a_poses == sorted((placement[n].x, placement[n].y, placement[n].orient.value)
                                 for n in ("a0", "a1", "a2"))
        b_poses = sorted((out[n].x, out[n].y, out[n].orient.value) for n in ("b0", "b1"))
        assert b_poses == sorted((placement[n].x, placement[n].y, placement[n].orient.value)
                                 for n in ("b0", "b1"))
        # Location and orientation travel together.
        for n in ("a0", "a1", "a2", "b0", "b1"):
            assert (out[n].x, out[n].y, out[n].orient) in \
                {(placement[m].x, placement[m].y, placement[m].orient)
                 for m in ("a0", "a1", "a2", "b0", "b1")}
        # Singletons, fixed macros, and ports stay put.
        assert out["solo"] == placement["solo"]
        assert out["fix"] == placement["fix"]
        assert out["p"] == placement["p"]


def test_shuffle_deterministic_and_seed_varied():
    netlist, placement = _shuffle_fixture()
    assert shuffle_same_size(netlist, placement, 3) == shuffle_same_size(netlist, placement, 3)
    outs = {tuple(sorted((k, v.x, v.y, v.orient.value)
                         for k, v in shuffle_same_size(netlist, placement, s).items()))
            for s in range(6)}
    assert len(outs) > 1


def test_shuffle_all_distinct_sizes_is_identity():
    nodes = [Node("a", NodeKind.MACRO, 4.0, 4.0, movable=True),
             Node("b", NodeKind.MACRO, 6.0, 6.0, movable=True)]
    netlist = _bare(nodes, canvas=(50.0, 50.0))
    placement = {"a": Pose(10.0, 10.0, Orientation.N), "b": Pose(30.0, 30.0, Orientation.S)}
    assert shuffle_same_size(netlist, placement, 0) == placement


def test_shuffle_rejects_a_negative_seed():
    netlist, placement = _shuffle_fixture()
    with pytest.raises(OutOfRange, match="seed"):
        shuffle_same_size(netlist, placement, -1)


def test_shuffle_keeps_legality():
    netlist, placement = _shuffle_fixture()
    grid = build_grid(netlist.canvas, 5, 5)
    assert placement_is_legal(netlist, placement, grid)
    for seed in range(5):
        assert placement_is_legal(netlist, shuffle_same_size(netlist, placement, seed), grid)


def _h(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# A 300-step seed-7 anneal of the synthetic ibm01-scale design with an FD pass
# every 256 macro actions: its best total, and the leading 16 hex digits of the
# sha256 of its trace rows as `write_trace_csv` writes them and of each array
# of its best placement. A change to the draw order or to the legality
# arithmetic changes them.
ANNEAL_DIGEST = {"best_total": "1.9551826091777813", "trace": "fa6115adbc009724", "x": "479cf223d77a6333",
                 "y": "9416b2d4136cd48a", "sx": "4fba26baa46ca971", "sy": "80ed0dca19c5f7e8"}


def test_golden_digest_of_a_short_seed7_anneal(synth_aux):
    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    cnl = cluster_by_grid(netlist, initial, build_grid(netlist.canvas, 32, 32))
    r = anneal(cnl, initial, SAConfig(seed=7, max_steps=300, fd_interval_multiplier=1, probe_count=10,
                                      fd_params=FDParams(num_iters=10, seed=7)))
    got = {"best_total": repr(r.best_cost.total),
           "trace": _h("".join(f"{s},{c!r}\n" for s, c in r.cost_trace).encode())}
    for f in ("x", "y", "sx", "sy"):
        got[f] = _h(getattr(r.best_placement, f).tobytes())
    assert got == ANNEAL_DIGEST
