"""Acceptance gate: end-to-end contracts for every shipped behavior.

Each test states one contract. Tolerances are pinned in the assertions; the
conftest prints one PASS/FAIL line per criterion after the run.
"""

import itertools
import math
import random
import re
import subprocess
import sys
import time

import numpy as np

from gridplace.annealer import SAConfig, anneal, run_parallel, shuffle_same_size, write_trace_csv
from gridplace.bookshelf import parse_aux, parse_bookshelf, read_placement
from gridplace.clustering import cluster_by_grid
from gridplace.cost import CostConfig, Evaluator, ProxyWeights, smooth_grid
from gridplace.fd import FDParams, fd_place
from gridplace.geometry import build_grid, node_bbox, placement_is_legal
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
from gridplace.stats import kendall_tau, weight_sweep

import oracles
from gen import (
    enumerable_instance,
    fd_instance,
    one_net_instance,
    shuffle_instance,
    small_instance,
    stacked_pair,
)


def _close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))


def test_criterion_01():
    """Evaluator components match the brute-force oracle to 1e-9 relative on
    200 random instances (at most 10 nodes, 8 nets, an 8x8 grid); < 30 s."""
    t0 = time.monotonic()
    for seed in range(200):
        netlist, placement, grid = small_instance(seed)
        wl, dens, cong = Evaluator(netlist, grid, CostConfig()).components(placement)
        owl, odens, ocong = oracles.components(netlist, placement, grid)
        assert _close(wl, owl, 1e-9), f"wirelength seed {seed}: {wl} vs {owl}"
        assert _close(dens, odens, 1e-9), f"density seed {seed}: {dens} vs {odens}"
        assert _close(cong, ocong, 1e-9), f"congestion seed {seed}: {cong} vs {ocong}"
    assert time.monotonic() - t0 < 30.0


def test_criterion_02():
    """Recombining cached components for the weight pairs (0.5,0.5), (1,0.5),
    (0.01,0.01) equals from-scratch evaluation to 1e-12 relative."""
    combos = ((0.5, 0.5), (1.0, 0.5), (0.01, 0.01))
    for seed in range(50):
        netlist, placement, grid = small_instance(1000 + seed)
        ev = Evaluator(netlist, grid, CostConfig())
        for row in weight_sweep(ev, placement, combos):
            fresh = ev.breakdown(placement, ProxyWeights(row.gamma, row.lam))
            assert abs(row.total - fresh.total) <= 1e-12 * max(1.0, abs(fresh.total))


def test_criterion_03():
    """Force-directed contract on 100 instances: movable clusters stay inside
    the canvas at every iteration, per-axis steps stay within
    max(W, H) / num_iters + 1e-9, a live axis normalizes its peak force to the
    step cap within 1e-9, and two same-seed runs agree bit for bit; < 60 s."""
    t0 = time.monotonic()
    for seed in range(100):
        netlist, placement = fd_instance(seed)
        params = FDParams(num_iters=20, seed=seed)
        first, second = [], []
        out1 = fd_place(netlist, placement, params, observer=first.append)
        out2 = fd_place(netlist, placement, params, observer=second.append)
        assert out1 == out2
        for a, b in zip(first, second):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            assert np.array_equal(a.norm_fx, b.norm_fx)
            assert np.array_equal(a.norm_fy, b.norm_fy)
        cv = netlist.canvas
        mmd = max(cv.width, cv.height) / params.num_iters
        hw = np.array([n.width / 2 for n in netlist.nodes])
        hh = np.array([n.height / 2 for n in netlist.nodes])
        mover = np.array([n.kind == NodeKind.CLUSTER and n.movable for n in netlist.nodes])
        for info in first:
            assert np.all(info.x[mover] - hw[mover] >= -1e-9)
            assert np.all(info.x[mover] + hw[mover] <= cv.width + 1e-9)
            assert np.all(info.y[mover] - hh[mover] >= -1e-9)
            assert np.all(info.y[mover] + hh[mover] <= cv.height + 1e-9)
            assert np.all(np.abs(info.applied_dx) <= mmd + 1e-9)
            assert np.all(np.abs(info.applied_dy) <= mmd + 1e-9)
            if np.any(info.norm_fx != 0.0):
                assert abs(np.max(np.abs(info.norm_fx)) - info.max_move_distance) <= 1e-9
            if np.any(info.norm_fy != 0.0):
                assert abs(np.max(np.abs(info.norm_fy)) - info.max_move_distance) <= 1e-9
    assert time.monotonic() - t0 < 60.0


def test_criterion_04():
    """Repulsion-only runs strictly reduce the overlap of two fully stacked
    clusters in 50 of 50 instances; < 10 s."""
    t0 = time.monotonic()
    for seed in range(50):
        netlist, placement = stacked_pair(seed)
        g0, g1 = netlist.nodes
        before = oracles.rect_overlap(node_bbox(g0, placement["g0"]), node_bbox(g1, placement["g1"]))
        assert before > 0.0
        out = fd_place(netlist, placement, FDParams(num_iters=40, seed=seed, k_attract=0.0))
        after = oracles.rect_overlap(node_bbox(g0, out["g0"]), node_bbox(g1, out["g1"]))
        assert after < before, f"seed {seed}: {after} !< {before}"
    assert time.monotonic() - t0 < 10.0


def test_criterion_05():
    """Best of 16 annealing workers under a 10 s budget hits the exhaustive
    504-state optimum exactly on at least 19 of 20 three-macro instances;
    < 5 min."""
    t0 = time.monotonic()
    hits = 0
    misses = []
    for seed in range(20):
        netlist, fixed, grid = enumerable_instance(seed)
        cnl = cluster_by_grid(netlist, dict(fixed), grid)
        ev = Evaluator(cnl.netlist, grid, CostConfig())
        names = [n.name for n in cnl.netlist.nodes if n.kind == NodeKind.MACRO and n.movable]
        centers = [grid.cell_center(c, r) for c in range(3) for r in range(3)]
        optimum = math.inf
        count = 0
        for cells in itertools.permutations(range(9), 3):
            pl = dict(fixed)
            for name, ci in zip(names, cells):
                pl[name] = Pose(centers[ci][0], centers[ci][1], Orientation.N)
            optimum = min(optimum, ev.breakdown(pl).total)
            count += 1
        assert count == 504
        cfg = SAConfig(seed=0, max_steps=800, probe_count=50)
        res = run_parallel(cnl, fixed, cfg, n_workers=16, seeds=list(range(16)),
                           wall_clock_budget=10.0, parallel=True)
        assert res.best.best_cost.total >= optimum - 1e-12
        if res.best.best_cost.total == optimum:
            hits += 1
        else:
            misses.append((seed, res.best.best_cost.total, optimum))
    assert hits >= 19, f"optimum missed on {misses}"
    assert time.monotonic() - t0 < 300.0


def _sa_instance(offset=0.0, cluster=cluster_by_grid):
    """Criterion 06's instance; `offset` moves the macro pins off center, so
    that mirroring a macro changes the cost."""
    nodes = [
        Node("m0", NodeKind.MACRO, 12.0, 12.0, movable=True),
        Node("m1", NodeKind.MACRO, 10.0, 10.0, movable=True),
        Node("m2", NodeKind.MACRO, 8.0, 8.0, movable=True),
        Node("blk", NodeKind.MACRO, 10.0, 10.0, movable=False),
        Node("p0", NodeKind.PORT, 0.0, 0.0, movable=False),
        Node("s0", NodeKind.STDCELL, 2.0, 2.0, movable=True),
        Node("s1", NodeKind.STDCELL, 3.0, 3.0, movable=True),
    ]
    nets = [
        Net("n0", [Pin("m0", offset, offset / 2, is_source=True), Pin("s0")]),
        Net("n1", [Pin("s0", is_source=True), Pin("s1"), Pin("p0")]),
        Net("n2", [Pin("m1", offset / 2, offset, is_source=True), Pin("s1")]),
        Net("n3", [Pin("m2", offset, offset, is_source=True), Pin("blk")], weight=2.0),
    ]
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(60.0, 60.0))
    grid = build_grid(netlist.canvas, 3, 3)
    initial = {
        "s0": Pose(10.0, 10.0, Orientation.N),
        "s1": Pose(45.0, 45.0, Orientation.N),
        "blk": Pose(50.0, 50.0, Orientation.N),
        "p0": Pose(0.0, 30.0, Orientation.N),
    }
    cnl = cluster(netlist, initial, grid)
    fixed = {"blk": initial["blk"], "p0": initial["p0"]}
    return cnl, fixed


def test_criterion_06(tmp_path):
    """Every accepted annealing state is overlap-free and in-canvas, and an
    identical (seed, config) pair reproduces the trace CSV byte for byte."""
    cnl, fixed = _sa_instance()
    cfg = SAConfig(seed=11, max_steps=150, t_init=1.0, fd_params=FDParams(num_iters=5))
    audited = []
    res1 = anneal(cnl, fixed, cfg, accept_audit=lambda step, pl: audited.append(dict(pl)))
    assert len(audited) > 1
    for pl in audited:
        assert placement_is_legal(cnl.netlist, pl, cnl.grid)
    res2 = anneal(cnl, fixed, cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(res1, p1)
    write_trace_csv(res2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert res1.best_placement == res2.best_placement


def test_annealer_scores_the_placement_it_reports():
    """Mirror-heavy anneal with no FD pass inside the loop: a fresh
    evaluation of each accepted placement gives that step's trace cost, bit
    for bit, so the state the annealer scores is the one it reports, and
    rejected moves and mirrors leave no trace in it."""
    cnl, fixed = _sa_instance(offset=3.0)
    weights = {"mirror": 6.0, "swap": 1.0, "shift": 1.0, "move": 1.0, "shuffle": 1.0}
    cfg = SAConfig(seed=11, max_steps=150, t_init=0.002, fd_params=FDParams(num_iters=5),
                   action_weights=weights, fd_interval_multiplier=1000)
    audited = []
    res = anneal(cnl, fixed, cfg, accept_audit=lambda step, pl: audited.append((step, dict(pl))))
    assert res.actions_taken["mirror"] > 60 and len(audited) > 20
    assert any(p.orient is not Orientation.N for _, pl in audited for p in pl.values())
    trace = dict(res.cost_trace)
    ev = Evaluator(cnl.netlist, cnl.grid)
    for step, pl in audited:
        want = res.init_cost.total if step < 0 else trace[step]
        assert ev.breakdown(pl).total == want


def test_criterion_07():
    """Routing demand facts: single-cell nets add nothing; a net spread over
    more than three cells equals the sum of its source-anchored two-cell
    routes; the combined congestion surface is exactly the macro surface plus
    the smoothed net surface; smoothing conserves total demand to 1e-12."""
    # Single-cell nets: every pin lands in the one cell of a 1x1 grid.
    nodes = [Node("a", NodeKind.MACRO, 4.0, 4.0, movable=True),
             Node("b", NodeKind.MACRO, 4.0, 4.0, movable=True)]
    nets = [Net("n", [Pin("a", 1.0, -1.0, is_source=True), Pin("b", -2.0, 0.5)])]
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(40.0, 40.0))
    placement = {"a": Pose(10.0, 10.0, Orientation.N), "b": Pose(30.0, 30.0, Orientation.N)}
    one = build_grid(netlist.canvas, 1, 1)
    ev = Evaluator(netlist, one)
    hn, vn = ev.net_congestion_from_arrays(*ev.node_arrays(placement))
    assert not hn.any() and not vn.any()

    # Star decomposition for nets on more than three cells, in the reference
    # router and in the Evaluator (one net, pins at cell centers, unit
    # capacities). The Evaluator's running sums over +w/-w differences may
    # round a real weight's total differently in the last place.
    grid = build_grid(Canvas(80.0, 80.0), 8, 8, h_capacity=1.0, v_capacity=1.0)
    src = (1, 1)
    sinks = [(6, 2), (3, 5), (0, 7), (6, 6)]

    def oracle_demand(sinks):
        h, v = oracles.zeros(8, 8), oracles.zeros(8, 8)
        oracles.route_demand(h, v, 1.7, src, sorted(sinks))
        return np.array(h), np.array(v)

    def evaluator_demand(sinks, weight):
        nl, pl = one_net_instance([src] + sinks, weight, grid)
        ev = Evaluator(nl, grid)
        return ev.net_congestion_from_arrays(*ev.node_arrays(pl))

    hk, vk = oracle_demand(sinks)
    hs = np.zeros_like(hk)
    vs = np.zeros_like(vk)
    for sink in sinks:
        h2, v2 = oracle_demand([sink])
        hs += h2
        vs += v2
    assert np.array_equal(hk, hs) and np.array_equal(vk, vs)
    for weight in (1.0, 1.7):
        hk, vk = evaluator_demand(sinks, weight)
        hs = np.zeros_like(hk)
        vs = np.zeros_like(vk)
        for sink in sinks:
            h2, v2 = evaluator_demand([sink], weight)
            hs += h2
            vs += v2
        if weight == 1.0:
            assert np.array_equal(hk, hs) and np.array_equal(vk, vs)
        else:
            assert np.allclose(hk, hs, rtol=1e-12, atol=1e-12 * np.abs(hs).max())
            assert np.allclose(vk, vs, rtol=1e-12, atol=1e-12 * np.abs(vs).max())

    # Combined surface = macro surface + smoothed net surface, checked by
    # zeroing one source at a time through the public configuration.
    def surfaces(nl, g, config, pl):
        ev = Evaluator(nl, g, config)
        return ev.congestion_surfaces_from_arrays(*ev.node_arrays(pl))

    for seed in range(10):
        nl, pl, g = small_instance(2000 + seed)
        full_h, full_v = surfaces(nl, g, CostConfig(), pl)
        no_nets = Netlist(nodes=nl.nodes, nets=[], canvas=nl.canvas)
        macro_h, macro_v = surfaces(no_nets, g, CostConfig(), pl)
        zero_usage = CostConfig(macro_h_usage=0.0, macro_v_usage=0.0)
        net_h, net_v = surfaces(nl, g, zero_usage, pl)
        assert np.array_equal(full_h, macro_h + net_h)
        assert np.array_equal(full_v, macro_v + net_v)

    # Mass conservation of the smoothing window.
    rng = np.random.default_rng(7)
    for shape in ((5, 7), (8, 8), (3, 9)):
        values = rng.uniform(0.0, 3.0, size=shape)
        for radius in range(4):
            for axis in (0, 1):
                out = smooth_grid(values, radius, axis)
                assert abs(out.sum() - values.sum()) <= 1e-12 * values.sum()


def test_criterion_08():
    """One hundred same-size shuffles preserve, per exact size class, both the
    occupied-cell multiset and the (location, orientation) pose multiset, and
    never touch any other node."""
    done = 0
    for inst_seed in range(25):
        netlist, placement, grid = shuffle_instance(inst_seed)
        classes = {}
        for node in netlist.nodes:
            if node.kind == NodeKind.MACRO and node.movable:
                classes.setdefault((node.width, node.height), []).append(node.name)
        for shuffle_seed in range(4):
            out = shuffle_same_size(netlist, placement, shuffle_seed)
            for names in classes.values():
                before_cells = sorted(grid.cell_of_point(placement[n].x, placement[n].y)
                                      for n in names)
                after_cells = sorted(grid.cell_of_point(out[n].x, out[n].y) for n in names)
                assert before_cells == after_cells
                before_poses = sorted((placement[n].x, placement[n].y, placement[n].orient.value)
                                      for n in names)
                after_poses = sorted((out[n].x, out[n].y, out[n].orient.value) for n in names)
                assert before_poses == after_poses
            for node in netlist.nodes:
                if not (node.kind == NodeKind.MACRO and node.movable):
                    if node.name in placement:
                        assert out[node.name] == placement[node.name]
            done += 1
    assert done == 100


def test_criterion_09():
    """Merge-sort rank correlation equals the O(n^2) pair-counting oracle
    exactly on 1000 random integer lists (ties included) of length <= 50."""
    rng = random.Random(20260818)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 50)
        spread = max(1, n // 2)
        xs = [rng.randint(0, spread) for _ in range(n)]
        ys = [rng.randint(0, spread) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert kendall_tau(xs, ys) == oracles.kendall(xs, ys)
        checked += 1


_PIPELINE_SCRIPT = """
import sys
from gridplace.bookshelf import parse_aux, parse_bookshelf, read_placement
from gridplace.clustering import cluster_by_grid
from gridplace.cost import CostConfig, Evaluator
from gridplace.geometry import build_grid

aux = sys.argv[1]
netlist = parse_bookshelf(aux)
initial = read_placement(parse_aux(aux)["pl"], netlist)
grid = build_grid(netlist.canvas, 32, 32)
cnl = cluster_by_grid(netlist, initial, grid)
placement = cnl.seed_placement(initial)
b = Evaluator(cnl.netlist, grid, CostConfig()).breakdown(placement)
n_cells = sum(1 for n in netlist.nodes if n.kind.value == "stdcell")
print(f"cells={n_cells} clusters={len(cnl.members)} total={b.total!r}")
assert n_cells >= 12000
assert b.total > 0.0
# This process's own peak resident set. The parent's rusage of it would count
# the parent's pages too, which Linux carries over through fork and exec.
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")).strip())
"""


def test_criterion_10(synth_aux):
    """Full-scale run: parse + cluster + evaluate on a 12K-cell design stays
    under 60 s and 2 GB (measured on a dedicated subprocess), and a 16-worker
    two-minute annealing smoke completes with best cost at or below the
    spiral-initialization cost."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _PIPELINE_SCRIPT, str(synth_aux)],
                          capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f} s"
    # /proc reports VmHWM in kilobytes.
    peak_kb = int(re.search(r"^VmHWM:\s*(\d+) kB$", proc.stdout, re.M).group(1))
    assert peak_kb < 2 * 1024 * 1024, f"peak rss {peak_kb} kB"

    netlist = parse_bookshelf(synth_aux)
    initial = read_placement(parse_aux(synth_aux)["pl"], netlist)
    grid = build_grid(netlist.canvas, 32, 32)
    cnl = cluster_by_grid(netlist, initial, grid)
    cfg = SAConfig(seed=0, max_steps=100000, probe_count=10,
                   fd_params=FDParams(num_iters=10))
    res = run_parallel(cnl, initial, cfg, n_workers=16, seeds=list(range(16)),
                       wall_clock_budget=120.0, parallel=True)
    assert res.failed == []
    assert len(res.workers) == 16
    for worker in res.workers:
        assert worker.best_cost.total <= worker.init_cost.total + 1e-12
    assert res.best.best_cost.total <= res.best.init_cost.total
