"""Seeded random instance builders shared by unit and acceptance tests."""

from __future__ import annotations

import math
import random

from gridplace.cost import CostConfig
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

ORIENTS = (Orientation.N, Orientation.FN, Orientation.S, Orientation.FS)


def small_instance(seed, max_nodes=10, max_nets=8, n_cols=8, n_rows=8):
    """Mixed-kind netlist, placement, and grid for evaluator tests.

    Node centers stay on the canvas but bodies may stick out past the edge,
    which both the evaluator and the oracle must clip identically.
    """
    rng = random.Random(seed)
    width = rng.uniform(40.0, 120.0)
    height = rng.uniform(40.0, 120.0)
    n_nodes = rng.randint(2, max_nodes)
    nodes = []
    placement = {}
    for i in range(n_nodes):
        kind = rng.choice((NodeKind.MACRO, NodeKind.MACRO, NodeKind.CLUSTER,
                           NodeKind.STDCELL, NodeKind.PORT))
        if kind is NodeKind.PORT:
            node = Node(f"n{i}", kind, 0.0, 0.0, movable=False)
        else:
            node = Node(f"n{i}", kind, rng.uniform(4.0, width / 3),
                        rng.uniform(4.0, height / 3), movable=rng.random() < 0.8)
        nodes.append(node)
        placement[node.name] = Pose(rng.uniform(0.0, width),
                                    rng.uniform(0.0, height), rng.choice(ORIENTS))
    nets = []
    for j in range(rng.randint(1, max_nets)):
        k = rng.randint(2, min(5, n_nodes))
        members = rng.sample(range(n_nodes), k)
        src = rng.randrange(k)
        pins = []
        for t, m in enumerate(members):
            node = nodes[m]
            pins.append(Pin(node.name,
                            rng.uniform(-node.width / 2, node.width / 2),
                            rng.uniform(-node.height / 2, node.height / 2),
                            is_source=t == src))
        nets.append(Net(f"net{j}", pins, weight=rng.choice((0.5, 1.0, 1.0, 2.0))))
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(width, height))
    return netlist, placement, build_grid(netlist.canvas, n_cols, n_rows)


def fd_instance(seed):
    """Movable clusters plus fixed ports/macros joined by nets."""
    rng = random.Random(seed)
    width = rng.uniform(60.0, 150.0)
    height = rng.uniform(60.0, 150.0)
    nodes = []
    placement = {}
    for i in range(rng.randint(2, 8)):
        side = rng.uniform(5.0, min(width, height) / 3)
        nodes.append(Node(f"g{i}", NodeKind.CLUSTER, side, side, movable=True))
        placement[f"g{i}"] = Pose(rng.uniform(0.0, width), rng.uniform(0.0, height))
    for i in range(rng.randint(0, 3)):
        nodes.append(Node(f"p{i}", NodeKind.PORT, 0.0, 0.0, movable=False))
        edge = rng.randrange(4)
        if edge == 0:
            pos = (rng.uniform(0.0, width), 0.0)
        elif edge == 1:
            pos = (rng.uniform(0.0, width), height)
        elif edge == 2:
            pos = (0.0, rng.uniform(0.0, height))
        else:
            pos = (width, rng.uniform(0.0, height))
        placement[f"p{i}"] = Pose(pos[0], pos[1])
    for i in range(rng.randint(0, 2)):
        w = rng.uniform(8.0, width / 4)
        h = rng.uniform(8.0, height / 4)
        nodes.append(Node(f"m{i}", NodeKind.MACRO, w, h, movable=False))
        placement[f"m{i}"] = Pose(rng.uniform(w / 2, width - w / 2),
                                  rng.uniform(h / 2, height - h / 2))
    names = [n.name for n in nodes]
    nets = []
    for j in range(rng.randint(1, 6)):
        k = rng.randint(2, min(4, len(names)))
        members = rng.sample(names, k)
        pins = [Pin(m, 0.0, 0.0, is_source=t == 0) for t, m in enumerate(members)]
        nets.append(Net(f"net{j}", pins))
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(width, height))
    return netlist, placement


def stacked_pair(seed):
    """Two overlapping clusters and no nets, for repulsion-only runs."""
    rng = random.Random(seed)
    width = rng.uniform(80.0, 160.0)
    height = rng.uniform(80.0, 160.0)
    a = rng.uniform(10.0, min(width, height) / 4)
    b = rng.uniform(10.0, min(width, height) / 4)
    nodes = [Node("g0", NodeKind.CLUSTER, a, a, movable=True),
             Node("g1", NodeKind.CLUSTER, b, b, movable=True)]
    placement = {"g0": Pose(width / 2, height / 2),
                 "g1": Pose(width / 2, height / 2)}
    netlist = Netlist(nodes=nodes, nets=[], canvas=Canvas(width, height))
    return netlist, placement


def fd_lattice_instance(seed, n_fixed=3000, n_clusters=100):
    """Many small fixed macros on a lattice, apart from each other, and a few
    clusters each joined to one of them: n is large but few outlines
    overlap."""
    rng = random.Random(seed)
    cols = 60
    rows = -(-n_fixed // cols)
    nodes = []
    placement = {}
    for i in range(n_fixed):
        nodes.append(Node(f"m{i}", NodeKind.MACRO, 1.0, 1.0, movable=False))
        placement[f"m{i}"] = Pose(2.0 * (i % cols) + 1.0, 2.0 * (i // cols) + 1.0)
    nets = []
    for i in range(n_clusters):
        side = rng.uniform(1.0, 4.0)
        nodes.append(Node(f"g{i}", NodeKind.CLUSTER, side, side, movable=True))
        nets.append(Net(f"net{i}", [Pin(f"g{i}", is_source=True),
                                    Pin(f"m{rng.randrange(n_fixed)}")]))
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(2.0 * cols, 2.0 * rows))
    return netlist, placement


def fd_contact_instance(seed):
    """100-300 clusters in a few repeated sizes plus fixed ports and macros,
    built so that the FD repulsion meets its boundary cases.

    Clusters start coincident at the canvas center, where zero-size ports sit
    (one exactly at the center), so the first iterations draw random
    directions for cluster-cluster and cluster-port pairs. Dimensions are
    small integers on an even canvas, so every sum below is exact: fixed
    macros come in side-by-side pairs whose edges touch (x overlap exactly
    0, positive y overlap), and one macro touches the starting cluster stack.
    Macros carry pin offsets under random orientations.
    """
    rng = random.Random(seed)
    width = float(2 * rng.randint(150, 250))
    height = float(2 * rng.randint(150, 250))
    cx, cy = width / 2, height / 2
    sides = rng.sample((4.0, 6.0, 8.0, 10.0, 12.0), 3)
    nodes = []
    placement = {}
    for i in range(rng.randint(100, 300)):
        side = rng.choice(sides)
        nodes.append(Node(f"g{i}", NodeKind.CLUSTER, side, side, movable=True))
    reach = min(sides) / 2 - 1.0
    for i in range(rng.randint(2, 6)):
        nodes.append(Node(f"p{i}", NodeKind.PORT, 0.0, 0.0, movable=False))
        if i == 0:
            placement["p0"] = Pose(cx, cy)
        else:
            placement[f"p{i}"] = Pose(cx + rng.randint(-2, 2) * reach / 2,
                                      cy + rng.randint(-2, 2) * reach / 2)

    def macro(name, w, h, x, y):
        nodes.append(Node(name, NodeKind.MACRO, w, h, movable=False))
        placement[name] = Pose(x, y, rng.choice(ORIENTS))

    # Touches the right edge of every cluster of size sides[0] at the start.
    side, w, h = sides[0], float(rng.randint(4, 12)), float(rng.randint(4, 12))
    macro("m_stack", w, h, cx + side / 2 + w / 2, cy + rng.randint(-1, 1))
    for i in range(rng.randint(2, 5)):
        aw, ah = float(rng.randint(6, 30)), float(rng.randint(6, 30))
        bw, bh = float(rng.randint(6, 30)), float(rng.randint(6, 30))
        ax = float(rng.randint(20, int(width) // 3))
        ay = float(rng.randint(20, int(height) - 60))
        macro(f"m{i}a", aw, ah, ax, ay)
        macro(f"m{i}b", bw, bh, ax + aw / 2 + bw / 2, ay + rng.randint(-3, 3))
    names = [n.name for n in nodes]
    nets = []
    for j in range(rng.randint(len(names) // 2, len(names))):
        members = rng.sample(names, rng.randint(2, 5))
        src = rng.randrange(-1, len(members))   # -1: no marked source
        pins = []
        for t, m in enumerate(members):
            node = nodes[names.index(m)]
            dx = dy = 0.0
            if node.kind == NodeKind.MACRO:
                dx = rng.uniform(-node.width / 2, node.width / 2)
                dy = rng.uniform(-node.height / 2, node.height / 2)
            pins.append(Pin(m, dx, dy, is_source=t == src))
        nets.append(Net(f"net{j}", pins, weight=rng.choice((0.5, 1.0, 2.0))))
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(width, height))
    return netlist, placement


def fd_stacked_instance(seed):
    """Clusters that start stacked at the canvas center, among fixed nodes
    that make iteration 0's boundary cases.

    Clusters may have zero width or height, and some instances have a single
    cluster. Fixed macros and ports sit exactly at the center, one float step
    off it, in pairs that share a center elsewhere, or anywhere. One instance
    in four has a canvas of about 1e-158, where a node one step off the
    center has dx * dx + dy * dy == 0 against the stack although dx != 0.
    """
    rng = random.Random(seed)
    scale = 1e-160 if seed % 4 == 3 else 1.0
    width = rng.uniform(60.0, 150.0) * scale
    height = rng.uniform(60.0, 150.0) * scale
    cx, cy = width / 2, height / 2
    nodes = []
    placement = {}

    def side(high):
        return 0.0 if rng.random() < 0.2 else rng.uniform(1.0, high) * scale

    for i in range(1 if seed % 5 == 0 else rng.randint(2, 12)):
        nodes.append(Node(f"g{i}", NodeKind.CLUSTER, side(20.0), side(20.0), movable=True))
    spots = [(cx, cy), (math.nextafter(cx, math.inf), cy), (cx, math.nextafter(cy, 0.0))]
    shared = (rng.uniform(0.0, width), rng.uniform(0.0, height))
    spots += [shared, shared]
    for i in range(rng.randint(2, 6)):
        x, y = spots[i] if i < len(spots) and rng.random() < 0.7 else (
            rng.uniform(0.0, width), rng.uniform(0.0, height))
        if rng.random() < 0.3:
            nodes.append(Node(f"f{i}", NodeKind.PORT, 0.0, 0.0, movable=False))
        else:
            nodes.append(Node(f"f{i}", NodeKind.MACRO, side(30.0), side(30.0), movable=False))
        placement[f"f{i}"] = Pose(x, y)
    names = [n.name for n in nodes]
    nets = []
    for j in range(rng.randint(0, 5)):
        members = rng.sample(names, rng.randint(2, min(4, len(names))))
        nets.append(Net(f"net{j}", [Pin(m, 0.0, 0.0, is_source=t == 0) for t, m in enumerate(members)]))
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(width, height))
    return netlist, placement


def initializer_instance(seed):
    """Macros for the initializers on a small grid.

    Fixed macros sit on cell centers or anywhere. Macro sides are zero, at
    most a tolerance, random, one cell, one cell plus half a tolerance (so
    that neighbours overlap by less than it), one cell plus three tolerances,
    or up to two and a half cells. Some movable macros also have a stale
    location in the placement, which blocks others until they are placed.
    Crowded grids make some instances unplaceable.
    """
    rng = random.Random(seed)
    n_cols, n_rows = rng.randint(1, 7), rng.randint(1, 7)
    cell_w, cell_h = rng.choice((1.0, 4.0, rng.uniform(2.0, 20.0))), rng.uniform(2.0, 20.0)
    canvas = Canvas(cell_w * n_cols, cell_h * n_rows)
    grid = build_grid(canvas, n_cols, n_rows)
    tol = grid.tol

    def side(cell):
        return rng.choice((0.0, tol, 2.5 * tol, rng.uniform(0.0, cell), cell, cell + tol / 2,
                           cell + 3 * tol, rng.uniform(cell, 2.5 * cell)))

    def center():
        return Pose(*grid.cell_center(rng.randrange(n_cols), rng.randrange(n_rows)))

    nodes = []
    placement = {}
    for i in range(rng.randint(0, 3)):
        nodes.append(Node(f"f{i}", NodeKind.MACRO, side(cell_w), side(cell_h), movable=False))
        placement[f"f{i}"] = center() if rng.random() < 0.6 else Pose(
            rng.uniform(0.0, canvas.width), rng.uniform(0.0, canvas.height))
    for i in range(rng.randint(1, n_cols * n_rows)):
        nodes.append(Node(f"m{i}", NodeKind.MACRO, side(cell_w), side(cell_h), movable=True))
        if rng.random() < 0.2:
            placement[f"m{i}"] = center()
    nodes.append(Node("p", NodeKind.PORT, 0.0, 0.0, movable=False))
    placement["p"] = Pose(*grid.cell_center(0, 0))
    netlist = Netlist(nodes=nodes, nets=[], canvas=canvas)
    return netlist, placement, grid


def enumerable_instance(seed):
    """3 movable macros on a 3x3 grid whose cost ignores orientation.

    Pin offsets are zero, so mirroring never changes the cost and exhaustive
    enumeration over cell assignments covers every reachable cost value.
    Macro sides stay under the cell pitch, making all assignments of distinct
    cells legal.
    """
    rng = random.Random(seed)
    side = 90.0
    nodes = []
    placement = {}
    for i in range(3):
        w = rng.uniform(8.0, 28.0)
        h = rng.uniform(8.0, 28.0)
        nodes.append(Node(f"m{i}", NodeKind.MACRO, w, h, movable=True))
    for i in range(rng.randint(2, 4)):
        nodes.append(Node(f"p{i}", NodeKind.PORT, 0.0, 0.0, movable=False))
        edge = rng.randrange(4)
        along = rng.uniform(0.0, side)
        pos = ((along, 0.0), (along, side), (0.0, along), (side, along))[edge]
        placement[f"p{i}"] = Pose(pos[0], pos[1])
    names = [n.name for n in nodes]
    nets = []
    for j in range(rng.randint(3, 6)):
        k = rng.randint(2, 3)
        members = rng.sample(names, k)
        if not any(m.startswith("m") for m in members):
            members[0] = f"m{rng.randrange(3)}"
        pins = [Pin(m, 0.0, 0.0, is_source=t == 0) for t, m in enumerate(members)]
        nets.append(Net(f"net{j}", pins))
    netlist = Netlist(nodes=nodes, nets=nets, canvas=Canvas(side, side))
    return netlist, placement, build_grid(netlist.canvas, 3, 3)


def shuffle_instance(seed):
    """Movable macros in a few exact size classes placed on distinct cells."""
    rng = random.Random(seed)
    grid_side = 8
    pitch = 20.0
    canvas = Canvas(grid_side * pitch, grid_side * pitch)
    grid = build_grid(canvas, grid_side, grid_side)
    sizes = []
    for _ in range(rng.randint(2, 4)):
        sizes.append((rng.choice((8.0, 12.0, 16.0)), rng.choice((8.0, 12.0, 16.0))))
    nodes = []
    placement = {}
    cells = rng.sample([(c, r) for c in range(grid_side) for r in range(grid_side)],
                       k=min(24, grid_side * grid_side))
    i = 0
    for w, h in sizes:
        for _ in range(rng.randint(1, 6)):
            if i >= len(cells):
                break
            name = f"m{i}"
            nodes.append(Node(name, NodeKind.MACRO, w, h, movable=True))
            cx, cy = grid.cell_center(*cells[i])
            placement[name] = Pose(cx, cy, rng.choice(ORIENTS))
            i += 1
    nodes.append(Node("p0", NodeKind.PORT, 0.0, 0.0, movable=False))
    placement["p0"] = Pose(0.0, 0.0)
    pins = [Pin(n.name, 0.0, 0.0, is_source=t == 0)
            for t, n in enumerate(nodes[: min(4, len(nodes))])]
    netlist = Netlist(nodes=nodes, nets=[Net("net0", pins)], canvas=canvas)
    return netlist, placement, grid


def edge_coordinate(rng, pitch, n, half):
    """A center coordinate that puts an outline of half extent `half` on one
    of the n + 1 cell edges `pitch` apart, its center on an edge or a cell
    center, partly or wholly past either canvas edge, or anywhere."""
    k = rng.randint(0, n)
    return rng.choice((k * pitch - half, k * pitch + half, k * pitch, (k + 0.5) * pitch,
                       -half / 2, n * pitch + half / 2, -3 * half - pitch, n * pitch + 2 * half + pitch,
                       rng.uniform(-pitch, (n + 1) * pitch)))


def raster_instance(seed):
    """Macros, clusters, standard cells and ports whose outlines meet the
    density and macro-congestion rasteriser's boundary cases.

    Cell pitches and sides are mostly exact binary fractions, so that an
    outline placed on a cell edge lands on it exactly. Sides are zero, whole
    or half cells, or random; centers come from `edge_coordinate`. The cost
    config scales each macro-congestion surface separately, one of them
    possibly by zero. Net weights are integers, so the memo runs. Returns
    (netlist, placement, grid, cost config).
    """
    rng = random.Random(seed)
    n_cols, n_rows = rng.randint(1, 9), rng.randint(1, 9)
    pitch_w = rng.choice((1.0, 2.5, 4.0, rng.uniform(0.5, 10.0)))
    pitch_h = rng.choice((1.0, 2.5, 4.0, rng.uniform(0.5, 10.0)))
    grid = build_grid(Canvas(pitch_w * n_cols, pitch_h * n_rows), n_cols, n_rows)

    def side(pitch):
        return rng.choice((0.0, pitch, 0.5 * pitch, 2.0 * pitch, rng.uniform(0.0, 3.0 * pitch)))

    kinds = (NodeKind.MACRO, NodeKind.MACRO, NodeKind.MACRO, NodeKind.CLUSTER, NodeKind.CLUSTER,
             NodeKind.STDCELL, NodeKind.PORT)
    nodes, placement = [], {}
    for i in range(rng.randint(1, 14)):
        kind = rng.choice(kinds)
        w, h = (0.0, 0.0) if kind is NodeKind.PORT else (side(grid.cell_w), side(grid.cell_h))
        nodes.append(Node(f"n{i}", kind, w, h, movable=kind is not NodeKind.PORT and rng.random() < 0.8))
        placement[f"n{i}"] = Pose(edge_coordinate(rng, grid.cell_w, n_cols, w / 2),
                                  edge_coordinate(rng, grid.cell_h, n_rows, h / 2), rng.choice(ORIENTS))
    nets = []
    for j in range(rng.randint(0, 6) if len(nodes) > 1 else 0):
        members = rng.sample(nodes, rng.randint(2, min(5, len(nodes))))
        nets.append(Net(f"net{j}", [Pin(m.name, rng.uniform(-m.width, m.width) / 2,
                                        rng.uniform(-m.height, m.height) / 2, is_source=t == 0)
                                    for t, m in enumerate(members)], weight=float(rng.randint(1, 3))))
    config = CostConfig(macro_h_usage=rng.choice((1.0, 0.0, 2.5)), macro_v_usage=rng.choice((1.0, 0.0, 0.75)))
    return Netlist(nodes=nodes, nets=nets, canvas=grid.canvas), placement, grid, config


THREE_CELL_SHAPES = ("row", "col", "row+col", "tie-row", "tie-col", "star", "any")


def _three_cells(rng, shape, n_cols, n_rows):
    """Three distinct cells of the requested shape (see three_cell_instance)."""
    c = rng.sample(range(n_cols), 3)
    r = rng.sample(range(n_rows), 3)
    if shape == "row":
        return [(c[0], r[0]), (c[1], r[0]), (c[2], rng.randrange(n_rows))]
    if shape == "col":
        return [(c[0], r[0]), (c[0], r[1]), (rng.randrange(n_cols), r[2])]
    if shape == "row+col":
        return [(c[0], r[0]), (c[1], r[0]), (c[0], r[1])]
    if shape == "tie-row":
        # The third cell sits the same Manhattan distance from both ends of a
        # row segment.
        d = rng.randint(1, (n_cols - 1) // 2)
        c0 = rng.randrange(n_cols - 2 * d)
        return [(c0, r[0]), (c0 + 2 * d, r[0]), (c0 + d, r[1])]
    if shape == "tie-col":
        d = rng.randint(1, (n_rows - 1) // 2)
        r0 = rng.randrange(n_rows - 2 * d)
        return [(c[0], r0), (c[0], r0 + 2 * d), (c[1], r0 + d)]
    if shape == "star":
        return [(c[0], r[0]), (c[1], r[1]), (c[2], r[2])]
    cells = [(col, row) for col in range(n_cols) for row in range(n_rows)]
    return rng.sample(cells, 3)


def three_cell_instance(seed, n_nets=140, n_cols=6, n_rows=5, real_weights=False):
    """Nets whose pins fall into exactly three distinct grid cells, mixed
    with some 2-cell and 4-to-5-cell nets.

    One zero-size port sits at the center of every cell and each pin is a port
    pin, so the pin cells are chosen directly. The three-cell nets cycle
    through THREE_CELL_SHAPES (a shared row, a shared column, both, Manhattan
    ties between the ends of a shared segment, no shared line) with the
    source drawn from the three cells, so it takes every sort position, and
    with duplicate pins in some cells. Weights are small integers, or real
    numbers with real_weights=True. Returns (netlist, placement, grid).
    """
    rng = random.Random(seed)
    canvas = Canvas(n_cols * 10.0, n_rows * 7.0)
    grid = build_grid(canvas, n_cols, n_rows)
    nodes = []
    placement = {}
    for col in range(n_cols):
        for row in range(n_rows):
            name = f"p{col}_{row}"
            nodes.append(Node(name, NodeKind.PORT, 0.0, 0.0, movable=False))
            placement[name] = Pose(*grid.cell_center(col, row))
    all_cells = [(col, row) for col in range(n_cols) for row in range(n_rows)]
    nets = []
    for j in range(n_nets):
        if j % 5 == 4:
            cells = rng.sample(all_cells, rng.choice((2, 4, 5)))
        else:
            cells = _three_cells(rng, THREE_CELL_SHAPES[j % len(THREE_CELL_SHAPES)], n_cols, n_rows)
        src = rng.choice(cells)
        members = cells + [rng.choice(cells) for _ in range(rng.randint(0, 2))]
        rng.shuffle(members)
        pins = [Pin(f"p{col}_{row}") for col, row in members]
        pins[members.index(src)].is_source = True
        weight = rng.uniform(0.1, 3.0) if real_weights else float(rng.randint(1, 3))
        nets.append(Net(f"net{j}", pins, weight=weight))
    return Netlist(nodes=nodes, nets=nets, canvas=canvas), placement, grid


def one_net_instance(cells, weight, grid):
    """One net with a pin at the center of each listed (col, row) cell, the
    first pin its source; every pin is on its own zero-size port, so routing
    demand is the only cost the placement carries. Returns (netlist,
    placement)."""
    nodes = [Node(f"p{i}", NodeKind.PORT, 0.0, 0.0, movable=False) for i in range(len(cells))]
    pins = [Pin(f"p{i}", is_source=i == 0) for i in range(len(cells))]
    placement = {f"p{i}": Pose(*grid.cell_center(*cell)) for i, cell in enumerate(cells)}
    netlist = Netlist(nodes=nodes, nets=[Net("n", pins, weight=weight)], canvas=grid.canvas)
    return netlist, placement


def legality_instance(seed, n_cols=10, n_rows=8):
    """2-6 macros on a grid of 10 x 10 cells for legality checks.

    Sizes are one or two cells per side, a fifth of them scaled off the cell
    size. Centers sit at cell centers, a fifth of them moved off-grid, so
    outlines touch exactly, overlap or leave the canvas. One macro in ten,
    fixed or movable, is left out of the placement. A port is always placed.
    Returns (netlist, placement, grid).
    """
    rng = random.Random(seed)
    canvas = Canvas(n_cols * 10.0, n_rows * 10.0)
    grid = build_grid(canvas, n_cols, n_rows)
    nodes = [Node("p", NodeKind.PORT, 0.0, 0.0, movable=False)]
    placement = {"p": Pose(0.0, canvas.height / 2)}
    for i in range(rng.randint(2, 6)):
        w = grid.cell_w * rng.choice((1, 1, 2))
        h = grid.cell_h * rng.choice((1, 1, 2))
        if rng.random() < 0.2:
            w *= rng.uniform(0.5, 1.5)
            h *= rng.uniform(0.5, 1.5)
        name = f"m{i}"
        nodes.append(Node(name, NodeKind.MACRO, w, h, movable=rng.random() < 0.7))
        if rng.random() < 0.1:
            continue
        x, y = grid.cell_center(rng.randrange(n_cols), rng.randrange(n_rows))
        if rng.random() < 0.2:
            x += rng.uniform(-5.0, 5.0)
            y += rng.uniform(-5.0, 5.0)
        placement[name] = Pose(x, y, rng.choice(ORIENTS))
    return Netlist(nodes=nodes, nets=[], canvas=canvas), placement, grid


def rewire_instance(seed):
    """Standard cells, macros and ports on a 4 x 4 grid, joined by nets that
    exercise clustering's pin rewiring.

    Nets draw their owners with replacement, so one owner (cell, macro or
    port) may appear several times in a net; pins carry offsets and are
    marked as sources at random, several per net; and many nets fall inside
    one grid bucket, so that clustering leaves them with fewer than two pins.
    Some cells sit exactly on the canvas edges and one standard cell is
    fixed. Returns (netlist, placement, grid).
    """
    rng = random.Random(seed)
    canvas = Canvas(80.0, 60.0)
    grid = build_grid(canvas, 4, 4)
    nodes = []
    placement = {}
    for i in range(40):
        nodes.append(Node(f"s{i}", NodeKind.STDCELL, rng.uniform(1.0, 4.0),
                          rng.uniform(1.0, 4.0), movable=i != 7))
        x = rng.choice((0.0, canvas.width, rng.uniform(0.0, canvas.width)))
        y = rng.choice((0.0, canvas.height, rng.uniform(0.0, canvas.height)))
        placement[f"s{i}"] = Pose(x, y, rng.choice(ORIENTS))
    for i in range(4):
        nodes.append(Node(f"m{i}", NodeKind.MACRO, rng.uniform(6.0, 12.0),
                          rng.uniform(6.0, 12.0), movable=i < 3))
        placement[f"m{i}"] = Pose(rng.uniform(10.0, 70.0), rng.uniform(10.0, 50.0))
    for i in range(3):
        nodes.append(Node(f"p{i}", NodeKind.PORT, 0.0, 0.0, movable=False))
        placement[f"p{i}"] = Pose(0.0, rng.uniform(0.0, canvas.height))
    nets = []
    for j in range(80):
        members = [rng.choice(nodes) for _ in range(rng.randint(1, 6))]
        pins = [Pin(n.name, rng.uniform(-n.width / 2, n.width / 2),
                    rng.uniform(-n.height / 2, n.height / 2), is_source=rng.random() < 0.3)
                for n in members]
        nets.append(Net(f"net{j}", pins, weight=rng.choice((0.5, 1.0, 2.0))))
    return Netlist(nodes=nodes, nets=nets, canvas=canvas), placement, grid


# The nodes of `nets_text`: (name, width, height). "pad" is a port.
NETS_NODES = (("a", 4.0, 4.0), ("b", 6.0, 12.0), ("pad", 0.0, 0.0), ("blk", 8.0, 8.0),
              ("c0", 2.0, 3.0), ("c1", 10.0, 1.5), ("u_2", 1.0, 1.0))


def _nets_number(rng, value):
    return rng.choice((f"{value:.2f}", repr(value), f"{value:.3e}", f"{value:+g}", f"{value:.1f}",
                       "0", "-0", ".5", "5.", "-1E1"))


def nets_text(seed, inserted=""):
    """The text of a .nets file over NETS_NODES in the spellings that the
    reader accepts, and its section and pin counts.

    Sections may be unnamed, or named net<k> where an unnamed one would be
    called so, and may hold several O pins, or 0 or 1 pins. Pins come with
    and without offsets, some past their owner's half-extents. The colons'
    spacing, the separators (spaces, tabs, no-break spaces), comments, blank
    lines and line ends (\\n, \\r\\n, \\r, form feed, U+2028) vary.
    `inserted`, whole sections with \\n line ends, goes between two random
    sections and is counted in the header, which is then always present.
    """
    rng = random.Random(seed)
    sections = []
    for k in range(rng.randint(1, 10)):
        degree = rng.choice((0, 1, 2, 2, 3, 4, 6))
        name = rng.choice(("", f"g{k}", f"net{k + 1}"))
        lines = [rng.choice(("NetDegree : {d} {n}", "NetDegree :{d} {n}", "NetDegree\t:\t{d}\t{n}",
                             "  NetDegree : {d}{n}  ")).format(d=degree, n=name)]
        for _ in range(degree):
            owner, w, h = rng.choice(NETS_NODES)
            direction = rng.choice("IIIOB")
            sep = rng.choice((" ", " ", "\t", "  ", "\xa0"))
            if rng.random() < 0.3:
                lines.append(rng.choice(("", "  ", "\t")) + f"{owner}{sep}{direction}")
                continue
            dx = _nets_number(rng, rng.uniform(-0.7 * w, 0.7 * w))
            dy = _nets_number(rng, rng.uniform(-0.7 * h, 0.7 * h))
            lines.append(rng.choice(("  {o}{s}{d} : {x} {y}", "{o}{s}{d}:{x}{s}{y}", "\t{o}{s}{d} :{x}   {y}",
                                     "{o}{s}{d}: {x} {y}  ", "{o}{s}{d} : {x}{s}{y}")).format(
                o=owner, s=sep, d=direction, x=dx, y=dy))
        sections.append(lines)
    if inserted:
        sections.insert(rng.randint(0, len(sections)), inserted.splitlines())
    body = [line for lines in sections for line in lines]
    n_nets = sum(line.split()[0].startswith("NetDegree") for line in body)
    n_pins = len(body) - n_nets
    for _ in range(rng.randint(0, 4)):
        body.insert(rng.randint(0, len(body)), rng.choice(("", "  ", "# a comment", "   #x : 1 2")))
    header = ["UCLA nets 1.0", rng.choice(("", "# Created by nets_text"))]
    if inserted or rng.random() < 0.8:
        header += [f"NumNets : {n_nets}", f"NumPins : {n_pins}"]
    end = rng.choice(("\n", "\n", "\r\n", "\r", "\x0c", "\u2028"))
    return end.join(header + body) + rng.choice((end, "")), n_nets, n_pins


_LINE_ENDS = ("\n", "\n", "\r\n", "\r", "\x0c", "\u2028")
_FILLERS = ("", "  ", "# a comment", "   #x : 1 2")


def _bookshelf_text(rng, kind, body, inserted, counts):
    """A Bookshelf file of `kind` around `body`, with `inserted` (lines with
    \\n ends) between two random lines, comments and blank lines among them,
    and the `counts` header lines always when something is inserted."""
    if inserted:
        at = rng.randint(0, len(body))
        body[at:at] = inserted.splitlines()
    for _ in range(rng.randint(0, 4)):
        body.insert(rng.randint(0, len(body)), rng.choice(_FILLERS))
    header = [f"UCLA {kind} 1.0", rng.choice(("", f"# Created by {kind}_text"))]
    if inserted or rng.random() < 0.8:
        header += counts
    end = rng.choice(_LINE_ENDS)
    return end.join(header + body) + rng.choice((end, ""))


def _size(rng, value):
    return rng.choice((f"{value:.2f}", repr(value), f"{value:.3e}", f"{value:+g}", f"{value:.1f}",
                       str(int(value) + 1)))


def nodes_text(seed, inserted=""):
    """The text of a .nodes file in the spellings that the reader accepts, and
    its node and terminal counts.

    Nodes are named n<k>, with an occasional name that looks like a header or
    a count keyword. Movable nodes have positive sizes; terminals may have a
    zero (or -0) width or height, making them ports, and spell the flag
    "terminal", "terminal_NI" or "Terminal". Separators (spaces, tabs,
    no-break spaces), comments, blank lines and line ends (\\n, \\r\\n, \\r,
    form feed, U+2028) vary. `inserted`, node lines with \\n line ends, goes
    between two random lines and is counted in the header, which is then
    always present.
    """
    rng = random.Random(seed)
    body = []
    for k in range(rng.randint(0, 30)):
        words = [rng.choice((f"n{k}",) * 8 + (f"ucla{k}", f"UCLA_{k}", f"NumNodes{k}"))]
        w, h = rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0)
        if rng.random() < 0.3:
            zero = rng.choice(("0", "-0", "0.0"))
            w, h = rng.choice(((zero, _size(rng, h)), (_size(rng, w), zero), (zero, zero),
                               (_size(rng, w), _size(rng, h))))
            words += [w, h, rng.choice(("terminal", "terminal", "terminal_NI", "Terminal"))]
        else:
            words += [_size(rng, w), _size(rng, h)]
        sep = rng.choice((" ", " ", "\t", "  ", "\xa0"))
        body.append(rng.choice(("", "  ", "\t")) + sep.join(words) + rng.choice(("", " ", "\t")))
    lines = body + inserted.splitlines()
    n_nodes = len(lines)
    n_terminals = sum(len(t) > 3 and t[3].lower().startswith("terminal") for t in map(str.split, lines))
    text = _bookshelf_text(rng, "nodes", body, inserted,
                           [f"NumNodes : {n_nodes}", f"NumTerminals : {n_terminals}"])
    return text, n_nodes, n_terminals


def pl_text(seed, inserted=""):
    """The text of a .pl file over NETS_NODES and two unknown names in the
    spellings that the reader accepts.

    A node may be placed twice or not at all; corners fall in and around a
    40 x 40 canvas. Orientations are missing or one of the eight, with the
    colon free, touching the y coordinate or the orientation; /FIXED and
    /FIXED_NI follow with or without a space or alone. Separators, comments,
    blank lines and line ends vary as in `nodes_text`. `inserted`, lines
    with \\n line ends, goes between two random lines.
    """
    rng = random.Random(seed)
    names = [name for name, _, _ in NETS_NODES] + ["ghost", "ghost2"]
    body = []
    for name in rng.sample(names * 2, rng.randint(0, 2 * len(names))):
        x = _nets_number(rng, rng.uniform(-10.0, 50.0))
        y = _nets_number(rng, rng.uniform(-10.0, 50.0))
        orient = rng.choice(("N", "FN", "S", "FS", "E", "W", "FE", "FW"))
        fixed = rng.choice(("", "", " /FIXED", " /FIXED_NI", "/FIXED"))
        sep = rng.choice((" ", " ", "\t", "  ", "\xa0"))
        tail = rng.choice(("", "", f"{sep}:{sep}{orient}", f":{sep}{orient}", f"{sep}:{orient}"))
        indent, trail = rng.choice(("", "  ", "\t")), rng.choice(("", " ", "\t"))
        body.append(indent + sep.join((name, x, y)) + tail + fixed + trail)
    return _bookshelf_text(rng, "pl", body, inserted, [])
