"""Brute-force reference implementations used to freeze expected test values.

Every cost quantity, and macro legality, is recomputed here with plain
Python loops and stdlib math so that agreement with the package's vectorized
code is evidence rather than tautology. Only data containers (netlist
nodes/nets, grids, poses, and FD's parameter and per-iteration snapshot
records) are shared with the package; nothing is imported from its cost,
force, legality or annealing code.
The force-directed reference, `fd_place_dense`, is the dense O(n^2) numpy
definition: every node pair is tested for overlap in (n, n) arrays. The
Bookshelf references `parse_nodes`, `parse_nets`, `pl_corners` (with
`read_placement` and `pl_canvas` on top) read a file one line at a time;
they share only the package's line iterator and header-count helpers. The initializers'
reference, `place_macros`, tests the grid cells one at a time. The density
and macro-congestion references `density_grid_dense` and
`macro_congestion_dense` are the dense numpy definitions: every node against
every column and row edge, contracted with `einsum`.

Grids are nested lists indexed [col][row]; cell (0, 0) is the lower-left
cell; h[c][r] is demand on the right boundary of cell (c, r), v[c][r] on the
top boundary.
"""

from __future__ import annotations

import logging
import math
import re
from pathlib import Path

import numpy as np

from gridplace.bookshelf import _NUMBER_CHARS, _check_counts, _content_lines, _header_value
from gridplace.errors import MalformedLine, MissingLocation, OutOfRange, Unplaceable
from gridplace.fd import FDIterationInfo, FDParams
from gridplace.netlist import (ORIENT_SIGNS, NodeKind, Orientation, Pose, clamp_offsets, finite_float, node_table,
                               pin_table)

log = logging.getLogger(__name__)

# Orientation value -> (sign_x, sign_y) applied to pin offsets.
SIGNS = {"N": (1, 1), "FN": (-1, 1), "S": (-1, -1), "FS": (1, -1)}


def zeros(n_cols, n_rows):
    return [[0.0] * n_rows for _ in range(n_cols)]


def flatten(grid):
    return [x for col in grid for x in col]


def add_grids(a, b):
    return [[x + y for x, y in zip(ca, cb)] for ca, cb in zip(a, b)]


def top_mean(values, fraction):
    """Mean of the k = clamp(ceil(fraction * n), 1, n) largest values."""
    n = len(values)
    if n == 0:
        raise ValueError("no values to pool")
    k = max(1, min(math.ceil(fraction * n), n))
    ranked = sorted(values, reverse=True)
    return sum(ranked[:k]) / k


def rect_overlap(a, b):
    """Overlap area of axis-aligned boxes given as (x1, y1, x2, y2)."""
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w > 0.0 and h > 0.0:
        return w * h
    return 0.0


def macro_is_legal(netlist, placement, grid, name):
    """Macro `name` is placed, inside the canvas and overlaps no other placed
    macro; extents and overlaps are compared against grid.tol, an overlap
    being the min/max interval intersection on both axes."""
    tol = grid.tol
    cv = netlist.canvas
    boxes = {}
    for node in netlist.nodes:
        if node.kind is NodeKind.MACRO and node.name in placement:
            pose = placement[node.name]
            boxes[node.name] = (pose.x - node.width / 2.0, pose.y - node.height / 2.0,
                                pose.x + node.width / 2.0, pose.y + node.height / 2.0)
    if name not in boxes:
        return False
    x1, y1, x2, y2 = boxes[name]
    if x1 < -tol or y1 < -tol or x2 > cv.width + tol or y2 > cv.height + tol:
        return False
    for other, b in boxes.items():
        if (other != name and min(x2, b[2]) - max(x1, b[0]) > tol
                and min(y2, b[3]) - max(y1, b[1]) > tol):
            return False
    return True


def placement_is_legal(netlist, placement, grid):
    """Every movable macro passes `macro_is_legal`."""
    return all(macro_is_legal(netlist, placement, grid, node.name) for node in netlist.nodes
               if node.kind is NodeKind.MACRO and node.movable)


# ---------------------------------------------------------------------------
# Initial placements, one cell at a time


def place_macros(netlist, grid, fixed, order, cells):
    """The initializers' scan: each macro of `order` (nodes) at the first of
    `cells` where the scalar in-canvas and overlap comparisons pass, testing
    the cells one by one; returns `fixed` plus the placed macros."""
    macros = [n for n in netlist.nodes if n.kind == NodeKind.MACRO]
    index = {n.name: i for i, n in enumerate(macros)}
    hw = np.array([n.width / 2.0 for n in macros])
    hh = np.array([n.height / 2.0 for n in macros])
    x = np.array([fixed[n.name].x if n.name in fixed else np.nan for n in macros])
    y = np.array([fixed[n.name].y if n.name in fixed else np.nan for n in macros])
    cv, t = netlist.canvas, grid.tol
    placed = dict(fixed)
    for node in order:
        i = index[node.name]
        for col, row in cells:
            cx, cy = grid.cell_center(col, row)
            if not (cx - hw[i] >= -t and cx + hw[i] <= cv.width + t
                    and cy - hh[i] >= -t and cy + hh[i] <= cv.height + t):
                continue
            hit = ((hw + hw[i]) - np.abs(x - cx) > t) & ((hh + hh[i]) - np.abs(y - cy) > t)
            hit[i] = False
            if not hit.any():
                x[i], y[i] = cx, cy
                placed[node.name] = Pose(cx, cy, Orientation.N)
                break
        else:
            raise Unplaceable(node.name)
    return placed


# ---------------------------------------------------------------------------
# Net cleanup and clustering's rewiring, pin by pin


def net_rows(nets):
    """Nets as (name, weight, [(node, dx, dy, is_source), ...]) tuples."""
    return [(n.name, n.weight, [(p.node, p.dx, p.dy, p.is_source) for p in n.pins]) for n in nets]


def validated_nets(nets):
    """(rows, warnings) of the readers' net cleanup: nets with fewer than two
    pins dropped, every marked pin after a net's first unmarked; one warning
    per dropped net and per unmarked pin, in net order."""
    rows, warnings = [], []
    for name, weight, pins in net_rows(nets):
        if len(pins) < 2:
            warnings.append(f"dropping net {name!r} with {len(pins)} pin(s)")
            continue
        marked = [i for i, p in enumerate(pins) if p[3]]
        for i in marked[1:]:
            warnings.append(f"net {name!r} has multiple source pins, keeping the first")
            pins[i] = pins[i][:3] + (False,)
        rows.append((name, weight, pins))
    return rows, warnings


def _net_degree(tok):
    """(degree, name or None) of a NetDegree line's tokens, None if malformed."""
    # "NetDegree : 3 name"; the name is optional.
    before, colon, rest = " ".join(tok[1:]).partition(":")
    rest = rest.lstrip()
    digits = rest[:len(rest) - len(rest.lstrip("0123456789"))]
    name = rest[len(digits):].split()
    if before or not colon or not digits or len(name) > 1:
        return None
    return int(digits), name[0] if name else None


def parse_nets(path, nodes):
    """bookshelf.parse_nets as a loop over the file's lines, error for error.

    An unnamed section k is named net<k>, with "_" appended while the file
    names another section so; an explicit name may not repeat.
    """
    index = {name: i for i, name in enumerate(nodes.names)}
    lines = list(_content_lines(path))
    explicit = set()
    for _, line in lines:
        tok = line.split()
        fields = _net_degree(tok) if tok[0] == "NetDegree" else None
        if fields and fields[1] is not None:
            explicit.add(fields[1])
    names, sizes, pins = [], [], []   # pins: (owner, dx, dy, marked)
    seen = set()
    declared = dict.fromkeys(("NumNets", "NumPins"))
    remaining = 0
    for lineno, line in lines:
        tok = line.split()
        head = tok[0]
        if head in declared:
            declared[head] = _header_value(tok, path, lineno)
            continue
        if head == "NetDegree":
            if remaining > 0:
                raise MalformedLine(path, lineno, f"net {names[-1]!r} short by {remaining} pin(s)")
            fields = _net_degree(tok)
            if fields is None:
                raise MalformedLine(path, lineno, f"bad NetDegree line {line!r}")
            remaining, name = fields
            if name is None:
                name = f"net{len(names)}"
                while name in explicit:
                    name += "_"
            elif name in seen:
                raise MalformedLine(path, lineno, f"duplicate net name {name!r}")
            seen.add(name)
            names.append(name)
            sizes.append(remaining)
            continue
        if remaining == 0:
            raise MalformedLine(path, lineno, f"pin line outside a net section: {line!r}")
        # "nodename I : dx dy" / "nodename O" / "nodename B: dx dy"; O marks the source.
        direction, colon, rest = " ".join(tok[1:]).partition(":")
        offsets = rest.split()
        if direction.rstrip() not in ("I", "O", "B") or colon and (
                len(offsets) != 2 or any(t.strip(_NUMBER_CHARS) for t in offsets)):
            raise MalformedLine(path, lineno, f"bad pin line {line!r}")
        i = index.get(head)
        if i is None:
            raise MalformedLine(path, lineno, f"pin references unknown node {head!r}")
        try:
            pins.append((i, *(map(finite_float, offsets) if colon else (0.0, 0.0)), direction[0] == "O"))
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad pin offset in {line!r}") from exc
        remaining -= 1
    if remaining > 0:
        raise MalformedLine(path, 0, f"net {names[-1]!r} short by {remaining} pin(s)")
    _check_counts(path, declared, {"NumNets": len(names), "NumPins": len(pins)})
    return clamp_offsets(pin_table(names, [1.0] * len(names), sizes, pins), nodes, path, "node half-extents")


def parse_nodes(path, row_height):
    """bookshelf.parse_nodes as a loop over the file's lines, error for error."""
    rows = []   # (name, kind, width, height, movable)
    declared = dict.fromkeys(("NumNodes", "NumTerminals"))
    for lineno, line in _content_lines(path):
        tok = line.split()
        if tok[0] in declared:
            declared[tok[0]] = _header_value(tok, path, lineno)
            continue
        if len(tok) < 3:
            raise MalformedLine(path, lineno, f"expected 'name width height [terminal]', got {line!r}")
        name = tok[0]
        try:
            w, h = finite_float(tok[1]), finite_float(tok[2])
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad node size in {line!r}") from exc
        if not math.isfinite(w * h):
            raise MalformedLine(path, lineno, f"bad node size in {line!r}")
        if w < 0 or h < 0:
            raise MalformedLine(path, lineno, f"negative node size in {line!r}")
        if len(tok) > 3 and tok[3].lower().startswith("terminal"):
            rows.append((name, NodeKind.PORT, 0.0, 0.0, False) if w == 0 or h == 0
                        else (name, NodeKind.MACRO, w, h, False))
        elif w <= 0 or h <= 0:
            raise MalformedLine(path, lineno, f"movable node {name!r} needs positive size")
        else:
            stdcell = row_height is not None and h <= row_height
            rows.append((name, NodeKind.STDCELL if stdcell else NodeKind.MACRO, w, h, True))
    nodes = node_table(rows)
    _check_counts(path, declared, {"NumNodes": len(rows), "NumTerminals": int((~nodes.movable).sum())})
    return nodes


_PL_RE = re.compile(r"^(\S+)\s+([-+0-9.eE]+)\s+([-+0-9.eE]+)(?:\s*:\s*(\w+))?(\s*/FIXED\w*)?\s*$")


def pl_corners(path):
    """name -> (x, y, orientation, line number) of the last .pl line naming it."""
    out = {}
    for lineno, line in _content_lines(path):
        m = _PL_RE.match(line)
        if not m:
            raise MalformedLine(path, lineno, f"bad placement line {line!r}")
        try:
            x, y = finite_float(m.group(2)), finite_float(m.group(3))
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad coordinate in {line!r}") from exc
        out[m.group(1)] = (x, y, m.group(4) or "N", lineno)
    return out


def read_placement(path, netlist, clamp_ports=True):
    """bookshelf.read_placement as a loop over `pl_corners`, one Pose per
    node, into a dict."""
    placement = {}
    unknown = clamped = 0
    cv, a = netlist.canvas, netlist.arrays
    hw, hh, port = a.half_w.tolist(), a.half_h.tolist(), a.is_port.tolist()
    for name, (x, y, orient_s, lineno) in pl_corners(Path(path)).items():
        i = a.index.get(name)
        if i is None:
            unknown += 1
            continue
        # The rotated orientations fold onto their mirror relatives.
        orient_s = {"E": "N", "W": "S", "FE": "FN", "FW": "FS"}.get(orient_s, orient_s)
        if orient_s not in SIGNS:
            raise MalformedLine(Path(path), lineno, f"unsupported orientation {orient_s!r} for {name!r}")
        cx = x + hw[i]
        cy = y + hh[i]
        if clamp_ports and port[i]:
            nx = min(max(cx, 0.0), cv.width)
            ny = min(max(cy, 0.0), cv.height)
            if nx != cx or ny != cy:
                clamped += 1
            cx, cy = nx, ny
        placement[name] = Pose(cx, cy, Orientation(orient_s))
    if unknown:
        log.warning("%s: skipped %d placement line(s) for unknown nodes", path, unknown)
    if clamped:
        log.info("%s: clamped %d port location(s) onto the canvas", path, clamped)
    return placement


def pl_canvas(path, nodes):
    """(width, height) that parse_bookshelf infers without an .scl: the
    bounding box of the fixed nodes that the .pl places, else of all it
    places; None when it places no node."""
    corners = pl_corners(path)
    fixed = [(corners[n][0] + w, corners[n][1] + h) for n, w, h, m in
             zip(nodes.names, nodes.width.tolist(), nodes.height.tolist(), nodes.movable.tolist())
             if n in corners and not m]
    placed = fixed or [(corners[n][0] + w, corners[n][1] + h) for n, w, h in
                       zip(nodes.names, nodes.width.tolist(), nodes.height.tolist()) if n in corners]
    if not placed:
        return None
    return max(0.0, max(x for x, _ in placed)), max(0.0, max(y for _, y in placed))


def rewired_nets(nets, cluster_of):
    """(rows, dropped) of clustering's rewiring: in each net the pins of one
    cluster's members become one pin on the cluster at the first one's
    place, offset zero, marked when any of them was; other pins stay as they
    are; nets left with fewer than two pins are dropped and counted."""
    rows, dropped = [], 0
    for name, weight, pins in net_rows(nets):
        out, at = [], {}
        for node, dx, dy, marked in pins:
            cid = cluster_of.get(node)
            if cid is None:
                out.append((node, dx, dy, marked))
            elif cid in at:
                i = at[cid]
                out[i] = out[i][:3] + (out[i][3] or marked,)
            else:
                at[cid] = len(out)
                out.append((cid, 0.0, 0.0, marked))
        if len(out) < 2:
            dropped += 1
        else:
            rows.append((name, weight, out))
    return rows, dropped


# ---------------------------------------------------------------------------
# Pin geometry


def source_index(net):
    """Index of the net's driving pin: its first marked pin, else its first."""
    for i, p in enumerate(net.pins):
        if p.is_source:
            return i
    return 0


def pin_points(netlist, placement, net):
    """Absolute pin positions: center + orientation-signed offset."""
    pts = []
    for pin in net.pins:
        pose = placement[pin.node]
        sx, sy = SIGNS[pose.orient.value]
        pts.append((pose.x + sx * pin.dx, pose.y + sy * pin.dy))
    return pts


def cell_of(px, py, grid):
    """Containing cell by floored division, clamped onto the grid."""
    col = min(max(int(math.floor(px / grid.cell_w)), 0), grid.n_cols - 1)
    row = min(max(int(math.floor(py / grid.cell_h)), 0), grid.n_rows - 1)
    return col, row


# ---------------------------------------------------------------------------
# Wirelength


def wirelength(netlist, placement):
    """Mean over nets of weight * HPWL / (canvas width + height)."""
    total = 0.0
    for net in netlist.nets:
        pts = pin_points(netlist, placement, net)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        total += net.weight * (max(xs) - min(xs) + max(ys) - min(ys))
    cv = netlist.canvas
    return total / (cv.width + cv.height) / len(netlist.nets)


# ---------------------------------------------------------------------------
# Density


def occupancy_boxes(netlist, placement):
    """Footprints of area-carrying nodes (macros and clusters, never ports)."""
    boxes = []
    for node in netlist.nodes:
        if node.kind not in (NodeKind.MACRO, NodeKind.CLUSTER):
            continue
        pose = placement[node.name]
        boxes.append((pose.x - node.width / 2.0, pose.y - node.height / 2.0,
                      pose.x + node.width / 2.0, pose.y + node.height / 2.0))
    return boxes


def density_grid(netlist, placement, grid):
    """Per-cell total overlap area / cell area."""
    boxes = occupancy_boxes(netlist, placement)
    cell_area = grid.cell_w * grid.cell_h
    out = zeros(grid.n_cols, grid.n_rows)
    for c in range(grid.n_cols):
        for r in range(grid.n_rows):
            cell = (c * grid.cell_w, r * grid.cell_h,
                    (c + 1) * grid.cell_w, (r + 1) * grid.cell_h)
            acc = 0.0
            for box in boxes:
                acc += rect_overlap(box, cell)
            out[c][r] = acc / cell_area
    return out


def density(netlist, placement, grid):
    return top_mean(flatten(density_grid(netlist, placement, grid)), 0.10)


# ---------------------------------------------------------------------------
# Macro congestion: a macro body consumes capacity on every cell boundary
# strictly inside its footprint, in proportion to the overlap length.


def macro_demand(netlist, placement, grid, h_usage=1.0, v_usage=1.0):
    h = zeros(grid.n_cols, grid.n_rows)
    v = zeros(grid.n_cols, grid.n_rows)
    for node in netlist.nodes:
        if node.kind is not NodeKind.MACRO:
            continue
        pose = placement[node.name]
        x1 = pose.x - node.width / 2.0
        x2 = pose.x + node.width / 2.0
        y1 = pose.y - node.height / 2.0
        y2 = pose.y + node.height / 2.0
        for c in range(grid.n_cols):
            bx = (c + 1) * grid.cell_w
            if not (x1 < bx < x2):
                continue
            for r in range(grid.n_rows):
                lo = r * grid.cell_h
                ov = min(y2, lo + grid.cell_h) - max(y1, lo)
                if ov > 0.0:
                    h[c][r] += ov * h_usage / grid.h_capacity
        for r in range(grid.n_rows):
            by = (r + 1) * grid.cell_h
            if not (y1 < by < y2):
                continue
            for c in range(grid.n_cols):
                lo = c * grid.cell_w
                ov = min(x2, lo + grid.cell_w) - max(x1, lo)
                if ov > 0.0:
                    v[c][r] += ov * v_usage / grid.v_capacity
    return h, v


# ---------------------------------------------------------------------------
# The dense numpy forms of density and macro congestion: every node clipped
# against every column and row edge, contracted with `einsum`, which adds the
# terms of each cell in node order. The Evaluator sums one entry per
# (node, cell) overlap in that order, so the two agree bit for bit.


def _clipped_widths(lo, hi, edges):
    return np.diff(np.clip(edges[None, :], lo[:, None], hi[:, None]), axis=1)


def _dense_outlines(arrays, mask, x, y):
    return ((x - arrays.half_w)[mask], (x + arrays.half_w)[mask],
            (y - arrays.half_h)[mask], (y + arrays.half_h)[mask])


def _edges(grid):
    return np.arange(grid.n_cols + 1) * grid.cell_w, np.arange(grid.n_rows + 1) * grid.cell_h


def density_grid_dense(netlist, grid, x, y):
    """Per-cell overlap area of the macros and clusters / cell area."""
    a = netlist.arrays
    m = a.is_macro | a.is_cluster
    if not m.any():
        return np.zeros((grid.n_cols, grid.n_rows))
    x1, x2, y1, y2 = _dense_outlines(a, m, x, y)
    col_edges, row_edges = _edges(grid)
    wx, wy = _clipped_widths(x1, x2, col_edges), _clipped_widths(y1, y2, row_edges)
    return np.einsum("ni,nj->ij", wx, wy) / (grid.cell_w * grid.cell_h)


def macro_congestion_dense(netlist, grid, x, y, h_usage=1.0, v_usage=1.0):
    """(h, v) macro demand / capacity: each right (top) cell boundary strictly
    inside a macro takes its overlap with the boundary's row (column)."""
    a = netlist.arrays
    m = a.is_macro
    if not m.any():
        return np.zeros((grid.n_cols, grid.n_rows)), np.zeros((grid.n_cols, grid.n_rows))
    x1, x2, y1, y2 = _dense_outlines(a, m, x, y)
    col_edges, row_edges = _edges(grid)
    bx, by = col_edges[1:], row_edges[1:]
    cross_h = (x1[:, None] < bx[None, :]) & (bx[None, :] < x2[:, None])
    h = np.einsum("mc,mr->cr", cross_h.astype(float), _clipped_widths(y1, y2, row_edges))
    h *= h_usage / grid.h_capacity
    cross_v = (y1[:, None] < by[None, :]) & (by[None, :] < y2[:, None])
    v = np.einsum("mr,mc->cr", cross_v.astype(float), _clipped_widths(x1, x2, col_edges))
    v *= v_usage / grid.v_capacity
    return h, v


# ---------------------------------------------------------------------------
# Net routing demand: a cell-stepping walker over the chosen route pattern.


def _walk_h(h, weight, row, c0, c1):
    # Step cell by cell; the boundary between c and c+1 belongs to cell c.
    c = c0
    while c != c1:
        nxt = c + (1 if c1 > c else -1)
        h[min(c, nxt)][row] += weight
        c = nxt


def _walk_v(v, weight, col, r0, r1):
    r = r0
    while r != r1:
        nxt = r + (1 if r1 > r else -1)
        v[col][min(r, nxt)] += weight
        r = nxt


def _l_route(h, v, weight, src, dst):
    # Horizontal arm at the source row first, then the vertical arm at the
    # destination column.
    _walk_h(h, weight, src[1], src[0], dst[0])
    _walk_v(v, weight, dst[0], src[1], dst[1])


def _route_three(h, v, weight, src, sinks):
    # Scan pairs over [source] + sinks sorted by (col, row); the first pair
    # sharing a row (checked before a shared column) contributes a straight
    # segment, and the third cell branches off the nearer endpoint by
    # Manhattan distance (ties keep the earlier endpoint).
    ordered = [src] + sorted(sinks)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b = ordered[i], ordered[j]
        third = ordered[3 - i - j]
        if a[1] == b[1]:
            _walk_h(h, weight, a[1], a[0], b[0])
        elif a[0] == b[0]:
            _walk_v(v, weight, a[0], a[1], b[1])
        else:
            continue
        da = abs(third[0] - a[0]) + abs(third[1] - a[1])
        db = abs(third[0] - b[0]) + abs(third[1] - b[1])
        _l_route(h, v, weight, a if da <= db else b, third)
        return
    for s in sinks:
        _l_route(h, v, weight, src, s)


def route_demand(h, v, weight, src, sinks):
    """Add one net's routing demand; src and sinks are distinct cells."""
    if not sinks:
        return
    if len(sinks) == 1:
        _l_route(h, v, weight, src, sinks[0])
    elif len(sinks) == 2:
        _route_three(h, v, weight, src, sinks)
    else:
        for s in sinks:
            _l_route(h, v, weight, src, s)


def net_demand(netlist, placement, grid):
    """Summed per-net routing demand / boundary capacity."""
    h = zeros(grid.n_cols, grid.n_rows)
    v = zeros(grid.n_cols, grid.n_rows)
    for net in netlist.nets:
        pts = pin_points(netlist, placement, net)
        cells = [cell_of(px, py, grid) for px, py in pts]
        src = cells[source_index(net)]
        sinks = sorted(set(c for c in cells if c != src))
        route_demand(h, v, net.weight, src, sinks)
    for c in range(grid.n_cols):
        for r in range(grid.n_rows):
            h[c][r] /= grid.h_capacity
            v[c][r] /= grid.v_capacity
    return h, v


# ---------------------------------------------------------------------------
# Smoothing: scatter each entry uniformly over its own edge-truncated window.


def smooth(values, radius, axis):
    n_cols = len(values)
    n_rows = len(values[0])
    out = zeros(n_cols, n_rows)
    for c in range(n_cols):
        for r in range(n_rows):
            val = values[c][r]
            if axis == 0:
                lo = max(c - radius, 0)
                hi = min(c + radius, n_cols - 1)
                share = val / (hi - lo + 1)
                for cc in range(lo, hi + 1):
                    out[cc][r] += share
            else:
                lo = max(r - radius, 0)
                hi = min(r + radius, n_rows - 1)
                share = val / (hi - lo + 1)
                for rr in range(lo, hi + 1):
                    out[c][rr] += share
    return out


# ---------------------------------------------------------------------------
# Congestion and full proxy composition


def congestion_surfaces(netlist, placement, grid, radius=2,
                        h_usage=1.0, v_usage=1.0):
    """Macro demand plus smoothed net demand, per direction."""
    hm, vm = macro_demand(netlist, placement, grid, h_usage, v_usage)
    hn, vn = net_demand(netlist, placement, grid)
    hc = add_grids(hm, smooth(hn, radius, axis=0))
    vc = add_grids(vm, smooth(vn, radius, axis=1))
    return hc, vc


def congestion(netlist, placement, grid, radius=2, h_usage=1.0, v_usage=1.0):
    hc, vc = congestion_surfaces(netlist, placement, grid, radius,
                                 h_usage, v_usage)
    return top_mean(flatten(hc) + flatten(vc), 0.05)


def components(netlist, placement, grid, radius=2, h_usage=1.0, v_usage=1.0):
    return (wirelength(netlist, placement),
            density(netlist, placement, grid),
            congestion(netlist, placement, grid, radius, h_usage, v_usage))


def proxy_total(wl, dens, cong, gamma, lam):
    return wl + gamma * dens + lam * cong


# ---------------------------------------------------------------------------
# Rank correlation: O(n^2) pair counting. The final expression matches the
# package's on identical integer counts, so results agree bit for bit.


def kendall(xs, ys):
    n = len(xs)
    n0 = n * (n - 1) // 2
    nc = nd = n1 = n2 = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0:
                n1 += 1
            if dy == 0:
                n2 += 1
            if dx * dy > 0:
                nc += 1
            elif dx * dy < 0:
                nd += 1
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


# ---------------------------------------------------------------------------
# Force-directed placement: the dense definition. Every iteration tests all
# node pairs for overlap in (n, n) arrays and accumulates forces with
# np.add.at; gridplace.fd.fd_place must reproduce it bit for bit.


def star_pairs(netlist, placement, node_idx, io_factor):
    """Star decomposition of all nets into (driver pin, other pin) pairs.

    Offsets are pre-rotated by the owner's orientation (orientations do not
    change during FD). Returns index arrays plus per-pair attraction scale.
    """
    a_idx, b_idx, a_off, b_off, scale = [], [], [], [], []
    kinds = [n.kind for n in netlist.nodes]
    for net in netlist.nets:
        pins = net.pins
        ci = source_index(net)
        center = pins[ci]
        c_node = node_idx[center.node]
        c_orient = placement[center.node][2] if center.node in placement else Orientation.N
        csx, csy = ORIENT_SIGNS[c_orient]
        for j, other in enumerate(pins):
            if j == ci:
                continue
            o_node = node_idx[other.node]
            o_orient = placement[other.node][2] if other.node in placement else Orientation.N
            osx, osy = ORIENT_SIGNS[o_orient]
            a_idx.append(c_node)
            b_idx.append(o_node)
            a_off.append((csx * center.dx, csy * center.dy))
            b_off.append((osx * other.dx, osy * other.dy))
            is_io = kinds[c_node] == NodeKind.PORT or kinds[o_node] == NodeKind.PORT
            scale.append(io_factor if is_io else 1.0)
    return (np.array(a_idx, dtype=np.intp), np.array(b_idx, dtype=np.intp),
            np.array(a_off or np.empty((0, 2))).reshape(-1, 2),
            np.array(b_off or np.empty((0, 2))).reshape(-1, 2),
            np.array(scale))


def fd_place_dense(netlist, placement, params=None, observer=None):
    """Run the force-directed schedule; returns a full placement.

    `placement` must locate every non-cluster node (macros and ports); cluster
    entries are ignored because clusters restart from the canvas center. With
    no movable clusters the input is returned unchanged (with a warning).
    """
    params = params or FDParams()
    if params.num_iters < 1:
        raise OutOfRange(f"num_iters must be >= 1, got {params.num_iters}")
    if params.k_attract < 0 or params.k_repel < 0 or params.io_factor < 0:
        raise OutOfRange("force factors must be nonnegative")

    nodes = netlist.nodes
    node_idx = {n.name: i for i, n in enumerate(nodes)}
    mover = np.array([n.kind == NodeKind.CLUSTER and n.movable for n in nodes])
    if not mover.any():
        log.warning("no movable clusters; force-directed pass is a no-op")
        return dict(placement)

    cv = netlist.canvas
    n = len(nodes)
    x = np.empty(n)
    y = np.empty(n)
    for i, node in enumerate(nodes):
        if mover[i]:
            x[i] = cv.width / 2.0
            y[i] = cv.height / 2.0
        else:
            pose = placement.get(node.name)
            if pose is None:
                raise MissingLocation(f"fixed node {node.name!r} has no location for FD")
            x[i] = pose[0]
            y[i] = pose[1]

    hw = np.array([nd.width / 2.0 for nd in nodes])
    hh = np.array([nd.height / 2.0 for nd in nodes])
    a_idx, b_idx, a_off, b_off, scale = star_pairs(netlist, placement, node_idx, params.io_factor)
    have_pairs = a_idx.size > 0

    mmd = max(cv.width, cv.height) / params.num_iters
    f_r_max = mmd
    rng = np.random.Generator(np.random.PCG64(params.seed))

    for it in range(params.num_iters):
        fx = np.zeros(n)
        fy = np.zeros(n)
        if have_pairs and params.k_attract > 0:
            pax = x[a_idx] + a_off[:, 0]
            pay = y[a_idx] + a_off[:, 1]
            pbx = x[b_idx] + b_off[:, 0]
            pby = y[b_idx] + b_off[:, 1]
            k = params.k_attract * scale
            np.add.at(fx, a_idx, k * (pbx - pax))
            np.add.at(fy, a_idx, k * (pby - pay))
            np.add.at(fx, b_idx, k * (pax - pbx))
            np.add.at(fy, b_idx, k * (pay - pby))
        if params.k_repel > 0:
            dx = x[None, :] - x[:, None]   # dx[i, j] points i -> j
            dy = y[None, :] - y[:, None]
            ox = (hw[:, None] + hw[None, :]) - np.abs(dx)
            oy = (hh[:, None] + hh[None, :]) - np.abs(dy)
            overlap = (ox > 0.0) & (oy > 0.0)
            np.fill_diagonal(overlap, False)
            if overlap.any():
                dist = np.sqrt(dx * dx + dy * dy)
                apart = overlap & (dist > 0.0)
                if apart.any():
                    mag = params.k_repel * f_r_max
                    inv = np.where(apart, 1.0 / np.where(dist == 0.0, 1.0, dist), 0.0)
                    fx -= mag * (dx * inv).sum(axis=1)
                    fy -= mag * (dy * inv).sum(axis=1)
                coincident = overlap & (dist == 0.0)
                if coincident.any():
                    ii, jj = np.nonzero(np.triu(coincident, k=1))
                    theta = rng.uniform(0.0, 2.0 * np.pi, size=ii.size)
                    mag = params.k_repel * f_r_max
                    px = mag * np.cos(theta)
                    py = mag * np.sin(theta)
                    np.add.at(fx, ii, px)
                    np.add.at(fy, ii, py)
                    np.add.at(fx, jj, -px)
                    np.add.at(fy, jj, -py)

        max_fx = np.max(np.abs(fx))
        max_fy = np.max(np.abs(fy))
        move_x = fx / max_fx * mmd if max_fx > 0 else np.zeros(n)
        move_y = fy / max_fy * mmd if max_fy > 0 else np.zeros(n)

        cand_x = x + move_x
        cand_y = y + move_y
        ok = (
            (cand_x - hw >= 0.0) & (cand_x + hw <= cv.width)
            & (cand_y - hh >= 0.0) & (cand_y + hh <= cv.height)
        )
        apply = mover & ok
        applied_dx = np.where(apply, move_x, 0.0)
        applied_dy = np.where(apply, move_y, 0.0)
        x = x + applied_dx
        y = y + applied_dy

        if observer is not None:
            observer(FDIterationInfo(
                iteration=it,
                norm_fx=move_x.copy(), norm_fy=move_y.copy(),
                x=x.copy(), y=y.copy(),
                applied_dx=applied_dx, applied_dy=applied_dy,
                max_move_distance=mmd,
            ))

    out = dict(placement)
    for i, node in enumerate(nodes):
        if mover[i]:
            out[node.name] = Pose(float(x[i]), float(y[i]), Orientation.N)
    return out
