"""Placement proxy cost: wirelength + weighted density + weighted congestion.

All three components are computed on a clustered netlist over a uniform grid:

  * wirelength: mean over nets of weight * HPWL(net) / (canvas_w + canvas_h),
    pin positions honoring node orientation.
  * density: per-cell sum of macro/cluster bbox overlap divided by cell area
    (values can exceed 1), averaged over the densest 10% of cells.
  * congestion: per-boundary demand/capacity from two sources. Macros consume
    tracks on every cell boundary their outline crosses; nets consume tracks
    along rectilinear routes between the grid cells holding their pins. Net
    demand is smoothed along the routing direction, macro demand is not. The
    cost is the mean of the top 5% of all horizontal and vertical values
    pooled together.

Routing patterns by the number of distinct pin cells k:
  k=1 ignored; k=2 an L (horizontal arm first, leaving the source cell);
  k=3 a shared straight segment plus a branched L when two cells share a row
  or column, else a star; k>3 a star of k-1 L routes from the source cell.

`Evaluator` is the one implementation of these definitions. It routes all
nets of a placement in whole-array numpy, with no Python loop over nets: the
distinct (net, cell) keys come from one sort, the three-cell patterns are
selected in closed form for all such nets at once, and every segment end is
scattered into difference arrays by one `np.bincount` per direction, in a
fixed per-cell order, so its grids equal those of routing net by net in that
order. The per-net cell walker `route_demand` in tests/oracles.py is the
reference it is tested against.

Density and macro congestion are built from sparse entries: one per
(node, cell) overlap for density, one per crossed cell boundary and
overlapped row (column) for the horizontal (vertical) macro surface. Each
surface is one `np.bincount` over its entries in node order, which adds the
same products in the same order as the dense clip-and-`einsum` form
(tests/oracles.py), so the grids are the same floats, and memory grows with
the cells plus the overlaps rather than with nodes x columns.

One `Evaluator` that scores a sequence of placements, as the annealer's does,
re-scores only what changed. It keeps one memo: the node arrays the last
`components` call scored and each component's results. `components` compares
the new arrays with the memo's by bit pattern (so -0.0 and 0.0 differ) once,
which gives the moved nodes and, through a node->net index built once, the
nets with a pin on one. It hands both to the four components:
  * Wirelength recomputes the HPWL of those nets and takes the same
    weighted sum over all nets.
  * Density and macro congestion keep each node's entries and build again
    only the moved nodes' entries; clusters, which stay put between FD
    passes, keep theirs.
  * Net congestion routes those nets at their new positions only. A route
    store holds, per pin, the ends of at most one L route of the last
    routing (4 integers per pin), so the old entries are read back rather
    than routed again: one `np.bincount` per direction adds the new entries
    to the memo's difference arrays and takes the old ones out. With
    integer net weights, which covers all Bookshelf input, these sums are
    exact in any order, so the grids equal a full routing. With any other
    weight it always routes all nets.
Every component makes a full pass when there is no memo or when the nets
hold more than MEMO_PIN_SHARE of all pins, as after an FD pass. Every result
equals a fresh `Evaluator`'s bit for bit. A component called on its own is a
plain full pass: it neither reads nor writes the memo or the route store.

Grids are numpy arrays indexed [col, row]; cell (0, 0) is lower-left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyCellSet, OutOfRange
from .geometry import Grid
from .netlist import Netlist, Placement, PlacementState, index_ranges

DEFAULT_GAMMA = 0.5
DEFAULT_LAMBDA = 0.5


@dataclass(frozen=True)
class ProxyWeights:
    gamma: float = DEFAULT_GAMMA   # density weight
    lam: float = DEFAULT_LAMBDA    # congestion weight

    def __post_init__(self):
        for name, v in (("gamma", self.gamma), ("lam", self.lam)):
            if not math.isfinite(v) or v < 0:
                raise OutOfRange(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class CostConfig:
    smooth_radius: int = 2
    macro_h_usage: float = 1.0     # tracks consumed per unit boundary length
    macro_v_usage: float = 1.0

    def __post_init__(self):
        if self.smooth_radius < 0:
            raise OutOfRange(f"smooth_radius must be >= 0, got {self.smooth_radius}")
        for name, v in (("macro_h_usage", self.macro_h_usage), ("macro_v_usage", self.macro_v_usage)):
            if not math.isfinite(v) or v < 0:
                raise OutOfRange(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class ProxyBreakdown:
    wirelength: float
    density: float
    congestion: float
    total: float

    @staticmethod
    def combine(wirelength: float, density: float, congestion: float, weights: ProxyWeights) -> "ProxyBreakdown":
        total = wirelength + weights.gamma * density + weights.lam * congestion
        return ProxyBreakdown(wirelength, density, congestion, total)


def top_fraction_mean(values: np.ndarray, fraction: float) -> float:
    """Mean of the ceil(fraction * len) largest values."""
    flat = np.asarray(values, dtype=float).ravel()
    if flat.size == 0:
        raise EmptyCellSet("no values to pool")
    k = math.ceil(fraction * flat.size)
    k = max(1, min(k, flat.size))
    ordered = np.sort(flat)
    return float(np.mean(ordered[flat.size - k:]))


def smooth_grid(values: np.ndarray, radius: int, axis: int) -> np.ndarray:
    """Spread each entry uniformly over a (2*radius+1) window along axis.

    Windows truncate at the grid edge and each entry divides by its own actual
    window size, so the total mass is conserved.
    """
    a = np.asarray(values, dtype=float)
    if radius < 0:
        raise OutOfRange(f"radius must be nonnegative, got {radius}")
    n = a.shape[axis]
    if radius == 0 or n == 1:
        return a.copy()
    idx = np.arange(n)
    lo = np.maximum(idx - radius, 0)
    hi = np.minimum(idx + radius, n - 1)
    wsize = (hi - lo + 1).astype(float)
    shape = [1, 1]
    shape[axis] = n
    contrib = a / wsize.reshape(shape)
    c = np.cumsum(contrib, axis=axis)
    top = np.take(c, hi, axis=axis)
    bot = np.take(c, np.maximum(idx - radius - 1, 0), axis=axis)
    mask = (idx - radius - 1 >= 0).reshape(shape)
    return top - np.where(mask, bot, 0.0)


# ---------------------------------------------------------------------------
# Routing patterns


# Endpoints of the two L routes a three-cell net decomposes into, by the first
# pair sharing a row or column: (0,1), (0,2), (1,2), and 3 for none. The first
# L runs FIRST -> SECOND (one straight arm when the pair shares a line), the
# second from one of those to THIRD. With no shared line both leave the source.
_FIRST = np.array([0, 0, 1, 0])
_SECOND = np.array([1, 2, 2, 1])
_THIRD = np.array([2, 1, 0, 2])


def _three_cell_routes(cells: np.ndarray, n_rows: int):
    """The two L routes of each of many three-cell routes.

    `cells` is an (m, 3) array of flat cell ids (col * n_rows + row), the
    source first and the two sinks in (col, row) order. Each row takes the
    three-cell pattern of the module docstring, its pairs tested in the order
    (0, 1), (0, 2), (1, 2): the straight segment of the first pair sharing a
    row (tested before a shared column), then an L to the third cell from the
    nearer end of that segment (ties to its first cell), or a source star
    when no pair shares a line.

    Returns (c0, r0, c1, r1), each (m, 2): the start and end cells of the
    two L routes of each net, in routing order.
    """
    col, row = np.divmod(cells, n_rows)
    line = [(row[:, i] == row[:, j]) | (col[:, i] == col[:, j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    pick = np.argmax(np.stack(line + [np.ones(len(cells), dtype=bool)], axis=1), axis=1)

    m = np.arange(len(cells))
    a, b, t = _FIRST[pick], _SECOND[pick], _THIRD[pick]
    ca, ra, cb, rb, ct, rt = col[m, a], row[m, a], col[m, b], row[m, b], col[m, t], row[m, t]
    near_a = (np.abs(ct - ca) + np.abs(rt - ra) <= np.abs(ct - cb) + np.abs(rt - rb)) | (pick == 3)
    return (np.stack([ca, np.where(near_a, ca, cb)], axis=1), np.stack([ra, np.where(near_a, ra, rb)], axis=1),
            np.stack([cb, ct], axis=1), np.stack([rb, rt], axis=1))


def _ordered_diff(lo, hi, w, k: int, size: int) -> np.ndarray:
    """A flat difference array from the low and high ends of routes, summed
    by one `np.bincount` in a fixed per-cell order: the low ends of the first
    k routes (+w), then their high ends (-w), then each later route's segment
    as +w then -w where it has nonzero length. That is the order in which
    entries were added one at a time when the three-cell nets, whose routes
    come after the first k, were routed net by net, so the grids are
    bit-identical to it, even for non-integer weights."""
    on = lo[k:] != hi[k:]
    return np.bincount(np.concatenate([lo[:k], hi[:k], np.stack([lo[k:], hi[k:]], axis=1)[on].ravel()]),
                       np.concatenate([w[:k], -w[:k], np.stack([w[k:], -w[k:]], axis=1)[on].ravel()]),
                       minlength=size)


def _l_ends(c0, r0, c1, r1, n_rows: int):
    """Difference-array indices of the L routes from cell (c0, r0) to (c1, r1):
    the low and high ends of the horizontal arm in row r0, flat into the
    (n_cols + 1, n_rows) array, then those of the vertical arm in column c1,
    flat into the (n_cols, n_rows + 1) array. A zero-length arm has equal
    ends."""
    return (np.minimum(c0, c1) * n_rows + r0, np.maximum(c0, c1) * n_rows + r0,
            c1 * (n_rows + 1) + np.minimum(r0, r1), c1 * (n_rows + 1) + np.maximum(r0, r1))


# ---------------------------------------------------------------------------
# Rasterising outlines: one entry per (node, cell), summed per cell in node order


def _cell_spans(lo: np.ndarray, hi: np.ndarray, edges: np.ndarray):
    """Each interval [lo, hi] against the cells between consecutive `edges`:
    (how many cells it meets, their ids, and its overlap with each), interval
    by interval. The overlap is the dense form's clamp-and-difference,
    clip(edges[c + 1]) - clip(edges[c]), so it is the same float; the cells
    left out would all get 0.0."""
    n = edges.size - 1
    first = np.minimum(np.maximum(np.searchsorted(edges, lo, "right") - 1, 0), n - 1)
    count = np.minimum(np.searchsorted(edges, hi, "left"), n) - first
    cells = index_ranges(first, count)
    lo, hi = np.repeat(lo, count), np.repeat(hi, count)
    # np.clip(e, lo, hi) is np.minimum(np.maximum(e, lo), hi), without its wrapper.
    return count, cells, (np.minimum(np.maximum(edges[cells + 1], lo), hi)
                          - np.minimum(np.maximum(edges[cells], lo), hi))


def _crossed_spans(lo: np.ndarray, hi: np.ndarray, edges: np.ndarray):
    """Each interval (lo, hi) against the far edges edges[1:] of the cells:
    (how many far edges lie strictly inside it, the ids of their cells, and
    1.0 for each), interval by interval."""
    first = np.maximum(np.searchsorted(edges, lo, "right"), 1) - 1
    count = np.maximum(np.searchsorted(edges, hi, "left") - 1 - first, 0)
    cells = index_ranges(first, count)
    return count, cells, np.ones(cells.size)


def _products(ids: np.ndarray, cols, rows, n_rows: int):
    """One entry per node of `ids` and (column, row) pair of its column and
    row spans: (the node, the flat cell id col * n_rows + row, the column
    value times the row value), node by node."""
    nx, cx, fx = cols
    ny, cy, fy = rows
    per = np.repeat(ny, nx)
    ix = np.repeat(np.arange(cx.size), per)
    iy = index_ranges(np.repeat(np.cumsum(ny) - ny, nx), per)
    return np.repeat(ids, nx * ny), cx[ix] * n_rows + cy[iy], fx[ix] * fy[iy]


def _spliced(old, new, gone: np.ndarray):
    """The (node, cell, value) entries `old` without those of the nodes where
    `gone` is set, plus `new`, in node order."""
    keep = ~gone[old[0]]
    merged = [np.concatenate((o[keep], n)) for o, n in zip(old, new)]
    order = np.argsort(merged[0], kind="stable")
    return tuple(m[order] for m in merged)


@dataclass
class _Memo:
    """A copy of the (x, y, sx, sy) arrays one `components` call scored, and
    what each component keeps of its results: each net's HPWL, the density
    and macro-congestion entry sets, and the net routes' horizontal and
    vertical difference arrays."""
    arrays: tuple = ()
    hp: np.ndarray | None = None
    density: list | None = None
    macro: list | None = None
    diffs: tuple | None = None


class _Step(NamedTuple):
    """One `components` call: the memo this call fills in, the memo of the
    call before, and the ascending ids of the nodes moved since then and of
    the nets with a pin on one. A full pass reads the empty memo, which no
    one writes."""
    memo: _Memo
    last: _Memo = _Memo()
    moved: np.ndarray | None = None
    nets: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Evaluator: build static arrays once, evaluate placements many times


# A memoised component re-scores the nets of the moved nodes only while their
# pins are at most this share of all pins. On the ibm01 and fanout benchmark
# designs, memoised wirelength plus net congestion costs as much as a full
# pass at about 70 % of the pins (12.3 vs 13.2 ms and 30.2 vs 32.1 ms at 70 %,
# 13.8 vs 10.9 ms and 35.3 vs 32.3 ms at 80 %).
MEMO_PIN_SHARE = 0.6


class Evaluator:
    """Vectorized proxy-cost evaluation for a fixed netlist and grid.

    `components` keeps one memo of the last placement it scored and
    recomputes only what the node arrays changed since then (module
    docstring); a component called on its own is a pure full pass. Results
    are those of a full pass, bit for bit.
    """

    def __init__(self, netlist: Netlist, grid: Grid, config: CostConfig | None = None):
        self.netlist = netlist
        self.grid = grid
        self.config = config or CostConfig()
        a = self._arrays = netlist.arrays
        self._density_mask = a.is_macro | a.is_cluster
        self._n_nets = a.net_weight.size
        self._net_size = np.diff(a.net_start)
        self._pin_net = a.net_of_pin
        self._driver_offset = a.driver - a.net_start[:-1]
        # Node -> net CSR: the net of each pin, node by node (in any order
        # within a node; a stable sort costs four times as much).
        self._node_pins = np.bincount(a.pin_owner, minlength=len(a.names))
        self._node_start = np.concatenate(([0], np.cumsum(self._node_pins)))
        self._node_nets = self._pin_net[np.argsort(a.pin_owner)]
        # Difference-array sums of integer weights are exact in any order while
        # every partial sum stays below 2**53. A net's route entries come to
        # at most 2 * |weight| per pin and direction in absolute value, so a
        # memo step (the memo's entries, then the old and the new ones of the
        # moved nets) stays below 6 * |weight| per pin.
        w = a.net_weight
        self._exact_sums = bool(np.all(w == np.round(w))
                                and 6.0 * float(np.dot(np.abs(w), self._net_size)) < 2.0 ** 53)
        self._memo: _Memo | None = None   # None while a `components` call runs
        self._routes = None      # per pin, the ends of one L route; built by a full routing
        self._col_edges = np.arange(grid.n_cols + 1) * grid.cell_w
        self._row_edges = np.arange(grid.n_rows + 1) * grid.cell_h

    # -- placement decoding

    def node_arrays(self, placement: Placement):
        """(x, y, sx, sy) arrays in node order; every node must be placed.

        A `PlacementState` of this netlist hands over its own arrays.
        """
        st = PlacementState.of(self._arrays, placement)
        st.require(np.ones(st.x.size, dtype=bool), "node")
        return st.x, st.y, st.sx, st.sy

    def _net_pins(self, nets):
        """The pins of `nets`, an ascending array of net ids or slice(None)
        for all nets, in net order: (their flat pin indices or slice(None),
        each pin's position among `nets`, each net's first pin and the end)."""
        a = self._arrays
        if isinstance(nets, slice):
            return nets, self._pin_net, a.net_start
        size = self._net_size[nets]
        first = np.zeros(nets.size + 1, dtype=np.intp)
        np.cumsum(size, out=first[1:])
        return index_ranges(a.net_start[nets], size), np.repeat(np.arange(nets.size), size), first

    def _pin_xy(self, x, y, sx, sy, pins=slice(None)):
        a = self._arrays
        o = a.pin_owner[pins]
        px = x[o] + sx[o] * a.pin_dx[pins]
        py = y[o] + sy[o] * a.pin_dy[pins]
        return px, py

    # -- the memo

    def _step(self, arrays) -> _Step:
        """Take the memo, so that a call that raises leaves none and the
        components may update its arrays in place, and find the nodes moved
        since it and the nets with a pin on one: a full pass when there is
        no memo or those nets hold more than MEMO_PIN_SHARE of all pins."""
        last, self._memo = self._memo, None
        arrays = tuple(np.array(a, dtype=float) for a in arrays)
        if last is not None:
            moved = np.zeros(arrays[0].size, dtype=bool)
            for a, b in zip(arrays, last.arrays):
                moved |= a.view(np.int64) != b.view(np.int64)
            nodes = np.flatnonzero(moved)
            limit = MEMO_PIN_SHARE * self._pin_net.size
            # The moved nodes' own pins bound their nets' pins from below.
            if self._node_pins[nodes].sum() <= limit:
                touched = np.zeros(self._n_nets, dtype=bool)
                touched[self._node_nets[index_ranges(self._node_start[nodes], self._node_pins[nodes])]] = True
                nets = np.flatnonzero(touched)
                if self._net_size[nets].sum() <= limit:
                    return _Step(_Memo(arrays), last, nodes, nets)
        return _Step(_Memo(arrays))

    # -- components

    def _net_hpwl(self, x, y, sx, sy, nets=slice(None)):
        """Half-perimeter wirelength of each of `nets` (ids, or all nets)."""
        pins, _, first = self._net_pins(nets)
        px, py = self._pin_xy(x, y, sx, sy, pins)
        starts = first[:-1]
        return (np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
                + np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts))

    def wirelength_from_arrays(self, x, y, sx, sy, step: _Step | None = None) -> float:
        if self._n_nets == 0:
            return 0.0
        step = step or _Step(_Memo())
        hp = step.last.hp
        if hp is None:
            hp = self._net_hpwl(x, y, sx, sy)
        elif step.nets.size:
            hp[step.nets] = self._net_hpwl(x, y, sx, sy, step.nets)
        step.memo.hp = hp
        norm = self.netlist.canvas.width + self.netlist.canvas.height
        # numpy's pairwise sum, not np.dot: BLAS rounds by its thread count.
        return float(np.add.reduce(self._arrays.net_weight * hp) / norm / self._n_nets)

    def _outlines(self, ids, x, y):
        x, y, hw, hh = x[ids], y[ids], self._arrays.half_w[ids], self._arrays.half_h[ids]
        return x - hw, x + hw, y - hh, y + hh

    def _density_entries(self, ids, x, y):
        """Overlap area entries of the nodes `ids`, one per (node, cell)."""
        x1, x2, y1, y2 = self._outlines(ids, x, y)
        return [_products(ids, _cell_spans(x1, x2, self._col_edges), _cell_spans(y1, y2, self._row_edges),
                          self.grid.n_rows)]

    def _macro_entries(self, ids, x, y):
        """Macro congestion entries of the nodes `ids`: the overlap with each
        row of every right cell boundary the outline crosses, then the
        overlap with each column of every top boundary it crosses."""
        x1, x2, y1, y2 = self._outlines(ids, x, y)
        cols, rows = _cell_spans(x1, x2, self._col_edges), _cell_spans(y1, y2, self._row_edges)
        n = self.grid.n_rows
        return [_products(ids, _crossed_spans(x1, x2, self._col_edges), rows, n),
                _products(ids, cols, _crossed_spans(y1, y2, self._row_edges), n)]

    def _surfaces(self, mask, x, y, sets, moved, entries):
        """(sets, sums): each entry set that `entries` builds for the nodes
        of `mask`, and its per-cell sums in node order. Given the last
        call's `sets`, only the `moved` nodes' entries are built again."""
        g = self.grid
        if sets is None:
            sets = entries(np.flatnonzero(mask), x, y)
        elif (ids := moved[mask[moved]]).size:
            gone = np.zeros(mask.size, dtype=bool)
            gone[ids] = True
            sets = [_spliced(old, new, gone) for old, new in zip(sets, entries(ids, x, y))]
        return sets, [np.bincount(cell, value, minlength=g.n_cells).reshape(g.n_cols, g.n_rows)
                      for _, cell, value in sets]

    def density_grid_from_arrays(self, x, y, step: _Step | None = None) -> np.ndarray:
        g = self.grid
        step = step or _Step(_Memo())
        step.memo.density, (area,) = self._surfaces(self._density_mask, x, y, step.last.density, step.moved,
                                                    self._density_entries)
        return area / (g.cell_w * g.cell_h)

    def macro_congestion_from_arrays(self, x, y, step: _Step | None = None):
        g = self.grid
        step = step or _Step(_Memo())
        step.memo.macro, (h, v) = self._surfaces(self._arrays.is_macro, x, y, step.last.macro, step.moved,
                                                 self._macro_entries)
        return h * (self.config.macro_h_usage / g.h_capacity), v * (self.config.macro_v_usage / g.v_capacity)

    def _route(self, x, y, sx, sy, nets=slice(None), store=False):
        """Route `nets` (ascending ids, or all nets) and, with `store`,
        record their routes in the route store.

        Every net is routed at once on whole arrays, as L routes: k == 2 and
        k > 3 nets as a star of source-anchored L routes, three-cell nets as
        two L routes each. Returns (ends, w, k): the four index arrays of the
        routes' ends from `_l_ends`, each route's net weight, and the number
        k of source-anchored routes, which come first in (net, cell) order;
        the three-cell nets' routes follow, net by net.

        The store holds one route per pin, from each routed net's first pin
        on: the route to the net's j-th distinct cell at pin j, a three-cell
        net's two routes at its first two pins, and equal ends, a route of
        length zero, at every other pin.
        """
        g = self.grid
        a = self._arrays
        pins, pin_net, first = self._net_pins(nets)
        px, py = self._pin_xy(x, y, sx, sy, pins)
        pc, pr = g.cells_of(px, py)
        cell = pc * g.n_rows + pr
        # Distinct (net, cell) keys in sorted order, as np.unique would give
        # them; a sort plus an adjacent-difference mask is several times
        # faster than numpy's hash-based unique.
        keys = np.sort(pin_net * g.n_cells + cell)
        keep = np.empty(keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        uniq = keys[keep]
        unet = uniq // g.n_cells
        ucell = uniq - unet * g.n_cells
        # Distinct-cell count per net, aligned to unique order.
        counts = np.bincount(unet, minlength=first.size - 1)
        src_cell = cell[first[:-1] + self._driver_offset[nets]]
        k_of = counts[unet]
        src_of = src_cell[unet]
        w_of = a.net_weight[nets][unet]
        # k == 2 and k > 3 decompose into source-anchored L routes.
        lmask = (ucell != src_of) & ((k_of == 2) | (k_of >= 4))
        cs, rs = np.divmod(src_of[lmask], g.n_rows)
        ct, rt = np.divmod(ucell[lmask], g.n_rows)
        # Three-cell nets: their three distinct cells are adjacent in unique
        # order, sorted by (col, row); the source goes first.
        tri = k_of == 3
        cells3 = ucell[tri].reshape(-1, 3)
        src3 = src_of[tri][::3, None]
        ordered = np.concatenate([src3, cells3[cells3 != src3].reshape(-1, 2)], axis=1)
        ends3 = _l_ends(*_three_cell_routes(ordered, g.n_rows), g.n_rows)
        ends = [np.concatenate([e, e3.ravel()]) for e, e3 in zip(_l_ends(cs, rs, ct, rt, g.n_rows), ends3)]
        w3 = w_of[tri][::3]
        if store:
            net_first = a.net_start[:-1][nets]
            rank = np.arange(uniq.size) - (np.cumsum(counts) - counts)[unet]
            slots = np.concatenate([net_first[unet[lmask]] + rank[lmask],
                                    (net_first[unet[tri][::3], None] + np.arange(2)).ravel()])
            if self._routes is None:
                small = (g.n_cols + 1) * (g.n_rows + 1) < 2 ** 31
                self._routes = np.zeros((a.pin_owner.size, 4), dtype=np.int32 if small else np.intp)
            # Each row is written as one item: fancy indexing of rows costs
            # several times as much.
            rows = self._routes.view(f"V{4 * self._routes.itemsize}")[:, 0]
            rows[pins] = np.zeros(4, dtype=self._routes.dtype).view(rows.dtype)
            rows[slots] = np.stack(ends, axis=1, dtype=self._routes.dtype).view(rows.dtype)[:, 0]
        return ends, np.concatenate([w_of[lmask], np.repeat(w3, 2)]), int(lmask.sum())

    def net_congestion_from_arrays(self, x, y, sx, sy, step: _Step | None = None):
        """Unsmoothed net routing demand / capacity.

        Given the last call's results, only the step's nets are routed, at
        their new positions, and their old routes are read from the route
        store, which only a call with a step writes: one `np.bincount` per
        direction adds the new routes' entries to the last difference arrays
        and takes the old ones out. This needs integer net weights, whose
        sums are exact in any order.
        """
        g = self.grid
        if self._n_nets == 0:
            return np.zeros((g.n_cols, g.n_rows)), np.zeros((g.n_cols, g.n_rows))
        store = step is not None
        step = step or _Step(_Memo())
        h_shape, v_shape = (g.n_cols + 1, g.n_rows), (g.n_cols, g.n_rows + 1)
        if step.last.diffs is None or not self._exact_sums:
            (h_lo, h_hi, v_lo, v_hi), w, k = self._route(x, y, sx, sy, store=store)
            hdiff = _ordered_diff(h_lo, h_hi, w, k, h_shape[0] * h_shape[1]).reshape(h_shape)
            vdiff = _ordered_diff(v_lo, v_hi, w, k, v_shape[0] * v_shape[1]).reshape(v_shape)
        elif step.nets.size == 0:
            hdiff, vdiff = step.last.diffs
        else:
            pins = self._net_pins(step.nets)[0]
            old = np.take(self._routes, pins, axis=0)
            ends, w, _ = self._route(x, y, sx, sy, step.nets, store=True)
            old_w = self._arrays.net_weight[self._pin_net[pins]]
            wts = np.concatenate([w, -w, -old_w, old_w])

            def delta(lo, hi, shape):
                idx = np.concatenate([ends[lo], ends[hi], old[:, lo], old[:, hi]])
                return np.bincount(idx, wts, minlength=shape[0] * shape[1]).reshape(shape)
            hdiff = step.last.diffs[0] + delta(0, 1, h_shape)
            vdiff = step.last.diffs[1] + delta(2, 3, v_shape)
        step.memo.diffs = hdiff, vdiff
        h = np.cumsum(hdiff, axis=0)[:g.n_cols]
        v = np.cumsum(vdiff, axis=1)[:, :g.n_rows]
        return h / g.h_capacity, v / g.v_capacity

    def congestion_surfaces_from_arrays(self, x, y, sx, sy, step: _Step | None = None):
        """(hc, vc): macro demand plus net demand smoothed along its routing
        direction, per boundary, both as demand / capacity."""
        hm, vm = self.macro_congestion_from_arrays(x, y, step)
        hn, vn = self.net_congestion_from_arrays(x, y, sx, sy, step)
        r = self.config.smooth_radius
        return hm + smooth_grid(hn, r, axis=0), vm + smooth_grid(vn, r, axis=1)

    # -- public API

    def components(self, placement: Placement) -> tuple[float, float, float]:
        x, y, sx, sy = self.node_arrays(placement)
        step = self._step((x, y, sx, sy))
        wl = self.wirelength_from_arrays(x, y, sx, sy, step)
        dens = top_fraction_mean(self.density_grid_from_arrays(x, y, step), 0.10)
        hc, vc = self.congestion_surfaces_from_arrays(x, y, sx, sy, step)
        cong = top_fraction_mean(np.concatenate([hc.ravel(), vc.ravel()]), 0.05)
        self._memo = step.memo
        return wl, dens, cong

    def breakdown(self, placement: Placement, weights: ProxyWeights | None = None) -> ProxyBreakdown:
        wl, dens, cong = self.components(placement)
        return ProxyBreakdown.combine(wl, dens, cong, weights or ProxyWeights())
