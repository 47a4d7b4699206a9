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

One `Evaluator` that scores a sequence of placements, as the annealer's does,
re-scores only what changed. Wirelength and net congestion each keep a
private memo of their last inputs and results. A call compares the new node
arrays with the memo's by bit pattern (so -0.0 and 0.0 differ) and finds,
through a node->net index built once, the nets with a pin on a moved node:
  * wirelength recomputes those nets' HPWL and takes the same weighted sum
    over all nets;
  * net congestion routes those nets with the one router at their old and at
    their new positions, subtracts the old difference-array entries and adds
    the new ones. With integer net weights, which covers all Bookshelf input,
    these sums are exact in any order, so the grids equal a full routing.
    With any other weight it always routes all nets.
Density and macro congestion, about 1.5 ms of a 5-7 ms memoised breakdown
on the benchmark designs, keep no memo and are computed in full each time.
A component makes a full pass, which refreshes its memo, when it has no memo
or when the touched nets hold more than MEMO_PIN_SHARE of all pins, as after
an FD pass. Every result equals a fresh `Evaluator`'s bit for bit.

Grids are numpy arrays indexed [col, row]; cell (0, 0) is lower-left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCellSet, OutOfRange
from .geometry import Grid
from .netlist import Netlist, Placement, PlacementState

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


def _three_cell_entries(cells: np.ndarray, weight: np.ndarray, n_rows: int):
    """Difference-array entries of many three-cell routes at once.

    `cells` is an (m, 3) array of flat cell ids (col * n_rows + row), the
    source first and the two sinks in (col, row) order; `weight` has length m.
    Each row takes the three-cell pattern of the module docstring, its pairs
    tested in the order (0, 1), (0, 2), (1, 2): the straight segment of the
    first pair sharing a row (tested before a shared column), then an L to
    the third cell from the nearer end of that segment (ties to its first
    cell), or a source star when no pair shares a line.

    Returns ((h_idx, h_w), (v_idx, v_w)): flat indices into the (n_cols + 1, n_rows)
    and (n_cols, n_rows + 1) difference arrays with their +w/-w values, net by
    net, each net's segments in routing order as +w at the low end then -w at
    the high end. Zero-length arms are dropped.
    """
    col, row = np.divmod(cells, n_rows)
    line = [(row[:, i] == row[:, j]) | (col[:, i] == col[:, j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    pick = np.argmax(np.stack(line + [np.ones(len(cells), dtype=bool)], axis=1), axis=1)

    def at(a, k):
        return np.take_along_axis(a, k[:, None], axis=1)[:, 0]

    a, b, t = _FIRST[pick], _SECOND[pick], _THIRD[pick]
    ca, ra, cb, rb, ct, rt = at(col, a), at(row, a), at(col, b), at(row, b), at(col, t), at(row, t)
    near_a = (np.abs(ct - ca) + np.abs(rt - ra) <= np.abs(ct - cb) + np.abs(rt - rb)) | (pick == 3)
    # Two L routes per net, (m, 2): horizontal arm in the start row, then the
    # vertical arm in the end column.
    c0 = np.stack([ca, np.where(near_a, ca, cb)], axis=1)
    r0 = np.stack([ra, np.where(near_a, ra, rb)], axis=1)
    c1 = np.stack([cb, ct], axis=1)
    r1 = np.stack([rb, rt], axis=1)
    signed = np.stack([weight, -weight], axis=1)[:, None, :]     # (m, 1, 2)
    h_idx = np.stack([np.minimum(c0, c1), np.maximum(c0, c1)], axis=2) * n_rows + r0[:, :, None]
    v_idx = c1[:, :, None] * (n_rows + 1) + np.stack([np.minimum(r0, r1), np.maximum(r0, r1)], axis=2)
    h_on = np.broadcast_to((c0 != c1)[:, :, None], h_idx.shape)
    v_on = np.broadcast_to((r0 != r1)[:, :, None], v_idx.shape)
    h_w = np.broadcast_to(signed, h_idx.shape)
    v_w = np.broadcast_to(signed, v_idx.shape)
    return (h_idx[h_on], h_w[h_on]), (v_idx[v_on], v_w[v_on])


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The index ranges start[i] : start[i] + size[i], concatenated."""
    end = np.cumsum(size)
    return np.arange(end[-1] if end.size else 0) + np.repeat(start + size - end, size)


# ---------------------------------------------------------------------------
# Evaluator: build static arrays once, evaluate placements many times


# A memoised component re-scores the nets of the moved nodes only while their
# pins are at most this share of all pins. On the ibm01 and fanout benchmark
# designs a memoised breakdown costs as much as a full one at about half the
# pins (12.97 vs 12.74 ms at 56 %, 32.4 vs 34.0 ms at 50 %).
MEMO_PIN_SHARE = 0.4


class Evaluator:
    """Vectorized proxy-cost evaluation for a fixed netlist and grid.

    Wirelength and net congestion each keep a private memo of their last
    inputs and results and recompute only what the node arrays changed since
    then (module docstring). Results are those of a full pass, bit for bit.
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
        # at most 2 * |weight| per pin in absolute value, which bounds them all.
        w = a.net_weight
        self._exact_sums = bool(np.all(w == np.round(w))
                                and 2.0 * float(np.dot(np.abs(w), self._net_size)) < 2.0 ** 53)
        self._memo: dict = {}
        # Column/row edge coordinates for separable overlap accumulation.
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
        return _ranges(a.net_start[nets], size), np.repeat(np.arange(nets.size), size), first

    def _pin_xy(self, x, y, sx, sy, pins=slice(None)):
        a = self._arrays
        o = a.pin_owner[pins]
        px = x[o] + sx[o] * a.pin_dx[pins]
        py = y[o] + sy[o] * a.pin_dy[pins]
        return px, py

    # -- the memo

    def _moved(self, key: str, arrays):
        """(memo, moved): the memo `key` and the ids of the nodes whose entry
        in any of `arrays` differs from its inputs by bit pattern, so that
        -0.0 and 0.0 differ; (None, None) when there is no such memo."""
        memo = self._memo.get(key)
        if memo is None or any(a.shape != b.shape for a, b in zip(arrays, memo["inputs"])):
            return None, None
        moved = np.zeros(arrays[0].shape, dtype=bool)
        for a, b in zip(arrays, memo["inputs"]):
            moved |= np.asarray(a, dtype=float).view(np.int64) != b.view(np.int64)
        return memo, np.flatnonzero(moved)

    def _touched(self, key: str, arrays):
        """(memo, nets): the memo `key` and the ascending ids of the nets with
        a pin on a moved node, or (None, None) for a full pass: there is no
        memo, or those nets hold more than MEMO_PIN_SHARE of all pins."""
        memo, nodes = self._moved(key, arrays)
        limit = MEMO_PIN_SHARE * self._pin_net.size
        # The moved nodes' own pins bound their nets' pins from below.
        if memo is None or self._node_pins[nodes].sum() > limit:
            return None, None
        touched = np.zeros(self._n_nets, dtype=bool)
        touched[self._node_nets[_ranges(self._node_start[nodes], self._node_pins[nodes])]] = True
        nets = np.flatnonzero(touched)
        if self._net_size[nets].sum() > limit:
            return None, None
        return memo, nets

    def _remember(self, key: str, arrays, **results) -> None:
        self._memo[key] = {"inputs": [np.array(a, dtype=float) for a in arrays], **results}

    # -- components

    def _net_hpwl(self, x, y, sx, sy, nets=slice(None)):
        """Half-perimeter wirelength of each of `nets` (ids, or all nets)."""
        pins, _, first = self._net_pins(nets)
        px, py = self._pin_xy(x, y, sx, sy, pins)
        starts = first[:-1]
        return (np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
                + np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts))

    def wirelength_from_arrays(self, x, y, sx, sy) -> float:
        if self._n_nets == 0:
            return 0.0
        memo, nets = self._touched("wirelength", (x, y, sx, sy))
        if memo is None:
            hp = self._net_hpwl(x, y, sx, sy)
        else:
            hp = memo["hp"].copy()
            if nets.size:
                hp[nets] = self._net_hpwl(x, y, sx, sy, nets)
        self._remember("wirelength", (x, y, sx, sy), hp=hp)
        norm = self.netlist.canvas.width + self.netlist.canvas.height
        # numpy's pairwise sum, not np.dot: BLAS rounds by its thread count.
        return float(np.add.reduce(self._arrays.net_weight * hp) / norm / self._n_nets)

    def density_grid_from_arrays(self, x, y) -> np.ndarray:
        g = self.grid
        m = self._density_mask
        if not m.any():
            return np.zeros((g.n_cols, g.n_rows))
        a = self._arrays
        x1 = (x - a.half_w)[m]
        x2 = (x + a.half_w)[m]
        y1 = (y - a.half_h)[m]
        y2 = (y + a.half_h)[m]
        # Overlap of [x1, x2] with column i is the difference of the clamped
        # cumulative coverage at consecutive column edges (separable in x/y).
        cx = np.clip(self._col_edges[None, :], x1[:, None], x2[:, None])
        wx = np.diff(cx, axis=1)
        cy = np.clip(self._row_edges[None, :], y1[:, None], y2[:, None])
        wy = np.diff(cy, axis=1)
        return np.einsum("ni,nj->ij", wx, wy) / (g.cell_w * g.cell_h)

    def macro_congestion_from_arrays(self, x, y):
        g = self.grid
        m = self._arrays.is_macro
        h = np.zeros((g.n_cols, g.n_rows))
        v = np.zeros((g.n_cols, g.n_rows))
        if not m.any():
            return h, v
        a = self._arrays
        x1 = (x - a.half_w)[m]
        x2 = (x + a.half_w)[m]
        y1 = (y - a.half_h)[m]
        y2 = (y + a.half_h)[m]
        # Right boundaries sit at the interior + far column edges.
        bx = self._col_edges[1:]
        cross_h = (x1[:, None] < bx[None, :]) & (bx[None, :] < x2[:, None])
        cy = np.clip(self._row_edges[None, :], y1[:, None], y2[:, None])
        wy = np.diff(cy, axis=1)
        h = np.einsum("mc,mr->cr", cross_h.astype(float), wy)
        h *= self.config.macro_h_usage / g.h_capacity
        by = self._row_edges[1:]
        cross_v = (y1[:, None] < by[None, :]) & (by[None, :] < y2[:, None])
        cx = np.clip(self._col_edges[None, :], x1[:, None], x2[:, None])
        wx = np.diff(cx, axis=1)
        v = np.einsum("mr,mc->cr", cross_v.astype(float), wx)
        v *= self.config.macro_v_usage / g.v_capacity
        return h, v

    def _route(self, x, y, sx, sy, nets=slice(None)):
        """Net routing demand of `nets` (ascending ids, or all nets) as the
        (hdiff, vdiff) difference arrays.

        Every net is routed at once on whole arrays. Each boundary-crossing
        segment adds +w at its low end and -w at its high end of a difference
        array (`hdiff` along columns, `vdiff` along rows), and a cumulative sum
        turns the differences into per-boundary demand. Both difference
        arrays are filled by one `np.bincount` whose per-cell summation order
        is fixed: the low ends of all source-anchored L routes in (net, cell)
        order, then their high ends, then the segments of the three-cell nets
        in net order, each as +w then -w. That is the order in which entries
        were added one at a time when the three-cell nets were routed net by
        net, so the grids are bit-identical to it, even for non-integer
        weights.
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
        ucell = uniq % g.n_cells
        # Distinct-cell count per net, aligned to unique order.
        counts = np.bincount(unet, minlength=first.size - 1)
        src_cell = cell[first[:-1] + self._driver_offset[nets]]
        k_of = counts[unet]
        src_of = src_cell[unet]
        w_of = a.net_weight[nets][unet]
        # k == 2 and k > 3 decompose into source-anchored L pairs.
        lmask = (ucell != src_of) & ((k_of == 2) | (k_of >= 4))
        cs, rs = np.divmod(src_of[lmask], g.n_rows)
        ct, rt = np.divmod(ucell[lmask], g.n_rows)
        w = w_of[lmask]
        # Three-cell nets: their three distinct cells are adjacent in unique
        # order, sorted by (col, row); the source goes first.
        tri = k_of == 3
        cells3 = ucell[tri].reshape(-1, 3)
        src3 = src_of[tri][::3, None]
        ordered = np.concatenate([src3, cells3[cells3 != src3].reshape(-1, 2)], axis=1)
        (h3, h3_w), (v3, v3_w) = _three_cell_entries(ordered, w_of[tri][::3], g.n_rows)
        h_idx = [np.minimum(cs, ct) * g.n_rows + rs, np.maximum(cs, ct) * g.n_rows + rs, h3]
        v_idx = [ct * (g.n_rows + 1) + np.minimum(rs, rt), ct * (g.n_rows + 1) + np.maximum(rs, rt), v3]
        hdiff = np.bincount(np.concatenate(h_idx), np.concatenate([w, -w, h3_w]),
                            minlength=(g.n_cols + 1) * g.n_rows).reshape(g.n_cols + 1, g.n_rows)
        vdiff = np.bincount(np.concatenate(v_idx), np.concatenate([w, -w, v3_w]),
                            minlength=g.n_cols * (g.n_rows + 1)).reshape(g.n_cols, g.n_rows + 1)
        return hdiff, vdiff

    def net_congestion_from_arrays(self, x, y, sx, sy):
        """Unsmoothed net routing demand / capacity.

        With a memo, only the nets of the moved nodes are routed, at their
        old and at their new positions: their old entries are subtracted from
        the memo's difference arrays and the new ones added. This path needs
        integer net weights, whose sums are exact in any order.
        """
        g = self.grid
        if self._n_nets == 0:
            return np.zeros((g.n_cols, g.n_rows)), np.zeros((g.n_cols, g.n_rows))
        memo, nets = (self._touched("net_congestion", (x, y, sx, sy)) if self._exact_sums
                      else (None, None))
        if memo is None:
            hdiff, vdiff = self._route(x, y, sx, sy)
        elif nets.size == 0:
            hdiff, vdiff = memo["hdiff"], memo["vdiff"]
        else:
            old_h, old_v = self._route(*memo["inputs"], nets)
            new_h, new_v = self._route(x, y, sx, sy, nets)
            hdiff = memo["hdiff"] - old_h + new_h
            vdiff = memo["vdiff"] - old_v + new_v
        self._remember("net_congestion", (x, y, sx, sy), hdiff=hdiff, vdiff=vdiff)
        h = np.cumsum(hdiff, axis=0)[:g.n_cols]
        v = np.cumsum(vdiff, axis=1)[:, :g.n_rows]
        return h / g.h_capacity, v / g.v_capacity

    def congestion_surfaces_from_arrays(self, x, y, sx, sy):
        """(hc, vc): macro demand plus net demand smoothed along its routing
        direction, per boundary, both as demand / capacity."""
        hm, vm = self.macro_congestion_from_arrays(x, y)
        hn, vn = self.net_congestion_from_arrays(x, y, sx, sy)
        r = self.config.smooth_radius
        return hm + smooth_grid(hn, r, axis=0), vm + smooth_grid(vn, r, axis=1)

    # -- public API

    def components(self, placement: Placement) -> tuple[float, float, float]:
        x, y, sx, sy = self.node_arrays(placement)
        wl = self.wirelength_from_arrays(x, y, sx, sy)
        dens = top_fraction_mean(self.density_grid_from_arrays(x, y), 0.10)
        hc, vc = self.congestion_surfaces_from_arrays(x, y, sx, sy)
        cong = top_fraction_mean(np.concatenate([hc.ravel(), vc.ravel()]), 0.05)
        return wl, dens, cong

    def breakdown(self, placement: Placement, weights: ProxyWeights | None = None) -> ProxyBreakdown:
        wl, dens, cong = self.components(placement)
        return ProxyBreakdown.combine(wl, dens, cong, weights or ProxyWeights())
