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


# ---------------------------------------------------------------------------
# Evaluator: build static arrays once, evaluate placements many times


class Evaluator:
    """Vectorized proxy-cost evaluation for a fixed netlist and grid."""

    def __init__(self, netlist: Netlist, grid: Grid, config: CostConfig | None = None):
        self.netlist = netlist
        self.grid = grid
        self.config = config or CostConfig()
        a = self._arrays = netlist.arrays
        self._density_mask = a.is_macro | a.is_cluster
        self._n_nets = a.net_weight.size
        self._pin_net = np.repeat(np.arange(self._n_nets, dtype=np.intp), np.diff(a.net_start))
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

    def _pin_xy(self, x, y, sx, sy):
        a = self._arrays
        o = a.pin_owner
        px = x[o] + sx[o] * a.pin_dx
        py = y[o] + sy[o] * a.pin_dy
        return px, py

    # -- components

    def wirelength_from_arrays(self, x, y, sx, sy) -> float:
        if self._n_nets == 0:
            return 0.0
        px, py = self._pin_xy(x, y, sx, sy)
        starts = self._arrays.net_start[:-1]
        hp = (np.maximum.reduceat(px, starts) - np.minimum.reduceat(px, starts)
              + np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts))
        norm = self.netlist.canvas.width + self.netlist.canvas.height
        return float(np.dot(self._arrays.net_weight, hp) / norm / self._n_nets)

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

    def net_congestion_from_arrays(self, x, y, sx, sy):
        """Unsmoothed net routing demand / capacity.

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
        h = np.zeros((g.n_cols, g.n_rows))
        v = np.zeros((g.n_cols, g.n_rows))
        if self._n_nets == 0:
            return h, v
        px, py = self._pin_xy(x, y, sx, sy)
        pc = np.clip(np.floor(px / g.cell_w).astype(np.intp), 0, g.n_cols - 1)
        pr = np.clip(np.floor(py / g.cell_h).astype(np.intp), 0, g.n_rows - 1)
        cell = pc * g.n_rows + pr
        # Distinct (net, cell) keys in sorted order, as np.unique would give
        # them; a sort plus an adjacent-difference mask is several times
        # faster than numpy's hash-based unique.
        keys = np.sort(self._pin_net * g.n_cells + cell)
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        uniq = keys[first]
        unet = uniq // g.n_cells
        ucell = uniq % g.n_cells
        # Distinct-cell count per net, aligned to unique order.
        counts = np.bincount(unet, minlength=self._n_nets)
        src_cell = cell[self._arrays.driver]
        k_of = counts[unet]
        src_of = src_cell[unet]
        w_of = self._arrays.net_weight[unet]
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
