"""Force-directed placement of soft clusters among fixed macros and ports.

Each iteration applies two forces to every node, then moves only the movable
clusters:

  * attractive, along each star subnet pair (driver pin to every other pin):
    per-axis magnitude k_attract * |dx| toward the other pin, scaled by
    io_factor when either endpoint is a port;
  * repulsive, between every pair of nodes whose outlines overlap with
    positive area: total magnitude k_repel * f_r_max along the center line,
    pushing apart. Coincident centers get a seeded random direction.

Per-axis forces are normalized by the maximum absolute component over ALL
nodes and scaled to max_move_distance = max(canvas_w, canvas_h) / num_iters,
which is also f_r_max. A move that would push a cluster outside the canvas is
canceled whole. Clusters always start at the canvas center.

So in iteration 0 the stack, the nodes at the center with a positive width
and height, overlaps itself pair by pair with coincident centers. Those pairs
are built directly in the row-major order of their random draws; any other
coincident pair (a zero-width node at the center, say) joins them at its
row-major place, so pairs, draws and sums stay the dense definition's.

Overlapping pairs are found by a sort-and-sweep on the x extents (the
sweep-and-prune of I-COLLIDE, Cohen et al. 1995), with the intervals widened
by a tiny slack so that no pair is missed, and then filtered by the same float
predicate as the dense all-pairs definition. Every force sum keeps the dense
definition's operands and summation order, so results are bit-identical to
`fd_place_dense` in tests/oracles.py.

The dense definition sums each node's repulsion terms as a row of an n x n
matrix, `M.sum(axis=1)`. `_RowSums` gives the same floats from the nonzero
entries alone, with no n x n buffer: it mirrors numpy's `pairwise_sum`
(numpy/_core/src/umath/loops_utils.h.src; Higham, SIAM J. Sci. Comput. 1993),
a fixed tree that depends only on n. A numpy that sums rows differently makes
the dense-oracle tests fail.

Node sizes, kinds and pins come from `Netlist.arrays`, built once per
netlist; each call reads only the locations and orientation signs of the
`PlacementState` it decodes from the placement it is given.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfRange
from .netlist import Netlist, Placement, PlacementState, index_ranges

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FDParams:
    num_iters: int = 100
    k_attract: float = 1.0
    k_repel: float = 1.0
    io_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_iters < 1:
            raise OutOfRange(f"num_iters must be >= 1, got {self.num_iters}")
        for name in ("k_attract", "k_repel", "io_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise OutOfRange(f"{name} must be finite and >= 0, got {value}")
        if self.seed < 0:
            raise OutOfRange(f"seed must be >= 0, got {self.seed}")


@dataclass
class FDIterationInfo:
    """Snapshot handed to the observer after each iteration."""

    iteration: int
    norm_fx: np.ndarray       # post-normalization per-axis force, all nodes
    norm_fy: np.ndarray
    x: np.ndarray             # centers after the move, all nodes
    y: np.ndarray
    applied_dx: np.ndarray    # displacement actually applied (0 when canceled)
    applied_dy: np.ndarray
    max_move_distance: float


def _star_pairs(netlist: Netlist, placement: Placement, io_factor: float):
    """Star decomposition of all nets into (driver pin, other pin) pairs.

    A k-pin net gives k - 1 pairs, from its driver (first marked source, else
    first pin) to each other pin. Offsets are pre-rotated by the owner's
    orientation in `placement`, N for an unplaced owner (orientations do not
    change during FD). Returns index arrays plus per-pair attraction scale,
    net by net and pin by pin.
    """
    arrays = netlist.arrays
    state = PlacementState.of(arrays, placement)
    owner = arrays.pin_owner
    off = np.column_stack((arrays.pin_dx, arrays.pin_dy))
    other = np.ones(owner.size, dtype=bool)
    other[arrays.driver] = False
    a_pin = np.repeat(arrays.driver, np.diff(arrays.net_start))[other]
    b_pin = np.flatnonzero(other)

    signs = np.column_stack((state.sx, state.sy))
    a_idx = owner[a_pin]
    b_idx = owner[b_pin]
    scale = np.where(arrays.is_port[a_idx] | arrays.is_port[b_idx], io_factor, 1.0)
    return a_idx, b_idx, signs[a_idx] * off[a_pin], signs[b_idx] * off[b_pin], scale


# numpy's pairwise_sum: a run of at most _BLOCK values is summed by _LANES
# strided accumulators, so a lane takes at most _PASSES values.
_BLOCK = 128
_LANES = 8
_PASSES = _BLOCK // _LANES
_NO_PAIRS = (np.empty(0, dtype=np.intp),) * 2


class _RowSums:
    """Exact `M.sum(axis=1)` of float64 matrices with `n_cols` columns, from
    their nonzero entries.

    For a C-contiguous float64 row, numpy returns 0.0 + pairwise(row):
    pairwise splits a row longer than _BLOCK at half its length, rounded
    down to a multiple of _LANES, into leaves of at most _BLOCK values. A
    leaf sums value k into lane k % 8 (the first value of a lane starts it),
    combines the lanes as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds its
    last len % 8 values, the tail, in order; a leaf shorter than 8 is all
    tail. Zeros leave a nonzero partial sum unchanged and the final 0.0 +
    clears the sign of a zero one, so only the nonzero entries need adding.

    Each column fixes its leaf and either its lane and pass k // 8 or its
    tail position. One sort of the entries by pass, then tail position, puts
    every lane's and every tail's values in column order, and `np.bincount`,
    which adds in input order, accumulates them: the lanes into an (n_rows,
    leaves, 8) array, about n_rows * n_cols / 12 floats, then the tails onto
    the leaf sums. The leaves combine by the tree, one column at a time.
    """

    def __init__(self, n_cols: int):
        starts, sizes = [], []

        def split(start, size):
            if size <= _BLOCK:
                starts.append(start)
                sizes.append(size)
                return len(sizes) - 1
            half = size // 2
            half -= half % _LANES
            return split(start, half), split(start + half, size - half)

        self._tree = split(0, n_cols)
        self._leaves = len(sizes)
        leaf = np.repeat(np.arange(self._leaves), sizes)
        off = np.arange(n_cols) - np.asarray(starts)[leaf]
        main = np.asarray(sizes)[leaf] // _LANES * _LANES
        in_lane = off < main
        # Passes sort first, then tail positions.
        self._key = np.where(in_lane, off // _LANES, _PASSES + off - main).astype(np.uint8)
        self._slot = leaf * _LANES + np.where(in_lane, off % _LANES, 0)

    def __call__(self, n_rows: int, rows: np.ndarray, cols: np.ndarray):
        """The row-sum function of the (n_rows, n_cols) matrices whose
        entries sit at (rows, cols), each cell at most once; every other cell
        is zero. It maps the entries' values, in the same order, to the row
        sums."""
        key = self._key[cols]
        n_tail = np.count_nonzero(key >= _PASSES)
        width = self._leaves * _LANES
        slot = rows.astype(np.intp)
        slot *= width
        slot += self._slot[cols]
        # A lane takes one value per pass, so ordering by pass puts each
        # lane's values in column order (stable: numpy radix-sorts uint8).
        order = np.argsort(key, kind="stable")
        slot = slot[order]
        n_lane = slot.size - n_tail
        tail_slot = slot[n_lane:] // _LANES
        slot = slot[:n_lane]

        def row_sums(vals: np.ndarray) -> np.ndarray:
            v = vals[order]
            r = np.bincount(slot, v[:n_lane], n_rows * width)
            r = r.reshape(n_rows, self._leaves, _LANES)
            r = r[..., 0::2] + r[..., 1::2]
            r = r[..., 0::2] + r[..., 1::2]
            leaf = r[..., 0] + r[..., 1]
            if n_tail:
                leaf = np.bincount(np.concatenate((np.arange(leaf.size), tail_slot)),
                                   np.concatenate((leaf.reshape(-1), v[n_lane:])), leaf.size)
                leaf = leaf.reshape(n_rows, self._leaves)

            def combine(node):
                if isinstance(node, int):
                    return leaf[:, node]
                return combine(node[0]) + combine(node[1])

            return 0.0 + combine(self._tree)

        return row_sums


def _overlap_pairs(x, y, hw, hh, slack):
    """Node pairs (i, j), i < j, whose outlines overlap with positive area.

    Candidates come from a sweep over the x extents widened by `slack`, which
    must exceed the rounding error of the extents; each candidate is then
    kept only if it passes the dense definition's float predicate on both
    axes, so the kept set is exactly the dense one.
    """
    n = x.size
    lo = (x - hw) - slack
    order = np.argsort(lo, kind="stable")
    lo, xs, ys, hws, hhs = lo[order], x[order], y[order], hw[order], hh[order]
    # Sorted position k meets every later position m with lo[m] <= hi[k]
    # (at least itself, since lo[k] <= hi[k]).
    end = np.searchsorted(lo, (xs + hws) + slack, side="right")
    after = np.arange(1, n + 1)
    count = end - after
    k, m = _filter_overlaps(np.repeat(np.arange(n), count), index_ranges(after, count), xs, ys, hws, hhs)
    a, b = order[k], order[m]
    return np.minimum(a, b), np.maximum(a, b)


def _filter_overlaps(k, m, x, y, hw, hh):
    """The candidate pairs (k, m) that pass the dense predicate."""
    # Both operand orders give the same float: + commutes and |a-b| = |b-a|.
    keep = (hh[k] + hh[m]) - np.abs(y[m] - y[k]) > 0.0
    k, m = k[keep], m[keep]
    keep = (hw[k] + hw[m]) - np.abs(x[m] - x[k]) > 0.0
    return k[keep], m[keep]


def _stacked_pairs(x, y, hw, hh, slack, cx, cy):
    """The overlapping pairs when every mover sits at (cx, cy): (ii, jj),
    i < j, and (si, sj), the pairs of the stack in row-major order. The stack,
    the nodes at (cx, cy) with a positive width and height, overlaps itself
    pair by pair with coincident centers."""
    stack = (x == cx) & (y == cy) & (hw > 0.0) & (hh > 0.0)
    s, o = np.flatnonzero(stack), np.flatnonzero(~stack)
    a, b = _overlap_pairs(x[o], y[o], hw[o], hh[o], slack)
    # (hw[s] + hw[o]) - |x[o] - cx| grows with hw[s], so the stack nodes that
    # may overlap node o are a suffix of the stack sorted by half width.
    by_w = s[np.argsort(hw[s], kind="stable")]
    start = np.searchsorted(hw[by_w], (np.abs(x[o] - cx) - hw[o]) - slack)
    count = by_w.size - start
    k, m = _filter_overlaps(np.repeat(o, count), by_w[index_ranges(start, count)], x, y, hw, hh)
    ii, jj = np.concatenate((o[a], np.minimum(k, m))), np.concatenate((o[b], np.maximum(k, m)))
    count = np.arange(s.size - 1, -1, -1)
    return ii, jj, np.repeat(s, count), s[index_ranges(np.arange(1, s.size + 1), count)]


def _add_repulsion(fx, fy, x, y, pairs, mag, row_sums, rng):
    """fx, fy plus the repulsion, of magnitude `mag`, between the overlapping
    pairs (ii, jj, si, sj), as `_stacked_pairs` returns them, summed as the
    dense definition sums it."""
    n = x.size
    ii, jj, si, sj = pairs
    dx = x[jj] - x[ii]   # points i -> j
    dy = y[jj] - y[ii]
    dist = np.sqrt(dx * dx + dy * dy)
    apart = dist > 0.0
    if not apart.all():
        # Coincident centers draw their directions pair by pair in row-major
        # (i, j) order; those found here join (si, sj) at their places.
        drawn = np.sort(ii[~apart].astype(np.intp) * n + jj[~apart])
        at = np.searchsorted(si * n + sj, drawn)
        ic, jc = np.divmod(drawn, n)
        si, sj = np.insert(si, at, ic), np.insert(sj, at, jc)
        ii, jj, dx, dy, dist = ii[apart], jj[apart], dx[apart], dy[apart], dist[apart]
    if ii.size:
        inv = np.divide(1.0, dist, out=dist)
        dx *= inv
        dy *= inv
        # Cells (i, j), then (j, i): -(dx * inv) is the dense (-dx) * inv.
        sums = row_sums(n, np.concatenate((ii, jj)), np.concatenate((jj, ii)))
        fx = fx - mag * sums(np.concatenate((dx, -dx)))
        fy = fy - mag * sums(np.concatenate((dy, -dy)))
    if si.size:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=si.size)
        # Each node adds its own force, then its draws as i, then as j: two
        # bincounts that each start from the sum so far.
        at_i, at_j = (np.concatenate((np.arange(n), s)) for s in (si, sj))
        v = np.empty(n + si.size)
        def spread(f, turn):
            turn(theta, out=v[n:])
            v[n:] *= mag     # the dense mag * cos(theta), as * commutes
            v[:n] = f
            v[:n] = np.bincount(at_i, v, n)
            np.negative(v[n:], out=v[n:])
            return np.bincount(at_j, v, n)
        fx, fy = spread(fx, np.cos), spread(fy, np.sin)
    return fx, fy


def fd_place(
    netlist: Netlist,
    placement: Placement,
    params: FDParams | None = None,
    observer: Callable[[FDIterationInfo], None] | None = None,
) -> PlacementState:
    """Run the force-directed schedule on any placement.

    Returns a new `PlacementState` of the netlist: the movable clusters where
    FD leaves them, at orientation N, and every other node as `placement` has
    it. `placement` must locate every node but the movable clusters (macros
    and ports); cluster entries are ignored because clusters restart from the
    canvas center. With no movable clusters the result equals the input
    (with a warning).
    """
    params = params or FDParams()

    arrays = netlist.arrays
    out = PlacementState.of(arrays, placement).copy()
    mover = arrays.is_cluster & arrays.movable
    if not mover.any():
        log.warning("no movable clusters; force-directed pass is a no-op")
        return out
    out.require(~mover, "fixed node")

    cv = netlist.canvas
    n = mover.size
    x = np.where(mover, cv.width / 2.0, out.x)
    y = np.where(mover, cv.height / 2.0, out.y)

    hw, hh = arrays.half_w, arrays.half_h
    a_idx, b_idx, a_off, b_off, scale = _star_pairs(netlist, out, params.io_factor)
    have_pairs = a_idx.size > 0
    ab_idx = np.concatenate((a_idx, b_idx))

    mmd = max(cv.width, cv.height) / params.num_iters
    f_r_max = mmd
    rng = np.random.Generator(np.random.PCG64(params.seed))
    # Movers start at the center and only take moves that keep them on the
    # canvas, and fixed nodes never move, so this bounds every x extent;
    # 1e-9 of it dwarfs the extents' rounding error.
    slack = 1e-9 * max(cv.width, cv.height, float(np.max(np.abs(x) + hw)))
    row_sums = _RowSums(n)

    for it in range(params.num_iters):
        if have_pairs and params.k_attract > 0:
            pax = x[a_idx] + a_off[:, 0]
            pay = y[a_idx] + a_off[:, 1]
            pbx = x[b_idx] + b_off[:, 0]
            pby = y[b_idx] + b_off[:, 1]
            k = params.k_attract * scale
            # bincount adds in input order, as sequential np.add.at calls do.
            fx = np.bincount(ab_idx, np.concatenate((k * (pbx - pax), k * (pax - pbx))), n)
            fy = np.bincount(ab_idx, np.concatenate((k * (pby - pay), k * (pay - pby))), n)
        else:
            fx = np.zeros(n)
            fy = np.zeros(n)
        if params.k_repel > 0:
            pairs = (_stacked_pairs(x, y, hw, hh, slack, cv.width / 2.0, cv.height / 2.0) if it == 0
                     else _overlap_pairs(x, y, hw, hh, slack) + _NO_PAIRS)
            fx, fy = _add_repulsion(fx, fy, x, y, pairs, params.k_repel * f_r_max, row_sums, rng)

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

    out.x[mover] = x[mover]
    out.y[mover] = y[mover]
    out.sx[mover] = out.sy[mover] = 1.0
    return out
