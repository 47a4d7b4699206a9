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
are built directly, a block of rows at a time, in the row-major order of
their random draws; any other coincident pair (a zero-width node at the
center, say) joins them at its row-major place, so pairs, draws and sums stay
the dense definition's. A node adds its draws as i, then as j, so each draw
is used twice: kept while the stack's fit in _DRAW_BYTES, else drawn again
from the generator's saved state.

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
the dense-oracle tests fail. A row sum depends on the row's entries alone, so
the rows are summed in blocks of consecutive swept positions, about
_BLOCK_ENTRIES candidates each; a pair whose rows lie in two blocks is found
and filtered again from the second. No per-pair array outlives its block.

Node sizes, kinds and pins come from `Netlist.arrays`, built once per
netlist; each call reads only the locations and orientation signs of the
`PlacementState` it decodes from the placement it is given.
"""

from __future__ import annotations

import logging
import math
import numbers
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
        for name in ("num_iters", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise OutOfRange(f"{name} must be an integer, got {getattr(self, name)!r}")
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
_NO_STACK = np.empty(0, dtype=np.intp)
# Rows sum in blocks of about _BLOCK_ENTRIES candidates, a leaf of lanes
# counting as one; the stack draws in blocks of an eighth as many pairs.
_BLOCK_ENTRIES = 1 << 17
_DRAW_BYTES = 1 << 24


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
    which adds in input order, accumulates them: the lanes into a (leaves, 8,
    n_rows) array, about n_rows * n_cols / 16 floats, then the tails onto
    the leaf sums. The leaves combine by the tree a level at a time.
    """

    def __init__(self, n_cols: int):
        starts, sizes, inner = [], [], []

        def split(start, size):
            """The tree over columns [start, start + size): its leaf number,
            or -1 - its place among the inner nodes, and its height."""
            if size <= _BLOCK:
                starts.append(start)
                sizes.append(size)
                return len(sizes) - 1, 0
            half = size // 2
            half -= half % _LANES
            (a, ha), (b, hb) = split(start, half), split(start + half, size - half)
            inner.append((max(ha, hb), a, b))
            return -len(inner), max(ha, hb) + 1

        split(0, n_cols)
        self.leaves = len(sizes)
        # Inner node j is node leaves + j, the sum of its children, which
        # are lower in the tree; the root comes last.
        h, a, b = np.array(inner, dtype=np.intp).reshape(-1, 3).T
        a, b = (np.where(c < 0, self.leaves - 1 - c, c) for c in (a, b))
        t = np.arange(self.leaves, self.leaves + h.size)
        self._levels = [(t[h == k], a[h == k], b[h == k]) for k in range(h.max(initial=-1) + 1)]
        self._leaf = np.repeat(np.arange(self.leaves), sizes)
        off = np.arange(n_cols) - np.asarray(starts)[self._leaf]
        main = np.asarray(sizes)[self._leaf] // _LANES * _LANES
        in_lane = off < main
        # Passes sort first, then tail positions.
        self._key = np.where(in_lane, off // _LANES, _PASSES + off - main).astype(np.uint8)
        self._slot = self._leaf * _LANES + np.where(in_lane, off % _LANES, 0)

    def __call__(self, n_rows: int, rows: np.ndarray, cols: np.ndarray):
        """The row-sum function of the (n_rows, n_cols) matrices whose
        entries sit at (rows, cols), each cell at most once; every other cell
        is zero. It maps the entries' values, in the same order, to the row
        sums."""
        key = self._key[cols]
        n_lane = key.size - np.count_nonzero(key >= _PASSES)
        # A lane takes one value per pass, so ordering by pass puts each
        # lane's values in column order (stable: numpy radix-sorts uint8).
        order = np.argsort(key, kind="stable")
        rows, cols = rows[order], cols[order]
        slot = self._slot[cols[:n_lane]] * n_rows + rows[:n_lane]
        tail = self._leaf[cols[n_lane:]] * n_rows + rows[n_lane:]
        every = np.arange(self.leaves * n_rows)

        def row_sums(vals: np.ndarray) -> np.ndarray:
            v = vals[order]
            r = np.bincount(slot, v[:n_lane], self.leaves * _LANES * n_rows)
            r = r.reshape(self.leaves, _LANES, n_rows)
            r = r[:, 0::2] + r[:, 1::2]
            r = r[:, 0::2] + r[:, 1::2]
            t = np.empty((2 * self.leaves - 1, n_rows))
            np.add(r[:, 0], r[:, 1], out=t[:self.leaves])
            if tail.size:
                t[:self.leaves] = np.bincount(np.concatenate((every, tail)), np.concatenate(
                    (t[:self.leaves].reshape(-1), v[n_lane:])), every.size).reshape(self.leaves, n_rows)
            for out, a, b in self._levels:
                t[out] = t[a] + t[b]
            return 0.0 + t[-1]

        return row_sums


def _blocks(cost, size):
    """Bounds of runs of consecutive rows, of the given costs, that cost
    about `size` each (a costlier row runs alone); (0, 0) for no rows."""
    before = np.cumsum(cost) - cost
    start = np.flatnonzero(np.diff(before // size, prepend=-1))
    return np.append(start, cost.size) if start.size else np.zeros(2, dtype=np.intp)


def _swept_rows(x, hw, slack):
    """Sort-and-sweep over the x extents widened by `slack`, which must
    exceed their rounding error. Returns the nodes by low edge and, as
    `_repel` takes them, each row's candidate count and the candidates of a
    row block: sorted position k meets each later m < end[k]."""
    lo = (x - hw) - slack
    order = np.argsort(lo, kind="stable")
    end = np.searchsorted(lo[order], (x[order] + hw[order]) + slack, side="right")
    after = np.arange(1, x.size + 1)
    # Row k meets m in (k, end[k]) and every earlier p with end[p] > k.
    back = np.cumsum(np.bincount(after, minlength=x.size + 1) - np.bincount(end, minlength=x.size + 1))

    def pairs(k0, k1):
        # The rows' own ranges, then the parts of earlier ranges in [k0, k1).
        early = np.flatnonzero(end[:k0] > k0)
        first = np.concatenate((np.arange(k0 + 1, k1 + 1), np.full(early.size, k0)))
        count = np.concatenate((end[k0:k1], np.minimum(end[early], k1))) - first
        return np.repeat(np.concatenate((np.arange(k0, k1), early)), count), index_ranges(first, count)
    return order, end - after + back[:-1], pairs


def _filter_overlaps(k, m, x, y, hw, hh):
    """The candidate pairs (k, m) that pass the dense predicate, with their
    x[m] - x[k] and y[m] - y[k]."""
    d = []
    for c, h in ((y, hh), (x, hw)):
        # (h[k] + h[m]) - |c[m] - c[k]|, the same float for either order.
        gap = c.take(m)
        gap -= c.take(k)
        room = h.take(k)
        room += h.take(m)
        room -= np.abs(gap)
        keep = np.flatnonzero(room > 0.0)
        k, m = k.take(keep), m.take(keep)
        d = [v.take(keep) for v in (*d, gap)]
    return k, m, d[1], d[0]


def _stacked_rows(x, y, hw, hh, slack, cx, cy):
    """The overlapping pairs when every mover sits at (cx, cy), as
    `_swept_rows` gives them, but for those within the stack, the nodes at
    (cx, cy) with a positive width and height, which it returns too: they
    overlap each other pair by pair with coincident centers."""
    stack = (x == cx) & (y == cy) & (hw > 0.0) & (hh > 0.0)
    s, o = np.flatnonzero(stack), np.flatnonzero(~stack)
    order, _, swept = _swept_rows(x[o], hw[o], slack)
    k, m, _, _ = _filter_overlaps(*swept(0, o.size), *(v[o[order]] for v in (x, y, hw, hh)))
    # (hw[s] + hw[o]) - |x[o] - cx| grows with hw[s], so the stack nodes that
    # may overlap node o are a suffix of the stack sorted by half width.
    by_w = s[np.argsort(hw[s], kind="stable")]
    start = np.searchsorted(hw[by_w], (np.abs(x[o] - cx) - hw[o]) - slack)
    count = by_w.size - start
    p, q, _, _ = _filter_overlaps(np.repeat(o, count), by_w[index_ranges(start, count)], x, y, hw, hh)
    a, b = np.concatenate((o[order[k]], p)), np.concatenate((o[order[m]], q))
    ii, jj = np.minimum(a, b), np.maximum(a, b)
    nodes = np.unique(np.concatenate((ii, jj)))
    k, m = np.searchsorted(nodes, ii), np.searchsorted(nodes, jj)

    def pairs(k0, k1):
        own = (k >= k0) & (k < k1)
        sel = np.concatenate((np.flatnonzero(own), np.flatnonzero(~own & (m >= k0) & (m < k1))))
        return k.take(sel), m.take(sel)
    return nodes, np.bincount(np.concatenate((k, m)), minlength=nodes.size), pairs, s


def _repel(fx, fy, x, y, hw, hh, nodes, cost, pairs, mag, row_sums):
    """Subtract from fx and fy the repulsion, of magnitude `mag`, between
    the overlapping pairs with distinct centers, as the dense definition
    sums it, and return the sorted row-major keys i * n + j of those with
    coincident centers (i < j), whose random pushes come after.

    The rows are `nodes`. pairs(k0, k1) gives candidate pairs (k, m), k < m,
    of positions in `nodes`: each overlapping pair with k or m in [k0, k1)
    once, those with k there first. Row k has at most cost[k] of them."""
    n = x.size
    at_rows = tuple(v[nodes] for v in (x, y, hw, hh))
    drawn = [_NO_STACK]
    bounds = _blocks(cost + row_sums.leaves, _BLOCK_ENTRIES)
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        k, m, dx, dy = _filter_overlaps(*pairs(k0, k1), *at_rows)   # points k -> m
        dist = np.sqrt(dx * dx + dy * dy)
        apart = dist > 0.0
        if not apart.all():
            # A coincident pair counts once, in the block of its row k.
            same = np.flatnonzero(~apart & (k >= k0))
            a, b = nodes[k.take(same)], nodes[m.take(same)]
            drawn.append(np.minimum(a, b) * n + np.maximum(a, b))
            apart = np.flatnonzero(apart)
            k, m, dx, dy, dist = (v.take(apart) for v in (k, m, dx, dy, dist))
        inv = np.divide(1.0, dist, out=dist)
        dx *= inv
        dy *= inv
        # Cells (k, m) in the block's rows, then (m, k): -(dx * inv) is the
        # dense (-dx) * inv.
        f, g = np.count_nonzero(k >= k0), np.flatnonzero(m < k1)
        sums = row_sums(k1 - k0, np.concatenate((k[:f], m.take(g))) - k0,
                        nodes[np.concatenate((m[:f], k.take(g)))])
        rows = nodes[k0:k1]
        fx[rows] -= mag * sums(np.concatenate((dx[:f], -dx.take(g))))
        fy[rows] -= mag * sums(np.concatenate((dy[:f], -dy.take(g))))
    return np.sort(np.concatenate(drawn))


def _add_draws(f, s, drawn, mag, rng):
    """The forces f = (fx, fy) plus the pushes, of magnitude `mag` in random
    directions, of the coincident pairs: those within the stack `s`
    (ascending) and those with the sorted row-major keys `drawn`. As in the
    dense definition, the pairs draw in row-major order, and each node adds
    its own force, then its draws as i, then its draws as j."""
    n = f[0].size
    count = np.arange(s.size - 1, -1, -1)   # stack row a pairs with s[a + 1:]
    total = count.sum() + drawn.size
    if not total:
        return f
    bounds = _blocks(count, _BLOCK_ENTRIES // 8)
    # A block takes its stack rows and the keys before the next block's.
    cut = np.concatenate(([0], np.searchsorted(drawn, s[bounds[1:-1]] * n), [drawn.size]))

    def blocks():
        for a0, a1, d0, d1 in zip(bounds[:-1], bounds[1:], cut[:-1], cut[1:]):
            c = count[a0:a1]
            si, sj = np.repeat(s[a0:a1], c), s[index_ranges(np.arange(a0 + 1, a1 + 1), c)]
            if d1 > d0:
                at = np.searchsorted(si * n + sj, drawn[d0:d1])
                ic, jc = np.divmod(drawn[d0:d1], n)
                si, sj = np.insert(si, at, ic), np.insert(sj, at, jc)
            yield si, sj

    def push(size):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=size)
        return mag * np.cos(theta), mag * np.sin(theta)

    def add(f, at, v):   # bincount adds in input order: f first
        at = np.concatenate((np.arange(n), at))
        return [np.bincount(at, np.concatenate((a, b)), n) for a, b in zip(f, v)]

    keep, kept, state = total * 16 <= _DRAW_BYTES, [], rng.bit_generator.state
    for si, _ in blocks():
        p = push(si.size)
        f = add(f, si, p)
        kept += [p] if keep else []
    if not keep:
        # Drawing again from the saved state leaves the generator where the
        # first pass did.
        rng.bit_generator.state = state
    for t, (_, sj) in enumerate(blocks()):
        f = add(f, sj, [-v for v in (kept[t] if keep else push(sj.size))])
    return f


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
    ab_idx = np.concatenate((a_idx, b_idx))
    a_ox, a_oy, b_ox, b_oy = np.hstack((a_off, b_off)).T.copy()   # contiguous columns
    k = params.k_attract * scale
    del a_off, b_off, scale
    terms = np.empty(ab_idx.size)

    def pull(c, a_o, b_o):
        # bincount adds in input order, as sequential np.add.at calls do.
        # The second half is k * (pa - pb), exactly -(k * (pb - pa)); a -0.0
        # term adds as +0.0 does to a sum that starts at +0.0.
        d = terms[:a_idx.size]
        np.subtract(c[b_idx] + b_o, c[a_idx] + a_o, out=d)
        d *= k
        np.negative(d, out=terms[a_idx.size:])
        return np.bincount(ab_idx, terms, n)

    mmd = max(cv.width, cv.height) / params.num_iters
    f_r_max = mmd
    mag = params.k_repel * f_r_max
    rng = np.random.Generator(np.random.PCG64(params.seed))
    # Movers start at the center and only take moves that keep them on the
    # canvas, and fixed nodes never move, so this bounds every x extent;
    # 1e-9 of it dwarfs the extents' rounding error.
    slack = 1e-9 * max(cv.width, cv.height, float(np.max(np.abs(x) + hw)))
    row_sums = _RowSums(n)

    for it in range(params.num_iters):
        if a_idx.size and params.k_attract > 0:
            fx, fy = pull(x, a_ox, b_ox), pull(y, a_oy, b_oy)
        else:
            fx = np.zeros(n)
            fy = np.zeros(n)
        if params.k_repel > 0:
            if it == 0:
                nodes, cost, pairs, stack = _stacked_rows(x, y, hw, hh, slack, cv.width / 2.0, cv.height / 2.0)
            else:
                (nodes, cost, pairs), stack = _swept_rows(x, hw, slack), _NO_STACK
            drawn = _repel(fx, fy, x, y, hw, hh, nodes, cost, pairs, mag, row_sums)
            fx, fy = _add_draws((fx, fy), stack, drawn, mag, rng)

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
