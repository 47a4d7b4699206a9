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

Overlapping pairs are found by a sort-and-sweep on the x extents (the
sweep-and-prune of I-COLLIDE, Cohen et al. 1995), with the intervals widened
by a tiny slack so that no pair is missed, and then filtered by the same float
predicate as the dense all-pairs definition. Every force sum keeps the dense
definition's operands and summation order, so results are bit-identical to
`fd_place_dense` in tests/oracles.py.

Node sizes, kinds and pins come from `Netlist.arrays`, built once per
netlist; each call reads only the locations and orientation signs of the
`PlacementState` it decodes from the placement it is given.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutOfRange
from .netlist import Netlist, Placement, PlacementState

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FDParams:
    num_iters: int = 100
    k_attract: float = 1.0
    k_repel: float = 1.0
    io_factor: float = 1.0
    seed: int = 0


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
    k = np.repeat(np.arange(n), count)
    m = np.arange(k.size) + np.repeat(after - (np.cumsum(count) - count), count)
    # Both operand orders give the same float: + commutes and |a-b| = |b-a|.
    keep = (hhs[k] + hhs[m]) - np.abs(ys[m] - ys[k]) > 0.0
    k, m = k[keep], m[keep]
    keep = (hws[k] + hws[m]) - np.abs(xs[m] - xs[k]) > 0.0
    a, b = order[k[keep]], order[m[keep]]
    return np.minimum(a, b), np.maximum(a, b)


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
    if params.num_iters < 1:
        raise OutOfRange(f"num_iters must be >= 1, got {params.num_iters}")
    if params.k_attract < 0 or params.k_repel < 0 or params.io_factor < 0:
        raise OutOfRange("force factors must be nonnegative")

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
    node_ids = np.arange(n, dtype=np.intp)
    if params.k_repel > 0:
        # Per-node repulsion terms laid out as the dense (n, n) matrix rows:
        # each row sums the same values in the same positions, and the
        # zeros elsewhere leave any nonzero partial sum unchanged.
        rep_x = np.zeros((n, n))
        rep_y = np.zeros((n, n))
        flat_x = rep_x.reshape(-1)
        flat_y = rep_y.reshape(-1)

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
            ii, jj = _overlap_pairs(x, y, hw, hh, slack)
            dx = x[jj] - x[ii]   # points i -> j
            dy = y[jj] - y[ii]
            dist = np.sqrt(dx * dx + dy * dy)
            apart = dist > 0.0
            mag = params.k_repel * f_r_max
            if apart.any():
                ia, ja = ii[apart], jj[apart]
                inv = 1.0 / dist[apart]
                ux = dx[apart] * inv
                uy = dy[apart] * inv
                # Cells (i, j), then (j, i): -(dx * inv) == (-dx) * inv exactly.
                cells = np.concatenate((ia * n + ja, ja * n + ia))
                flat_x[cells] = np.concatenate((ux, -ux))
                flat_y[cells] = np.concatenate((uy, -uy))
                fx -= mag * rep_x.sum(axis=1)
                fy -= mag * rep_y.sum(axis=1)
                flat_x[cells] = 0.0
                flat_y[cells] = 0.0
            if not apart.all():
                # Coincident centers draw their directions pair by pair in
                # row-major (i, j) order.
                ic, jc = ii[~apart], jj[~apart]
                order = np.argsort(ic * n + jc)
                ic, jc = ic[order], jc[order]
                theta = rng.uniform(0.0, 2.0 * np.pi, size=ic.size)
                px = mag * np.cos(theta)
                py = mag * np.sin(theta)
                idx = np.concatenate((node_ids, ic, jc))
                fx = np.bincount(idx, np.concatenate((fx, px, -px)), n)
                fy = np.bincount(idx, np.concatenate((fy, py, -py)), n)

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
