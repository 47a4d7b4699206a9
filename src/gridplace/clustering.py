"""Standard-cell clustering by grid bucket.

Movable standard cells are grouped by the grid cell containing their initial
center. Each non-empty bucket becomes one square soft cluster whose side is
sqrt of the total member area, pinned at its center. Nets are rewired so that
all member pins of a cluster collapse to a single center pin per net; nets
left with fewer than two pins (fully internal nets) are dropped. Index arrays
record each cell's cluster and each new cluster's cell, not name maps.

Vacuous initial placements (everything at one point) are provided for
sensitivity experiments: they funnel all standard cells into a single cluster.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import PointOutsideCanvas
from .geometry import Grid
from .netlist import (
    KIND_CODE,
    Netlist,
    NetTable,
    NodeKind,
    NodeTable,
    Placement,
    PlacementState,
    drop_short_nets,
)

log = logging.getLogger(__name__)


@dataclass
class ClusteredNetlist:
    """Rewired netlist plus index arrays from members to clusters."""

    netlist: Netlist
    cluster_of: np.ndarray   # per input node: rewired index of its cluster, or -1
    cell_of: np.ndarray      # per rewired node: cell row * n_cols + col of a cluster made here, or -1
    grid: Grid

    @property
    def members(self) -> np.ndarray:
        """Member count of each cluster made here, in rewired node order."""
        counts = np.bincount(self.cluster_of[self.cluster_of >= 0], minlength=len(self.cell_of))
        return counts[self.cell_of >= 0]

    def seed_placement(self, initial: Placement) -> PlacementState:
        """Initial poses for the rewired netlist: clusters made here at their
        cell centers, orientation N; every other node keeps its pose from
        `initial` when one exists."""
        st = PlacementState.of(self.netlist.arrays, initial).copy()
        made = np.flatnonzero(self.cell_of >= 0)
        row, col = np.divmod(self.cell_of[made], self.grid.n_cols)
        st.x[made] = (col + 0.5) * self.grid.cell_w
        st.y[made] = (row + 0.5) * self.grid.cell_h
        st.sx[made] = st.sy[made] = 1.0
        return st


def _cluster_name(row: int, col: int, taken: set) -> str:
    name = f"grp_{row}_{col}"
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def _cluster(netlist: Netlist, initial: Placement, grid: Grid, singletons: bool) -> ClusteredNetlist:
    """Group the movable standard cells by the grid cell holding their
    initial center, or each on its own with `singletons`, and rewire the nets.

    Bucket clusters follow the other nodes in (row, col) order, members in
    node order; a singleton cluster keeps its cell's name and place. Per
    net, one center pin stands for each cluster at the place of its first
    member pin, marked when any member pin was; other pins stay, duplicates
    included. Nets left with fewer than two pins are dropped.
    """
    a = netlist.arrays
    stdcell = (a.kind == KIND_CODE[NodeKind.STDCELL]) & a.movable
    st = PlacementState.of(a, initial)
    st.require(stdcell, "standard cell")
    cells = np.flatnonzero(stdcell)
    cols, rows = grid.cells_of(st.x[cells], st.y[cells])
    key = np.arange(len(cells)) if singletons else rows * grid.n_cols + cols
    order = np.argsort(key, kind="stable")
    opens = np.diff(key[order], prepend=-1) != 0
    head = order[opens]                            # each cluster's first member
    bucket = np.empty(len(cells), dtype=np.intp)   # each cell's cluster
    bucket[order] = np.cumsum(opens) - 1
    # A cluster's side is the square root of its members' area, summed in
    # node order.
    side = np.sqrt(np.bincount(bucket, weights=a.width[cells] * a.height[cells], minlength=len(head)))
    taken = set(a.names)
    made = ([a.names[i] for i in cells[head].tolist()] if singletons
            else [_cluster_name(r, c, taken) for r, c in zip(rows[head].tolist(), cols[head].tolist())])

    # The new nodes as rows of the old nodes stacked on the clusters: a
    # singleton cluster takes its cell's place, bucket clusters follow the
    # other nodes. An old node maps to the new place of its row, a member to
    # that of its cluster's row.
    n, k = len(a.names), len(head)
    stacked = np.arange(n)
    stacked[cells] = n + bucket
    take = stacked if singletons else np.concatenate([np.flatnonzero(~stdcell), n + np.arange(k)])
    place = np.empty(n + k, dtype=np.intp)
    place[take] = np.arange(len(take))
    new_index = place[stacked]
    names = a.names + made
    nodes = NodeTable([names[i] for i in take.tolist()],
                      np.concatenate([a.width, side])[take], np.concatenate([a.height, side])[take],
                      np.concatenate([a.kind, np.full(k, KIND_CODE[NodeKind.CLUSTER])])[take],
                      np.concatenate([a.movable, np.ones(k, dtype=bool)])[take])
    cell_of = np.full(len(take), -1, dtype=np.intp)
    cell_of[place[n:]] = rows[head] * grid.n_cols + cols[head]

    member = stdcell[a.pin_owner]
    owner = new_index[a.pin_owner]
    at = np.flatnonzero(member)
    _, first, group = np.unique(a.net_of_pin[at] * len(nodes.names) + owner[at],
                                return_index=True, return_inverse=True)
    marked = a.pin_marked.copy()
    marked[at[first]] = np.bincount(group, weights=a.pin_marked[at], minlength=len(first)) > 0
    keep = ~member
    keep[at[first]] = True
    nets, sizes = drop_short_nets(NetTable(a.net_names, a.net_weight, a.net_start, owner,
                                           np.where(member, 0.0, a.pin_dx),
                                           np.where(member, 0.0, a.pin_dy), marked), keep)
    dropped = int(np.count_nonzero(sizes < 2))
    if dropped:
        log.warning("singleton clustering dropped %d net(s)" if singletons
                    else "clustering dropped %d net(s) with fewer than two pins", dropped)
    log.info("clustered %d standard cells into %d cluster(s); %d net(s) kept",
             len(cells), k, len(nets.net_names))
    rewired = Netlist(nodes=nodes, nets=nets, canvas=netlist.canvas)
    return ClusteredNetlist(rewired, np.where(stdcell, new_index, -1), cell_of, grid)


def cluster_by_grid(netlist: Netlist, initial: Placement, grid: Grid) -> ClusteredNetlist:
    """Bucket movable standard cells by the grid cell holding their center."""
    return _cluster(netlist, initial, grid, singletons=False)


def no_clustering(netlist: Netlist, initial: Placement, grid: Grid) -> ClusteredNetlist:
    """Each standard cell becomes its own singleton cluster (same id).

    Meant for tiny fixtures where per-cell resolution matters. Singleton
    clusters are squared like any other cluster so downstream code sees one
    shape convention.
    """
    return _cluster(netlist, initial, grid, singletons=True)


VACUOUS_MODES = ("point", "lower-left", "upper-right")


def apply_vacuous_placement(
    netlist: Netlist, mode: str, point: tuple[float, float] | None = None, base: Placement | None = None
) -> PlacementState:
    """`base` (by default, no placement) with every movable node at one
    location, orientation N.

    mode: "point" (requires point=(x, y)), "lower-left" for (0, 0), or
    "upper-right" for (canvas.width, canvas.height).
    """
    cv = netlist.canvas
    if mode == "point":
        if point is None:
            raise ValueError("mode 'point' requires a point")
        x, y = point
    elif mode == "lower-left":
        x, y = 0.0, 0.0
    elif mode == "upper-right":
        x, y = cv.width, cv.height
    else:
        raise ValueError(f"unknown vacuous mode {mode!r}, expected one of {VACUOUS_MODES}")
    if not (0.0 <= x <= cv.width and 0.0 <= y <= cv.height):
        raise PointOutsideCanvas(f"({x}, {y}) outside canvas {cv.width} x {cv.height}")
    m = netlist.arrays.movable
    st = PlacementState.of(netlist.arrays, {} if base is None else base).copy()
    st.x[m], st.y[m], st.sx[m], st.sy[m] = x, y, 1.0, 1.0
    return st
