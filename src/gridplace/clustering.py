"""Standard-cell clustering by grid bucket.

Movable standard cells are grouped by the grid cell containing their initial
center. Each non-empty bucket becomes one square soft cluster whose side is
sqrt of the total member area, pinned at its center. Nets are rewired so that
all member pins of a cluster collapse to a single center pin per net; nets
left with fewer than two pins (fully internal nets) are dropped.

Vacuous initial placements (everything at one point) are provided for
sensitivity experiments: they funnel all standard cells into a single cluster.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PointOutsideCanvas
from .geometry import Grid
from .netlist import (
    Netlist,
    NetTable,
    Node,
    NodeKind,
    Orientation,
    Placement,
    PlacementState,
    Pose,
    drop_short_nets,
)

log = logging.getLogger(__name__)


@dataclass
class ClusteredNetlist:
    """Rewired netlist plus the bookkeeping to map members to clusters."""

    netlist: Netlist
    cluster_of: dict[str, str]
    members: dict[str, list[str]]
    cluster_cells: dict[str, tuple[int, int]]
    grid: Grid
    original: Netlist = field(repr=False, default=None)

    @property
    def clusters(self) -> list[Node]:
        return [n for n in self.netlist.nodes if n.kind == NodeKind.CLUSTER]

    def seed_placement(self, initial: Placement) -> Placement:
        """Initial poses for the rewired netlist.

        Clusters sit at their bucket centers, orientation N; every other node
        keeps its pose from `initial` when one exists.
        """
        out = {cid: Pose(*self.grid.cell_center(col, row), Orientation.N)
               for cid, (col, row) in self.cluster_cells.items()}
        for node in self.netlist.nodes:
            if node.kind != NodeKind.CLUSTER and node.name in initial:
                out[node.name] = initial[node.name]
        return out


def _cluster_name(row: int, col: int, taken) -> str:
    name = f"grp_{row}_{col}"
    while name in taken:
        name += "_"
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
    nodes, a = netlist.nodes, netlist.arrays
    stdcell = np.array([n.kind == NodeKind.STDCELL and n.movable for n in nodes], dtype=bool)
    st = PlacementState.of(a, initial)
    st.require(stdcell, "standard cell")
    cells = np.flatnonzero(stdcell)
    cols, rows = grid.cells_of(st.x[cells], st.y[cells])
    key = np.arange(len(cells)) if singletons else rows * grid.n_cols + cols
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    new_nodes, new_index = list(nodes), np.arange(len(nodes))
    if not singletons:
        new_nodes = [n for n, s in zip(nodes, stdcell.tolist()) if not s]
        new_index[~stdcell] = np.arange(len(new_nodes))
    taken = {n.name for n in nodes}
    cluster_of, members, cluster_cells = {}, {}, {}
    for start, group in zip(starts.tolist(), np.split(cells[order], starts[1:])):
        col, row = int(cols[order[start]]), int(rows[order[start]])
        group = group.tolist()
        cid = nodes[group[0]].name if singletons else _cluster_name(row, col, taken)
        taken.add(cid)
        side = math.sqrt(sum(nodes[i].area for i in group))
        cluster = Node(cid, NodeKind.CLUSTER, side, side, movable=True)
        if singletons:
            new_nodes[group[0]] = cluster
        else:
            new_index[group] = len(new_nodes)
            new_nodes.append(cluster)
        members[cid] = [nodes[i].name for i in group]
        cluster_cells[cid] = (col, row)
        cluster_of.update(dict.fromkeys(members[cid], cid))

    member = stdcell[a.pin_owner]
    owner = new_index[a.pin_owner]
    at = np.flatnonzero(member)
    _, first, group = np.unique(a.net_of_pin[at] * len(new_nodes) + owner[at],
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
             len(cluster_of), len(members), len(nets.net_names))
    rewired = Netlist(nodes=new_nodes, nets=nets, canvas=netlist.canvas)
    return ClusteredNetlist(rewired, cluster_of, members, cluster_cells, grid, original=netlist)


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
    netlist: Netlist, mode: str, point: tuple[float, float] | None = None
) -> Placement:
    """Place every movable node at one location (orientation N).

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
    if not cv.contains_point(x, y):
        raise PointOutsideCanvas(f"({x}, {y}) outside canvas {cv.width} x {cv.height}")
    return {n.name: Pose(x, y, Orientation.N) for n in netlist.nodes if n.movable}
