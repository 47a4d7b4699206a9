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

from .errors import MissingLocation, PointOutsideCanvas
from .geometry import Grid
from .netlist import Net, Netlist, Node, NodeKind, Orientation, Pin, Placement, Pose

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

    def initial_cluster_placement(self) -> Placement:
        """Clusters at their bucket cell centers, orientation N."""
        out: Placement = {}
        for cid, (col, row) in self.cluster_cells.items():
            x, y = self.grid.cell_center(col, row)
            out[cid] = Pose(x, y, Orientation.N)
        return out

    def seed_placement(self, initial: Placement) -> Placement:
        """Initial poses for the rewired netlist.

        Clusters sit at their bucket centers; every other node keeps its pose
        from `initial` when one exists.
        """
        out = self.initial_cluster_placement()
        for node in self.netlist.nodes:
            if node.kind != NodeKind.CLUSTER and node.name in initial:
                out[node.name] = initial[node.name]
        return out


def _cluster_name(row: int, col: int, taken) -> str:
    name = f"grp_{row}_{col}"
    while name in taken:
        name += "_"
    return name


def _rewire(netlist: Netlist, cluster_of: dict[str, str]) -> tuple[list[Net], int]:
    """Collapse member pins onto cluster centers; returns (nets, dropped)."""
    nets: list[Net] = []
    dropped = 0
    for net in netlist.nets:
        pins: list[Pin] = []
        seen_clusters: dict[str, Pin] = {}
        for pin in net.pins:
            cid = cluster_of.get(pin.node)
            if cid is None:
                pins.append(Pin(pin.node, pin.dx, pin.dy, pin.is_source))
                continue
            existing = seen_clusters.get(cid)
            if existing is not None:
                if pin.is_source:
                    existing.is_source = True
                continue
            cp = Pin(cid, 0.0, 0.0, pin.is_source)
            seen_clusters[cid] = cp
            pins.append(cp)
        if len(pins) < 2:
            dropped += 1
            continue
        nets.append(Net(net.name, pins, net.weight))
    return nets, dropped


def cluster_by_grid(netlist: Netlist, initial: Placement, grid: Grid) -> ClusteredNetlist:
    """Bucket movable standard cells by the grid cell holding their center."""
    buckets: dict[tuple[int, int], list[Node]] = {}
    for node in netlist.nodes:
        if node.kind != NodeKind.STDCELL or not node.movable:
            continue
        pose = initial.get(node.name)
        if pose is None:
            raise MissingLocation(f"standard cell {node.name!r} has no initial location")
        cell = grid.cell_of_point(pose.x, pose.y)
        buckets.setdefault(cell, []).append(node)

    taken = {n.name for n in netlist.nodes}
    cluster_of: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    cluster_cells: dict[str, tuple[int, int]] = {}
    cluster_nodes: list[Node] = []
    for (col, row) in sorted(buckets, key=lambda c: (c[1], c[0])):
        group = buckets[(col, row)]
        cid = _cluster_name(row, col, taken)
        taken.add(cid)
        side = math.sqrt(sum(n.area for n in group))
        cluster_nodes.append(Node(cid, NodeKind.CLUSTER, side, side, movable=True))
        members[cid] = [n.name for n in group]
        cluster_cells[cid] = (col, row)
        for n in group:
            cluster_of[n.name] = cid

    kept_nodes = [n for n in netlist.nodes if n.name not in cluster_of]
    nets, dropped = _rewire(netlist, cluster_of)
    if dropped:
        log.warning("clustering dropped %d net(s) with fewer than two pins", dropped)
    rewired = Netlist(nodes=kept_nodes + cluster_nodes, nets=nets, canvas=netlist.canvas)
    log.info(
        "clustered %d standard cells into %d cluster(s); %d net(s) kept",
        len(cluster_of), len(cluster_nodes), len(nets),
    )
    return ClusteredNetlist(rewired, cluster_of, members, cluster_cells, grid, original=netlist)


def no_clustering(netlist: Netlist, initial: Placement, grid: Grid) -> ClusteredNetlist:
    """Each standard cell becomes its own singleton cluster (same id).

    Meant for tiny fixtures where per-cell resolution matters. Singleton
    clusters are squared like any other cluster so downstream code sees one
    shape convention.
    """
    cluster_of: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    cluster_cells: dict[str, tuple[int, int]] = {}
    new_nodes: list[Node] = []
    for node in netlist.nodes:
        if node.kind != NodeKind.STDCELL or not node.movable:
            new_nodes.append(node)
            continue
        pose = initial.get(node.name)
        if pose is None:
            raise MissingLocation(f"standard cell {node.name!r} has no initial location")
        side = math.sqrt(node.area)
        new_nodes.append(Node(node.name, NodeKind.CLUSTER, side, side, movable=True))
        cluster_of[node.name] = node.name
        members[node.name] = [node.name]
        cluster_cells[node.name] = grid.cell_of_point(pose.x, pose.y)
    nets, dropped = _rewire(netlist, cluster_of)
    if dropped:
        log.warning("singleton clustering dropped %d net(s)", dropped)
    rewired = Netlist(nodes=new_nodes, nets=nets, canvas=netlist.canvas)
    return ClusteredNetlist(rewired, cluster_of, members, cluster_cells, grid, original=netlist)


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
