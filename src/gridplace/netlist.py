"""Netlist domain model and the native line-based text format.

A netlist is a set of rectangular nodes (hard macros, standard cells, soft
clusters, zero-area ports) connected by weighted nets. Pin offsets are stored
relative to the owning node's center, matching the convention of the Bookshelf
files this tool consumes. Node locations are not part of the netlist; they
live in separate placements, name -> `Pose` maps. Files and the CLI use
dicts; the placer works on `PlacementState`, the array form of a placement,
and `PlacementState.of` is the one decoder from a dict to it.

Native text format, one record per line (see README for the grammar):

    canvas WIDTH HEIGHT
    node ID KIND WIDTH HEIGHT MOVABLE
    net ID [WEIGHT]
    pin NETID NODEID DX DY [s]
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    DanglingPinReference,
    DegenerateNet,
    EmptyNetlist,
    InvalidDimension,
    IoFailure,
    MalformedLine,
    MissingFile,
    MissingLocation,
    OutOfRange,
)

log = logging.getLogger(__name__)


class NodeKind(str, Enum):
    MACRO = "macro"
    STDCELL = "stdcell"
    CLUSTER = "cluster"
    PORT = "port"


class Orientation(str, Enum):
    """Manhattan orientations reachable by mirroring: N, FN, S, FS."""

    N = "N"
    FN = "FN"
    S = "S"
    FS = "FS"


# Per-axis sign applied to a center-relative pin offset (dx, dy).
ORIENT_SIGNS = {
    Orientation.N: (1.0, 1.0),
    Orientation.FN: (-1.0, 1.0),
    Orientation.S: (-1.0, -1.0),
    Orientation.FS: (1.0, -1.0),
}

_SIGN_TO_ORIENT = {v: k for k, v in ORIENT_SIGNS.items()}


def transform_pin_offset(dx: float, dy: float, orient: Orientation) -> tuple[float, float]:
    """Rotate/mirror a center-relative pin offset into canvas coordinates."""
    sx, sy = ORIENT_SIGNS[orient]
    return sx * dx, sy * dy


class Pose(NamedTuple):
    """A placed node: center coordinates plus orientation."""

    x: float
    y: float
    orient: Orientation = Orientation.N


# A placement maps node id -> Pose: a dict at file and CLI boundaries, a
# PlacementState everywhere a placement is scored, legalized or moved.
Placement = Mapping[str, Pose]


@dataclass
class Pin:
    """A net endpoint on a node, offset from the node center."""

    node: str
    dx: float = 0.0
    dy: float = 0.0
    is_source: bool = False


@dataclass
class Net:
    name: str
    pins: list[Pin] = field(default_factory=list)
    weight: float = 1.0

    def source_index(self) -> int:
        """Index of the driving pin: the marked source, else the first pin."""
        for i, p in enumerate(self.pins):
            if p.is_source:
                return i
        return 0


@dataclass
class Node:
    name: str
    kind: NodeKind
    width: float
    height: float
    movable: bool

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class Canvas:
    """Placement region, origin at (0, 0)."""

    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidDimension(f"canvas must have positive size, got {self.width} x {self.height}")

    def contains_point(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass(frozen=True)
class NetlistArrays:
    """The netlist as flat arrays, nodes in netlist order and pins net by net.

    Node arrays have one entry per node. `pin_owner`, `pin_dx` and `pin_dy`
    hold every pin, the pins of net k at `net_start[k]:net_start[k + 1]`
    (`net_start` has one more entry than there are nets). `driver` is the flat
    index of each net's driving pin: its first marked source, else its first
    pin, as `Net.source_index()` answers.
    """

    names: list[str]
    index: dict[str, int]
    half_w: np.ndarray
    half_h: np.ndarray
    is_macro: np.ndarray
    is_cluster: np.ndarray
    is_port: np.ndarray
    movable: np.ndarray
    pin_owner: np.ndarray
    pin_dx: np.ndarray
    pin_dy: np.ndarray
    net_start: np.ndarray
    net_weight: np.ndarray
    driver: np.ndarray


@dataclass(eq=False, repr=False)
class PlacementState(Mapping):
    """A placement of one netlist as node-order arrays.

    `x`, `y` are node centers, NaN for a node without a location, and `sx`,
    `sy` the per-axis signs that each node's orientation applies to its pin
    offsets (1.0 for an unplaced node). The arrays are the state: code that
    moves or mirrors nodes writes them in place, and `copy()` is a snapshot.

    As a read-only `Mapping[str, Pose]` over the placed nodes, in node order,
    a state stands wherever a placement is read; each value is a `Pose` of
    Python floats. Mapping equality holds with a dict of equal poses.
    """

    arrays: NetlistArrays
    x: np.ndarray
    y: np.ndarray
    sx: np.ndarray
    sy: np.ndarray

    @classmethod
    def of(cls, arrays: NetlistArrays, placement: Placement) -> "PlacementState":
        """`placement` as a state of the netlist `arrays`.

        A state of these very arrays is returned as it is, not copied; any
        other placement is decoded by name, and names outside the netlist are
        ignored. Raises OutOfRange naming the node with a non-finite
        coordinate.
        """
        if isinstance(placement, cls) and placement.arrays is arrays:
            return placement
        n = len(arrays.names)
        x, y, sx, sy = np.full(n, np.nan), np.full(n, np.nan), np.ones(n), np.ones(n)
        index = arrays.index
        for name, pose in placement.items():
            i = index.get(name)
            if i is not None:
                px, py = pose[0], pose[1]
                if not (math.isfinite(px) and math.isfinite(py)):
                    raise OutOfRange(f"node {name!r} has a non-finite location ({px}, {py})")
                x[i] = px
                y[i] = py
                sx[i], sy[i] = ORIENT_SIGNS[pose[2]]
        return cls(arrays, x, y, sx, sy)

    def copy(self) -> "PlacementState":
        return PlacementState(self.arrays, self.x.copy(), self.y.copy(), self.sx.copy(), self.sy.copy())

    def require(self, mask: np.ndarray, what: str) -> None:
        """Raise MissingLocation naming the first node of `mask` without a
        location."""
        hole = mask & np.isnan(self.x)
        if hole.any():
            raise MissingLocation(f"{what} {self.arrays.names[int(np.argmax(hole))]!r} has no location")

    def __getitem__(self, name: str) -> Pose:
        i = self.arrays.index[name]
        if np.isnan(self.x[i]):
            raise KeyError(name)
        return Pose(float(self.x[i]), float(self.y[i]), _SIGN_TO_ORIENT[(self.sx[i], self.sy[i])])

    def __iter__(self):
        names = self.arrays.names
        return (names[i] for i in np.flatnonzero(~np.isnan(self.x)))

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.x)))

    def __repr__(self) -> str:
        return f"PlacementState({dict(self)!r})"


@dataclass
class Netlist:
    """Nodes, nets and canvas, checked once at construction.

    No code changes a netlist after construction: readers and clustering
    finish editing pins (`validate_nets`, rewiring) before they build one.
    `arrays` relies on this; it is built on first use and kept.
    """

    nodes: list[Node]
    nets: list[Net]
    canvas: Canvas
    _index: dict[str, Node] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.nodes:
            raise EmptyNetlist("netlist has no nodes")
        self._index = {}
        for n in self.nodes:
            if n.name in self._index:
                raise InvalidDimension(f"duplicate node id {n.name!r}")
            self._index[n.name] = n
        for net in self.nets:
            if not net.pins:
                # No driver: Net.source_index() would still answer pin 0.
                raise DegenerateNet(f"net {net.name!r} has no pins")
            for pin in net.pins:
                if pin.node not in self._index:
                    raise DanglingPinReference(f"net {net.name!r} pin references unknown node {pin.node!r}")

    def node(self, name: str) -> Node:
        return self._index[name]

    def has_node(self, name: str) -> bool:
        return name in self._index

    @property
    def movable_macros(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == NodeKind.MACRO and n.movable]

    @cached_property
    def arrays(self) -> NetlistArrays:
        """The netlist as flat arrays, built on first use."""
        nodes = self.nodes
        index = {n.name: i for i, n in enumerate(nodes)}
        kinds = [n.kind for n in nodes]
        pins = [p for net in self.nets for p in net.pins]
        sizes = np.array([len(net.pins) for net in self.nets], dtype=np.intp)
        net_start = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
        is_src = np.array([p.is_source for p in pins], dtype=bool)
        n_pins = len(pins)
        pos = np.arange(n_pins, dtype=np.intp)
        first_src = np.minimum.reduceat(np.where(is_src, pos, n_pins), net_start[:-1])
        driver = np.where(first_src < n_pins, first_src, net_start[:-1])
        return NetlistArrays(
            names=[n.name for n in nodes],
            index=index,
            half_w=np.array([n.width for n in nodes], dtype=float) / 2.0,
            half_h=np.array([n.height for n in nodes], dtype=float) / 2.0,
            is_macro=np.array([k == NodeKind.MACRO for k in kinds], dtype=bool),
            is_cluster=np.array([k == NodeKind.CLUSTER for k in kinds], dtype=bool),
            is_port=np.array([k == NodeKind.PORT for k in kinds], dtype=bool),
            movable=np.array([n.movable for n in nodes], dtype=bool),
            pin_owner=np.array([index[p.node] for p in pins], dtype=np.intp),
            pin_dx=np.array([p.dx for p in pins], dtype=float),
            pin_dy=np.array([p.dy for p in pins], dtype=float),
            net_start=net_start,
            net_weight=np.array([net.weight for net in self.nets], dtype=float),
            driver=driver,
        )


def finite_float(text: str) -> float:
    """float(text), raising ValueError for text that is not a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def write_text(path, text: str) -> None:
    """Write a text file; an OSError becomes IoFailure."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def validate_nets(nets: Iterable[Net], where: str = "netlist") -> list[Net]:
    """Drop nets with fewer than two pins and demote extra source pins.

    Returns the retained nets; logs one warning per dropped net and per
    demoted source.
    """
    kept = []
    for net in nets:
        if len(net.pins) < 2:
            log.warning("%s: dropping net %r with %d pin(s)", where, net.name, len(net.pins))
            continue
        seen_source = False
        for pin in net.pins:
            if pin.is_source:
                if seen_source:
                    log.warning("%s: net %r has multiple source pins, keeping the first", where, net.name)
                    pin.is_source = False
                seen_source = True
        kept.append(net)
    return kept


# ---------------------------------------------------------------------------
# Native text format


def write_netlist(netlist: Netlist, path) -> None:
    """Serialize a netlist in the native line format."""
    lines = [f"canvas {netlist.canvas.width!r} {netlist.canvas.height!r}"]
    for n in netlist.nodes:
        lines.append(f"node {n.name} {n.kind.value} {n.width!r} {n.height!r} {int(n.movable)}")
    for net in netlist.nets:
        lines.append(f"net {net.name} {net.weight!r}")
        for p in net.pins:
            src = " s" if p.is_source else ""
            lines.append(f"pin {net.name} {p.node} {p.dx!r} {p.dy!r}{src}")
    write_text(path, "\n".join(lines) + "\n")


def read_netlist(path) -> Netlist:
    """Parse the native line format. Raises MalformedLine with line numbers."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    canvas = None
    nodes: list[Node] = []
    nets: dict[str, Net] = {}
    node_by_name: dict[str, Node] = {}
    clamped = 0
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0]
        try:
            if kind == "canvas":
                if len(tok) != 3:
                    raise ValueError("expected: canvas WIDTH HEIGHT")
                canvas = Canvas(finite_float(tok[1]), finite_float(tok[2]))
            elif kind == "node":
                if len(tok) != 6:
                    raise ValueError("expected: node ID KIND WIDTH HEIGHT MOVABLE")
                name, nk, w, h, mv = tok[1], tok[2], finite_float(tok[3]), finite_float(tok[4]), tok[5]
                if mv not in ("0", "1"):
                    raise ValueError(f"MOVABLE must be 0 or 1, got {mv!r}")
                node_kind = NodeKind(nk)
                if node_kind == NodeKind.PORT:
                    if w != 0 or h != 0:
                        raise ValueError("ports must have zero width and height")
                elif w <= 0 or h <= 0:
                    raise ValueError(f"{nk} node needs positive size, got {w} x {h}")
                node = Node(name, node_kind, w, h, movable=mv == "1")
                nodes.append(node)
                node_by_name[name] = node
            elif kind == "net":
                if len(tok) not in (2, 3):
                    raise ValueError("expected: net ID [WEIGHT]")
                weight = finite_float(tok[2]) if len(tok) == 3 else 1.0
                if tok[1] in nets:
                    raise ValueError(f"duplicate net id {tok[1]!r}")
                nets[tok[1]] = Net(tok[1], [], weight)
            elif kind == "pin":
                if len(tok) not in (5, 6):
                    raise ValueError("expected: pin NETID NODEID DX DY [s]")
                if len(tok) == 6 and tok[5] != "s":
                    raise ValueError(f"trailing token must be 's', got {tok[5]!r}")
                if tok[1] not in nets:
                    raise ValueError(f"pin before net declaration {tok[1]!r}")
                owner = node_by_name.get(tok[2])
                if owner is None:
                    raise DanglingPinReference(f"pin references unknown node {tok[2]!r}")
                dx, dy = finite_float(tok[3]), finite_float(tok[4])
                # Pin offsets must stay within the owner's half-extents.
                cdx = min(max(dx, -owner.width / 2), owner.width / 2)
                cdy = min(max(dy, -owner.height / 2), owner.height / 2)
                if cdx != dx or cdy != dy:
                    clamped += 1
                nets[tok[1]].pins.append(Pin(tok[2], cdx, cdy, is_source=len(tok) == 6))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except DanglingPinReference:
            raise
        except (ValueError, InvalidDimension) as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
    if canvas is None:
        raise MalformedLine(path, 0, "missing canvas record")
    if clamped:
        log.warning("%s: clamped %d pin offset(s) to the owner's half-extents", path, clamped)
    kept = validate_nets(list(nets.values()), where=str(path))
    return Netlist(nodes=nodes, nets=kept, canvas=canvas)
