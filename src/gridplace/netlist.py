"""Netlist domain model and the native line-based text format.

A netlist is a set of rectangular nodes (hard macros, standard cells, soft
clusters, zero-area ports) connected by weighted nets. Pin offsets are stored
relative to the owning node's center, matching the convention of the Bookshelf
files this tool consumes. A netlist stores its nodes and nets once, as the
columns of `NetlistArrays`: the node table (names, input sizes, kinds,
movable flags) and the flat pin table, which the readers and clustering
build. `Node`, `Net` and `Pin` objects exist only where callers hand them in
or read them out. Node locations are not part of the netlist; they live in
separate placements, name -> `Pose` maps. The CLI's merges use dicts; the
.pl reader and the placer work on `PlacementState`, the array form of a
placement, and `PlacementState.of` is the one decoder to it, from a dict or
from a state of another netlist.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
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
    UnwritableName,
)

log = logging.getLogger(__name__)


class NodeKind(str, Enum):
    MACRO = "macro"
    STDCELL = "stdcell"
    CLUSTER = "cluster"
    PORT = "port"


# The kind column of a node table holds each kind's position in NodeKind.
NODE_KINDS = tuple(NodeKind)
KIND_CODE = {k: np.int8(i) for i, k in enumerate(NODE_KINDS)}


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


@dataclass
class Node:
    name: str
    kind: NodeKind
    width: float
    height: float
    movable: bool


@dataclass
class Canvas:
    """Placement region, origin at (0, 0)."""

    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise InvalidDimension(f"canvas must have positive size, got {self.width} x {self.height}")


@dataclass(frozen=True)
class NetTable:
    """Nets as flat pin arrays.

    The pins of net k are at `net_start[k]:net_start[k + 1]`, and `net_start`
    has one more entry than there are nets. `pin_owner` holds node indices;
    `pin_marked` is each pin's source mark as read or given (`s` in the
    native format, `O` in Bookshelf), and a net may carry several.
    """

    net_names: list[str]
    net_weight: np.ndarray
    net_start: np.ndarray
    pin_owner: np.ndarray
    pin_dx: np.ndarray
    pin_dy: np.ndarray
    pin_marked: np.ndarray

    @property
    def net_of_pin(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.net_names)), np.diff(self.net_start))


@dataclass(frozen=True)
class NodeTable:
    """Nodes as columns, one entry per node: names, widths and heights as
    given, `kind` codes (positions in `NODE_KINDS`) and movable flags."""

    names: list[str]
    width: np.ndarray
    height: np.ndarray
    kind: np.ndarray
    movable: np.ndarray


def node_table(rows) -> NodeTable:
    """A `NodeTable` from one (name, kind, width, height, movable) row per node."""
    names, kinds, width, height, movable = zip(*rows) if rows else ((),) * 5
    return NodeTable(list(names), np.array(width, dtype=float), np.array(height, dtype=float),
                     np.array([KIND_CODE[k] for k in kinds], dtype=np.int8), np.array(movable, dtype=bool))


@dataclass(frozen=True)
class NetlistArrays(NetTable, NodeTable):
    """The netlist as flat arrays: its `NodeTable` and `NetTable` plus what
    derives from them, one entry per node in netlist order. `driver` is the
    flat index of each net's driving pin: its first marked pin, else its
    first pin.
    """

    index: dict[str, int]
    half_w: np.ndarray
    half_h: np.ndarray
    is_macro: np.ndarray
    is_cluster: np.ndarray
    is_port: np.ndarray
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
        ignored. A state of another netlist is decoded array to array.
        Raises OutOfRange naming the node with a non-finite coordinate.
        """
        if isinstance(placement, cls) and placement.arrays is arrays:
            return placement
        n = len(arrays.names)
        x, y, sx, sy = np.full(n, np.nan), np.full(n, np.nan), np.ones(n), np.ones(n)
        if isinstance(placement, cls):
            # Node i takes the pose of node j of the other netlist.
            j = np.fromiter(map(placement.arrays.index.get, arrays.names, repeat(-1)), np.intp, n)
            i = np.flatnonzero((j >= 0) & ~np.isnan(placement.x[j]))
            x[i], y[i], sx[i], sy[i] = placement.x[j[i]], placement.y[j[i]], placement.sx[j[i]], placement.sy[j[i]]
            if np.isfinite(x[i]).all() and np.isfinite(y[i]).all():
                return cls(arrays, x, y, sx, sy)
            placement = dict(placement)   # the loop below names the first bad node
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


class Netlist:
    """Nodes, nets and canvas, checked once at construction.

    `nodes` is either a `NodeTable` or a list of `Node` objects, and `nets`
    either a `NetTable` over the nodes, as the readers and clustering build
    them, or an iterable of `Net` objects; objects are decoded here into
    tables. Duplicate node names, a net without pins and a pin naming an
    unknown node are rejected. The tables are stored only in `arrays`, and no
    code changes a netlist after construction.
    """

    def __init__(self, nodes: NodeTable | list[Node], nets: NetTable | Iterable[Net], canvas: Canvas):
        if not isinstance(nodes, NodeTable):
            nodes = node_table([(n.name, n.kind, n.width, n.height, n.movable) for n in nodes])
        if not nodes.names:
            raise EmptyNetlist("netlist has no nodes")
        index: dict[str, int] = {}
        for i, name in enumerate(nodes.names):
            if name in index:
                raise InvalidDimension(f"duplicate node id {name!r}")
            index[name] = i
        table = nets if isinstance(nets, NetTable) else _decode_nets(list(nets), index)
        self.canvas = canvas
        n_pins, first = len(table.pin_owner), table.net_start[:-1]
        first_src = np.minimum.reduceat(np.where(table.pin_marked, np.arange(n_pins), n_pins), first)
        self.arrays = NetlistArrays(
            **{f: getattr(table, f) for f in NetTable.__dataclass_fields__},
            **{f: getattr(nodes, f) for f in NodeTable.__dataclass_fields__},
            index=index,
            half_w=nodes.width / 2.0,
            half_h=nodes.height / 2.0,
            is_macro=nodes.kind == KIND_CODE[NodeKind.MACRO],
            is_cluster=nodes.kind == KIND_CODE[NodeKind.CLUSTER],
            is_port=nodes.kind == KIND_CODE[NodeKind.PORT],
            driver=np.where(first_src < n_pins, first_src, first),
        )

    @property
    def nodes(self) -> list[Node]:
        """The nodes as `Node` objects, built from the table on each access."""
        a = self.arrays
        return [Node(name, NODE_KINDS[k], w, h, m) for name, k, w, h, m in
                zip(a.names, a.kind.tolist(), a.width.tolist(), a.height.tolist(), a.movable.tolist())]

    @property
    def nets(self) -> list[Net]:
        """The nets as `Net` objects, built from the table on each access."""
        return [Net(name, [Pin(*p) for p in pins], weight) for name, weight, pins in _net_rows(self.arrays)]


def _net_rows(a: NetlistArrays) -> list[tuple[str, float, list[tuple]]]:
    """(name, weight, [(node name, dx, dy, marked) per pin]) per net."""
    pins = list(zip([a.names[i] for i in a.pin_owner.tolist()], a.pin_dx.tolist(), a.pin_dy.tolist(),
                    a.pin_marked.tolist()))
    start = a.net_start.tolist()
    return [(name, weight, pins[start[k]:start[k + 1]])
            for k, (name, weight) in enumerate(zip(a.net_names, a.net_weight.tolist()))]


def index_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The index ranges first[k], ..., first[k] + count[k] - 1, concatenated."""
    end = np.cumsum(count)
    return np.arange(end[-1] if end.size else 0) + np.repeat(first + count - end, count)


def pin_table(names: Iterable[str], weights, sizes, pins) -> NetTable:
    """A `NetTable` from each net's name, weight and pin count, and one
    (owner, dx, dy, marked) row per pin, net by net."""
    owner, dx, dy, marked = np.array(pins, dtype=float).reshape(-1, 4).T.copy()
    return NetTable(list(names), np.array(weights, dtype=float),
                    np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))),
                    owner.astype(np.intp), dx, dy, marked.astype(bool))


def _decode_nets(nets: list[Net], index: dict[str, int]) -> NetTable:
    for net in nets:
        if not net.pins:
            # No driver: the evaluator and FD would borrow the next net's first pin.
            raise DegenerateNet(f"net {net.name!r} has no pins")
        for pin in net.pins:
            if pin.node not in index:
                raise DanglingPinReference(f"net {net.name!r} pin references unknown node {pin.node!r}")
    return pin_table([net.name for net in nets], [net.weight for net in nets], [len(net.pins) for net in nets],
                     [(index[p.node], p.dx, p.dy, p.is_source) for net in nets for p in net.pins])


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


def clamp_offsets(t: NetTable, nodes: NodeTable, where: str | Path, extents: str) -> NetTable:
    """`t` with pin offsets pulled back within their owners' half-extents;
    logs how many pins moved. Offsets inside or on the boundary stay bit for
    bit."""
    def clamp(d, extent):    # one axis at a time, to keep the temporaries small
        half = extent[t.pin_owner] / 2.0
        return np.where(d < -half, -half, np.where(d > half, half, d))
    dx, dy = clamp(t.pin_dx, nodes.width), clamp(t.pin_dy, nodes.height)
    clamped = int(np.count_nonzero((dx != t.pin_dx) | (dy != t.pin_dy)))
    if clamped:
        log.warning("%s: clamped %d pin offset(s) to %s", where, clamped, extents)
    return replace(t, pin_dx=dx, pin_dy=dy)


def drop_short_nets(t: NetTable, keep: np.ndarray | None = None) -> tuple[NetTable, np.ndarray]:
    """`t` cut to the pins in `keep` (all by default), then to the nets left
    with two or more pins; also returns each net's count of kept pins."""
    net_of_pin = t.net_of_pin
    keep = np.ones(len(net_of_pin), dtype=bool) if keep is None else keep
    sizes = np.bincount(net_of_pin[keep], minlength=len(t.net_names))
    kept = sizes >= 2
    pins = keep & kept[net_of_pin]
    return NetTable([name for name, k in zip(t.net_names, kept.tolist()) if k], t.net_weight[kept],
                    np.concatenate(([0], np.cumsum(sizes[kept]))), t.pin_owner[pins], t.pin_dx[pins],
                    t.pin_dy[pins], t.pin_marked[pins]), sizes


def validate_nets(t: NetTable, where: str = "netlist") -> NetTable:
    """Drop nets with fewer than two pins and unmark all but the first
    marked pin of each net. Returns the retained nets; logs one warning per
    dropped net and per unmarked pin, in net order.
    """
    # Marks up to and including each pin, counted within its net.
    net_of_pin, seen = t.net_of_pin, np.cumsum(t.pin_marked)
    seen -= np.concatenate(([0], seen))[t.net_start[:-1]][net_of_pin]
    extra = t.pin_marked & (seen > 1)
    sizes = np.diff(t.net_start)
    n_extra = np.bincount(net_of_pin[extra], minlength=len(sizes))
    for k in np.flatnonzero((sizes < 2) | (n_extra > 0)).tolist():
        if sizes[k] < 2:
            log.warning("%s: dropping net %r with %d pin(s)", where, t.net_names[k], sizes[k])
        for _ in range(n_extra[k]):
            log.warning("%s: net %r has multiple source pins, keeping the first", where, t.net_names[k])
    return drop_short_nets(replace(t, pin_marked=t.pin_marked & ~extra))[0]


# ---------------------------------------------------------------------------
# Native text format


def write_netlist(netlist: Netlist, path) -> None:
    """Serialize a netlist in the native line format. Raises UnwritableName,
    before writing, for the first node or net name that would not read back
    as itself: one with whitespace, or with the comment mark '#'."""
    a = netlist.arrays
    for what, names in (("node", a.names), ("net", a.net_names)):
        bad = next((n for n in names if "#" in n or n.split() != [n]), None)
        if bad is not None:
            raise UnwritableName(f"{what} name {bad!r} cannot be written to the native format")
    lines = [f"canvas {netlist.canvas.width!r} {netlist.canvas.height!r}"]
    lines += [f"node {name} {NODE_KINDS[k].value} {w!r} {h!r} {int(m)}" for name, k, w, h, m in
              zip(a.names, a.kind.tolist(), a.width.tolist(), a.height.tolist(), a.movable.tolist())]
    for name, weight, pins in _net_rows(a):
        lines.append(f"net {name} {weight!r}")
        lines += [f"pin {name} {node} {dx!r} {dy!r}{' s' if m else ''}" for node, dx, dy, m in pins]
    write_text(path, "\n".join(lines) + "\n")


def read_netlist(path) -> Netlist:
    """Parse the native line format. Raises MalformedLine with line numbers."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    canvas = None
    node_rows: list[tuple] = []   # (name, kind, width, height, movable)
    node_index: dict[str, int] = {}
    net_index: dict[str, int] = {}
    weights: list[float] = []
    pins: list[tuple] = []   # (net, owner, dx, dy, marked) in file order
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
                node_index[name] = len(node_rows)
                node_rows.append((name, node_kind, w, h, mv == "1"))
            elif kind == "net":
                if len(tok) not in (2, 3):
                    raise ValueError("expected: net ID [WEIGHT]")
                weight = finite_float(tok[2]) if len(tok) == 3 else 1.0
                if tok[1] in net_index:
                    raise ValueError(f"duplicate net id {tok[1]!r}")
                net_index[tok[1]] = len(weights)
                weights.append(weight)
            elif kind == "pin":
                if len(tok) not in (5, 6):
                    raise ValueError("expected: pin NETID NODEID DX DY [s]")
                if len(tok) == 6 and tok[5] != "s":
                    raise ValueError(f"trailing token must be 's', got {tok[5]!r}")
                k = net_index.get(tok[1])
                if k is None:
                    raise ValueError(f"pin before net declaration {tok[1]!r}")
                i = node_index.get(tok[2])
                if i is None:
                    raise DanglingPinReference(f"pin references unknown node {tok[2]!r}")
                pins.append((k, i, finite_float(tok[3]), finite_float(tok[4]), len(tok) == 6))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (ValueError, InvalidDimension) as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
    if canvas is None:
        raise MalformedLine(path, 0, "missing canvas record")
    # Pins grouped by net, in file order within a net.
    rows = np.array(pins, dtype=float).reshape(-1, 5)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    sizes = np.bincount(rows[:, 0].astype(np.intp), minlength=len(weights))
    table = pin_table(net_index, weights, sizes, rows[:, 1:])
    nodes = node_table(node_rows)
    table = clamp_offsets(table, nodes, path, "the owner's half-extents")
    return Netlist(nodes=nodes, nets=validate_nets(table, where=str(path)), canvas=canvas)
