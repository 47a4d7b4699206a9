"""Bookshelf benchmark I/O (.aux, .nodes, .nets, .pl, .scl).

Supported subset: the mixed-size placement flavor used by the ICCAD04 suite.
Conventions handled here:

  * .pl coordinates are lower-left corners; internally placements hold node
    centers, so read/write shift by the half-extents.
  * .nets pin offsets are relative to node centers and stay that way.
  * "terminal" nodes are fixed. Zero-area terminals become ports and their
    centers are clamped into the canvas on read (pads often sit outside the
    row region). Nonzero-area terminals become fixed macros and keep their
    declared coordinates.
  * Movable nodes taller than the .scl row height are macros, the others are
    standard cells. Without an .scl, every movable node is a macro.
"""

from __future__ import annotations

import logging
import re
from pathlib import Path

import numpy as np

from .errors import IncompletePlacement, InvalidDimension, MalformedLine, MissingFile
from .netlist import (
    Canvas,
    Netlist,
    NetTable,
    NodeKind,
    NodeTable,
    Orientation,
    Placement,
    Pose,
    clamp_offsets,
    finite_float,
    node_table,
    pin_table,
    validate_nets,
    write_text,
)

log = logging.getLogger(__name__)

_HEADER_RE = re.compile(r"^\s*UCLA\s+\w+\s+1\.0", re.IGNORECASE)


def _content_lines(path: Path):
    """Yield (lineno, stripped line) skipping blanks, comments and the header."""
    if not path.exists():
        raise MissingFile(str(path))
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line[0] in "Uu" and _HEADER_RE.match(line):
            continue
        yield lineno, line


def _header_value(tok: list[str], path: Path, lineno: int) -> int:
    # "NumNodes : 12752" or "NumNodes:12752"
    joined = " ".join(tok)
    m = re.match(r"^\w+\s*:\s*(\d+)$", joined)
    if not m:
        raise MalformedLine(path, lineno, f"bad count line {joined!r}")
    return int(m.group(1))


def _check_counts(path: Path, declared: dict, parsed: dict) -> None:
    """Raise MalformedLine for a header count ("NumPins : 12") that the
    body of the file contradicts."""
    for key, got in parsed.items():
        if declared[key] not in (None, got):
            raise MalformedLine(path, 0, f"{key}={declared[key]} but parsed {got}")


def parse_aux(path) -> dict[str, Path]:
    """Map file extension (without dot) -> path for the files listed in .aux."""
    path = Path(path)
    files: dict[str, Path] = {}
    for _, line in _content_lines(path):
        if ":" in line:
            line = line.split(":", 1)[1]
        for name in line.split():
            ext = Path(name).suffix.lstrip(".").lower()
            if ext:
                files[ext] = path.parent / name
    if "nodes" not in files or "nets" not in files:
        raise MalformedLine(path, 0, "aux must list .nodes and .nets files")
    return files


def parse_nodes(path: Path, row_height: float | None) -> NodeTable:
    rows: list[tuple] = []   # (name, kind, width, height, movable)
    declared = dict.fromkeys(("NumNodes", "NumTerminals"))
    for lineno, line in _content_lines(path):
        tok = line.split()
        if tok[0] in declared:
            declared[tok[0]] = _header_value(tok, path, lineno)
            continue
        if len(tok) < 3:
            raise MalformedLine(path, lineno, f"expected 'name width height [terminal]', got {line!r}")
        name = tok[0]
        try:
            w, h = finite_float(tok[1]), finite_float(tok[2])
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad node size in {line!r}") from exc
        if w < 0 or h < 0:
            raise MalformedLine(path, lineno, f"negative node size in {line!r}")
        if len(tok) > 3 and tok[3].lower().startswith("terminal"):
            rows.append((name, NodeKind.PORT, 0.0, 0.0, False) if w == 0 and h == 0
                        else (name, NodeKind.MACRO, w, h, False))
        elif w <= 0 or h <= 0:
            raise MalformedLine(path, lineno, f"movable node {name!r} needs positive size")
        else:
            stdcell = row_height is not None and h <= row_height
            rows.append((name, NodeKind.STDCELL if stdcell else NodeKind.MACRO, w, h, True))
    nodes = node_table(rows)
    _check_counts(path, declared, {"NumNodes": len(rows), "NumTerminals": int((~nodes.movable).sum())})
    return nodes


_NUMBER_CHARS = "+-.0123456789eE"


def parse_nets(path: Path, nodes: NodeTable) -> NetTable:
    """The .nets sections as a pin table, offsets clamped to the owners'
    half-extents. Nets are not validated yet."""
    index = {name: i for i, name in enumerate(nodes.names)}
    names: list[str] = []
    sizes: list[int] = []
    pins: list[tuple] = []   # (owner, dx, dy, marked)
    declared = dict.fromkeys(("NumNets", "NumPins"))
    remaining = 0
    for lineno, line in _content_lines(path):
        tok = line.split()
        head = tok[0]
        if head in declared:
            declared[head] = _header_value(tok, path, lineno)
            continue
        if head == "NetDegree":
            if remaining > 0:
                raise MalformedLine(path, lineno, f"net {names[-1]!r} short by {remaining} pin(s)")
            # "NetDegree : 3 name"; the name is optional.
            before, colon, rest = " ".join(tok[1:]).partition(":")
            rest = rest.lstrip()
            digits = rest[:len(rest) - len(rest.lstrip("0123456789"))]
            name = rest[len(digits):].split()
            if before or not colon or not digits or len(name) > 1:
                raise MalformedLine(path, lineno, f"bad NetDegree line {line!r}")
            remaining = int(digits)
            names.append(name[0] if name else f"net{len(names)}")
            sizes.append(remaining)
            continue
        if remaining == 0:
            raise MalformedLine(path, lineno, f"pin line outside a net section: {line!r}")
        # "nodename I : dx dy" / "nodename O" / "nodename B: dx dy"; O marks the source.
        direction, colon, rest = " ".join(tok[1:]).partition(":")
        offsets = rest.split()
        if direction.rstrip() not in ("I", "O", "B") or colon and (
                len(offsets) != 2 or any(t.strip(_NUMBER_CHARS) for t in offsets)):
            raise MalformedLine(path, lineno, f"bad pin line {line!r}")
        i = index.get(head)
        if i is None:
            raise MalformedLine(path, lineno, f"pin references unknown node {head!r}")
        try:
            pins.append((i, *(map(finite_float, offsets) if colon else (0.0, 0.0)), direction[0] == "O"))
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad pin offset in {line!r}") from exc
        remaining -= 1
    if remaining > 0:
        raise MalformedLine(path, 0, f"net {names[-1]!r} short by {remaining} pin(s)")
    _check_counts(path, declared, {"NumNets": len(names), "NumPins": len(pins)})
    return clamp_offsets(pin_table(names, [1.0] * len(names), sizes, pins), nodes, path, "node half-extents")


def parse_scl(path: Path) -> tuple[float, float, float, float, float]:
    """Parse core rows. Returns (min_x, min_y, max_x, max_y, row_height)."""
    rows = []
    declared = {"NumRows": None}
    row = None   # the open CoreRow's values by lower-case key
    for lineno, line in _content_lines(path):
        tok = line.split()
        if tok[0] in declared:
            declared[tok[0]] = _header_value(tok, path, lineno)
            continue
        if tok[0] == "CoreRow":
            row = {"sitespacing": 1.0}
            continue
        if tok[0] == "End":
            if row is None:
                raise MalformedLine(path, lineno, "End outside CoreRow")
            if not {"coordinate", "height", "subroworigin", "numsites"} <= row.keys():
                raise MalformedLine(path, lineno, "CoreRow missing Coordinate/Height/SubrowOrigin/NumSites")
            origin, coord = row["subroworigin"], row["coordinate"]
            rows.append((origin, coord, origin + row["numsites"] * row["sitespacing"], coord + row["height"]))
            row = None
            continue
        if row is None:
            raise MalformedLine(path, lineno, f"unexpected line outside CoreRow: {line!r}")
        # Key : value pairs, possibly several per line (SubrowOrigin : 0 NumSites : 128)
        for m in re.finditer(r"(\w+)\s*:\s*([-+0-9.eE]+)", line):
            try:
                row[m.group(1).lower()] = finite_float(m.group(2))
            except ValueError as exc:
                raise MalformedLine(path, lineno, f"bad number in {line!r}") from exc
    _check_counts(path, declared, {"NumRows": len(rows)})
    if not rows:
        raise MalformedLine(path, 0, "no CoreRow sections found")
    left, bottom, right, top = zip(*rows)
    return min(left), min(bottom), max(right), max(top), rows[0][3] - rows[0][1]


def parse_bookshelf(aux_path) -> Netlist:
    """Parse a Bookshelf design into a Netlist.

    The canvas spans (0,0) to the maximum row extents from .scl; without an
    .scl it spans the bounding box of fixed nodes located by the .pl file.
    Initial locations are NOT part of the result; use read_placement on the
    .pl to obtain them.
    """
    files = parse_aux(aux_path)
    row_height = None
    canvas = None
    if "scl" in files:
        min_x, min_y, max_x, max_y, row_height = parse_scl(files["scl"])
        if min_x != 0 or min_y != 0:
            log.info("%s: rows start at (%g, %g); canvas keeps origin (0, 0)", files["scl"], min_x, min_y)
        canvas = Canvas(max_x, max_y)
    nodes = parse_nodes(files["nodes"], row_height)
    nets = validate_nets(parse_nets(files["nets"], nodes), where=str(files["nets"]))
    if canvas is None:
        if "pl" not in files:
            raise InvalidDimension("no .scl rows and no .pl file: cannot infer a canvas")
        corners = _read_pl_corners(files["pl"])
        x, y = np.full((2, len(nodes.names)), np.nan)
        for i, name in enumerate(nodes.names):
            if name in corners:
                x[i], y[i] = corners[name][:2]
        pool = ~np.isnan(x) & ~nodes.movable
        pool = pool if pool.any() else ~np.isnan(x)
        if not pool.any():
            raise InvalidDimension("cannot infer canvas: .pl places no known nodes")
        ext_x = max(0.0, float((x + nodes.width)[pool].max()))
        ext_y = max(0.0, float((y + nodes.height)[pool].max()))
        canvas = Canvas(ext_x, ext_y)
        log.info("canvas inferred from %d placed node(s): %g x %g", int(pool.sum()), ext_x, ext_y)
    return Netlist(nodes=nodes, nets=nets, canvas=canvas)


_PL_RE = re.compile(
    r"^(\S+)\s+([-+0-9.eE]+)\s+([-+0-9.eE]+)(?:\s*:\s*(\w+))?(\s*/FIXED\w*)?\s*$"
)


def _read_pl_corners(path: Path) -> dict[str, tuple[float, float, str, int]]:
    """name -> (x, y, orientation, line number) of the last line naming it."""
    out = {}
    for lineno, line in _content_lines(path):
        m = _PL_RE.match(line)
        if not m:
            raise MalformedLine(path, lineno, f"bad placement line {line!r}")
        try:
            x, y = finite_float(m.group(2)), finite_float(m.group(3))
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad coordinate in {line!r}") from exc
        out[m.group(1)] = (x, y, m.group(4) or "N", lineno)
    return out


def read_placement(path, netlist: Netlist, clamp_ports: bool = True) -> Placement:
    """Read a .pl file into a center-based placement for known nodes.

    Unknown node names are skipped with a warning. Port centers are clamped
    into the canvas when clamp_ports is set (pad rings commonly sit outside
    the core rows).
    """
    corners = _read_pl_corners(Path(path))
    placement: Placement = {}
    unknown = clamped = 0
    cv, a = netlist.canvas, netlist.arrays
    hw, hh, port = a.half_w.tolist(), a.half_h.tolist(), a.is_port.tolist()
    for name, (x, y, orient_s, lineno) in corners.items():
        i = a.index.get(name)
        if i is None:
            unknown += 1
            continue
        try:
            orient = Orientation(orient_s)
        except ValueError:
            # Bookshelf allows 8 orientations; fold the rotated ones onto
            # their mirror relatives (outline is what matters here).
            alias = {"E": "N", "W": "S", "FE": "FN", "FW": "FS"}.get(orient_s)
            if alias is None:
                raise MalformedLine(Path(path), lineno, f"unsupported orientation {orient_s!r} for {name!r}")
            orient = Orientation(alias)
        cx = x + hw[i]
        cy = y + hh[i]
        if clamp_ports and port[i]:
            nx = min(max(cx, 0.0), cv.width)
            ny = min(max(cy, 0.0), cv.height)
            if nx != cx or ny != cy:
                clamped += 1
            cx, cy = nx, ny
        placement[name] = Pose(cx, cy, orient)
    if unknown:
        log.warning("%s: skipped %d placement line(s) for unknown nodes", path, unknown)
    if clamped:
        log.info("%s: clamped %d port location(s) onto the canvas", path, clamped)
    return placement


def write_placement(netlist: Netlist, placement: Placement, path) -> None:
    """Write a .pl file (lower-left corners, 6 decimals, /FIXED on fixed nodes).

    Every movable node must be covered; fixed nodes are written when present.
    """
    a = netlist.arrays
    nodes = list(zip(a.names, a.half_w.tolist(), a.half_h.tolist(), a.movable.tolist()))
    missing = [name for name, _, _, movable in nodes if movable and name not in placement]
    if missing:
        raise IncompletePlacement(
            f"placement missing {len(missing)} movable node(s), first: {missing[:3]}"
        )
    lines = ["UCLA pl 1.0", ""]
    for name, hw, hh, movable in nodes:
        pose = placement.get(name)
        if pose is None:
            continue
        suffix = "" if movable else " /FIXED"
        lines.append(f"{name}\t{pose.x - hw:.6f}\t{pose.y - hh:.6f}\t: {pose.orient.value}{suffix}")
    write_text(path, "\n".join(lines) + "\n")
