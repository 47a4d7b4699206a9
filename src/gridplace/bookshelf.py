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

from .errors import IncompletePlacement, InvalidDimension, MalformedLine, MissingFile
from .netlist import (
    Canvas,
    Net,
    Netlist,
    Node,
    NodeKind,
    Orientation,
    Pin,
    Placement,
    Pose,
    finite_float,
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
        if _HEADER_RE.match(line):
            continue
        yield lineno, line


def _header_value(tok: list[str], path: Path, lineno: int) -> int:
    # "NumNodes : 12752" or "NumNodes:12752"
    joined = " ".join(tok)
    m = re.match(r"^\w+\s*:\s*(\d+)$", joined)
    if not m:
        raise MalformedLine(path, lineno, f"bad count line {joined!r}")
    return int(m.group(1))


def parse_aux(path) -> dict[str, Path]:
    """Map file extension (without dot) -> path for the files listed in .aux."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    base = path.parent
    files: dict[str, Path] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line:
            line = line.split(":", 1)[1]
        for name in line.split():
            ext = Path(name).suffix.lstrip(".").lower()
            if ext:
                files[ext] = base / name
    if "nodes" not in files or "nets" not in files:
        raise MalformedLine(path, 0, "aux must list .nodes and .nets files")
    return files


def parse_nodes(path: Path, row_height: float | None) -> list[Node]:
    nodes: list[Node] = []
    num_nodes = num_terminals = None
    for lineno, line in _content_lines(path):
        tok = line.split()
        if tok[0] == "NumNodes":
            num_nodes = _header_value(tok, path, lineno)
            continue
        if tok[0] == "NumTerminals":
            num_terminals = _header_value(tok, path, lineno)
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
        terminal = len(tok) > 3 and tok[3].lower().startswith("terminal")
        if terminal:
            if w == 0 and h == 0:
                nodes.append(Node(name, NodeKind.PORT, 0.0, 0.0, movable=False))
            else:
                nodes.append(Node(name, NodeKind.MACRO, w, h, movable=False))
        else:
            if w <= 0 or h <= 0:
                raise MalformedLine(path, lineno, f"movable node {name!r} needs positive size")
            if row_height is not None and h <= row_height:
                kind = NodeKind.STDCELL
            else:
                kind = NodeKind.MACRO
            nodes.append(Node(name, kind, w, h, movable=True))
    if num_nodes is not None and num_nodes != len(nodes):
        raise MalformedLine(path, 0, f"NumNodes={num_nodes} but parsed {len(nodes)} nodes")
    if num_terminals is not None:
        parsed_t = sum(1 for n in nodes if not n.movable)
        if num_terminals != parsed_t:
            raise MalformedLine(path, 0, f"NumTerminals={num_terminals} but parsed {parsed_t}")
    return nodes


def parse_nets(path: Path, nodes: dict[str, Node]) -> list[Net]:
    nets: list[Net] = []
    num_nets = num_pins = None
    pins_seen = 0
    current: Net | None = None
    remaining = 0
    clamped = 0
    for lineno, line in _content_lines(path):
        tok = line.split()
        if tok[0] == "NumNets":
            num_nets = _header_value(tok, path, lineno)
            continue
        if tok[0] == "NumPins":
            num_pins = _header_value(tok, path, lineno)
            continue
        if tok[0] == "NetDegree":
            if remaining > 0:
                raise MalformedLine(path, lineno, f"net {current.name!r} short by {remaining} pin(s)")
            joined = " ".join(tok)
            m = re.match(r"^NetDegree\s*:\s*(\d+)\s*(\S+)?$", joined)
            if not m:
                raise MalformedLine(path, lineno, f"bad NetDegree line {line!r}")
            remaining = int(m.group(1))
            name = m.group(2) or f"net{len(nets)}"
            current = Net(name, [])
            nets.append(current)
            continue
        if current is None or remaining == 0:
            raise MalformedLine(path, lineno, f"pin line outside a net section: {line!r}")
        # "nodename I : dx dy" / "nodename O" / "nodename B : dx dy"
        m = re.match(r"^(\S+)\s+([IOB])(?:\s*:\s*([-+0-9.eE]+)\s+([-+0-9.eE]+))?$", line)
        if not m:
            raise MalformedLine(path, lineno, f"bad pin line {line!r}")
        node_name, direction = m.group(1), m.group(2)
        if node_name not in nodes:
            raise MalformedLine(path, lineno, f"pin references unknown node {node_name!r}")
        try:
            dx = finite_float(m.group(3)) if m.group(3) is not None else 0.0
            dy = finite_float(m.group(4)) if m.group(4) is not None else 0.0
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad pin offset in {line!r}") from exc
        node = nodes[node_name]
        hw, hh = node.width / 2.0, node.height / 2.0
        cx = min(max(dx, -hw), hw)
        cy = min(max(dy, -hh), hh)
        if cx != dx or cy != dy:
            clamped += 1
            dx, dy = cx, cy
        current.pins.append(Pin(node_name, dx, dy, is_source=direction == "O"))
        remaining -= 1
        pins_seen += 1
    if remaining > 0:
        raise MalformedLine(path, 0, f"net {current.name!r} short by {remaining} pin(s)")
    if num_nets is not None and num_nets != len(nets):
        raise MalformedLine(path, 0, f"NumNets={num_nets} but parsed {len(nets)}")
    if num_pins is not None and num_pins != pins_seen:
        raise MalformedLine(path, 0, f"NumPins={num_pins} but parsed {pins_seen}")
    if clamped:
        log.warning("%s: clamped %d pin offset(s) to node half-extents", path, clamped)
    return nets


def parse_scl(path: Path) -> tuple[float, float, float, float, float]:
    """Parse core rows. Returns (min_x, min_y, max_x, max_y, row_height)."""
    rows = []
    num_rows = None
    in_row = False
    coord = height = origin = sites = None
    spacing = 1.0
    for lineno, line in _content_lines(path):
        tok = line.split()
        if tok[0] == "NumRows":
            num_rows = _header_value(tok, path, lineno)
            continue
        if tok[0] == "CoreRow":
            in_row = True
            coord = height = origin = sites = None
            spacing = 1.0
            continue
        if tok[0] == "End":
            if not in_row:
                raise MalformedLine(path, lineno, "End outside CoreRow")
            if coord is None or height is None or origin is None or sites is None:
                raise MalformedLine(path, lineno, "CoreRow missing Coordinate/Height/SubrowOrigin/NumSites")
            rows.append((origin, coord, origin + sites * spacing, coord + height))
            in_row = False
            continue
        if not in_row:
            raise MalformedLine(path, lineno, f"unexpected line outside CoreRow: {line!r}")
        # Key : value pairs, possibly several per line (SubrowOrigin : 0 NumSites : 128)
        for m in re.finditer(r"(\w+)\s*:\s*([-+0-9.eE]+)", line):
            try:
                key, val = m.group(1).lower(), finite_float(m.group(2))
            except ValueError as exc:
                raise MalformedLine(path, lineno, f"bad number in {line!r}") from exc
            if key == "coordinate":
                coord = val
            elif key == "height":
                height = val
            elif key == "subroworigin":
                origin = val
            elif key == "numsites":
                sites = val
            elif key == "sitespacing":
                spacing = val
    if num_rows is not None and num_rows != len(rows):
        raise MalformedLine(path, 0, f"NumRows={num_rows} but parsed {len(rows)}")
    if not rows:
        raise MalformedLine(path, 0, "no CoreRow sections found")
    min_x = min(r[0] for r in rows)
    min_y = min(r[1] for r in rows)
    max_x = max(r[2] for r in rows)
    max_y = max(r[3] for r in rows)
    row_height = rows[0][3] - rows[0][1]
    return min_x, min_y, max_x, max_y, row_height


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
    node_map = {n.name: n for n in nodes}
    nets = validate_nets(parse_nets(files["nets"], node_map), where=str(files["nets"]))
    if canvas is None:
        if "pl" not in files:
            raise InvalidDimension("no .scl rows and no .pl file: cannot infer a canvas")
        corners = _read_pl_corners(files["pl"])
        ext_x = ext_y = 0.0
        fixed = [n for n in nodes if not n.movable and n.name in corners]
        pool = fixed if fixed else [n for n in nodes if n.name in corners]
        if not pool:
            raise InvalidDimension("cannot infer canvas: .pl places no known nodes")
        for n in pool:
            x, y = corners[n.name][0], corners[n.name][1]
            ext_x = max(ext_x, x + n.width)
            ext_y = max(ext_y, y + n.height)
        canvas = Canvas(ext_x, ext_y)
        log.info("canvas inferred from %d placed node(s): %g x %g", len(pool), ext_x, ext_y)
    return Netlist(nodes=nodes, nets=nets, canvas=canvas)


_PL_RE = re.compile(
    r"^(\S+)\s+([-+0-9.eE]+)\s+([-+0-9.eE]+)(?:\s*:\s*(\w+))?(\s*/FIXED\w*)?\s*$"
)


def _read_pl_corners(path: Path) -> dict[str, tuple[float, float, str]]:
    out = {}
    for lineno, line in _content_lines(path):
        m = _PL_RE.match(line)
        if not m:
            raise MalformedLine(path, lineno, f"bad placement line {line!r}")
        try:
            x, y = finite_float(m.group(2)), finite_float(m.group(3))
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad coordinate in {line!r}") from exc
        out[m.group(1)] = (x, y, m.group(4) or "N")
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
    cv = netlist.canvas
    for name, (x, y, orient_s) in corners.items():
        if not netlist.has_node(name):
            unknown += 1
            continue
        node = netlist.node(name)
        try:
            orient = Orientation(orient_s)
        except ValueError:
            # Bookshelf allows 8 orientations; fold the rotated ones onto
            # their mirror relatives (outline is what matters here).
            alias = {"E": "N", "W": "S", "FE": "FN", "FW": "FS"}.get(orient_s)
            if alias is None:
                raise MalformedLine(Path(path), 0, f"unsupported orientation {orient_s!r} for {name!r}")
            orient = Orientation(alias)
        cx = x + node.width / 2.0
        cy = y + node.height / 2.0
        if clamp_ports and node.kind == NodeKind.PORT:
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
    missing = [n.name for n in netlist.nodes if n.movable and n.name not in placement]
    if missing:
        raise IncompletePlacement(
            f"placement missing {len(missing)} movable node(s), first: {missing[:3]}"
        )
    lines = ["UCLA pl 1.0", ""]
    for node in netlist.nodes:
        pose = placement.get(node.name)
        if pose is None:
            continue
        x = pose.x - node.width / 2.0
        y = pose.y - node.height / 2.0
        suffix = "" if node.movable else " /FIXED"
        lines.append(f"{node.name}\t{x:.6f}\t{y:.6f}\t: {pose.orient.value}{suffix}")
    write_text(path, "\n".join(lines) + "\n")
