"""Bookshelf benchmark I/O (.aux, .nodes, .nets, .pl, .scl).

Supported subset: the mixed-size placement flavor used by the ICCAD04 suite.
Conventions handled here:

  * .pl coordinates are lower-left corners; internally placements hold node
    centers, so read/write shift by the half-extents.
  * .nets pin offsets are relative to node centers and stay that way. An
    unnamed net section k is named net<k>, with "_" appended while the file
    gives another section that name; an explicit name may not repeat.
  * "terminal" nodes are fixed. Zero-area terminals (zero width or height)
    become ports and their centers are clamped into the canvas on read
    (pads often sit outside the row region). Other terminals become fixed
    macros and keep their declared coordinates.
  * Movable nodes taller than the .scl row height are macros, the others are
    standard cells. Without an .scl, every movable node is a macro.

The .nodes, .nets and .pl readers take the usual spellings from the whole
file's tokens column by column, the other lines one by one (see
`parse_nets`); .aux and .scl files are read line by line.
"""

from __future__ import annotations

import logging
import math
import re
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import IncompletePlacement, InvalidDimension, MalformedLine, MissingFile
from .netlist import (
    KIND_CODE,
    ORIENT_SIGNS,
    Canvas,
    Netlist,
    NetTable,
    NodeKind,
    NodeTable,
    Orientation,
    Placement,
    PlacementState,
    clamp_offsets,
    finite_float,
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


_NUMBER_CHARS = "+-.0123456789eE"
_NUMBER_DROP = dict.fromkeys(map(ord, _NUMBER_CHARS + " "))
# What float() takes of the strings of _NUMBER_CHARS.
_FLOAT_RE = re.compile(r"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")
# The line ends of str.splitlines() that text-mode reading leaves, and the
# other characters that str.split() splits at, as "\n" and " ".
_RESPACE = str.maketrans(dict.fromkeys("\v\f\x1c\x1d\x1e\x85\u2028\u2029", "\n") | dict.fromkeys(
    "\x1f\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000", " "))
# A .nets line's code beside a pin owner's node index. _OTHER lines are
# read one by one: comments, headers and counts stay _OTHER.
_DEGREE, _OTHER, _UNKNOWN = -1, -2, -3
_KEYWORDS = {"NetDegree": _DEGREE, "NumNets": _OTHER, "NumPins": _OTHER}


def _tokens(path: Path, width: int) -> tuple[np.ndarray, ...]:
    """A file's whitespace-separated tokens as one object array; per line
    with tokens (lines as `str.splitlines` counts them) its first token,
    token count and line index, and its first `width` (at most six) tokens
    as the rows of columns; and whether the file is ASCII without "_"."""
    if not path.exists():
        raise MissingFile(str(path))
    text = path.read_text().translate(_RESPACE)
    plain = text.isascii() and "_" not in text
    # Tokens start at non-space bytes after a space or at the start.
    raw = np.frombuffer(text.encode(), np.uint8)
    space = np.concatenate(([True], (raw == 32) | ((raw >= 9) & (raw <= 13))))
    ends = np.searchsorted(np.flatnonzero(space[:-1] > space[1:]), np.append(np.flatnonzero(raw == 10), len(raw)))
    del raw, space
    words = text.split()
    del text
    words += [""] * 5   # so that every line can be read five tokens past its first
    tok = np.fromiter(words, object, len(words))
    first, n_tok = np.append(0, ends[:-1]), np.diff(ends, prepend=0)
    line = np.flatnonzero(n_tok)
    first, n_tok = first[line], n_tok[line]
    return tok, first, n_tok, line, tok[first + np.arange(width)[:, None]], plain


def _skipped(words: list[str]) -> bool:
    """Whether a line of these tokens is a comment or a file header."""
    return words[0][0] == "#" or words[0][0] in "Uu" and bool(_HEADER_RE.match(" ".join(words)))


def _data_lines(heads: np.ndarray) -> np.ndarray:
    """Whether each line, by its first token, opens no comment or header."""
    lead = heads.astype("U1")
    maybe = np.flatnonzero((lead == "U") | (lead == "u"))
    lead[maybe] = ["#" if t.upper() == "UCLA" else "U" for t in heads[maybe].tolist()]
    return lead != "#"


def _odd_lines(path: Path, tok, first, n_tok, line, odd: np.ndarray, declared: dict):
    """Yield (j, stripped text) of each data line among the lines `odd` of
    `_tokens`; count lines set `declared`, comments and headers are skipped."""
    text: list[str] = []
    for j in np.flatnonzero(odd).tolist():
        words = tok[first[j]:first[j] + n_tok[j]].tolist()
        if words[0] in declared:
            declared[words[0]] = _header_value(words, path, int(line[j]) + 1)
        elif not _skipped(words):
            text = text or path.read_text().splitlines()
            yield j, text[line[j]].strip()


def _floats(texts: np.ndarray) -> np.ndarray:
    """float() of each token; if one is no number, NaN for each that is not
    spelled as _FLOAT_RE."""
    try:
        return texts.astype(float)
    except ValueError:
        return np.reshape([float(t) if _FLOAT_RE.fullmatch(t) else math.nan for t in texts.flat], texts.shape)


def _respell(words: list[str]) -> list[str] | None:
    """The tokens after the first of a NetDegree or pin line as usually
    spelled: ":", the degree and the name if any; or the direction, then ":",
    dx and dy if given. None if the line is malformed."""
    before, colon, rest = " ".join(words[1:]).partition(":")
    if words[0] == "NetDegree":
        # "NetDegree : 3 name"; the name is optional.
        rest = rest.lstrip()
        digits = rest[:len(rest) - len(rest.lstrip("0123456789"))]
        name = rest[len(digits):].split()
        return None if before or not colon or not digits or len(name) > 1 else [":", digits, *name]
    # "nodename I : dx dy" / "nodename O" / "nodename B: dx dy"; O marks the source.
    offsets = rest.split()
    if before.rstrip() not in ("I", "O", "B") or colon and len(offsets) != 2:
        return None
    return [before[0], ":", *offsets] if colon else [before[0]]


def parse_nets(path: Path, nodes: NodeTable) -> NetTable:
    """The .nets sections as a pin table, offsets clamped to the owners'
    half-extents. Nets are not validated yet.

    The file is read as one token array, each line's first five tokens as
    columns. A dict lookup of the first column finds the pin owners and the
    NetDegree lines. The lines not spelled the usual way, "NetDegree : 3 n0",
    "n0 I : 0.5 -1" or "n0 O", are classified and respelled one by one. Bad
    input raises the error of the first offending line.
    """
    tok, first, n_tok, line, col, plain = _tokens(path, 5)
    index = dict(zip(nodes.names, range(len(nodes.names))))
    # Names that could open a comment or a header line go the per-line way.
    codes = {k: i for k, i in index.items() if k[0] != "#" and k.upper() != "UCLA"} | _KEYWORDS
    code = np.array(list(map(codes.get, col[0].tolist(), repeat(_OTHER))), dtype=np.intp)
    is_deg = code == _DEGREE
    usual = np.where(is_deg, ((n_tok == 3) | (n_tok == 4)) & (col[1] == ":"), (code >= 0) & (
        (col[1] == "I") | (col[1] == "O") | (col[1] == "B")) & ((n_tok == 2) | (n_tok == 5) & (col[2] == ":")))
    usual[is_deg] &= np.array([t.isascii() and t.isdigit() for t in col[2, is_deg].tolist()], dtype=bool)
    errors = []   # (content line, rank within the line, reason, whether the line text follows)

    def flag(at, failed, rank, reason, line_follows=True):
        hit = np.flatnonzero(failed)[:1].tolist()
        if hit:
            errors.append((at[hit[0]], rank, reason(hit[0]) if callable(reason) else reason, line_follows))

    declared = dict.fromkeys(("NumNets", "NumPins"))
    bad = np.zeros(len(line), dtype=bool)
    for j in np.flatnonzero(~usual).tolist():
        words = tok[first[j]:first[j] + n_tok[j]].tolist()
        if words[0] in declared:
            try:
                declared[words[0]] = _header_value(words, path, 0)
            except MalformedLine as exc:
                errors.append((j, 1, exc.reason, False))
        elif not _skipped(words):
            if code[j] == _OTHER:
                code[j] = index.get(words[0], _UNKNOWN)
            respelled = _respell(words)
            if respelled:
                col[1:len(respelled) + 1, j], n_tok[j] = respelled, len(respelled) + 1
            bad[j] = respelled is None

    deg, pin = np.flatnonzero(code == _DEGREE), np.flatnonzero((code >= 0) | (code == _UNKNOWN))
    flag(pin, code[pin] == _UNKNOWN, 3, lambda k: f"pin references unknown node {col[0, pin[k]]!r}", False)
    # A degree beyond the line count is as short as any; messages count from the text.
    digits, degree = col[2, deg], np.zeros(len(deg), dtype=np.intp)
    degree[~bad[deg]] = [min(int(t), len(line)) for t in digits[~bad[deg]].tolist()]
    names = [name if n == 4 else None for name, n in zip(col[3, deg].tolist(), np.where(bad[deg], 0, n_tok[deg]))]
    mark = col[1, pin] == "O"
    texts = col[3:, pin]
    texts[:, n_tok[pin] == 2] = "0"
    del tok, col
    off = _floats(texts)
    # Beyond _NUMBER_CHARS, float() reads only "_", non-ASCII digits, "inf" and
    # "nan": in a plain file, offsets that read as finite numbers pass.
    if not (plain and np.isfinite(off).all()) and " ".join(texts.flat).translate(_NUMBER_DROP):
        bad[pin] |= np.reshape([bool(t.strip(_NUMBER_CHARS)) for t in texts.flat], texts.shape).any(axis=0)
    del texts

    explicit: set = set()
    for k, name in enumerate(names):
        if name is not None and name in explicit:
            errors.append((deg[k], 2, f"duplicate net name {name!r}", False))
        explicit.add(name)
    for k in [k for k, name in enumerate(names) if name is None]:
        names[k] = f"net{k}"
        while names[k] in explicit:
            names[k] += "_"
    # Sections: pin lines past a section's degree lie outside it; a section
    # short of its degree fails at the next NetDegree line or at the end.
    is_pin = np.zeros(len(line), dtype=bool)
    is_pin[pin] = True
    pins_before, sec = np.cumsum(is_pin) - is_pin, np.cumsum(is_deg)[pin] - 1
    start = np.append(pins_before[deg], 0)   # the last entry is for pins before any section
    got = np.diff(np.append(start[:-1], len(pin)))
    flag(pin, pins_before[pin] - start[sec] >= np.append(degree, 0)[sec], 0, "pin line outside a net section: ")
    flag(np.append(deg[1:], len(line)), got < degree, 0,
         lambda k: f"net {names[k]!r} short by {int(digits[k]) - int(got[k])} pin(s)", False)
    flag(deg, bad[deg], 1, "bad NetDegree line ")
    flag(pin, bad[pin], 1, "bad pin line ")
    flag(pin, ~np.isfinite(off).all(axis=0), 4, "bad pin offset in ")
    if errors:   # a short last section fails past the last line, as line 0
        j, _, reason, line_follows = min(errors)
        if line_follows:
            reason += repr(path.read_text().splitlines()[line[j]].strip())
        raise MalformedLine(path, int(line[j]) + 1 if j < len(line) else 0, reason)
    _check_counts(path, declared, {"NumNets": len(names), "NumPins": len(pin)})
    pins = np.column_stack([code[pin], off.T, mark])
    return clamp_offsets(pin_table(names, np.ones(len(names)), degree, pins), nodes, path, "node half-extents")


def parse_nodes(path: Path, row_height: float | None) -> NodeTable:
    """The .nodes lines as a node table, read as `parse_nets` reads .nets:
    lines spelled "name w h [terminal]" whose sizes pass the checks column by
    column, the others one by one."""
    tok, first, n_tok, line, col, _ = _tokens(path, 4)
    terminal = (n_tok == 4) & (col[3] == "terminal")
    declared = dict.fromkeys(("NumNodes", "NumTerminals"))
    usual = ((n_tok == 3) | terminal) & _data_lines(col[0]) & ~np.isin(col[0], list(declared))
    w, h = size = np.full((2, len(line)), np.nan)
    size[:, usual] = _floats(col[1:3, usual])
    with np.errstate(over="ignore", invalid="ignore"):
        usual &= np.isfinite(w * h) & (w >= 0) & (h >= 0) & (terminal | (w > 0) & (h > 0))
    for j, text in _odd_lines(path, tok, first, n_tok, line, ~usual, declared):
        words, lineno = text.split(), int(line[j]) + 1
        if len(words) < 3:
            raise MalformedLine(path, lineno, f"expected 'name width height [terminal]', got {text!r}")
        try:
            wj, hj = finite_float(words[1]), finite_float(words[2])
            if not math.isfinite(wj * hj):
                raise ValueError("area overflows")
        except ValueError as exc:
            raise MalformedLine(path, lineno, f"bad node size in {text!r}") from exc
        if wj < 0 or hj < 0:
            raise MalformedLine(path, lineno, f"negative node size in {text!r}")
        terminal[j] = len(words) > 3 and words[3].lower().startswith("terminal")
        if not terminal[j] and (wj <= 0 or hj <= 0):
            raise MalformedLine(path, lineno, f"movable node {words[0]!r} needs positive size")
        w[j], h[j], usual[j] = wj, hj, True
    w, h, terminal = w[usual], h[usual], terminal[usual]
    port = terminal & ((w == 0) | (h == 0))
    stdcell = ~terminal & (h <= (-math.inf if row_height is None else row_height))
    kind = np.select([port, stdcell], [KIND_CODE[NodeKind.PORT], KIND_CODE[NodeKind.STDCELL]],
                     KIND_CODE[NodeKind.MACRO]).astype(np.int8)
    _check_counts(path, declared, {"NumNodes": len(w), "NumTerminals": int(terminal.sum())})
    return NodeTable(col[0, usual].tolist(), np.where(port, 0.0, w), np.where(port, 0.0, h), kind, ~terminal)


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
            if min(row["height"], row["sitespacing"], row["numsites"]) <= 0:
                raise MalformedLine(path, lineno, "CoreRow needs positive Height, Sitespacing and NumSites")
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
        names, corner = _read_pl(files["pl"])[:2]
        last = dict(zip(names, range(len(names))))
        # Column -1 is NaN for the nodes that the .pl leaves out.
        x, y = np.column_stack([corner, (np.nan, np.nan)])[:, [last.get(name, -1) for name in nodes.names]]
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
# Bookshelf's eight orientations as rows of _SIGNS: the rotated ones fold
# onto their mirror relatives (outline is what matters here).
_ORIENT_CODE = {name: k for k, name in enumerate(("N", "FN", "S", "FS", "E", "FE", "W", "FW"))}
_SIGNS = np.array([ORIENT_SIGNS[o] for o in Orientation] * 2)


def _read_pl(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each .pl line's name, lower-left corner (as a column), orientation,
    its code (-1 if unsupported) and line number. Lines spelled "name x y
    [: O [/FIXED]]" with finite coordinates and a known orientation are read
    as `parse_nets` reads .nets, column by column; the others one by one."""
    tok, first, n_tok, line, col, plain = _tokens(path, 6)
    orient = np.where(n_tok == 3, "N", col[4])
    code = np.fromiter(map(_ORIENT_CODE.get, orient.tolist(), repeat(-1)), np.intp, len(line))
    fixed = (n_tok == 5) | (n_tok == 6) & ((col[5] == "/FIXED") | (col[5] == "/FIXED_NI"))
    usual = ((n_tok == 3) | (code >= 0) & (col[3] == ":") & fixed) & _data_lines(col[0])
    corner, texts = np.full((2, len(line)), np.nan), col[1:3, usual]
    corner[:, usual] = values = _floats(texts)
    # _PL_RE takes coordinates of _NUMBER_CHARS only; see parse_nets.
    if not (plain and np.isfinite(values).all()) and " ".join(texts.flat).translate(_NUMBER_DROP):
        usual[usual] = ~np.reshape([bool(t.strip(_NUMBER_CHARS)) for t in texts.flat], texts.shape).any(axis=0)
    usual &= np.isfinite(corner).all(axis=0)
    for j, text in _odd_lines(path, tok, first, n_tok, line, ~usual, {}):
        m = _PL_RE.match(text)
        if not m:
            raise MalformedLine(path, int(line[j]) + 1, f"bad placement line {text!r}")
        try:
            corner[:, j] = finite_float(m.group(2)), finite_float(m.group(3))
        except ValueError as exc:
            raise MalformedLine(path, int(line[j]) + 1, f"bad coordinate in {text!r}") from exc
        orient[j] = m.group(4) or "N"
        code[j], usual[j] = _ORIENT_CODE.get(orient[j], -1), True
    return col[0, usual].tolist(), corner[:, usual], orient[usual], code[usual], line[usual] + 1


def read_placement(path, netlist: Netlist, clamp_ports: bool = True) -> PlacementState:
    """Read a .pl file into a center-based placement state of `netlist`.

    The last line naming a node places it. Unknown node names are skipped
    with a warning. Port centers are clamped into the canvas when
    clamp_ports is set (pad rings commonly sit outside the core rows).
    """
    names, corner, orient, code, lineno = _read_pl(Path(path))
    last = dict(zip(names, range(len(names))))   # in the order the names first appear
    a, cv = netlist.arrays, netlist.canvas
    node = np.fromiter(map(a.index.get, last, repeat(-1)), np.intp, len(last))
    at = np.fromiter(last.values(), np.intp, len(last))[node >= 0]
    unknown, node = len(last) - len(at), node[node >= 0]
    for k in at[code[at] < 0][:1].tolist():
        raise MalformedLine(Path(path), int(lineno[k]), f"unsupported orientation {orient[k]!r} for {names[k]!r}")
    xy = corner[:, at] + np.stack([a.half_w[node], a.half_h[node]])
    center = np.where(a.is_port[node], np.clip(xy, 0.0, [[cv.width], [cv.height]]), xy) if clamp_ports else xy
    clamped = int(np.count_nonzero((center != xy).any(axis=0)))
    st = PlacementState.of(a, {})
    st.x[node], st.y[node] = center
    st.sx[node], st.sy[node] = _SIGNS[code[at]].T
    if unknown:
        log.warning("%s: skipped %d placement line(s) for unknown nodes", path, unknown)
    if clamped:
        log.info("%s: clamped %d port location(s) onto the canvas", path, clamped)
    return st


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
