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

The .nodes, .nets and .pl readers read a block of lines at a time, the
usual spellings from bytes columns of the tokens and the other lines one by
one (see `_Text` and `parse_nets`); .aux and .scl files are read line by line.
"""

from __future__ import annotations

import logging
import math
import re
from contextlib import suppress
from itertools import product, repeat
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
# What float() takes of the strings of _NUMBER_CHARS.
_FLOAT_RE = re.compile(r"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")
# The line ends of str.splitlines() that text-mode reading leaves, and the
# other characters that str.split() splits at, as "\n" and " ".
_RESPACE = str.maketrans(dict.fromkeys("\v\f\x1c\x1d\x1e\x85\u2028\u2029", "\n") | dict.fromkeys(
    "\x1f\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000", " "))
# _RESPACE padded with spaces to the UTF-8 length of each character it maps.
_REPAD = {c: to.ljust(len(chr(c).encode())) for c, to in _RESPACE.items()}
_NUMBER_BYTES = np.isin(np.arange(256), list(b"\0" + _NUMBER_CHARS.encode()))   # NUL pads a column
# A column's entry for a token longer than _WIDE bytes or holding a NUL; no UTF-8 text holds it.
_ODD, _WIDE = b"\xff", 64
_UCLA = [bytes(t) for t in product(*zip(b"UCLA", b"ucla"))]
_BLOCK_LINES = 4096
# A .nets line's code beside a pin owner's node index. _OTHER lines are
# read one by one: comments, headers and counts stay _OTHER.
_DEGREE, _OTHER, _UNKNOWN = -1, -2, -3


class _Text:
    """A file's text as UTF-8 bytes, read a block of lines (as
    `str.splitlines` counts them) at a time."""

    def __init__(self, path: Path):
        if not path.exists():
            raise MissingFile(str(path))
        self.path, text = path, path.read_text()
        spaced = text.translate(_REPAD)   # line ends as "\n", other spaces as " ", at the same offsets
        self.orig = None if spaced == text else text.encode()
        # Spaces past the end let `words` read _WIDE bytes from any token.
        self.data = spaced.encode() + b" " * _WIDE
        self.raw = np.frombuffer(self.data, np.uint8)
        self.rows = np.lib.stride_tricks.sliding_window_view(self.raw, _WIDE)
        self.ends = np.append(np.flatnonzero(self.raw == 10), len(self.raw) - _WIDE)
        self.nul = np.flatnonzero(self.raw == 0)

    def blocks(self, width: int):
        """Per block of _BLOCK_LINES lines: its first line, and per line its
        token count, its first `width` tokens as columns of `words` (empty
        past its last token) and their byte spans as rows of starts and stops."""
        for lo in range(0, len(self.ends), _BLOCK_LINES):
            ends = self.ends[lo:lo + _BLOCK_LINES]
            seg = self.raw[self.ends[lo - 1] + 1 if lo else 0:ends[-1]]
            # Tokens start where a run of spaces ends and stop where one starts.
            space = np.concatenate(([True], (seg == 32) | ((seg >= 9) & (seg <= 13)), [True]))
            edge = np.flatnonzero(space[1:] != space[:-1]) + (ends[-1] - len(seg))
            last = np.searchsorted(edge[::2], ends)   # tokens before each line's end
            n_tok, k = np.diff(last, prepend=0), np.arange(width)[:, None]
            k = np.where(k < n_tok, last - n_tok + k, -1)
            start, stop = np.append(edge[::2], 0)[k], np.append(edge[1::2], 0)[k]
            yield lo, n_tok, [self.words(a, z) for a, z in zip(start, stop)], start, stop

    def words(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """The tokens of these spans as a bytes column; _ODD for some, see there."""
        size = max(1, min(int((stop - start).max(initial=0)), _WIDE))
        col = self.rows[start, :size]
        col *= np.arange(size) < (stop - start)[:, None]
        col[(stop - start > size) | (np.searchsorted(self.nul, start) < np.searchsorted(self.nul, stop))] = (
            np.frombuffer(_ODD.ljust(size, b"\0"), np.uint8))
        return col.view(f"S{size}")[:, 0]

    def tokens(self, start: np.ndarray, stop: np.ndarray) -> list[str]:
        """The tokens of these spans, none empty, as text, decoded as one with the byte after each."""
        size = stop - start + 1
        at = np.arange(size.sum()) + np.repeat(start + size - np.cumsum(size), size)
        return self.raw[at].tobytes().decode().split()

    def line(self, i: int) -> str:
        """Line i as read, stripped."""
        a, z = int(self.ends[i - 1]) + 1 if i else 0, int(self.ends[i])
        seg = self.data[a:z]
        return (self.orig or self.data)[a + len(seg) - len(seg.lstrip()):z - len(seg) + len(seg.rstrip())].decode()


def _hashes(col: np.ndarray) -> np.ndarray:
    """A 64-bit polynomial hash of each token of a bytes column; NUL padding adds nothing."""
    u = col.view(np.uint8).reshape(len(col), col.itemsize)
    return u @ np.cumprod(np.full(col.itemsize, 0x9E3779B97F4A7C15, np.uint64))


def _numbers(col: np.ndarray) -> np.ndarray:
    """float() of each token of a bytes column spelled of _NUMBER_CHARS, NaN
    for the others; all NaN if one of those is no number."""
    u = col.view(np.uint8).reshape(len(col), col.itemsize)
    ok, out = u[:, 0] != 0, np.full(len(col), math.nan)
    ok[np.flatnonzero(~_NUMBER_BYTES[u]) // col.itemsize] = False
    with suppress(ValueError):   # else the block's lines go the per-line way
        out[ok] = col[ok].astype(float)
    return out


def _data_lines(heads: np.ndarray) -> np.ndarray:
    """Whether each line, by its first token, opens no comment or header."""
    return (heads.astype("S1") != b"#") & ~np.isin(heads, _UCLA)


def _odd_lines(f: _Text, lo: int, odd: np.ndarray, declared: dict, errors: list | None = None):
    """Yield (i, stripped text) of each data line i among the lines `odd` of
    the block from line lo; count lines set `declared`, comments and headers
    are skipped. A bad count line raises, or adds its error to `errors`."""
    for i in (lo + np.flatnonzero(odd)).tolist():
        words = (text := f.line(i)).split()
        if words[0] in declared:
            try:
                declared[words[0]] = _header_value(words, f.path, i + 1)
            except MalformedLine as exc:
                if errors is None:
                    raise
                errors.append((i, 1, exc.reason, False))
        elif text[0] != "#" and not _HEADER_RE.match(text):
            yield i, text


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

    The file is read a block of lines at a time, each line's first five
    tokens as bytes columns; one search of the node names sorted by a hash
    of their bytes finds the pin owners. The lines not spelled the usual way,
    "NetDegree : 3 n0", "n0 I : 0.5 -1" or "n0 O", are classified and
    respelled one by one. Bad input raises the error of the first bad line.
    """
    f = _Text(path)
    index = dict(zip(nodes.names, range(len(nodes.names))))
    # Names that could open a comment or a header line, or hold a NUL, go the per-line way.
    keys = [k for k in index if k[0] != "#" and k.upper() != "UCLA" and "\0" not in k]
    table = np.array([k.encode() for k in keys] + [_ODD])
    order = np.argsort(hashed := _hashes(table))
    table, hashed, ids = table[order], hashed[order], np.array([index[k] for k in keys] + [_OTHER])[order]
    n = len(f.ends)
    code, degree, mark, bad, off = np.full(n, _OTHER), np.zeros(n, np.int64), *np.zeros((2, n), bool), np.zeros((2, n))
    names = []   # each NetDegree line's net name if given
    errors = []   # (line, rank within the line, reason, whether the line text follows)

    def flag(at, failed, rank, reason, line_follows=True):
        hit = np.flatnonzero(failed)[:1].tolist()
        if hit:
            errors.append((at[hit[0]], rank, reason(hit[0]) if callable(reason) else reason, line_follows))

    declared = dict.fromkeys(("NumNets", "NumPins"))
    for lo, n_tok, (head, c1, c2, c3, c4), start, stop in f.blocks(5):
        at = np.minimum(np.searchsorted(hashed, _hashes(head)), len(table) - 1)
        blk = np.where(table[at] == head, ids[at], _OTHER)
        blk[head == b"NetDegree"], blk[(head == b"NumNets") | (head == b"NumPins")] = _DEGREE, _OTHER
        x, y = (np.where(n_tok == 2, 0.0, _numbers(c)) for c in (c3, c4))
        deg = (blk == _DEGREE) & ((n_tok == 3) | (n_tok == 4)) & (c1 == b":") & np.char.isdigit(c2) & (
            stop[2] - start[2] <= 15)
        usual = deg | (blk >= 0) & ((c1 == b"I") | (c1 == b"O") | (c1 == b"B")) & (
            (n_tok == 2) | (n_tok == 5) & (c2 == b":")) & np.isfinite(x) & np.isfinite(y)
        at = slice(lo, lo + len(n_tok))
        code[at], mark[at], off[0, at], off[1, at] = blk, c1 == b"O", x, y
        degree[at][deg] = c2[deg].astype(np.int64)
        deg &= n_tok == 4
        named = dict(zip((lo + np.flatnonzero(deg)).tolist(), f.tokens(start[3, deg], stop[3, deg])))
        for i, text in _odd_lines(f, lo, ~usual & (n_tok > 0), declared, errors):
            words = text.split()
            if code[i] == _OTHER:
                code[i] = index.get(words[0], _UNKNOWN)
            if (respelled := _respell(words)) is None:
                bad[i] = True
            elif code[i] == _DEGREE:
                degree[i] = min(int(respelled[1]), n)   # a degree beyond the line count is as short as any
                named.update({i: respelled[2]} if len(respelled) == 3 else {})
            else:
                mark[i], texts = respelled[0] == "O", respelled[2:]
                off[:, i] = [float(t) if _FLOAT_RE.fullmatch(t) else math.nan for t in texts] or 0.0
                bad[i] = any(t.strip(_NUMBER_CHARS) for t in texts)
        names += map(named.get, (lo + np.flatnonzero(code[at] == _DEGREE)).tolist())

    deg, pin = np.flatnonzero(code == _DEGREE), np.flatnonzero((code >= 0) | (code == _UNKNOWN))
    owner, degree, mark, off, bad = code[pin], degree[deg], mark[pin], off[:, pin], (bad[deg], bad[pin])
    flag(pin, owner == _UNKNOWN, 3, lambda k: f"pin references unknown node {f.line(pin[k]).split()[0]!r}", False)
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
    sec = np.searchsorted(deg, pin) - 1   # -1 before the first section
    start = np.append(np.searchsorted(pin, deg), 0)   # the last entry is for pins before any section
    got = np.diff(np.append(start[:-1], len(pin)))
    flag(pin, np.arange(len(pin)) - start[sec] >= np.append(degree, 0)[sec], 0, "pin line outside a net section: ")
    flag(np.append(deg[1:], n), got < degree, 0,
         lambda k: f"net {names[k]!r} short by {int(_respell(f.line(deg[k]).split())[1]) - int(got[k])} pin(s)", False)
    flag(deg, bad[0], 1, "bad NetDegree line ")
    flag(pin, bad[1], 1, "bad pin line ")
    flag(pin, ~np.isfinite(off).all(axis=0), 4, "bad pin offset in ")
    if errors:   # a short last section fails past the last line, as line 0
        i, _, reason, line_follows = min(errors)
        raise MalformedLine(path, int(i) + 1 if i < n else 0, reason + repr(f.line(i)) if line_follows else reason)
    _check_counts(path, declared, {"NumNets": len(names), "NumPins": len(pin)})
    del f   # before the offsets are clamped
    t = NetTable(names, np.ones(len(names)), np.append(0, np.cumsum(degree)), owner, *off, mark)
    return clamp_offsets(t, nodes, path, "node half-extents")


def parse_nodes(path: Path, row_height: float | None) -> NodeTable:
    """The .nodes lines as a node table, read as `parse_nets` reads .nets:
    lines spelled "name w h [terminal]" whose sizes pass the checks column by
    column, the others one by one."""
    f = _Text(path)
    declared = dict.fromkeys(("NumNodes", "NumTerminals"))
    names, kept = [], []
    for lo, n_tok, (head, c1, c2, c3), start, stop in f.blocks(4):
        terminal = (n_tok == 4) & (c3 == b"terminal")
        usual = ((n_tok == 3) | terminal) & _data_lines(head) & (head != b"NumNodes") & (head != b"NumTerminals")
        w, h = _numbers(c1), _numbers(c2)
        with np.errstate(over="ignore", invalid="ignore"):
            usual &= np.isfinite(w * h) & (w >= 0) & (h >= 0) & (terminal | (w > 0) & (h > 0))
        for i, text in _odd_lines(f, lo, ~usual & (n_tok > 0), declared):
            words, j = text.split(), i - lo
            if len(words) < 3:
                raise MalformedLine(path, i + 1, f"expected 'name width height [terminal]', got {text!r}")
            try:
                wj, hj = finite_float(words[1]), finite_float(words[2])
                if not math.isfinite(wj * hj):
                    raise ValueError("area overflows")
            except ValueError as exc:
                raise MalformedLine(path, i + 1, f"bad node size in {text!r}") from exc
            if wj < 0 or hj < 0:
                raise MalformedLine(path, i + 1, f"negative node size in {text!r}")
            terminal[j] = len(words) > 3 and words[3].lower().startswith("terminal")
            if not terminal[j] and (wj <= 0 or hj <= 0):
                raise MalformedLine(path, i + 1, f"movable node {words[0]!r} needs positive size")
            w[j], h[j], usual[j] = wj, hj, True
        names += f.tokens(start[0, usual], stop[0, usual])
        kept.append((w[usual], h[usual], terminal[usual]))
    w, h, terminal = map(np.concatenate, zip(*kept))
    port = terminal & ((w == 0) | (h == 0))
    stdcell = ~terminal & (h <= (-math.inf if row_height is None else row_height))
    kind = np.select([port, stdcell], [KIND_CODE[NodeKind.PORT], KIND_CODE[NodeKind.STDCELL]],
                     KIND_CODE[NodeKind.MACRO]).astype(np.int8)
    _check_counts(path, declared, {"NumNodes": len(w), "NumTerminals": int(terminal.sum())})
    return NodeTable(names, np.where(port, 0.0, w), np.where(port, 0.0, h), kind, ~terminal)


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


def _read_pl(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Each .pl line's name, lower-left corner (as a column), orientation code
    (-1 if unsupported) and line number, and by line number the orientation
    of each line read one by one: all but "name x y [: O [/FIXED]]" with
    finite coordinates and a known orientation, read column by column."""
    f = _Text(path)
    names, kept, orient = [], [], {}
    for lo, n_tok, (head, x, y, colon, turn, fixed), start, stop in f.blocks(6):
        code = np.select([turn == k.encode() for k in _ORIENT_CODE] + [n_tok == 3], [*_ORIENT_CODE.values(), 0], -1)
        fixed = (n_tok == 5) | (n_tok == 6) & ((fixed == b"/FIXED") | (fixed == b"/FIXED_NI"))
        corner = np.stack([_numbers(x), _numbers(y)])
        usual = ((n_tok == 3) | (code >= 0) & (colon == b":") & fixed) & _data_lines(head) & np.isfinite(corner).all(0)
        for i, text in _odd_lines(f, lo, ~usual & (n_tok > 0), {}):
            m = _PL_RE.match(text)
            if not m:
                raise MalformedLine(path, i + 1, f"bad placement line {text!r}")
            try:
                corner[:, i - lo] = finite_float(m.group(2)), finite_float(m.group(3))
            except ValueError as exc:
                raise MalformedLine(path, i + 1, f"bad coordinate in {text!r}") from exc
            code[i - lo], usual[i - lo], orient[i + 1] = _ORIENT_CODE.get(m.group(4) or "N", -1), True, m.group(4)
        names += f.tokens(start[0, usual], stop[0, usual])
        kept.append((corner[:, usual], code[usual], lo + 1 + np.flatnonzero(usual)))
    corner, code, lineno = (np.concatenate(c, axis=-1) for c in zip(*kept))
    return names, corner, code, lineno, orient


def read_placement(path, netlist: Netlist, clamp_ports: bool = True) -> PlacementState:
    """Read a .pl file into a center-based placement state of `netlist`.

    The last line naming a node places it. Unknown node names are skipped
    with a warning. Port centers are clamped into the canvas when
    clamp_ports is set (pad rings commonly sit outside the core rows).
    """
    names, corner, code, lineno, orient = _read_pl(Path(path))
    last = dict(zip(names, range(len(names))))   # in the order the names first appear
    a, cv = netlist.arrays, netlist.canvas
    node = np.fromiter(map(a.index.get, last, repeat(-1)), np.intp, len(last))
    at = np.fromiter(last.values(), np.intp, len(last))[node >= 0]
    unknown, node = len(last) - len(at), node[node >= 0]
    for k in at[code[at] < 0][:1].tolist():
        raise MalformedLine(Path(path), int(lineno[k]),
                            f"unsupported orientation {orient[int(lineno[k])]!r} for {names[k]!r}")
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
