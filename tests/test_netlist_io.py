"""Native netlist format and Bookshelf reader/writer."""

import importlib.util
import logging
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles
from gen import NETS_NODES, nets_text, nodes_text, pl_text
from gridplace import bookshelf
from gridplace.bookshelf import (
    parse_aux,
    parse_bookshelf,
    read_placement,
    write_placement,
)
from gridplace.cli import main
from gridplace.errors import (
    DanglingPinReference,
    DegenerateNet,
    IncompletePlacement,
    InvalidDimension,
    IoFailure,
    MalformedLine,
    MissingFile,
    UnwritableName,
)
from gridplace.netlist import (
    Canvas,
    Net,
    Netlist,
    NetTable,
    Node,
    NodeKind,
    Orientation,
    Pin,
    PlacementState,
    Pose,
    node_table,
    read_netlist,
    validate_nets,
    write_netlist,
)


def _sample_netlist():
    nodes = [
        Node("m0", NodeKind.MACRO, 12.5, 8.0, movable=True),
        Node("c0", NodeKind.STDCELL, 1.0, 2.0, movable=True),
        Node("g0", NodeKind.CLUSTER, 3.0, 3.0, movable=True),
        Node("p0", NodeKind.PORT, 0.0, 0.0, movable=False),
        Node("fix", NodeKind.MACRO, 5.0, 5.0, movable=False),
    ]
    nets = [
        Net("n0", [Pin("m0", 1.25, -0.5, is_source=True), Pin("c0"), Pin("p0")]),
        Net("n1", [Pin("g0", 0.0, 1.5), Pin("fix", -2.0, 2.0, is_source=True)],
            weight=2.5),
    ]
    return Netlist(nodes=nodes, nets=nets, canvas=Canvas(100.0, 64.0))


# ---------------------------------------------------------------------------
# Native format


def test_native_round_trip_exact(tmp_path):
    nl = _sample_netlist()
    path = tmp_path / "design.txt"
    write_netlist(nl, path)
    back = read_netlist(path)
    assert back.canvas.width == 100.0 and back.canvas.height == 64.0
    assert [(n.name, n.kind, n.width, n.height, n.movable) for n in back.nodes] == \
        [(n.name, n.kind, n.width, n.height, n.movable) for n in nl.nodes]
    assert len(back.nets) == 2
    for got, want in zip(back.nets, nl.nets):
        assert got.name == want.name and got.weight == want.weight
        assert [(p.node, p.dx, p.dy, p.is_source) for p in got.pins] == \
            [(p.node, p.dx, p.dy, p.is_source) for p in want.pins]


def test_native_comments_and_blanks(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text(
        "# comment\n\ncanvas 10 10\nnode a macro 2 2 1\n\n"
        "net n 1.5\npin n a 0 0 s\npin n a 1 1\n")
    nl = read_netlist(path)
    assert len(nl.nodes) == 1 and len(nl.nets) == 1
    assert nl.nets[0].weight == 1.5
    assert nl.arrays.driver.tolist() == [0]


def test_native_missing_file():
    with pytest.raises(MissingFile):
        read_netlist("/nonexistent/d.txt")


def test_native_malformed_lines_carry_numbers(tmp_path):
    cases = [
        ("canvas 10\n", 1, "canvas"),
        ("canvas 10 10\nnode a macro 2 2\n", 2, "node"),
        ("canvas 10 10\nnode a blob 2 2 1\n", 2, "blob"),
        ("canvas 10 10\nnode a macro 0 2 1\n", 2, "positive"),
        ("canvas 10 10\nnet n\nnet n\n", 3, "duplicate"),
        ("canvas 10 10\nnode a macro 2 2 1\npin n a 0 0\n", 3, "net"),
        ("canvas 10 10\nwhat 1 2\n", 2, "unknown record"),
    ]
    for text, lineno, frag in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MalformedLine) as err:
            read_netlist(path)
        assert f"line {lineno}" in str(err.value) or err.value.lineno == lineno
        assert frag in str(err.value)


def test_native_rejects_non_finite_numbers(tmp_path):
    cases = [
        ("canvas 100 nan\n", 1),
        ("canvas 100 100\nnode a macro nan 5 1\n", 2),
        ("canvas 100 100\nnode a macro 5 inf 1\n", 2),
        ("canvas 100 100\nnet n inf\n", 2),
        ("canvas 100 100\nnode a macro 5 5 1\nnet n\npin n a nan 0 s\n", 4),
    ]
    for text, lineno in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MalformedLine) as err:
            read_netlist(path)
        assert err.value.lineno == lineno
        assert "finite" in str(err.value)


def test_native_missing_canvas(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("node a macro 2 2 1\n")
    with pytest.raises(MalformedLine):
        read_netlist(path)


def test_native_dangling_pin(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("canvas 10 10\nnet n\npin n ghost 0 0\n")
    with pytest.raises(DanglingPinReference):
        read_netlist(path)


def test_native_pin_offsets_clamped(tmp_path):
    # Offsets beyond the owner's half-extents get pulled back in.
    path = tmp_path / "d.txt"
    path.write_text(
        "canvas 10 10\nnode a macro 4 6 1\n"
        "net n\npin n a 9 -9 s\npin n a 1 1\n")
    nl = read_netlist(path)
    pin = nl.nets[0].pins[0]
    assert (pin.dx, pin.dy) == (2.0, -3.0)


def test_native_zero_size_port_allowed(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("canvas 10 10\nnode p port 0 0 0\nnode a macro 2 2 1\n"
                    "net n\npin n p 0 0\npin n a 0 0 s\n")
    nl = read_netlist(path)
    assert nl.nodes[nl.arrays.index["p"]].kind is NodeKind.PORT


def test_validate_nets_drops_short_and_demotes_sources():
    # Pins name nodes a, b, c by index.
    nets = NetTable(
        net_names=["short", "dual"], net_weight=np.array([1.0, 2.0]), net_start=np.array([0, 1, 4]),
        pin_owner=np.array([0, 0, 1, 2]), pin_dx=np.zeros(4), pin_dy=np.zeros(4),
        pin_marked=np.array([False, True, True, False]))
    kept = validate_nets(nets)
    assert kept.net_names == ["dual"]
    assert kept.net_start.tolist() == [0, 3] and kept.net_weight.tolist() == [2.0]
    assert kept.pin_owner.tolist() == [0, 1, 2]
    assert kept.pin_marked.tolist() == [True, False, False]
    nodes = [Node(n, NodeKind.MACRO, 1.0, 1.0, movable=True) for n in "abc"]
    dual = Netlist(nodes=nodes, nets=kept, canvas=Canvas(10.0, 10.0))
    assert dual.arrays.driver.tolist() == [0]
    assert [p.is_source for p in dual.nets[0].pins] == [True, False, False]


@pytest.mark.parametrize("node, net, what", [
    ("a#b", "n1", "node name 'a#b'"),
    ("a b", "n#1", "node name 'a b'"),
    ("fix", "n#1", "net name 'n#1'"),
    ("fix", "n\t1", "net name 'n\\t1'"),
])
def test_write_netlist_rejects_names_it_cannot_read_back(tmp_path, node, net, what):
    # The native reader cuts a line at '#' and splits it at whitespace, so a
    # name holding either would not read back; nothing is written.
    nl = _sample_netlist()
    nodes = [replace(n, name=node) if n.name == "fix" else n for n in nl.nodes]
    nets = [Net(net if n.name == "n1" else n.name,
                [replace(p, node=node) if p.node == "fix" else p for p in n.pins], n.weight)
            for n in nl.nets]
    path = tmp_path / "design.txt"
    with pytest.raises(UnwritableName) as err:
        write_netlist(Netlist(nodes=nodes, nets=nets, canvas=nl.canvas), path)
    assert str(err.value).startswith(what)
    assert not path.exists()


@pytest.mark.parametrize("old, new", [("n1", "n#1"), ("blk", "b#k")])
def test_parse_out_rejects_names_it_cannot_read_back(tmp_path, capsys, old, new):
    # Bookshelf names may hold '#'; `parse --out` then fails before writing.
    aux = _write_bookshelf(tmp_path)
    for name in ("d.nodes", "d.nets", "d.pl"):
        f = tmp_path / name
        f.write_text(f.read_text().replace(old, new))
    a = parse_bookshelf(aux).arrays
    assert new in a.names + a.net_names
    out = tmp_path / "rt.txt"
    assert main(["parse", "--netlist", str(aux), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and repr(new) in err[0]
    assert not out.exists()


def test_write_netlist_io_failure():
    with pytest.raises(IoFailure):
        write_netlist(_sample_netlist(), "/nonexistent-dir/out.txt")


def test_netlist_duplicate_node_rejected():
    nodes = [Node("a", NodeKind.MACRO, 1.0, 1.0, movable=True),
             Node("a", NodeKind.MACRO, 1.0, 1.0, movable=True)]
    with pytest.raises(InvalidDimension):
        Netlist(nodes=nodes, nets=[], canvas=Canvas(10.0, 10.0))


def test_netlist_dangling_net_rejected():
    nodes = [Node("a", NodeKind.MACRO, 1.0, 1.0, movable=True)]
    nets = [Net("n", [Pin("a", is_source=True), Pin("ghost")])]
    with pytest.raises(DanglingPinReference):
        Netlist(nodes=nodes, nets=nets, canvas=Canvas(10.0, 10.0))


def test_netlist_zero_pin_net_rejected():
    # A net without pins has no driver; built directly it must not reach the
    # evaluator or FD, which would borrow the next net's first pin.
    nodes = [Node("a", NodeKind.MACRO, 1.0, 1.0, movable=True),
             Node("b", NodeKind.MACRO, 1.0, 1.0, movable=True)]
    nets = [Net("empty", []), Net("n", [Pin("a", is_source=True), Pin("b")])]
    with pytest.raises(DegenerateNet, match="empty"):
        Netlist(nodes=nodes, nets=nets, canvas=Canvas(10.0, 10.0))


def test_readers_drop_empty_nets(tmp_path):
    path = tmp_path / "design.txt"
    path.write_text("canvas 10 10\nnode a macro 2 2 1\nnode b macro 2 2 1\n"
                    "net empty\nnet n\npin n a 0 0 s\npin n b 0 0\n")
    assert [net.name for net in read_netlist(path).nets] == ["n"]
    aux = _write_bookshelf(tmp_path, num_nets=3)
    nets_path = tmp_path / "d.nets"
    nets_path.write_text(nets_path.read_text() + "NetDegree : 0 empty\n")
    assert [net.name for net in parse_bookshelf(aux).nets] == ["n0", "n1"]


# ---------------------------------------------------------------------------
# Bookshelf


# The sections of the .nets file that _write_bookshelf writes, from line 5.
NETS_SECTIONS = (
    "NetDegree : 3 n0\n"
    "  a O : 1.0 1.0\n"
    "  b I : -2.0 0.5\n"
    "  pad I\n"
    "NetDegree : 2 n1\n"
    "  a I : 0.0 0.0\n"
    "  blk O : 1.0 -1.0\n")


def _write_bookshelf(tmp_path, scl=True, pl_extra="", nodes_extra="",
                     num_nodes=4, num_terminals=2, num_nets=2, num_pins=5):
    (tmp_path / "d.nodes").write_text(
        "UCLA nodes 1.0\n\n"
        f"NumNodes : {num_nodes}\n"
        f"NumTerminals : {num_terminals}\n"
        "  a 4 4\n"
        "  b 6 12\n"
        "  pad 0 0 terminal\n"
        "  blk 8 8 terminal\n"
        + nodes_extra)
    (tmp_path / "d.nets").write_text(
        "UCLA nets 1.0\n\n"
        f"NumNets : {num_nets}\n"
        f"NumPins : {num_pins}\n"
        + NETS_SECTIONS)
    (tmp_path / "d.pl").write_text(
        "UCLA pl 1.0\n\n"
        "a 10 10 : N\n"
        "b 30 4 : FS\n"
        "pad -8 20 : N /FIXED\n"
        "blk 40 40 : N /FIXED\n"
        + pl_extra)
    files = ["d.nodes", "d.nets", "d.pl"]
    if scl:
        (tmp_path / "d.scl").write_text(
            "UCLA scl 1.0\n\n"
            "NumRows : 2\n"
            "CoreRow Horizontal\n"
            "  Coordinate : 0\n"
            "  Height : 32\n"
            "  Sitespacing : 1\n"
            "  SubrowOrigin : 0 NumSites : 64\n"
            "End\n"
            "CoreRow Horizontal\n"
            "  Coordinate : 32\n"
            "  Height : 32\n"
            "  Sitespacing : 1\n"
            "  SubrowOrigin : 0 NumSites : 64\n"
            "End\n")
        files.append("d.scl")
    (tmp_path / "d.aux").write_text("RowBasedPlacement : " + " ".join(files) + "\n")
    return tmp_path / "d.aux"


def test_bookshelf_parse_kinds_and_canvas(tmp_path):
    aux = _write_bookshelf(tmp_path)
    nl = parse_bookshelf(aux)
    assert nl.canvas.width == 64.0 and nl.canvas.height == 64.0
    kinds = {n.name: n.kind for n in nl.nodes}
    # Row height 32: a (4x4) is a cell, b (6x12) is a cell, blk is fixed.
    assert kinds["a"] is NodeKind.STDCELL
    assert kinds["b"] is NodeKind.STDCELL
    assert kinds["pad"] is NodeKind.PORT
    assert kinds["blk"] is NodeKind.MACRO
    assert not nl.arrays.movable[nl.arrays.index["blk"]]
    assert len(nl.nets) == 2


def test_bookshelf_placement_centers_and_port_clamp(tmp_path):
    aux = _write_bookshelf(tmp_path)
    nl = parse_bookshelf(aux)
    pl = read_placement(tmp_path / "d.pl", nl)
    # Corners shift to centers by the half-extents.
    assert pl["a"] == Pose(12.0, 12.0, Orientation.N)
    assert pl["b"].orient is Orientation.FS
    # The pad at x = -8 clamps onto the canvas edge.
    assert pl["pad"].x == 0.0 and pl["pad"].y == 20.0
    # Fixed macros keep their declared location.
    assert pl["blk"] == Pose(44.0, 44.0, Orientation.N)


def test_bookshelf_port_clamp_can_be_disabled(tmp_path):
    aux = _write_bookshelf(tmp_path)
    nl = parse_bookshelf(aux)
    pl = read_placement(tmp_path / "d.pl", nl, clamp_ports=False)
    assert pl["pad"].x == -8.0


def test_bookshelf_orientation_folding(tmp_path):
    aux = _write_bookshelf(tmp_path, pl_extra="")
    nl = parse_bookshelf(aux)
    (tmp_path / "rot.pl").write_text(
        "UCLA pl 1.0\n\na 0 0 : E\nb 0 0 : FW\npad 0 0 : N\nblk 0 0 : W\n")
    pl = read_placement(tmp_path / "rot.pl", nl)
    assert pl["a"].orient is Orientation.N
    assert pl["b"].orient is Orientation.FS
    assert pl["blk"].orient is Orientation.S


def test_bookshelf_unknown_pl_names_skipped(tmp_path):
    aux = _write_bookshelf(tmp_path, pl_extra="ghost 1 1 : N\n")
    nl = parse_bookshelf(aux)
    pl = read_placement(tmp_path / "d.pl", nl)
    assert "ghost" not in pl and len(pl) == 4


def test_bookshelf_count_mismatches(tmp_path):
    with pytest.raises(MalformedLine):
        parse_bookshelf(_write_bookshelf(tmp_path, num_nodes=5))
    with pytest.raises(MalformedLine):
        parse_bookshelf(_write_bookshelf(tmp_path, num_terminals=3))
    with pytest.raises(MalformedLine):
        parse_bookshelf(_write_bookshelf(tmp_path, num_nets=9))
    with pytest.raises(MalformedLine):
        parse_bookshelf(_write_bookshelf(tmp_path, num_pins=1))


def test_bookshelf_short_net_section(tmp_path):
    aux = _write_bookshelf(tmp_path)
    (tmp_path / "d.nets").write_text(
        "UCLA nets 1.0\n\nNumNets : 1\nNumPins : 3\n"
        "NetDegree : 3 n0\n  a O : 0 0\n  b I : 0 0\n")
    with pytest.raises(MalformedLine):
        parse_bookshelf(aux)


# Edits of the .nets file that _write_bookshelf writes: (old text, new text,
# line the error names, 0 for the whole file, and a fragment of its reason).
# Lines 5-8 hold net n0, lines 9-11 net n1.
NETS_ERRORS = [
    ("NetDegree : 2 n1", "NetDegree : x n1", 9, "bad NetDegree line"),
    ("NetDegree : 2 n1", "NetDegree 2 n1", 9, "bad NetDegree line"),
    ("NetDegree : 2 n1", "NetDegree : 2 n1 n2", 9, "bad NetDegree line"),
    ("NetDegree : 2 n1", "NetDegree : n1", 9, "bad NetDegree line"),
    ("NetDegree : 3 n0", "NetDegree:3 n0", 5, "pin line outside a net section"),
    ("NetDegree : 3 n0", "  a O : 1.0 1.0\nNetDegree : 3 n0", 5, "pin line outside a net section"),
    ("  blk O : 1.0 -1.0", "  blk O : 1.0 -1.0\n  b I", 12, "pin line outside a net section"),
    ("  b I : -2.0 0.5", "  b X : -2.0 0.5", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b IO : -2.0 0.5", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I : -2.0", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I :", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I -2.0 0.5", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I : -2.0 0.5 1", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I : : -2.0 0.5", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  ghost I : -2.0 0.5", 7, "unknown node 'ghost'"),
    ("  b I : -2.0 0.5", "  b I : nan 0.5", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I : -2.0 inf", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I : 1_0 0.5", 7, "bad pin line"),
    ("  b I : -2.0 0.5", "  b I : 1e999 0.5", 7, "bad pin offset"),
    ("  b I : -2.0 0.5", "  b I : 1e 0.5", 7, "bad pin offset"),
    ("  b I : -2.0 0.5", "  b I : -2.0 --0.5", 7, "bad pin offset"),
    ("NetDegree : 3 n0", "NetDegree : 4 n0", 9, "net 'n0' short by 1 pin(s)"),
    ("NetDegree : 2 n1", "NetDegree : 3 n1", 0, "net 'n1' short by 1 pin(s)"),
    ("NumNets : 2", "NumNets : 3", 0, "NumNets=3 but parsed 2"),
    ("NumPins : 5", "NumPins : 4", 0, "NumPins=4 but parsed 5"),
    ("NumPins : 5", "NumPins : five", 4, "bad count line"),
]


@pytest.mark.parametrize("old, new, lineno, reason", NETS_ERRORS)
def test_bookshelf_nets_errors_name_line_and_reason(tmp_path, old, new, lineno, reason):
    aux = _write_bookshelf(tmp_path)
    nets = tmp_path / "d.nets"
    text = nets.read_text()
    assert old in text
    nets.write_text(text.replace(old, new, 1))
    with pytest.raises(MalformedLine) as err:
        parse_bookshelf(aux)
    assert err.value.lineno == lineno
    assert reason in err.value.reason


def test_bookshelf_nets_spacing_variants(tmp_path):
    # The colons may touch their neighbours, and a section may be unnamed.
    want = _table(parse_bookshelf(_write_bookshelf(tmp_path)))
    nets = tmp_path / "d.nets"
    text = nets.read_text()
    for old, new in (("a O : 1.0 1.0", "a O:1.0 1.0"), ("b I : -2.0 0.5", "b I :-2.0   0.5"),
                     ("blk O : 1.0 -1.0", "blk O: 1.0 -1.0"), ("NetDegree : 3 n0", "NetDegree :3 n0")):
        text = text.replace(old, new)
    nets.write_text(text)
    assert _table(parse_bookshelf(tmp_path / "d.aux")) == want
    nets.write_text(text.replace("NetDegree : 2 n1", "NetDegree : 2"))
    assert [n.name for n in parse_bookshelf(tmp_path / "d.aux").nets] == ["n0", "net1"]


def _read_nets(parse, path, caplog):
    """(table, warnings, error) of reading a .nets file over NETS_NODES with
    `parse` and validating its nets; the arrays as dtype and bytes."""
    nodes = node_table([(name, NodeKind.PORT if w == 0 else NodeKind.MACRO, w, h, w > 0)
                        for name, w, h in NETS_NODES])
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="gridplace"):
        try:
            t = validate_nets(parse(path, nodes), where="w")
        except MalformedLine as exc:
            return None, _warnings(caplog), (type(exc), exc.lineno, exc.reason)
    arrays = (t.net_weight, t.net_start, t.pin_owner, t.pin_dx, t.pin_dy, t.pin_marked)
    return [t.net_names] + [(a.dtype, a.tobytes()) for a in arrays], _warnings(caplog), None


@pytest.mark.parametrize("seed", range(60))
def test_parse_nets_matches_the_loop_reference(tmp_path, caplog, seed):
    path = tmp_path / "g.nets"
    path.write_text(nets_text(seed)[0])
    got = _read_nets(bookshelf.parse_nets, path, caplog)
    assert got[2] is None
    assert got == _read_nets(oracles.parse_nets, path, caplog)


# More edits of NETS_SECTIONS: several faults on one line, and lines that
# look like what they are not. Some leave the file readable.
NETS_EDITS = [
    ("  b I : -2.0 0.5", "  ghost X : -2.0 0.5"),
    ("  b I : -2.0 0.5", "  ghost I : 1_0 0.5"),
    ("  b I : -2.0 0.5", "  ghost I : 1e 0.5"),
    ("  b I : -2.0 0.5", "  b I 0.5 : -2.0"),
    ("  b I : -2.0 0.5", "  b I : -2.0 0.5 # note"),
    ("  pad I", "  pad I :"),
    ("  pad I", "  pad O O"),
    ("  pad I", "  # pad I"),
    ("  pad I", "  pad\tB:1e-3\t+.5E+1"),
    ("NetDegree : 2 n1", "NetDegree x 2 n1"),
    ("NetDegree : 2 n1", "NetDegree :: 2 n1"),
    ("NetDegree : 2 n1", "NetDegree : 2n1"),
    ("NetDegree : 2 n1", "NetDegree : 2 n1 # c"),
    ("NetDegree : 2 n1", "NetDegree : 0002 n1"),
    ("NetDegree : 3 n0", "NetDegree : 3 n1"),
    ("NetDegree : 3 n0", "NetDegree : 3x n0"),
    ("NetDegree : 2 n1", "UCLA nets 1.0\nNetDegree : 2 n1"),
    ("NetDegree : 2 n1", "NumPins : 5\nNetDegree : 2 n1"),
    ("NetDegree : 2 n1", "NetDegree : 2 n1\nNetDegree : 0"),
]


@pytest.mark.parametrize("seed", range(8))
def test_parse_nets_errors_match_the_loop_reference(tmp_path, caplog, seed):
    # Each edit of NETS_ERRORS and NETS_EDITS, made in NETS_SECTIONS placed
    # among random sections; an edit of a header count shifts the file's
    # true count.
    path = tmp_path / "g.nets"
    for old, new, *expected in NETS_ERRORS + NETS_EDITS:
        if old.startswith("Num"):
            text, n_nets, n_pins = nets_text(seed, NETS_SECTIONS)
            key, was = old.split(" : ")
            count, value = {"NumNets": n_nets, "NumPins": n_pins}[key], new.split(" : ")[1]
            value = count + int(value) - int(was) if value.isdigit() else value
            text = text.replace(f"{key} : {count}", f"{key} : {value}", 1)
        else:
            text = nets_text(seed, NETS_SECTIONS.replace(old, new, 1))[0]
        path.write_text(text)
        got = _read_nets(bookshelf.parse_nets, path, caplog)
        assert got == _read_nets(oracles.parse_nets, path, caplog), (old, new)
        assert got[2] is not None or not expected   # every NETS_ERRORS edit fails


@pytest.mark.parametrize("old, lineno, missing", [("NetDegree : 3 n0", 9, "'n0' short by 99999999999999999996"),
                                                  ("NetDegree : 2 n1", 0, "'n1' short by 99999999999999999997")])
def test_bookshelf_nets_huge_degree_is_a_short_net(tmp_path, old, lineno, missing):
    aux = _write_bookshelf(tmp_path)
    nets = tmp_path / "d.nets"
    nets.write_text(nets.read_text().replace(old, old[:-4] + "99999999999999999999" + old[-3:]))
    with pytest.raises(MalformedLine, match=missing) as err:
        parse_bookshelf(aux)
    assert err.value.lineno == lineno


def test_respace_covers_what_split_and_splitlines_split_at():
    spaces = {c for c in map(chr, range(0x110000)) if c.isspace()} - set(" \t\n\r")
    assert {chr(c) for c in bookshelf._RESPACE} == spaces
    for c, to in bookshelf._RESPACE.items():
        assert len(f"a{chr(c)}b".splitlines()) == (2 if to == "\n" else 1)


# Files of edge cases for parse_nets over the nodes of NETS_EDGE_NODES.
NETS_EDGE_TEXTS = [
    "", "\n\n", "UCLA nets 1.0\n", "NumNets : 0\nNumPins : 0", "NetDegree : 0", "a I", "\x01NetDegree : 1\na I",
    "NetDegree : 1\n  UCLA I : 1 1", "NetDegree : 2\n  UCLA nets 1.0\n a O", "NetDegree : 1\n#x I",
    "NetDegree : 1\nNumNets I : 1 1", "NetDegree : 1\nNetDegree I", "NetDegree : 1\n a I : 1 1\x85",
    "NetDegree : 1\n a\xa0I\u3000:\u20001 1", "NetDegree : 1 n\u00e9\n a I : \u0661 1", "NetDegree : 1\n a I : inf 1",
    "NetDegree : 1\n a I : 1e5 1e-400", "NetDegree : 1\n\x00a I", "NetDegree : 1\na I\x1f: 1\x1f2",
    "NetDegree : \u0661 n", "NetDegree : 1 n\nNetDegree : 1 n\na I",
    "NetDegree : 1\r\n a\u3000X : 1\xa01", "NetDegree : 2\ra I\u2028 a I :\x1f1e\u20091", "NetDegree :\x85 1",
    f"NetDegree : 2 {'n' * 70}\n a I : 0.{'0' * 70} 1\n {'a' * 70} I",
]
NETS_EDGE_NODES = ("a", "UCLA", "#x", "NumNets", "NetDegree")


@pytest.mark.parametrize("text", NETS_EDGE_TEXTS)
def test_parse_nets_edge_cases_match_the_loop_reference(tmp_path, text):
    # Node names that are keywords or open comments and headers, empty
    # files, and the other characters that split lines and tokens.
    nodes = node_table([(name, NodeKind.MACRO, 4.0, 4.0, True) for name in NETS_EDGE_NODES])
    path = tmp_path / "e.nets"
    path.write_text(text)
    got = []
    for parse in (bookshelf.parse_nets, oracles.parse_nets):
        try:
            t = parse(path, nodes)
            got.append([t.net_names] + [a.tobytes() for a in (t.net_start, t.pin_owner, t.pin_dx, t.pin_dy, t.pin_marked)])
        except MalformedLine as exc:
            got.append((exc.lineno, exc.reason))
    assert got[0] == got[1]


def test_bookshelf_duplicate_net_names(tmp_path, capsys):
    aux = _write_bookshelf(tmp_path)
    nets = tmp_path / "d.nets"
    text = nets.read_text()
    nets.write_text(text.replace("NetDegree : 2 n1", "NetDegree : 2 n0"))
    with pytest.raises(MalformedLine, match="duplicate net name 'n0'") as err:
        parse_bookshelf(aux)
    assert err.value.lineno == 9
    assert main(["parse", "--netlist", str(aux)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {nets}:9: duplicate net name 'n0'"]
    # An unnamed section skips the names the file gives.
    nets.write_text(text.replace("3 n0", "3 net1").replace("2 n1", "2"))
    assert parse_bookshelf(aux).arrays.net_names == ["net1", "net1_"]
    out = tmp_path / "rt.txt"
    assert main(["parse", "--netlist", str(aux), "--out", str(out)]) == 0
    assert read_netlist(out).arrays.net_names == ["net1", "net1_"]


@pytest.mark.parametrize("size", ["0 4", "4 0", "0 0"])
def test_bookshelf_zero_area_terminals_are_ports(tmp_path, size):
    aux = _write_bookshelf(tmp_path, nodes_extra=f"  c {size} terminal\n", num_nodes=5, num_terminals=3)
    a = parse_bookshelf(aux).arrays
    i = a.index["c"]
    assert a.is_port[i] and not a.movable[i] and a.width[i] == 0 and a.height[i] == 0
    out = tmp_path / "rt.txt"
    assert main(["parse", "--netlist", str(aux), "--out", str(out)]) == 0
    back = read_netlist(out).arrays
    assert back.is_port[back.index["c"]]


# Edits of the .nodes file that _write_bookshelf writes, as NETS_ERRORS.
# Lines 5-8 hold nodes a, b, pad and blk.
NODES_ERRORS = [
    ("  b 6 12", "  b 6", 6, "expected 'name width height [terminal]'"),
    ("  b 6 12", "  b six 12", 6, "bad node size"),
    ("  b 6 12", "  b 6 inf", 6, "bad node size"),
    ("  b 6 12", "  b -6 12", 6, "negative node size"),
    ("  blk 8 8 terminal", "  blk 8 -8 terminal", 8, "negative node size"),
    ("  b 6 12", "  b 0 12", 6, "movable node 'b' needs positive size"),
    ("  a 4 4", "  a 4 0", 5, "movable node 'a' needs positive size"),
    ("NumNodes : 4", "NumNodes : four", 3, "bad count line"),
    ("NumNodes : 4", "NumNodes : 5", 0, "NumNodes=5 but parsed 4"),
    ("NumTerminals : 2", "NumTerminals : 1", 0, "NumTerminals=1 but parsed 2"),
    ("  b 6 12", "  b 1e308 12", 6, "bad node size"),
]


@pytest.mark.parametrize("old, new, lineno, reason", NODES_ERRORS)
def test_bookshelf_nodes_errors_name_line_and_reason(tmp_path, old, new, lineno, reason):
    aux = _write_bookshelf(tmp_path)
    nodes = tmp_path / "d.nodes"
    text = nodes.read_text()
    assert old in text
    nodes.write_text(text.replace(old, new, 1))
    with pytest.raises(MalformedLine) as err:
        parse_bookshelf(aux)
    assert err.value.lineno == lineno
    assert reason in err.value.reason


# Edits of the .pl file that _write_bookshelf writes, as NETS_ERRORS. Lines
# 3-6 place a, b, pad and blk.
PL_ERRORS = [
    ("b 30 4 : FS", "b 30", 4, "bad placement line"),
    ("b 30 4 : FS", "b 30 4 : FS 7", 4, "bad placement line"),
    ("b 30 4 : FS", "b x 4 : FS", 4, "bad placement line"),
    ("pad -8 20 : N /FIXED", "pad -8 20 N /FIXED", 5, "bad placement line"),
    ("b 30 4 : FS", "b 3e 4 : FS", 4, "bad coordinate"),
    ("b 30 4 : FS", "b 30 -1e999 : FS", 4, "bad coordinate"),
    ("blk 40 40 : N /FIXED", "blk 40 4-0 : N /FIXED", 6, "bad coordinate"),
]


@pytest.mark.parametrize("old, new, lineno, reason", PL_ERRORS)
def test_bookshelf_pl_errors_name_line_and_reason(tmp_path, old, new, lineno, reason):
    nl = parse_bookshelf(_write_bookshelf(tmp_path))
    aux = _write_bookshelf(tmp_path, scl=False)   # the canvas then comes from the .pl
    pl = tmp_path / "d.pl"
    text = pl.read_text()
    assert old in text
    pl.write_text(text.replace(old, new, 1))
    for read in (lambda: read_placement(pl, nl), lambda: parse_bookshelf(aux)):
        with pytest.raises(MalformedLine) as err:
            read()
        assert err.value.lineno == lineno
        assert reason in err.value.reason


# The node lines of the .nodes file that _write_bookshelf writes.
NODES_LINES = "  a 4 4\n  b 6 12\n  pad 0 0 terminal\n  blk 8 8 terminal\n"
# More edits of NODES_LINES, as NETS_EDITS. Some leave the file readable.
NODES_EDITS = [
    ("  b 6 12", "  b 6 12 terminal_NI"),
    ("  b 6 12", "  b 6 12 Terminal extra"),
    ("  b 6 12", "  b 6 12 movable"),
    ("  b 6 12", "  b 6 12 # note"),
    ("  b 6 12", "  b 1_0 12"),
    ("  b 6 12", "  b \u0666 12"),
    ("  b 6 12", "  b 6 nan"),
    ("  b 6 12", "  b 1e200 1e200"),
    ("  b 6 12", "  b\t6\xa012"),
    ("  b 6 12", "  # b 6 12"),
    ("  b 6 12", "  UCLA 6 12"),
    ("  b 6 12", "  ucla nodes 1.0"),
    ("  b 6 12", "  NumNodes 6 12"),
    ("  pad 0 0 terminal", "  pad -0 0 terminal"),
    ("  pad 0 0 terminal", "  pad 1e308 0 terminal"),
    ("  pad 0 0 terminal", "  pad inf 0 terminal"),
    ("  blk 8 8 terminal", "  blk 8 8 TERMINAL"),
    ("  blk 8 8 terminal", "  blk 8 8 terminal\n  blk 2 2"),
]


def _read_nodes(parse, path, row_height):
    """(columns, error) of reading a .nodes file with `parse`; the arrays as
    dtype and bytes."""
    try:
        t = parse(path, row_height)
    except MalformedLine as exc:
        return None, (type(exc), exc.lineno, exc.reason)
    return [t.names] + [(a.dtype, a.tobytes()) for a in (t.width, t.height, t.kind, t.movable)], None


@pytest.mark.parametrize("seed", range(60))
def test_parse_nodes_matches_the_loop_reference(tmp_path, seed):
    path = tmp_path / "g.nodes"
    path.write_text(nodes_text(seed)[0])
    for row_height in (None, 5.0, 12.0):
        got = _read_nodes(bookshelf.parse_nodes, path, row_height)
        assert got[1] is None
        assert got == _read_nodes(oracles.parse_nodes, path, row_height)


@pytest.mark.parametrize("seed", range(8))
def test_parse_nodes_errors_match_the_loop_reference(tmp_path, seed):
    # Each edit of NODES_ERRORS and NODES_EDITS, made in NODES_LINES placed
    # among random lines; an edit of a header count shifts the file's true
    # count.
    path = tmp_path / "g.nodes"
    for old, new, *expected in NODES_ERRORS + NODES_EDITS:
        if old.startswith("Num"):
            text, n_nodes, n_terminals = nodes_text(seed, NODES_LINES)
            key, was = old.split(" : ")
            count, value = {"NumNodes": n_nodes, "NumTerminals": n_terminals}[key], new.split(" : ")[1]
            value = count + int(value) - int(was) if value.isdigit() else value
            text = text.replace(f"{key} : {count}", f"{key} : {value}", 1)
        else:
            text = nodes_text(seed, NODES_LINES.replace(old, new, 1))[0]
        path.write_text(text)
        got = _read_nodes(bookshelf.parse_nodes, path, 8.0)
        assert got == _read_nodes(oracles.parse_nodes, path, 8.0), (old, new)
        assert got[1] is not None or not expected   # every NODES_ERRORS edit fails


# The placement lines of the .pl file that _write_bookshelf writes.
PL_LINES = "a 10 10 : N\nb 30 4 : FS\npad -8 20 : N /FIXED\nblk 40 40 : N /FIXED\n"
# More edits of PL_LINES, as NETS_EDITS: other spellings, repeated and
# unknown names, and unsupported orientations. Some leave the file readable.
PL_EDITS = [
    ("b 30 4 : FS", "b 30 4: FS"),
    ("b 30 4 : FS", "b 30 4 :FS"),
    ("b 30 4 : FS", "b 30 4"),
    ("b 30 4 : FS", "b 30 4/FIXED"),
    ("b 30 4 : FS", "b 30 4 : FE"),
    ("b 30 4 : FS", "b 30 4 : FW"),
    ("b 30 4 : FS", "b 30 4 : E"),
    ("b 30 4 : FS", "b 30 4 : W /FIXED_NI"),
    ("b 30 4 : FS", "b 30 4 : FS\nb 1 2 : XX"),
    ("b 30 4 : FS", "b 30 4 : XX\nb 1 2 : W"),
    ("b 30 4 : FS", "b 30 4 : XX\na 1 2 : Q"),
    ("b 30 4 : FS", "ghost 30 4 : XX"),
    ("b 30 4 : FS", "b 30 4 : fs"),
    ("b 30 4 : FS", "b 30 4 : FS # c"),
    ("b 30 4 : FS", "b 1_0 4 : FS"),
    ("b 30 4 : FS", "b inf 4 : FS"),
    ("b 30 4 : FS", "b \u0663 4 : FS"),
    ("b 30 4 : FS", "b\t30\xa04 : FS"),
    ("b 30 4 : FS", "# b 30 4 : FS"),
    ("b 30 4 : FS", "UCLA 30 4 : FS"),
    ("b 30 4 : FS", "ucla pl 1.0"),
    ("pad -8 20 : N /FIXED", "pad -8 20 : N/FIXED"),
    ("pad -8 20 : N /FIXED", "pad -8 20 : N /FIXED_NI"),
    ("pad -8 20 : N /FIXED", "pad -8 20 : N /FIXED x"),
    ("pad -8 20 : N /FIXED", "pad -8 20 : N /FIXEDX"),
    ("blk 40 40 : N /FIXED", "blk 40 40 : Q /FIXED"),
]


def _read_pl(path, netlist, read, caplog):
    """(poses, log lines, error) of reading a .pl file with `read`; the
    poses as a dict of hex coordinates."""
    caplog.clear()
    for clamp in (True, False):
        with caplog.at_level(logging.INFO):
            try:
                pl = read(path, netlist, clamp_ports=clamp)
            except MalformedLine as exc:
                return None, _logged(caplog), (type(exc), exc.lineno, exc.reason)
        got = {name: (pose.x.hex(), pose.y.hex(), pose.orient) for name, pose in pl.items()}
    return got, _logged(caplog), None


def _pl_netlist():
    nodes = node_table([(name, NodeKind.PORT if w == 0 else NodeKind.MACRO, w, h, name not in ("pad", "blk"))
                        for name, w, h in NETS_NODES])
    return Netlist(nodes, [Net("n", [Pin("a"), Pin("b")])], Canvas(40.0, 40.0))


@pytest.mark.parametrize("seed", range(60))
def test_read_placement_matches_the_loop_reference(tmp_path, caplog, seed):
    path, netlist = tmp_path / "g.pl", _pl_netlist()
    path.write_text(pl_text(seed))
    got = _read_pl(path, netlist, read_placement, caplog)
    assert got[2] is None
    assert got == _read_pl(path, netlist, oracles.read_placement, caplog)
    assert isinstance(read_placement(path, netlist), PlacementState)


@pytest.mark.parametrize("seed", range(8))
def test_read_placement_errors_match_the_loop_reference(tmp_path, caplog, seed):
    # Each edit of PL_ERRORS and PL_EDITS, made in PL_LINES placed among
    # random lines. The canvas that parse_bookshelf infers without an .scl
    # comes from the same lines.
    path, netlist = tmp_path / "g.pl", _pl_netlist()
    for old, new, *expected in PL_ERRORS + PL_EDITS:
        path.write_text(pl_text(seed, PL_LINES.replace(old, new, 1)))
        got = _read_pl(path, netlist, read_placement, caplog)
        assert got == _read_pl(path, netlist, oracles.read_placement, caplog), (old, new)
        assert got[2] is not None or not expected   # every PL_ERRORS edit fails
        assert _inferred_canvas(tmp_path, path) == _oracle_canvas(path, netlist), (old, new)


def _inferred_canvas(tmp_path, pl):
    """The canvas, or the error, of a design over NETS_NODES without an .scl."""
    (tmp_path / "g.nodes").write_text("".join(f"{name} {w} {h}{' terminal' if name in ('pad', 'blk') else ''}\n"
                                              for name, w, h in NETS_NODES))
    (tmp_path / "g.nets").write_text("NetDegree : 2\na I\nb I\n")
    (tmp_path / "g.aux").write_text(f"RowBasedPlacement : g.nodes g.nets {pl.name}\n")
    try:
        canvas = parse_bookshelf(tmp_path / "g.aux").canvas
        return canvas.width, canvas.height
    except (MalformedLine, InvalidDimension) as exc:
        return type(exc), getattr(exc, "lineno", None), getattr(exc, "reason", None)


def _oracle_canvas(pl, netlist):
    try:
        extent = oracles.pl_canvas(pl, netlist.arrays)
    except MalformedLine as exc:
        return type(exc), exc.lineno, exc.reason
    return (InvalidDimension, None, None) if extent is None or min(extent) <= 0 else extent


NODES_EDGE_TEXTS = [
    "", "\n\n", "UCLA nodes 1.0\n", "NumNodes : 0\nNumTerminals : 0", "a 1 1\x85b 2 2", "a\xa01\u30001",
    "#x 1 1\na 1 1", "UCLA 1 1.0\nUCLA 1 1", "ucla 2 2 terminal", "a 1 1\x1fterminal", "a 1 1 terminal\x1c",
    "a 1e308 1e-308", "a 1 1 TERMINAL_NI x", "NumNodes 1 1", "a 1 1\nNumNodes : 2\nb 1 1", "a 1 1\r\nb 0 0 terminal",
    "a 1 1\nterminal 2 2", "a 1 1 x\nterminal 2 2",
    "a 1 1\r\nb 1\xa0x", "a 1 1\rb\u3000-1 1\u2028", "a 1 1\u2029b\x1f1\x85c 0 1", "b 2 2\na\x00 1 1", "a 1 2\x00",
    f"{'b' * 70} 1 1\na 1.{'0' * 70} 1",
]


@pytest.mark.parametrize("text", NODES_EDGE_TEXTS)
def test_parse_nodes_edge_cases_match_the_loop_reference(tmp_path, text):
    path = tmp_path / "e.nodes"
    path.write_text(text)
    assert _read_nodes(bookshelf.parse_nodes, path, 1.0) == _read_nodes(oracles.parse_nodes, path, 1.0)


PL_EDGE_TEXTS = [
    "", "\n\n", "UCLA pl 1.0\n", "a 1 1\x85b 2 2", "a 1 1:N", "a 1 1 :N/FIXED", "a 1 1/FIXED_NI", "a +1e1 -.5 : FS",
    "a 1 1 : N /FIXED junk", "a 1 1 : \u00c9", "a 1 1 : N\x1f/FIXED", "#a 1 1\na 2 2", "UCLA 1 1.0\na 1 1",
    "b 1 1 : E\nb 2 2", "a 1 1 : N : S", "a 1 1 /FIXED : N", "a 1 1 1", "pad -1 99 : FW /FIXED",
    "a 1 1\r\nb\xa0x 1", "a 1 1\rb 1\u20001 :\u3000N\u2028b 1 1 : Q", "a 1 1\u2029b 1 4-0\x85", "b 1 1\na\x00 2 2",
    f"{'b' * 70} 1 1\na 1.{'0' * 70} 1",
]


@pytest.mark.parametrize("text", PL_EDGE_TEXTS)
def test_read_placement_edge_cases_match_the_loop_reference(tmp_path, caplog, text):
    path = tmp_path / "e.pl"
    path.write_text(text)
    got = _read_pl(path, _pl_netlist(), read_placement, caplog)
    assert got == _read_pl(path, _pl_netlist(), oracles.read_placement, caplog)


@pytest.fixture
def small_blocks(monkeypatch):
    """Sets the Bookshelf readers' blocks to a few lines; returns the first
    line of each block read."""
    seen = []
    blocks = bookshelf._Text.blocks

    def counted(self, width):
        for block in blocks(self, width):
            seen.append(block[0])
            yield block

    def set_lines(lines):
        monkeypatch.setattr(bookshelf, "_BLOCK_LINES", lines)
        monkeypatch.setattr(bookshelf._Text, "blocks", counted)
        return seen
    return set_lines


@pytest.mark.parametrize("lines", [1, 2])
@pytest.mark.parametrize("check", [
    lambda tmp, log: [test_parse_nets_matches_the_loop_reference(tmp, log, seed) for seed in range(0, 60, 5)],
    lambda tmp, log: [test_parse_nets_errors_match_the_loop_reference(tmp, log, seed) for seed in range(2)],
    lambda tmp, log: [test_parse_nets_edge_cases_match_the_loop_reference(tmp, text) for text in NETS_EDGE_TEXTS],
    lambda tmp, log: [test_parse_nodes_matches_the_loop_reference(tmp, seed) for seed in range(0, 60, 5)],
    lambda tmp, log: [test_parse_nodes_errors_match_the_loop_reference(tmp, seed) for seed in range(2)],
    lambda tmp, log: [test_parse_nodes_edge_cases_match_the_loop_reference(tmp, text) for text in NODES_EDGE_TEXTS],
    lambda tmp, log: [test_read_placement_matches_the_loop_reference(tmp, log, seed) for seed in range(0, 60, 5)],
    lambda tmp, log: [test_read_placement_errors_match_the_loop_reference(tmp, log, seed) for seed in range(2)],
    lambda tmp, log: [test_read_placement_edge_cases_match_the_loop_reference(tmp, log, text) for text in PL_EDGE_TEXTS],
], ids=["nets", "nets errors", "nets edge cases", "nodes", "nodes errors", "nodes edge cases",
        "pl", "pl errors", "pl edge cases"])
def test_readers_match_the_loop_reference_in_small_blocks(tmp_path, caplog, small_blocks, check, lines):
    seen = small_blocks(lines)
    check(tmp_path, caplog)
    assert max(seen) > 0


# Files in which, with blocks of one to four lines, a NetDegree section, an
# odd spelling, a header or comment, and the first error cross block edges.
NETS_BLOCK_EDGES = [
    "UCLA nets 1.0\nNumNets : 2\nNumPins : 5\nNetDegree:3 n0\n  a O : 1 1\n# c\n  b I:-2 0.5\npad\tI\n"
    "NetDegree : 2\n a I\n\n UCLA nets 1.0\n  blk B",
    "NetDegree : 4 n0\n a I\n b I\n pad O\nNetDegree : 1 n1\n blk I\n",
    "NetDegree : 1 n0\n a I\n b I : 1 1\nNumPins : x\n",
    "NetDegree : 2 n0\n a I : 1e 1\n b I\n\nUCLA nets 1.0\n ghost I\n",
    "NetDegree : 2 n0\n a I\n# c\n b I\nNetDegree : 2 n0\n a O\n b I\n",
    "NetDegree : 2\n a I\n b O\nNetDegree : 2 net0\n a I\n b I\nNumNets : 3\n",
]
NODES_BLOCK_EDGES = [
    "UCLA nodes 1.0\nNumNodes : 3\n# c\n a 1 1\nNumTerminals : 1\n b 1_0 2\n pad 0 0 terminal\n",
    " a 1 1\n b 2 2\n\n# c\n c 3 -3\n d x 1\n",
    " a 1 1\n b 2 2\n c 3 3\nNumNodes : 4\n",
]
PL_BLOCK_EDGES = [
    "UCLA pl 1.0\n# c\na 1 1 : N\nb 1 2:FS\npad 3 4 : N /FIXED\nb 5 6 : XX\nb 7 8\n",
    "a 1 1\nb 2 2\n\nUCLA pl 1.0\nblk 3 3 : N\nb x 1 : N\n",
    "a 1 1\nb 2 2 : Q\nblk 3 3\n",
]


@pytest.mark.parametrize("lines", [1, 2, 3, 4, 4096])
def test_readers_match_the_loop_reference_across_block_edges(tmp_path, caplog, small_blocks, lines):
    seen, netlist = small_blocks(lines), _pl_netlist()
    path = tmp_path / "b.txt"
    for text in NETS_BLOCK_EDGES:
        path.write_text(text)
        assert _read_nets(bookshelf.parse_nets, path, caplog) == _read_nets(oracles.parse_nets, path, caplog), text
    for text in NODES_BLOCK_EDGES:
        path.write_text(text)
        assert _read_nodes(bookshelf.parse_nodes, path, 1.5) == _read_nodes(oracles.parse_nodes, path, 1.5), text
    for text in PL_BLOCK_EDGES:
        path.write_text(text)
        assert _read_pl(path, netlist, read_placement, caplog) == _read_pl(path, netlist, oracles.read_placement,
                                                                           caplog), text
    assert (max(seen) > 0) == (lines < 4096)


def _traced_peak(read) -> int:
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_nets_traced_peak_stays_within_ten_times_the_file(tmp_path):
    # The seed-7 benchmark designs, and the sections of fanout's .nets five
    # times over (20.5 MiB): read memory follows a block, not the token count.
    spec = importlib.util.spec_from_file_location("designs", Path(__file__).parents[1] / "benchmark" / "designs.py")
    designs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(designs)
    for kind in designs.DESIGNS:
        designs.write_design(kind, tmp_path, 7)
    body = (tmp_path / "fanout.nets").read_text().split("NumPins", 1)[1].split("\n", 1)[1]
    (tmp_path / "big.nets").write_text("".join(re.sub(r"^(NetDegree : \d+ \S+)$", rf"\1_{k}", body, flags=re.M)
                                              for k in range(5)))
    nodes = bookshelf.parse_nodes(tmp_path / "fanout.nodes", None)
    for name in ("ibm01.nets", "fanout.nets", "big.nets"):
        path = tmp_path / name
        assert name != "big.nets" or path.stat().st_size >= 16 << 20
        assert _traced_peak(lambda: bookshelf.parse_nets(path, nodes)) <= 10 * path.stat().st_size, name


def test_unsupported_orientation_of_an_unknown_or_overwritten_line_is_no_error(tmp_path):
    nl = parse_bookshelf(_write_bookshelf(tmp_path))
    (tmp_path / "o.pl").write_text("a 1 1 : XX\nghost 2 2 : Q\nb 3 3 : N\na 4 4 : FW\n")
    assert dict(read_placement(tmp_path / "o.pl", nl)) == {
        "a": Pose(6.0, 6.0, Orientation.FS), "b": Pose(6.0, 9.0, Orientation.N)}


# Edits of the .scl file that _write_bookshelf writes, as NETS_ERRORS. Lines
# 4-9 hold the first CoreRow, lines 10-15 the second.
SCL_ERRORS = [
    ("  Height : 32", "  Height : 0", 9, "CoreRow needs positive Height, Sitespacing and NumSites"),
    ("  Height : 32", "  Height : -4", 9, "CoreRow needs positive Height, Sitespacing and NumSites"),
    ("  Sitespacing : 1", "  Sitespacing : 0", 9, "CoreRow needs positive Height, Sitespacing and NumSites"),
    ("NumSites : 64", "NumSites : -64", 9, "CoreRow needs positive Height, Sitespacing and NumSites"),
    ("Coordinate : 32\n  Height : 32", "Coordinate : 32\n  Height : 0", 15,
     "CoreRow needs positive Height, Sitespacing and NumSites"),
    ("  Height : 32", "  Height : 1e999", 6, "bad number"),
    ("  Coordinate : 0\n", "", 8, "CoreRow missing Coordinate/Height/SubrowOrigin/NumSites"),
    ("CoreRow Horizontal\n", "", 4, "unexpected line outside CoreRow"),
    ("NumRows : 2", "NumRows : 3", 0, "NumRows=3 but parsed 2"),
    ("NumRows : 2", "NumRows : two", 3, "bad count line"),
]


@pytest.mark.parametrize("old, new, lineno, reason", SCL_ERRORS)
def test_bookshelf_scl_errors_name_line_and_reason(tmp_path, old, new, lineno, reason):
    aux = _write_bookshelf(tmp_path)
    scl = tmp_path / "d.scl"
    text = scl.read_text()
    assert old in text
    scl.write_text(text.replace(old, new, 1))
    with pytest.raises(MalformedLine) as err:
        parse_bookshelf(aux)
    assert err.value.lineno == lineno
    assert reason in err.value.reason


def test_zero_height_rows_do_not_turn_cells_into_macros(tmp_path, capsys):
    aux = _write_bookshelf(tmp_path)
    scl = tmp_path / "d.scl"
    scl.write_text(scl.read_text().replace("Height : 32", "Height : 0", 1))
    assert main(["evaluate", "--netlist", str(aux), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {scl}:9: CoreRow needs positive Height, Sitespacing and NumSites"]


def _table(netlist):
    return [(net.name, net.weight, [(p.node, p.dx, p.dy, p.is_source) for p in net.pins])
            for net in netlist.nets]


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


def _logged(caplog):
    return [(r.levelno, r.getMessage()) for r in caplog.records]


def test_reader_warnings_clamp_drop_and_demote(tmp_path, caplog):
    aux = _write_bookshelf(tmp_path, num_nets=4, num_pins=7)
    nets = tmp_path / "d.nets"
    nets.write_text(
        "UCLA nets 1.0\n\nNumNets : 4\nNumPins : 7\n"
        "NetDegree : 3 n0\n  a O : 9 1\n  b O : -2.0 -9\n  pad O\n"
        "NetDegree : 1 lone\n  a I\n"
        "NetDegree : 0 empty\n"
        "NetDegree : 3 n1\n  a I : 3 0.0\n  blk O : 1.0 -1.0\n  a O\n")
    with caplog.at_level(logging.WARNING, logger="gridplace"):
        nl = parse_bookshelf(aux)
    where = str(nets)
    assert _warnings(caplog) == [
        f"{where}: clamped 3 pin offset(s) to node half-extents",
        f"{where}: net 'n0' has multiple source pins, keeping the first",
        f"{where}: net 'n0' has multiple source pins, keeping the first",
        f"{where}: dropping net 'lone' with 1 pin(s)",
        f"{where}: dropping net 'empty' with 0 pin(s)",
        f"{where}: net 'n1' has multiple source pins, keeping the first",
    ]
    assert [[p.is_source for p in net.pins] for net in nl.nets] == \
        [[True, False, False], [False, True, False]]

    caplog.clear()
    path = tmp_path / "d.txt"
    path.write_text(
        "canvas 10 10\nnode a macro 2 2 1\nnode b macro 4 4 1\n"
        "net n0\nnet lone\nnet empty\nnet n1\n"
        "pin n1 a 0 0\npin n0 a 5 0 s\npin lone b 0 0\npin n0 b 0 0 s\n"
        "pin n1 b 3 -3 s\npin n0 a 0 0 s\npin n1 a 0 0 s\n")
    with caplog.at_level(logging.WARNING, logger="gridplace"):
        nl = read_netlist(path)
    where = str(path)
    assert _warnings(caplog) == [
        f"{where}: clamped 2 pin offset(s) to the owner's half-extents",
        f"{where}: net 'n0' has multiple source pins, keeping the first",
        f"{where}: net 'n0' has multiple source pins, keeping the first",
        f"{where}: dropping net 'lone' with 1 pin(s)",
        f"{where}: dropping net 'empty' with 0 pin(s)",
        f"{where}: net 'n1' has multiple source pins, keeping the first",
    ]
    assert _table(nl) == [
        ("n0", 1.0, [("a", 1.0, 0.0, True), ("b", 0.0, 0.0, False), ("a", 0.0, 0.0, False)]),
        ("n1", 1.0, [("a", 0.0, 0.0, False), ("b", 2.0, -2.0, True), ("a", 0.0, 0.0, False)]),
    ]


def test_bookshelf_rejects_non_finite_numbers(tmp_path):
    for size in ("nan 4", "4 inf", "1e999 4"):
        aux = _write_bookshelf(tmp_path, nodes_extra=f"  c {size}\n", num_nodes=5)
        with pytest.raises(MalformedLine) as err:
            parse_bookshelf(aux)
        assert err.value.lineno == 9
    aux = _write_bookshelf(tmp_path)
    nets = tmp_path / "d.nets"
    nets.write_text(nets.read_text().replace("a I : 0.0 0.0", "a I : 1e999 0.0"))
    with pytest.raises(MalformedLine):
        parse_bookshelf(aux)
    aux = _write_bookshelf(tmp_path)
    scl = tmp_path / "d.scl"
    scl.write_text(scl.read_text().replace("Coordinate : 32", "Coordinate : 1e999"))
    with pytest.raises(MalformedLine):
        parse_bookshelf(aux)


def test_read_placement_rejects_non_finite_coordinates(tmp_path):
    nl = parse_bookshelf(_write_bookshelf(tmp_path))
    for line in ("a 1e999 10 : N\n", "b 3 -1e999 : N\n", "a 1e 10 : N\n"):
        (tmp_path / "bad.pl").write_text("UCLA pl 1.0\n\n" + line)
        with pytest.raises(MalformedLine) as err:
            read_placement(tmp_path / "bad.pl", nl)
        assert err.value.lineno == 3


@pytest.mark.parametrize("body, lineno", [
    ("a 1 1 : XX\n", 3),
    ("a 1 1 : N\n\nb 2 2 : XX\npad 0 0 : N\n", 5),
    ("b 2 2 : XX\na 1 1 : N\nb 2 2 : FE\nblk 3 3 : Q /FIXED\n", 6),
])
def test_read_placement_names_the_line_of_an_unsupported_orientation(tmp_path, body, lineno):
    nl = parse_bookshelf(_write_bookshelf(tmp_path))
    (tmp_path / "bad.pl").write_text("UCLA pl 1.0\n\n" + body)
    with pytest.raises(MalformedLine, match="unsupported orientation") as err:
        read_placement(tmp_path / "bad.pl", nl)
    assert err.value.lineno == lineno
    assert f"bad.pl:{lineno}:" in str(err.value)


def test_bookshelf_aux_requires_nodes_and_nets(tmp_path):
    (tmp_path / "x.aux").write_text("RowBasedPlacement : x.pl\n")
    with pytest.raises(MalformedLine):
        parse_aux(tmp_path / "x.aux")
    with pytest.raises(MissingFile):
        parse_aux(tmp_path / "missing.aux")


def test_bookshelf_canvas_inferred_without_scl(tmp_path):
    aux = _write_bookshelf(tmp_path, scl=False)
    nl = parse_bookshelf(aux)
    # Fixed nodes located by the .pl bound the canvas: blk corner (40, 40)
    # plus its 8x8 outline.
    assert nl.canvas.width == 48.0 and nl.canvas.height == 48.0
    # Without row heights every movable node is a macro.
    assert nl.nodes[nl.arrays.index["a"]].kind is NodeKind.MACRO


def test_bookshelf_pl_round_trip(tmp_path):
    aux = _write_bookshelf(tmp_path)
    nl = parse_bookshelf(aux)
    pl = read_placement(tmp_path / "d.pl", nl)
    out = tmp_path / "out.pl"
    write_placement(nl, pl, out)
    text = out.read_text()
    assert text.startswith("UCLA pl 1.0")
    assert "/FIXED" in text
    back = read_placement(out, nl, clamp_ports=False)
    for name, pose in pl.items():
        assert back[name].x == pytest.approx(pose.x, abs=1e-6)
        assert back[name].y == pytest.approx(pose.y, abs=1e-6)
        assert back[name].orient is pose.orient


def test_write_placement_requires_movable_coverage(tmp_path):
    aux = _write_bookshelf(tmp_path)
    nl = parse_bookshelf(aux)
    pl = dict(read_placement(tmp_path / "d.pl", nl))
    del pl["a"]
    with pytest.raises(IncompletePlacement):
        write_placement(nl, pl, tmp_path / "out.pl")


def test_write_placement_io_failure(tmp_path):
    aux = _write_bookshelf(tmp_path)
    nl = parse_bookshelf(aux)
    pl = read_placement(tmp_path / "d.pl", nl)
    with pytest.raises(IoFailure):
        write_placement(nl, pl, "/nonexistent-dir/out.pl")
