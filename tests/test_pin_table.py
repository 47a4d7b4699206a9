"""The node and pin tables: the one stored form of a netlist.

Digests recorded from the object-based netlist that preceded the tables pin
their contents bit for bit: the seed-7 ibm01 design as parsed and clustered
both ways, and a rewiring instance from tests/gen.py. The files that
`gridplace parse --out`, `cluster --out`, `cluster --placement-out`,
`shuffle` and `plot` write are pinned the same way. With `Node`, `Pin` and
`Net` unable to construct, the whole flow from the Bookshelf reader to the
annealer and every command on it still runs: no layer goes through the
object form.
"""

import hashlib
import logging

import numpy as np
import pytest

import oracles
from fixture_gen import write_synthetic_design
from gen import rewire_instance
from gridplace.annealer import SAConfig, anneal, shuffle_same_size
from gridplace.bookshelf import parse_bookshelf, read_placement
from gridplace.cli import main
from gridplace.clustering import cluster_by_grid, no_clustering
from gridplace.cost import Evaluator
from gridplace.fd import FDParams, fd_place
from gridplace.geometry import build_grid
from gridplace.netlist import Net, Netlist, Node, Pin, PlacementState, validate_nets

# Leading 16 hex digits of the sha256 of each field.
GOLDEN = {
    "ibm01": {"names": "663516fbf90e0a78", "net_names": "4b10fd762472406c", "pin_marked": "d3c087493ecb3f2a", "half_w": "0c256df2d99ac265", "half_h": "d03d0ca58bb8c424", "pin_dx": "65bf8e46a3ddf0a1", "pin_dy": "3b015bbb42137bc7", "net_weight": "96d4840b3694b32d", "is_macro": "a07a070d1b0fda60", "is_cluster": "3e01de52d2c92652", "is_port": "5abbc861e9660d03", "movable": "9a88df9dfc331e14", "pin_owner": "0f7c31b931108da4", "net_start": "19d8adf1d17ab66a", "driver": "15da71b590e971fc"},
    "ibm01_grid": {"names": "e6b7fe650081f7d6", "net_names": "9418adbb83ef6af5", "pin_marked": "162775d9553e8053", "half_w": "d2c9d270b62a6ca1", "half_h": "ad730c0381274038", "pin_dx": "3a763c6006475749", "pin_dy": "dfc850f066b40b28", "net_weight": "a61cebde65c5c344", "is_macro": "916599f83acd693f", "is_cluster": "f3b0530c890761a0", "is_port": "4004f17058d0633a", "movable": "de0a5bb0af0f7aa1", "pin_owner": "11cbb0c6929eb0f0", "net_start": "5223a5428ee4dcc2", "driver": "a96dfd5cdfc6f61f"},
    "ibm01_none": {"names": "663516fbf90e0a78", "net_names": "4b10fd762472406c", "pin_marked": "d3c087493ecb3f2a", "half_w": "7c3eadbb9212f379", "half_h": "a5af41bd8656d735", "pin_dx": "301a690f465f0376", "pin_dy": "150a85aa8e3f320d", "net_weight": "96d4840b3694b32d", "is_macro": "a07a070d1b0fda60", "is_cluster": "52689ba1f1c7fb49", "is_port": "5abbc861e9660d03", "movable": "9a88df9dfc331e14", "pin_owner": "0f7c31b931108da4", "net_start": "19d8adf1d17ab66a", "driver": "15da71b590e971fc"},
    "gen": {"names": "5a4f5ab6d1e44d33", "net_names": "cd8d37cef626d75e", "pin_marked": "1f3613aff0a5ee1d", "half_w": "e673a67e738d054c", "half_h": "1049fb94a71bc922", "pin_dx": "56023706a4c677b3", "pin_dy": "33cfad476be82a0a", "net_weight": "6d7071727ed8bd78", "is_macro": "955d9154b852dcd6", "is_cluster": "140eda45fe001c0f", "is_port": "78111f1132936f75", "movable": "fdf7b732f69daeb2", "pin_owner": "e8543fdf512742b4", "net_start": "43193328393f42fc", "driver": "f02c03e29fa8d947"},
    "gen_grid": {"names": "8349660133642cc6", "net_names": "6e39d321a23601e9", "pin_marked": "e92fc95589ad1601", "half_w": "6bd724f23b0cbf49", "half_h": "9883fd5f3e0c0bce", "pin_dx": "fd1740638d7939d0", "pin_dy": "102378acc9c22bf4", "net_weight": "8e2620d1dbb25cbc", "is_macro": "3ff0b8df86584ef0", "is_cluster": "e89548729d18bdbb", "is_port": "a02f9864e9ad75bd", "movable": "f9740f3b5be84e47", "pin_owner": "85603fb88061395b", "net_start": "e89618cc69153f1c", "driver": "ba0e31f1be501dfa"},
    "gen_none": {"names": "5a4f5ab6d1e44d33", "net_names": "283d645e11bd52c0", "pin_marked": "96d61b758d38ce2b", "half_w": "d000d9e3377778f3", "half_h": "1a514b31374276fd", "pin_dx": "08ce58c76c29e5f2", "pin_dy": "ec2da09354f58409", "net_weight": "71436b865e681faf", "is_macro": "955d9154b852dcd6", "is_cluster": "35bc804f6938f10f", "is_port": "78111f1132936f75", "movable": "fdf7b732f69daeb2", "pin_owner": "f1e9011da0385c11", "net_start": "c52d4cebed617b18", "driver": "8bb6d2f197abdaef"},
}

# Leading 16 hex digits of the sha256 of the native netlists written by `gridplace parse` and `gridplace
# cluster` (default 32 x 32 grid) from the seed-7 ibm01 design, and of the clustered placement, the
# shuffled placement and the SVG that `cluster --placement-out`, `shuffle` and `plot` write from it.
CLI_OUT = {
    "parse": "15d6669bf62c07a7",
    "cluster": "d73819c96b6541d8",
    "cluster_none": "c49e89e2f24cb7cf",
    "cluster.pl": "d3349cfc69c03e03",
    "shuffled.pl": "863685010e4577b5",
    "plot.svg": "619a294b89470159",
}


def _h(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digests(netlist) -> dict:
    a = netlist.arrays
    out = {"names": _h("\n".join(a.names).encode()),
           "net_names": _h("\n".join(a.net_names).encode())}
    for f, dtype in (("pin_marked", np.uint8), ("half_w", np.float64), ("half_h", np.float64),
                     ("pin_dx", np.float64), ("pin_dy", np.float64), ("net_weight", np.float64),
                     ("is_macro", np.uint8), ("is_cluster", np.uint8), ("is_port", np.uint8),
                     ("movable", np.uint8), ("pin_owner", np.int64), ("net_start", np.int64),
                     ("driver", np.int64)):
        out[f] = _h(np.asarray(getattr(a, f), dtype=dtype).tobytes())
    return out


@pytest.fixture(scope="module")
def ibm01(tmp_path_factory):
    return write_synthetic_design(tmp_path_factory.mktemp("ibm01"), name="ibm01", seed=7)


def test_golden_tables_of_the_seed7_design(ibm01):
    netlist = parse_bookshelf(ibm01)
    initial = read_placement(ibm01.with_suffix(".pl"), netlist)
    grid = build_grid(netlist.canvas, 32, 32)
    assert digests(netlist) == GOLDEN["ibm01"]
    assert digests(cluster_by_grid(netlist, initial, grid).netlist) == GOLDEN["ibm01_grid"]
    assert digests(no_clustering(netlist, initial, grid).netlist) == GOLDEN["ibm01_none"]


def test_the_seed7_design_reads_as_the_loop_references_read_it(ibm01):
    netlist = parse_bookshelf(ibm01)
    nodes = oracles.parse_nodes(ibm01.with_suffix(".nodes"), 16.0)
    a = netlist.arrays
    assert a.names == nodes.names
    for f in ("width", "height", "kind", "movable"):
        assert getattr(a, f).dtype == getattr(nodes, f).dtype
        assert getattr(a, f).tobytes() == getattr(nodes, f).tobytes()
    state = read_placement(ibm01.with_suffix(".pl"), netlist)
    want = oracles.read_placement(ibm01.with_suffix(".pl"), netlist)
    assert {k: (p.x.hex(), p.y.hex(), p.orient) for k, p in state.items()} == \
        {k: (p.x.hex(), p.y.hex(), p.orient) for k, p in want.items()}
    # A state of the parsed netlist decodes into a clustered one as the
    # equal dict does, bit for bit.
    grid = build_grid(netlist.canvas, 32, 32)
    for cluster in (cluster_by_grid, no_clustering):
        cnl = cluster(netlist, state, grid)
        assert digests(cnl.netlist) == digests(cluster(netlist, want, grid).netlist)
        got, ref = PlacementState.of(cnl.netlist.arrays, state), PlacementState.of(cnl.netlist.arrays, want)
        for f in ("x", "y", "sx", "sy"):
            assert getattr(got, f).tobytes() == getattr(ref, f).tobytes()
        assert cnl.seed_placement(state).x.tobytes() == cnl.seed_placement(want).x.tobytes()


def test_golden_tables_of_a_rewiring_instance():
    netlist, placement, grid = rewire_instance(3)
    nets = list(netlist.nets)
    # What the instance is for: repeated owners, several marked sources per
    # net, and nets that clustering leaves with fewer than two pins.
    assert any(len({p.node for p in n.pins}) < len(n.pins) for n in nets)
    assert any(sum(p.is_source for p in n.pins) > 1 for n in nets)
    clustered = cluster_by_grid(netlist, placement, grid).netlist
    assert len(clustered.arrays.net_names) < len(nets)
    assert digests(netlist) == GOLDEN["gen"]
    assert digests(clustered) == GOLDEN["gen_grid"]
    assert digests(no_clustering(netlist, placement, grid).netlist) == GOLDEN["gen_none"]


@pytest.mark.parametrize("seed", range(6))
def test_validate_nets_matches_the_loop_reference(seed, caplog):
    netlist, _, _ = rewire_instance(seed)
    want, warnings = oracles.validated_nets(netlist.nets)
    with caplog.at_level(logging.WARNING, logger="gridplace"):
        kept = Netlist(netlist.nodes, validate_nets(netlist.arrays, where="w"), netlist.canvas)
    assert oracles.net_rows(kept.nets) == want
    assert [r.getMessage() for r in caplog.records] == [f"w: {w}" for w in warnings]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("cluster", [cluster_by_grid, no_clustering])
def test_rewiring_matches_the_loop_reference(seed, cluster):
    netlist, placement, grid = rewire_instance(seed)
    cnl = cluster(netlist, placement, grid)
    new = cnl.netlist.arrays
    cluster_of = {netlist.arrays.names[i]: new.names[c]
                  for i, c in enumerate(cnl.cluster_of.tolist()) if c >= 0}
    want, dropped = oracles.rewired_nets(netlist.nets, cluster_of)
    assert oracles.net_rows(cnl.netlist.nets) == want
    assert len(netlist.nets) - len(want) == dropped
    # The clusters made here are exactly the ones with members, each in its
    # own grid cell unless singleton, and every member sits in its cluster's cell.
    made = np.flatnonzero(cnl.cell_of >= 0)
    assert np.array_equal(np.unique(cnl.cluster_of[cnl.cluster_of >= 0]), made)
    assert new.is_cluster[made].all()
    assert len(cnl.members) == len(made) and cnl.members.sum() == len(cluster_of)
    if cluster is cluster_by_grid:
        assert len(np.unique(cnl.cell_of[made])) == len(made)
    for name, cid in cluster_of.items():
        col, row = grid.cell_of_point(*placement[name][:2])
        assert cnl.cell_of[new.index[cid]] == row * grid.n_cols + col


def test_flow_runs_without_net_and_pin_objects(ibm01, tmp_path, monkeypatch, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} object built")
    for cls in (Node, Pin, Net):
        monkeypatch.setattr(cls, "__init__", refuse)

    netlist = parse_bookshelf(ibm01)
    initial = read_placement(ibm01.with_suffix(".pl"), netlist)
    grid = build_grid(netlist.canvas, 32, 32)
    cnl = cluster_by_grid(netlist, initial, grid)
    seed = cnl.seed_placement(initial)
    evaluator = Evaluator(cnl.netlist, grid)
    assert np.isfinite(evaluator.breakdown(seed).total)
    fd_place(cnl.netlist, seed, FDParams(num_iters=3, seed=7))
    assert np.isfinite(evaluator.breakdown(shuffle_same_size(cnl.netlist, seed, 3)).total)
    result = anneal(cnl, initial, SAConfig(seed=7, max_steps=10, probe_count=10,
                                           fd_params=FDParams(num_iters=3, seed=7)))
    assert result.steps_run == 10

    counts = {"parse": netlist, "cluster": cnl.netlist}
    for name, args in (("parse", ["parse"]), ("cluster", ["cluster"]),
                       ("cluster_none", ["cluster", "--cluster", "none"])):
        out = tmp_path / f"{name}.txt"
        assert main(args + ["--netlist", str(ibm01), "--out", str(out),
                            "--out-dir", str(tmp_path)]) == 0
        assert _h(out.read_bytes()) == CLI_OUT[name], name
        kv = dict(ln.split("=", 1) for ln in capsys.readouterr().out.splitlines() if "=" in ln)
        if name in counts:
            a = counts[name].arrays
            assert (kv["nets"], kv["nodes"]) == (str(len(a.net_names)), str(len(a.names)))
            assert kv.get("pins", str(len(a.pin_owner))) == str(len(a.pin_owner))
    for args, out in ((["cluster", "--placement-out"], "cluster.pl"), (["fd", "--iters", "3", "--out"], "fd.pl"),
                      (["evaluate"], None), (["shuffle", "--out"], "shuffled.pl"),
                      (["sa", "--steps", "10", "--fd-iters", "3", "--sequential", "--out"], "best.pl"),
                      (["plot", "--out"], "plot.svg")):
        target = [str(tmp_path / out)] if out else []
        assert main(args + target + ["--netlist", str(ibm01), "--out-dir", str(tmp_path)]) == 0, args
        if out in CLI_OUT:
            assert _h((tmp_path / out).read_bytes()) == CLI_OUT[out], out
