"""Tests of the benchmark itself: python3 -m pytest benchmark/tests -q

They run from a checkout root and import the package from ./src, as the
benchmark does.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import gridplace as gp  # noqa: E402
from designs import write_design  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import WORKLOADS, net_cell_counts  # noqa: E402

DEFAULT_SEED = 20260818
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _load(aux):
    netlist = gp.parse_bookshelf(aux)
    initial = gp.read_placement(gp.parse_aux(aux)["pl"], netlist)
    grid = gp.build_grid(netlist.canvas, 32, 32)
    return grid, gp.cluster_by_grid(netlist, initial, grid), initial


@pytest.mark.parametrize("kind", ["ibm01", "fanout"])
def test_generator_is_deterministic_per_seed(tmp_path, kind):
    a = _files(write_design(kind, tmp_path / "a", 7).parent)
    b = _files(write_design(kind, tmp_path / "b", 7).parent)
    c = _files(write_design(kind, tmp_path / "c", 8).parent)
    assert a == b
    assert a != c


def test_ibm01_default_seed_counts(tmp_path):
    _, cnl, _ = _load(write_design("ibm01", tmp_path, DEFAULT_SEED))
    nl = cnl.netlist
    assert len(nl.nodes) == 1526
    assert len(nl.nets) == 14106
    assert sum(len(n.pins) for n in nl.nets) == 46131


def test_fanout_keeps_the_node_set_and_has_no_three_cell_nets(tmp_path):
    ibm = write_design("ibm01", tmp_path / "ibm", 3).parent
    fan = write_design("fanout", tmp_path / "fan", 3)
    for ext in ("nodes", "pl", "scl"):
        assert (ibm / f"ibm01.{ext}").read_bytes() == (fan.parent / f"fanout.{ext}").read_bytes()
    netlist = gp.parse_bookshelf(fan)
    assert all(6 <= len(n.pins) <= 20 for n in netlist.nets)
    grid, cnl, initial = _load(fan)
    counts = net_cell_counts(cnl.netlist, cnl.seed_placement(initial), grid)
    assert counts["nets_k3"] == 0


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [3.5, 6] overlaps a and b, so root's covered time is the union [1, 9].
    spans = [
        Span(0, None, "root", 0.0, 10.0, "r"),
        Span(1, 0, "a", 1.0, 4.0, "r"),
        Span(2, 0, "b", 5.0, 9.0, "r"),
        Span(3, 1, "c", 2.0, 3.0, "r"),
        Span(4, 0, "d", 3.5, 6.0, "r"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.5)


def test_metric_and_workload_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME_RE.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _record(workload: str, trace: int) -> dict:
    path = ROOT / ".bench_out" / f"result-{workload}-s5-t{trace}-tiny.json"
    return json.loads(path.read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run_has_no_errors(workload):
    out = _run(workload, 0)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(_record(workload, 0)["end_to_end"]) == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())

    traced = _run(workload, 1)
    assert traced["failed"] == 0
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(m) == set(_record(workload, 1)["per_layer"]) == PER_LAYER
    parts = sum(m[f"annealer.{k}_ms"] for k in ("init", "fd", "eval", "self"))
    assert parts == pytest.approx(m["annealer.anneal_ms"], rel=1e-9)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "benchmark").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "benchmark" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "sa-ibm01", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
