"""Rank correlation, stability tables, and weight sweeps."""

import math
import random

import pytest

from gridplace.cost import CostConfig, Evaluator, ProxyBreakdown, ProxyWeights
from gridplace.errors import DegenerateInput, LengthMismatch
from gridplace.stats import (
    kendall_tau,
    read_external_metrics,
    stability_study,
    summarize_groups,
    sweep_to_csv,
    weight_sweep,
)

import oracles
from gen import small_instance


# ---------------------------------------------------------------------------
# Kendall rank correlation


def test_kendall_perfect_orders():
    assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
    assert kendall_tau([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0
    assert kendall_tau([1, 2], [5, 9]) == 1.0


def test_kendall_negation_antisymmetry():
    xs = [3, 1, 4, 1, 5, 9, 2, 6]
    ys = [2, 7, 1, 8, 2, 8, 1, 8]
    assert kendall_tau(xs, [-v for v in ys]) == -kendall_tau(xs, ys)


def test_kendall_tie_corrected_value():
    # nc=2, nd=6, one x tie group of two values twice, one y tie pair:
    # (2 - 6) / sqrt((10 - 2) * (10 - 1))
    assert kendall_tau([12, 2, 1, 12, 2], [1, 4, 7, 1, 0]) == -4.0 / math.sqrt(72.0)


def test_kendall_input_validation():
    with pytest.raises(LengthMismatch):
        kendall_tau([1, 2, 3], [1, 2])
    with pytest.raises(DegenerateInput):
        kendall_tau([1], [1])
    with pytest.raises(DegenerateInput):
        kendall_tau([], [])
    with pytest.raises(DegenerateInput):
        kendall_tau([7, 7, 7], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        kendall_tau([1, 2, 3], [4, 4, 4])


def test_kendall_rejects_nan_and_ranks_inf():
    nan, inf = math.nan, math.inf
    with pytest.raises(DegenerateInput):
        kendall_tau([1.0, nan, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        kendall_tau([1.0, 2.0, 3.0], [3.0, 2.0, nan])
    assert kendall_tau([1.0, 2.0, inf], [-inf, 2.0, 3.0]) == 1.0


def test_kendall_matches_pair_count_oracle_exactly():
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 50)
        xs = [rng.randint(0, 8) for _ in range(n)]
        ys = [rng.randint(0, 8) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert kendall_tau(xs, ys) == oracles.kendall(xs, ys)
        checked += 1


# ---------------------------------------------------------------------------
# Stability tables


def test_summarize_groups_single_group():
    rep = summarize_groups([("s0", {"m": 1.0}), ("s0", {"m": 2.0}), ("s0", {"m": 3.0})])
    assert [r.label for r in rep.rows] == ["s0", "AGGR"]
    row = rep.rows[0]
    assert row.n_runs == 3
    assert row.means["m"] == 2.0
    assert row.stds["m"] == 1.0


def test_summarize_groups_pools_aggregate():
    rep = summarize_groups([
        ("s0", {"m": 1.0}), ("s0", {"m": 2.0}), ("s0", {"m": 3.0}),
        ("s1", {"m": 5.0}),
    ])
    by = {r.label: r for r in rep.rows}
    assert by["s1"].n_runs == 1 and by["s1"].stds["m"] == 0.0
    aggr = rep.rows[-1]
    assert aggr.label == "AGGR" and aggr.n_runs == 4
    assert aggr.means["m"] == pytest.approx(2.75)
    assert aggr.stds["m"] == pytest.approx(math.sqrt(8.75 / 3.0))


def test_summarize_groups_empty():
    with pytest.raises(DegenerateInput):
        summarize_groups([])


def _bd(wl, dens, cong):
    return ProxyBreakdown.combine(wl, dens, cong, ProxyWeights())


def test_stability_study_metrics_and_extras():
    runs = [("s0", _bd(1.0, 2.0, 3.0)), ("s1", _bd(2.0, 2.0, 4.0))]
    external = {"s0": {"area": 7.0, "skew": 1.0}, "s1": {"area": 9.0}}
    rep = stability_study(runs, external)
    # skew is missing for s1, so only area joins the metric list.
    assert rep.metrics == ["wirelength", "density", "congestion", "total", "area"]
    aggr = rep.rows[-1]
    assert aggr.means["area"] == 8.0
    assert aggr.means["total"] == pytest.approx((1.0 + 0.5 * 2.0 + 0.5 * 3.0
                                                 + 2.0 + 0.5 * 2.0 + 0.5 * 4.0) / 2)


def test_stability_report_serialization():
    runs = [("s0", _bd(1.0, 2.0, 3.0)), ("s0", _bd(1.5, 2.0, 3.0))]
    rep = stability_study(runs)
    csv_text = rep.to_csv()
    lines = csv_text.splitlines()
    assert lines[0].startswith("group,runs,wirelength_mean,wirelength_std")
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "s0" and cells[1] == "2"
    assert float(cells[2]) == 1.25
    text = rep.to_text()
    assert text.splitlines()[0].startswith("group")
    assert text.splitlines()[-1].startswith("AGGR")


def test_read_external_metrics(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("run,area,skew\ns0,1.5,x\ns1,2.5,0.25\ns2,,1.0\n")
    out = read_external_metrics(path)
    assert out["s0"] == {"area": 1.5}
    assert out["s1"] == {"area": 2.5, "skew": 0.25}
    assert out["s2"] == {"skew": 1.0}
    bad = tmp_path / "bad.csv"
    bad.write_text("name,area\ns0,1.5\n")
    with pytest.raises(DegenerateInput):
        read_external_metrics(bad)


def test_external_metrics_header_is_checked_without_rows(tmp_path):
    for text in ("label,area\n", ""):     # header only, and an empty file
        path = tmp_path / "ext.csv"
        path.write_text(text)
        with pytest.raises(DegenerateInput, match="'run' column"):
            read_external_metrics(path)
    path.write_text("run,area\n")
    assert read_external_metrics(path) == {}


# ---------------------------------------------------------------------------
# Weight sweeps


COMBOS = ((0.5, 0.5), (1.0, 0.5), (0.01, 0.01))


def test_weight_sweep_recombines_components():
    netlist, placement, grid = small_instance(12)
    ev = Evaluator(netlist, grid, CostConfig())
    rows = weight_sweep(ev, placement, COMBOS)
    wl, dens, cong = ev.components(placement)
    assert [(r.gamma, r.lam) for r in rows] == list(COMBOS)
    for r in rows:
        assert r.wirelength == wl and r.density == dens and r.congestion == cong
        assert r.total == wl + r.gamma * dens + r.lam * cong
        fresh = ev.breakdown(placement, ProxyWeights(r.gamma, r.lam))
        assert r.total == fresh.total


def test_weight_sweep_density_weight_delta():
    netlist, placement, grid = small_instance(13)
    ev = Evaluator(netlist, grid, CostConfig())
    rows = weight_sweep(ev, placement, COMBOS)
    _, dens, _ = ev.components(placement)
    assert rows[1].total - rows[0].total == pytest.approx(0.5 * dens, rel=1e-12)


def test_sweep_to_csv_round_trip():
    netlist, placement, grid = small_instance(14)
    ev = Evaluator(netlist, grid, CostConfig())
    rows = weight_sweep(ev, placement, COMBOS)
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "gamma,lambda,wirelength,density,congestion,total"
    assert len(lines) == 4
    for line, row in zip(lines[1:], rows):
        g, l, wl, dens, cong, total = (float(v) for v in line.split(","))
        assert (g, l) == (row.gamma, row.lam)
        assert total == row.total
