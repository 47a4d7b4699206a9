"""Command-line interface."""

import argparse
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

import gridplace.cli
from gridplace.annealer import SAConfig
from gridplace.cost import CostConfig, ProxyWeights
from gridplace.fd import FDParams
from gridplace.bookshelf import read_placement
from gridplace.cli import main
from gridplace.netlist import read_netlist
from gridplace.stats import kendall_tau


NATIVE = """\
canvas 60 60
node m0 macro 12 12 1
node m1 macro 10 10 1
node blk macro 10 10 0
node p0 port 0 0 0
node s0 stdcell 2 2 1
node s1 stdcell 3 3 1
net n0 1
pin n0 m0 0 0 s
pin n0 s0 0 0
net n1 2
pin n1 s0 0 0 s
pin n1 s1 0 0
pin n1 p0 0 0
net n2 1
pin n2 m1 0 0 s
pin n2 blk 0 0
"""

PL = """\
UCLA pl 1.0

m0 4 4 : N
m1 25 5 : N
blk 45 45 : N /FIXED
p0 0 30 : N /FIXED
s0 9 9 : N
s1 43.5 43.5 : N
"""


@pytest.fixture
def design(tmp_path):
    net = tmp_path / "design.txt"
    net.write_text(NATIVE)
    pl = tmp_path / "design.pl"
    pl.write_text(PL)
    return net, pl, tmp_path


def _kv(capsys):
    out = {}
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out, captured.err


def _manifest(path) -> dict:
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_parse_summary(design, capsys):
    net, pl, tmp = design
    assert main(["parse", "--netlist", str(net), "--initial", str(pl)]) == 0
    kv, _ = _kv(capsys)
    assert kv["nodes"] == "6"
    assert kv["macros"] == "3"
    assert kv["stdcells"] == "2"
    assert kv["ports"] == "1"
    assert kv["nets"] == "3"
    assert kv["canvas_w"] == "60.0"
    assert kv["placed"] == "6"


def test_parse_native_out(design, capsys):
    net, _, tmp = design
    out = tmp / "copy.txt"
    assert main(["parse", "--netlist", str(net), "--out", str(out)]) == 0
    again = read_netlist(out)
    assert len(again.nodes) == 6 and len(again.nets) == 3


def test_missing_netlist_is_diagnosed(design, capsys):
    assert main(["parse", "--netlist", "/nonexistent/x.txt"]) == 2
    _, err = _kv(capsys)
    assert err.startswith("error:")


def test_missing_config_is_diagnosed(design, capsys):
    net, _, _ = design
    assert main(["parse", "--netlist", str(net), "--config", "/nonexistent.cfg"]) == 2
    _, err = _kv(capsys)
    assert err.startswith("error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "gridplace" in capsys.readouterr().out


def test_evaluate_breakdown(design, capsys):
    net, pl, tmp = design
    assert main([
        "evaluate", "--netlist", str(net), "--initial", str(pl),
        "--grid-cols", "3", "--grid-rows", "3", "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    wl, dens = float(kv["wirelength"]), float(kv["density"])
    cong, total = float(kv["congestion"]), float(kv["total"])
    assert total == pytest.approx(wl + 0.5 * dens + 0.5 * cong, rel=1e-12)
    manifest = (tmp / "evaluate.manifest").read_text()
    assert "command = evaluate" in manifest
    assert "grid_cols = 3" in manifest


def test_evaluate_on_a_fine_grid(design, capsys):
    """A 100,000-column grid scores like any other: one result, no traceback."""
    net, pl, tmp = design
    assert main([
        "evaluate", "--netlist", str(net), "--initial", str(pl),
        "--grid-cols", "100000", "--grid-rows", "3", "--out-dir", str(tmp),
    ]) == 0
    kv, err = _kv(capsys)
    assert float(kv["total"]) > 0.0 and "Traceback" not in err


def test_evaluate_vacuous_override(design, capsys):
    net, pl, tmp = design
    assert main([
        "evaluate", "--netlist", str(net), "--initial", str(pl),
        "--vacuous", "lower-left", "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert float(kv["total"]) > 0.0
    assert main([
        "evaluate", "--netlist", str(net), "--initial", str(pl),
        "--vacuous", "point:30,30", "--out-dir", str(tmp),
    ]) == 0


def test_config_file_defaults_and_override(design, tmp_path, capsys):
    net, pl, tmp = design
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\ngamma = 0.25\ngrid-cols = 4\n")
    assert main([
        "evaluate", "--netlist", str(net), "--initial", str(pl),
        "--config", str(cfg), "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert kv["gamma"] == "0.25"
    assert "grid_cols = 4" in (tmp / "evaluate.manifest").read_text()
    # Explicit flags beat config values.
    assert main([
        "evaluate", "--netlist", str(net), "--initial", str(pl),
        "--config", str(cfg), "--gamma", "0.75", "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert kv["gamma"] == "0.75"


def test_config_equals_form_and_flag_names(design, tmp_path, capsys):
    net, pl, tmp = design
    cfg = tmp_path / "run.cfg"
    # Keys are flag names: --lambda and the sa-only --steps / --budget-seconds.
    cfg.write_text("gamma = 0.25\nlambda = 0.125\nsteps = 3\nbudget-seconds = 50\n")
    assert main([
        "evaluate", "--netlist", str(net), "--initial", str(pl),
        f"--config={cfg}", "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert kv["gamma"] == "0.25" and kv["lambda"] == "0.125"
    # A key sets only the commands that declare it: evaluate has no --steps.
    assert "max_steps" not in _manifest(tmp / "evaluate.manifest")
    assert main([
        "sa", "--netlist", str(net), "--initial", str(pl), "--grid-cols", "3",
        "--grid-rows", "3", "--t-init", "0.1", "--fd-iters", "2", "--sequential",
        "--config", str(cfg), "--out-dir", str(tmp),
    ]) == 0
    manifest = (tmp / "sa.manifest").read_text()
    assert "max_steps = 3" in manifest and "budget = 50" in manifest


@pytest.mark.parametrize("before", [True, False])
def test_shared_flags_hold_before_and_after_the_subcommand(design, tmp_path, capsys, before):
    net, pl, tmp = design
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.125\n")
    shared = ["--gamma", "0.3", "--config", str(cfg)]
    own = ["--netlist", str(net), "--initial", str(pl), "--out-dir", str(tmp)]
    assert main(shared + ["evaluate"] + own if before else ["evaluate"] + own + shared) == 0
    kv, _ = _kv(capsys)
    assert kv["gamma"] == "0.3" and kv["lambda"] == "0.125"
    manifest = _manifest(tmp / "evaluate.manifest")
    assert manifest["gamma"] == "0.3" and manifest["config"] == str(cfg)
    # A config value loses to the flag on either side; the flag after the
    # subcommand wins over the one before it.
    cfg.write_text("gamma = 0.125\n")
    assert main(shared + ["evaluate"] + own if before else ["evaluate"] + own + shared) == 0
    assert _kv(capsys)[0]["gamma"] == "0.3"
    assert main(["--gamma", "0.7", "evaluate"] + own + ["--gamma", "0.3"]) == 0
    assert _kv(capsys)[0]["gamma"] == "0.3"


def _one_line_error(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


def test_unknown_config_key_is_diagnosed(design, tmp_path, capsys):
    net, pl, tmp = design
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.25\ngrid_colz = 8\n")
    for flag in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert main(["evaluate", "--netlist", str(net), "--initial", str(pl),
                     *flag, "--out-dir", str(tmp)]) == 2
        assert "grid_colz" in _one_line_error(capsys)


# Command-line flags of the config cases, none of them a flag that a case sets.
_CONFIG_RUNS = {"evaluate": [], "sa": ["--steps", "2", "--fd-iters", "2", "--t-init", "0.1"]}


@pytest.mark.parametrize("line, commands, flag", [
    ("grid_cols = 1.5", ("evaluate", "sa"), "--grid-cols"),
    ("smooth_radius = 1.5", ("evaluate", "sa"), "--smooth-radius"),
    ("workers = 1.5", ("sa",), "--workers"),
    ("cluster = bogus", ("evaluate", "sa"), "--cluster"),
    ("init = bogus", ("sa",), "--init"),
    ("gamma = abc", ("evaluate", "sa"), "--gamma"),
    ("fd = maybe", ("evaluate",), "--fd"),
    ("sequential = 1", ("sa",), "--sequential"),
    ("verbose = yes", ("evaluate", "sa"), "--verbose"),
])
def test_bad_config_values_fail_the_commands_that_have_the_flag(design, tmp_path, monkeypatch, capsys,
                                                                line, commands, flag):
    """A config value goes through its flag's type and choices, a flag that
    takes no value reads true or false, and a bad value fails every command
    that has the flag before the design loads. A command without the flag
    runs."""
    net, pl, tmp = design
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a bad value\n{line}\n")
    for command, flags in _CONFIG_RUNS.items():
        argv = [command, "--netlist", str(net), "--initial", str(pl), *flags,
                "--config", str(cfg), "--out-dir", str(tmp)]
        if command in commands:
            with monkeypatch.context() as m:
                m.setattr(gridplace.cli, "_load_design", _no_anneal)
                assert main(argv) == 2
            error = _one_line_error(capsys)
            assert flag in error and f"{cfg}:2" in error and "Traceback" not in error
        else:
            assert main(argv) == 0
            assert float(_kv(capsys)[0]["total"]) > 0.0


def test_config_values_take_their_flags_types(design, tmp_path, capsys):
    net, pl, tmp = design
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fd = TRUE\nfd_iters = 2\ngamma = 1\nverbose = false\n")
    assert main(["evaluate", "--netlist", str(net), "--initial", str(pl),
                 "--config", str(cfg), "--out-dir", str(tmp)]) == 0
    manifest = _manifest(tmp / "evaluate.manifest")
    assert (manifest["fd"], manifest["fd_iters"], manifest["gamma"]) == ("True", "2", "1.0")
    assert _kv(capsys)[0]["gamma"] == "1.0"


def test_bad_action_weights_are_diagnosed(design, capsys):
    net, pl, tmp = design
    for bad in ("bogus", "swap=x", "teleport=1", "swap=0", "swap=1,,move=1", "swap=inf",
                "swap=1e308,move=1e308", "swap=nan,move=1"):
        assert main([
            "sa", "--netlist", str(net), "--initial", str(pl), "--steps", "2",
            "--sequential", "--action-weights", bad, "--out-dir", str(tmp),
        ]) == 2
        assert "--action-weights" in _one_line_error(capsys)


def test_missing_kendall_csv_is_diagnosed(capsys):
    assert main(["kendall", "--csv", "/nonexistent.csv", "--x", "a", "--y", "b"]) == 2
    assert "/nonexistent.csv" in _one_line_error(capsys)


def test_missing_external_metrics_is_diagnosed(design, capsys):
    # Checked before the design loads, so no anneal runs first.
    net, pl, tmp = design
    assert main([
        "stability", "--netlist", str(net), "--initial", str(pl),
        "--seed-pairs", "0;1", "--workers", "1", "--steps", "30", "--sequential",
        "--external-metrics", "/nonexistent.csv", "--out-dir", str(tmp),
    ]) == 2
    assert "/nonexistent.csv" in _one_line_error(capsys)
    assert not (tmp / "stability.csv").exists()


def _no_anneal(*args, **kwargs):
    raise AssertionError("an anneal ran before the input error was reported")


def test_external_metrics_without_run_column_fails_before_anneal(design, tmp_path, monkeypatch, capsys):
    net, pl, tmp = design
    monkeypatch.setattr(gridplace.cli, "run_parallel", _no_anneal)
    ext = tmp_path / "ext.csv"
    ext.write_text("label,area\n0,1.5\n")
    assert main([
        "stability", "--netlist", str(net), "--initial", str(pl),
        "--seed-pairs", "0;1", "--workers", "1", "--steps", "30", "--sequential",
        "--external-metrics", str(ext), "--out-dir", str(tmp),
    ]) == 2
    assert "'run' column" in _one_line_error(capsys)


def test_unusable_out_dir_fails_before_anneal(design, monkeypatch, capsys):
    net, pl, tmp = design
    monkeypatch.setattr(gridplace.cli, "run_parallel", _no_anneal)
    for out_dir in (pl / "sub", pl):   # under a file, and a file itself
        assert main([
            "sa", "--netlist", str(net), "--initial", str(pl), "--steps", "30",
            "--sequential", "--out-dir", str(out_dir),
        ]) == 2
        assert "output directory" in _one_line_error(capsys)


def test_unusable_out_file_fails_before_the_design_loads(design, monkeypatch, capsys):
    net, pl, tmp = design
    monkeypatch.setattr(gridplace.cli, "run_parallel", _no_anneal)
    assert main([
        "sa", "--netlist", str(net), "--initial", str(pl), "--steps", "30",
        "--sequential", "--out", "/nonexistent_dir/best.pl", "--out-dir", str(tmp),
    ]) == 2
    assert "/nonexistent_dir/best.pl" in _one_line_error(capsys)
    assert not (tmp / "trace_w0.csv").exists()
    monkeypatch.setattr(gridplace.cli, "_load_design", _no_anneal)
    for command, flag in (("parse", "--out"), ("parse", "--plot"), ("cluster", "--out"),
                          ("cluster", "--placement-out"), ("fd", "--out"),
                          ("shuffle", "--out"), ("plot", "--out")):
        target = str(pl / "out.txt")     # under a file
        assert main([command, "--netlist", str(net), "--initial", str(pl), flag, target,
                     "--out-dir", str(tmp)]) == 2, (command, flag)
        assert target in _one_line_error(capsys)


def test_non_numeric_kendall_csv_is_diagnosed(tmp_path, capsys):
    csv_path = tmp_path / "ranks.csv"
    for body in ("x,y\n1,2\nfoo,3\n", "x,y\n1,2\n3\n"):
        csv_path.write_text(body)
        assert main(["kendall", "--csv", str(csv_path), "--x", "x", "--y", "y"]) == 2
        assert "ranks.csv:3" in _one_line_error(capsys)


def test_nan_kendall_csv_is_diagnosed(tmp_path, capsys):
    csv_path = tmp_path / "ranks.csv"
    csv_path.write_text("x,y\n1,2\nnan,3\n4,1\n")
    assert main(["kendall", "--csv", str(csv_path), "--x", "x", "--y", "y"]) == 2
    assert "NaN" in _one_line_error(capsys)


def test_bad_combos_are_diagnosed(design, capsys):
    net, pl, tmp = design
    for bad in ("1;x,2", "0.5", "0.5,0.5;1,x", "1,2,3", ""):
        assert main(["sweep", "--netlist", str(net), "--initial", str(pl),
                     "--combos", bad, "--out-dir", str(tmp)]) == 2
        assert "--combos" in _one_line_error(capsys)


def test_bad_seed_pairs_are_diagnosed(design, capsys):
    net, pl, tmp = design
    for bad in ("0,a", "0,1;", "0;1.5"):
        assert main(["stability", "--netlist", str(net), "--initial", str(pl),
                     "--seed-pairs", bad, "--steps", "2", "--sequential",
                     "--out-dir", str(tmp)]) == 2
        assert "--seed-pairs" in _one_line_error(capsys)


@pytest.mark.parametrize("command, flags, flag", [
    ("sa", ["--workers", "0"], "--workers"),
    ("sa", ["--workers", "-2"], "--workers"),
    ("sa", ["--seeds", "1,x"], "--seeds"),
    ("sa", ["--seeds", "1,,2"], "--seeds"),
    ("sa", ["--budget-seconds", "0"], "--budget-seconds"),
    ("sa", ["--budget-seconds", "-1.5"], "--budget-seconds"),
    ("sa", ["--budget-seconds", "nan"], "--budget-seconds"),
    ("sa", ["--t-init", "warm"], "--t-init"),
    ("stability", ["--workers", "0"], "--workers"),
    ("stability", ["--budget-seconds", "0"], "--budget-seconds"),
    ("stability", ["--t-init", "warm"], "--t-init"),
    ("sa", ["--t-init", "nan"], "t_init"),
    ("sa", ["--t-init", "inf"], "t_init"),
    ("sa", ["--t-init", "-1"], "t_init"),
    ("stability", ["--t-init", "nan"], "t_init"),
    ("stability", ["--t-init", "-1"], "t_init"),
    ("sa", ["--seed", "-5"], "--seed"),
    ("sa", ["--seeds", "0,-1"], "--seeds"),
    ("sa", ["--ka", "nan"], "k_attract"),
    ("sa", ["--kr", "inf"], "k_repel"),
    ("sa", ["--io-factor", "-1"], "io_factor"),
    ("stability", ["--seed-pairs", "0,1;2,-3"], "--seed-pairs"),
])
def test_bad_run_flags_fail_before_the_design_loads(design, monkeypatch, capsys, command, flags, flag):
    net, pl, tmp = design
    monkeypatch.setattr(gridplace.cli, "_load_design", _no_anneal)
    assert main([command, "--netlist", str(net), "--initial", str(pl), "--steps", "2",
                 "--sequential", *flags, "--out-dir", str(tmp)]) == 2
    assert flag in _one_line_error(capsys)


@pytest.mark.parametrize("argv, what", [
    (["fd", "--ka", "nan"], "k_attract"),
    (["fd", "--kr", "inf"], "k_repel"),
    (["fd", "--io-factor", "nan"], "io_factor"),
    (["fd", "--iters", "0"], "num_iters"),
    (["fd", "--seed", "-1"], "--seed"),
    (["evaluate", "--fd", "--seed", "-1"], "--seed"),
    (["evaluate", "--fd", "--fd-iters", "0"], "num_iters"),
    (["shuffle", "--seed", "-1"], "--seed"),
    (["fd", "--gamma", "nan"], "gamma"),
    (["evaluate", "--fd", "--lambda", "-1"], "lam"),
    (["sweep", "--smooth-radius", "-1"], "smooth_radius"),
    (["shuffle", "--macro-v-usage", "nan"], "macro_v_usage"),
])
def test_bad_fd_and_seed_flags_fail_before_the_design_loads(design, monkeypatch, capsys, argv, what):
    net, pl, tmp = design
    monkeypatch.setattr(gridplace.cli, "_load_design", _no_anneal)
    assert main([*argv, "--netlist", str(net), "--initial", str(pl), "--out-dir", str(tmp)]) == 2
    assert what in _one_line_error(capsys)
    assert not (tmp / "fd.pl").exists()


@pytest.mark.parametrize("flags, what", [
    (["--h-cap", "nan"], "capacities"),
    (["--v-cap", "inf"], "capacities"),
    (["--macro-h-usage", "nan"], "macro_h_usage"),
    (["--macro-v-usage", "-1"], "macro_v_usage"),
    (["--smooth-radius", "-1"], "smooth_radius"),
])
def test_cost_settings_that_make_nan_costs_are_diagnosed(design, capsys, flags, what):
    net, pl, tmp = design
    assert main(["evaluate", "--netlist", str(net), "--initial", str(pl), *flags,
                 "--out-dir", str(tmp)]) == 2
    assert what in _one_line_error(capsys)


def test_stability_config_keeps_the_dataclass_defaults():
    args = gridplace.cli.build_parser().parse_args([
        "stability", "--netlist", "x.txt", "--seed", "4", "--steps", "7", "--init", "greedy",
        "--t-init", "0.3", "--fd-iters", "9", "--gamma", "0.25", "--lambda", "0.75",
        "--smooth-radius", "1", "--macro-h-usage", "0.5", "--macro-v-usage", "0.6"])
    assert gridplace.cli._sa_config(args) == SAConfig(
        seed=4, max_steps=7, init="greedy", t_init=0.3, fd_params=FDParams(num_iters=9, seed=4),
        weights=ProxyWeights(0.25, 0.75), cost_config=CostConfig(1, 0.5, 0.6))


def test_sa_config_takes_the_annealing_flags():
    args = gridplace.cli.build_parser().parse_args([
        "sa", "--netlist", "x.txt", "--seed", "4", "--cooling", "0.9", "--epoch-len", "5",
        "--fd-every", "3", "--ka", "2", "--kr", "3", "--io-factor", "4", "--action-weights", "swap=1"])
    config = gridplace.cli._sa_command_config(args)
    assert config == replace(gridplace.cli._sa_config(args), cooling_ratio=0.9, epoch_len=5,
                             fd_interval_multiplier=3, action_weights={"swap": 1.0},
                             fd_params=FDParams(k_attract=2.0, k_repel=3.0, io_factor=4.0, seed=4))


def test_bad_vacuous_point_is_diagnosed(design, capsys):
    # The value is checked before the design loads: a missing netlist is
    # not what a bad spelling reports.
    net, pl, tmp = design
    for netlist in (net, tmp / "missing.aux"):
        for bad in ("point:1", "point:a,b", "point:1,2,3", "point:", "bogus", "point", "lower-left:1"):
            assert main(["evaluate", "--netlist", str(netlist), "--initial", str(pl),
                         "--vacuous", bad, "--out-dir", str(tmp)]) == 2
            assert "--vacuous" in _one_line_error(capsys)
    # Only the canvas bound waits for the design.
    assert main(["evaluate", "--netlist", str(net), "--initial", str(pl),
                 "--vacuous", "point:1e9,0", "--out-dir", str(tmp)]) == 2
    assert "outside canvas" in _one_line_error(capsys)


def test_cluster_outputs(design, capsys):
    net, pl, tmp = design
    cout = tmp / "clustered.txt"
    pout = tmp / "clustered.pl"
    assert main([
        "cluster", "--netlist", str(net), "--initial", str(pl),
        "--grid-cols", "3", "--grid-rows", "3",
        "--out", str(cout), "--placement-out", str(pout), "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert kv["clusters"] == "2"
    assert kv["clustered_cells"] == "2"
    clustered = read_netlist(cout)
    poses = read_placement(pout, clustered)
    assert {"grp_0_0", "grp_2_2"} <= set(poses)
    assert (tmp / "cluster.manifest").exists()


@pytest.mark.parametrize("mode", ["grid", "none"])
def test_clustered_design_reads_back(design, capsys, mode):
    net, pl, tmp = design
    flags = ["--grid-cols", "3", "--grid-rows", "3", "--cluster", mode, "--out-dir", str(tmp)]
    cout, pout = tmp / "clustered.txt", tmp / "clustered.pl"
    assert main(["cluster", "--netlist", str(net), "--initial", str(pl),
                 "--out", str(cout), "--placement-out", str(pout), *flags]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--netlist", str(net), "--initial", str(pl), *flags]) == 0
    direct, _ = _kv(capsys)
    assert main(["evaluate", "--netlist", str(cout), "--initial", str(pout), *flags]) == 0
    back, _ = _kv(capsys)
    assert float(back["total"]) == pytest.approx(float(direct["total"]), rel=1e-9, abs=0)


def test_fd_command(design, capsys):
    net, pl, tmp = design
    assert main([
        "fd", "--netlist", str(net), "--initial", str(pl),
        "--iters", "5", "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert (tmp / "fd.pl").exists()
    assert float(kv["total"]) > 0.0
    assert main([
        "fd", "--netlist", str(net), "--initial", str(pl),
        "--iters", "5", "--repulsive-only", "--out-dir", str(tmp),
    ]) == 0
    assert "ka = 0.0" in (tmp / "fd.manifest").read_text()


def test_sa_writes_outputs(design, capsys):
    net, pl, tmp = design
    assert main([
        "sa", "--netlist", str(net), "--initial", str(pl),
        "--grid-cols", "3", "--grid-rows", "3",
        "--steps", "40", "--t-init", "0.2", "--fd-iters", "10",
        "--workers", "2", "--seeds", "0,1", "--sequential",
        "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert kv["workers"] == "2"
    assert float(kv["total"]) <= float(kv["init_total"]) + 1e-12
    assert (tmp / "trace_w0.csv").exists() and (tmp / "trace_w1.csv").exists()
    manifest = (tmp / "sa.manifest").read_text()
    assert "worker_seeds = 0,1" in manifest
    netlist = read_netlist(net)
    best = read_placement(tmp / "best.pl", netlist)
    assert {"m0", "m1", "blk", "p0"} <= set(best)


def test_sa_budget_stops(design, capsys):
    net, pl, tmp = design
    assert main([
        "sa", "--netlist", str(net), "--initial", str(pl),
        "--grid-cols", "3", "--grid-rows", "3",
        "--steps", "100000", "--budget-seconds", "0.3", "--t-init", "0.1",
        "--fd-iters", "5", "--sequential", "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert (tmp / "best.pl").exists()
    assert float(kv["elapsed_s"]) < 30.0


def test_sweep_csv(design, capsys):
    net, pl, tmp = design
    assert main([
        "sweep", "--netlist", str(net), "--initial", str(pl),
        "--combos", "0.5,0.5;1,0.5", "--out-dir", str(tmp),
    ]) == 0
    lines = (tmp / "sweep.csv").read_text().splitlines()
    assert lines[0] == "gamma,lambda,wirelength,density,congestion,total"
    assert len(lines) == 3
    r1 = [float(v) for v in lines[1].split(",")]
    r2 = [float(v) for v in lines[2].split(",")]
    # Same geometry, higher density weight: totals differ by 0.5 * density.
    assert r2[5] - r1[5] == pytest.approx(0.5 * r1[3], rel=1e-12)


def test_shuffle_command(design, capsys):
    net, pl, tmp = design
    assert main([
        "shuffle", "--netlist", str(net), "--initial", str(pl),
        "--seed", "3", "--out-dir", str(tmp),
    ]) == 0
    kv, _ = _kv(capsys)
    assert "before_total" in kv and "after_total" in kv
    assert (tmp / "shuffled.pl").exists()
    assert (tmp / "shuffle.manifest").exists()


def test_stability_report(design, tmp_path, capsys):
    net, pl, tmp = design
    ext = tmp_path / "ext.csv"
    ext.write_text("run,area\n0,1.5\n1,2.5\n")
    assert main([
        "stability", "--netlist", str(net), "--initial", str(pl),
        "--grid-cols", "3", "--grid-rows", "3",
        "--seed-pairs", "0;1", "--workers", "1", "--steps", "30",
        "--t-init", "0.2", "--fd-iters", "5", "--sequential",
        "--external-metrics", str(ext), "--out-dir", str(tmp),
    ]) == 0
    captured = capsys.readouterr()
    assert "AGGR" in captured.out
    csv_lines = (tmp / "stability.csv").read_text().splitlines()
    assert csv_lines[0].startswith("group,runs")
    assert "area_mean" in csv_lines[0]
    assert [l.split(",")[0] for l in csv_lines[1:]] == ["0", "1", "AGGR"]


def test_kendall_command(design, tmp_path, capsys):
    csv_path = tmp_path / "ranks.csv"
    xs = [3.0, 1.0, 4.0, 1.0, 5.0]
    ys = [2.0, 7.0, 1.0, 8.0, 2.0]
    csv_path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(xs, ys)) + "\n")
    assert main(["kendall", "--csv", str(csv_path), "--x", "x", "--y", "y"]) == 0
    kv, _ = _kv(capsys)
    assert kv["n"] == "5"
    assert float(kv["tau"]) == kendall_tau(xs, ys)
    assert main(["kendall", "--csv", str(csv_path), "--x", "x", "--y", "nope"]) == 2


def test_plot_command(design, capsys):
    net, pl, tmp = design
    assert main([
        "plot", "--netlist", str(net), "--initial", str(pl),
        "--labels", "--out-dir", str(tmp),
    ]) == 0
    svg = (tmp / "placement.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert "</svg>" in svg


def test_plot_labels_are_escaped(tmp_path, capsys):
    """Node names may hold XML markup characters; the labels read back."""
    names = {"m0": "a&b<c", "m1": "d]]>e"}
    net, pl = tmp_path / "odd.txt", tmp_path / "odd.pl"
    native, placement = NATIVE, PL
    for old, new in names.items():
        native, placement = native.replace(old, new), placement.replace(old, new)
    net.write_text(native)
    pl.write_text(placement)
    assert main(["plot", "--netlist", str(net), "--initial", str(pl), "--labels",
                 "--out-dir", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "placement.svg").getroot()
    labels = {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}
    assert set(names.values()) <= labels


# Manifest keys of the flags whose destination has another name.
_RENAMED = {"lam": "lambda", "steps": "max_steps"}


@pytest.mark.parametrize("command, flags, expected", [
    ("cluster", [], {}),
    ("fd", ["--iters", "3", "--repulsive-only"], {"ka": "0.0", "repulsive_only": "True"}),
    ("evaluate", ["--fd", "--fd-iters", "3"], {"fd_iters": "3", "fd": "True"}),
    ("sa", ["--action-weights", "swap=1", "--epoch-len", "3", "--kr", "0.5", "--workers", "2",
            "--seeds", "4,5", "--steps", "5", "--budget-seconds", "60", "--t-init", "0.1",
            "--fd-iters", "2", "--sequential", "--lambda", "0.25"],
     {"action_weights": "swap=1", "epoch_len": "3", "kr": "0.5", "workers": "2",
      "workers_finished": "2", "seeds": "4,5", "worker_seeds": "4,5", "max_steps": "5",
      "budget": "60.0", "lambda": "0.25", "ka": "1.0"}),
    ("stability", ["--seed-pairs", "0;1", "--workers", "1", "--steps", "5", "--t-init", "0.1",
                   "--fd-iters", "2", "--sequential"],
     {"seed_pairs": "0;1", "workers": "1", "max_steps": "5", "budget": ""}),
    ("sweep", ["--combos", "0.5,0.5"], {"combos": "0.5,0.5", "placement": ""}),
    ("shuffle", ["--seed", "3"], {"seed": "3"}),
    ("plot", ["--labels"], {"labels": "True"}),
])
def test_manifest_records_every_flag(design, capsys, command, flags, expected):
    net, pl, tmp = design
    assert main([command, "--netlist", str(net), "--initial", str(pl), "--grid-cols", "3",
                 "--grid-rows", "3", *flags, "--out-dir", str(tmp)]) == 0
    kv, _ = _kv(capsys)
    manifest = _manifest(tmp / f"{command}.manifest")
    subparsers = next(a for a in gridplace.cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in subparsers.choices[command]._actions} - {"help", "verbose"}
    assert {_RENAMED.get(d, d) for d in dests} <= set(manifest)
    assert "verbose" not in manifest
    assert manifest["command"] == command and manifest["initial"] == str(pl)
    assert manifest["grid_cols"] == "3" and manifest["h_cap"] == ""
    assert {k: manifest[k] for k in expected} == expected
    # Each printed result is recorded, and --out at its resolved path.
    assert {k: manifest[k] for k in kv} == kv
