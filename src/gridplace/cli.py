"""Command-line front end.

Subcommands: parse, cluster, fd, evaluate, sa, stability, sweep, shuffle,
kendall, plot. Shared flags may appear before or after the subcommand; one
given in both places takes the value after it. An optional config file
(--config, "key = value" lines, keys matching flag names with underscores)
provides defaults that explicit flags override. Every command that writes
into --out-dir also writes <out-dir>/<command>.manifest with each of its
flags and its results (see `_report`).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import logging
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .annealer import (
    SAConfig,
    _action_probs,
    anneal,
    run_parallel,
    shuffle_same_size,
    write_trace_csv,
)
from .bookshelf import parse_aux, parse_bookshelf, read_placement, write_placement
from .clustering import VACUOUS_MODES, apply_vacuous_placement, cluster_by_grid, no_clustering
from .cost import CostConfig, Evaluator, ProxyWeights
from .errors import GridPlaceError, IoFailure, MissingFile
from .fd import FDParams, fd_place
from .geometry import build_grid
from .netlist import KIND_CODE, NodeKind, PlacementState, read_netlist, write_netlist, write_text
from .stats import (
    kendall_tau,
    read_external_metrics,
    stability_study,
    sweep_to_csv,
    weight_sweep,
)
from .svgplot import write_svg

log = logging.getLogger("gridplace")


# ---------------------------------------------------------------------------
# Argument plumbing


def _common_flags() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("shared")
    g.add_argument("--config", help="key = value config file; flags override it")
    g.add_argument("--grid-cols", type=int, default=32)
    g.add_argument("--grid-rows", type=int, default=32)
    g.add_argument("--h-cap", type=float, default=None,
                   help="horizontal routing capacity per cell boundary (default 10 * cell height)")
    g.add_argument("--v-cap", type=float, default=None,
                   help="vertical routing capacity per cell boundary (default 10 * cell width)")
    g.add_argument("--gamma", type=float, default=0.5, help="density weight")
    g.add_argument("--lambda", dest="lam", type=float, default=0.5, help="congestion weight")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--smooth-radius", type=int, default=2)
    g.add_argument("--macro-h-usage", type=float, default=1.0)
    g.add_argument("--macro-v-usage", type=float, default=1.0)
    g.add_argument("--cluster", choices=["grid", "none"], default="grid",
                   help="standard-cell clustering mode")
    g.add_argument("--vacuous", default=None,
                   help="override initial placement: lower-left, upper-right, or point:X,Y")
    g.add_argument("--out-dir", default=".", help="directory for output files")
    g.add_argument("-v", "--verbose", action="store_true")
    return p


def _netlist_flags(p):
    p.add_argument("--netlist", required=True,
                   help=".aux (Bookshelf) or native .txt netlist")
    p.add_argument("--initial", default=None,
                   help=".pl with initial/fixed locations (default: the one named by the .aux)")


def _placement_flags(p):
    """The flags of the commands that score one placement."""
    p.add_argument("--placement", default=None, help=".pl overriding node locations")
    p.add_argument("--fd", action="store_true", help="place clusters by FD before evaluating")
    p.add_argument("--fd-iters", type=int, default=100)


def _force_flags(p):
    p.add_argument("--ka", type=float, default=1.0, help="attractive force factor")
    p.add_argument("--kr", type=float, default=1.0, help="repulsive force factor")
    p.add_argument("--io-factor", type=float, default=1.0)


def _anneal_flags(p, workers: int, steps: int):
    """The run flags that `sa` and `stability` share, with their defaults."""
    p.add_argument("--workers", type=int, default=workers)
    p.add_argument("--steps", type=int, default=steps, help="max steps per worker")
    p.add_argument("--budget-seconds", dest="budget", type=float, default=None,
                   help="wall-clock seconds for each seed group's workers (sa has one group)")
    p.add_argument("--init", choices=["spiral", "greedy"], default="spiral")
    p.add_argument("--t-init", default="auto", help="initial temperature or 'auto'")
    p.add_argument("--fd-iters", type=int, default=100)
    p.add_argument("--sequential", action="store_true", help="run workers in-process")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridplace", parents=[_common_flags()])
    # The subcommands' shared flags set only what they are given, so that
    # one given before the subcommand holds.
    common = _common_flags()
    for action in common._actions:
        action.default = argparse.SUPPRESS
    parser.add_argument("--version", action="version", version=f"gridplace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse a netlist and print a summary")
    _netlist_flags(p)
    p.add_argument("--out", default=None, help="write the netlist in native format")
    p.add_argument("--plot", default=None, help="write an SVG of the initial placement")

    p = sub.add_parser("cluster", parents=[common], help="cluster standard cells by grid bucket")
    _netlist_flags(p)
    p.add_argument("--out", default=None, help="write the clustered netlist (native format)")
    p.add_argument("--placement-out", default=None, help="write the clustered placement (.pl)")

    p = sub.add_parser("fd", parents=[common], help="force-directed cluster placement")
    _netlist_flags(p)
    p.add_argument("--iters", type=int, default=100)
    _force_flags(p)
    p.add_argument("--repulsive-only", action="store_true", help="run with the attractive factor zeroed")
    p.add_argument("--out", default=None, help="output .pl (default <out-dir>/fd.pl)")

    p = sub.add_parser("evaluate", parents=[common], help="print the proxy cost breakdown")
    _netlist_flags(p)
    _placement_flags(p)

    p = sub.add_parser("sa", parents=[common], help="simulated-annealing macro placement")
    _netlist_flags(p)
    _anneal_flags(p, workers=1, steps=10000)
    p.add_argument("--seeds", default=None, help="comma list; block-split over workers (default: --seed)")
    p.add_argument("--cooling", type=float, default=0.95)
    p.add_argument("--epoch-len", type=int, default=None)
    p.add_argument("--fd-every", type=int, default=None,
                   help="FD cadence multiplier (default: cycle 2..5 keyed by seed)")
    _force_flags(p)
    p.add_argument("--action-weights", default=None, help="e.g. swap=0.2,shift=0.3,move=0.5")
    p.add_argument("--out", default=None, help="best placement .pl (default <out-dir>/best.pl)")

    p = sub.add_parser("stability", parents=[common], help="seed stability study over SA runs")
    _netlist_flags(p)
    p.add_argument("--seed-pairs", default="0,1", help="semicolon list of comma pairs, e.g. 0,1;2,3")
    _anneal_flags(p, workers=2, steps=2000)
    p.add_argument("--external-metrics", default=None,
                   help="CSV with a 'run' column joined onto the report rows")

    p = sub.add_parser("sweep", parents=[common], help="recombine the proxy total for weight pairs")
    _netlist_flags(p)
    _placement_flags(p)
    p.add_argument("--combos", default="0.5,0.5;1,0.5;0.01,0.01",
                   help="semicolon list of gamma,lambda pairs")

    p = sub.add_parser("shuffle", parents=[common], help="permute same-size macros and re-evaluate")
    _netlist_flags(p)
    _placement_flags(p)
    p.add_argument("--out", default=None, help="shuffled placement .pl")

    p = sub.add_parser("kendall", parents=[common], help="Kendall tau-b between two CSV columns")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True, help="column name for the first ranking")
    p.add_argument("--y", required=True, help="column name for the second ranking")

    p = sub.add_parser("plot", parents=[common], help="render a placement to SVG")
    _netlist_flags(p)
    p.add_argument("--placement", default=None)
    p.add_argument("--out", default=None, help="output SVG (default <out-dir>/placement.svg)")
    p.add_argument("--labels", action="store_true")

    return parser


def _read_config_file(path, known: dict) -> dict:
    """key = value lines; '#' starts a comment. `known` maps each accepted
    key to its argparse destination; any other key is an error. Returns the
    value text and the file:line of each destination."""
    p = Path(path)
    if not p.exists():
        raise MissingFile(str(p))
    out = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GridPlaceError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in known:
            raise GridPlaceError(f"{path}:{lineno}: unknown config key {key!r}")
        out[known[key]] = val, f"{path}:{lineno}"
    return out


def _config_value(action, text: str, where: str):
    """A config value through its flag's type and choices, true or false for
    a flag that takes no value; a bad one as the error `main` raises."""
    try:
        if action.nargs == 0:
            if text.lower() not in ("true", "false"):
                raise ValueError("expected true or false")
            return text.lower() == "true"
        value = text if action.type is None else action.type(text)
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"expected one of {', '.join(action.choices)}")
        return value
    except ValueError as exc:
        return GridPlaceError(f"{where}: bad {action.option_strings[-1]} {text!r} ({exc})")


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _load_design(args):
    """(netlist, initial placement) from --netlist, --initial and --vacuous."""
    path = Path(args.netlist)
    is_aux = path.suffix.lower() == ".aux"
    netlist = parse_bookshelf(path) if is_aux else read_netlist(path)
    pl_path = args.initial
    if pl_path is None and is_aux:
        pl_path = parse_aux(path).get("pl")
    base = {} if pl_path is None else read_placement(pl_path, netlist)
    if args.vacuous:
        # Overrides movable poses only; fixed nodes keep their file locations.
        base = apply_vacuous_placement(netlist, *_vacuous(args.vacuous), base)
    return netlist, base


def _vacuous(text: str) -> tuple[str, tuple[float, float] | None]:
    """The mode and point of a --vacuous value, checked up to the canvas
    bound; a one-line error for a bad one."""
    def parse(t):
        mode, colon, point = t.partition(":")
        if mode != "point" and (colon or mode not in VACUOUS_MODES):
            raise ValueError("unknown mode")
        return mode, _numbers(point, float, 2) if mode == "point" else None
    return _parse_flag("--vacuous", text, parse, "lower-left, upper-right or point:X,Y")


def _grid(args, netlist):
    return build_grid(netlist.canvas, args.grid_cols, args.grid_rows, args.h_cap, args.v_cap)


def _clustered_design(args):
    """(initial placement, grid, clustered netlist) of the design."""
    netlist, initial = _load_design(args)
    grid = _grid(args, netlist)
    cluster = no_clustering if args.cluster == "none" else cluster_by_grid
    return initial, grid, cluster(netlist, initial, grid)


def _cost_config(args) -> CostConfig:
    return CostConfig(args.smooth_radius, args.macro_h_usage, args.macro_v_usage)


def _weights(args) -> ProxyWeights:
    return ProxyWeights(args.gamma, args.lam)


def _scored_design(args):
    """(clustered netlist, placement, evaluator) of the design, for the
    commands that score one placement of every node.

    Fixed nodes and macros come from the initial placement, a --placement file
    overrides anything it names (including clusters), and the clusters made
    here start at their bucket centers or, with --fd, an FD pass. The FD and
    cost settings are checked before the design loads.
    """
    params = FDParams(num_iters=args.fd_iters, seed=args.seed) if args.fd else None
    cost_config = _cost_config(args)
    initial, grid, cnl = _clustered_design(args)
    placement = cnl.seed_placement(initial)
    if args.placement:
        placement = PlacementState.of(cnl.netlist.arrays,
                                      {**placement, **read_placement(args.placement, cnl.netlist)})
    if params is not None:
        placement = fd_place(cnl.netlist, placement, params)
    return cnl, placement, Evaluator(cnl.netlist, grid, cost_config)


def _print_kv(pairs):
    for k, v in pairs:
        print(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}")


# The manifest keeps the older key names of these flag destinations.
_MANIFEST_KEYS = {"lam": "lambda", "steps": "max_steps"}


def _report(args, results=(), **manifest) -> None:
    """Print the (key, value) `results` as key=value lines and write
    <out-dir>/<command>.manifest of "key = value" lines: the command, version
    and timestamp; every flag but --verbose, an unset one with an empty value;
    then each result that no flag names, and the rest of `manifest`. A
    `manifest` entry named like a flag gives its resolved value (a default
    --out path, the seeds of --seeds, the effective --ka)."""
    _print_kv(results)
    entries = {"command": args.command, "version": __version__,
               "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    flags = {k: manifest.get(k, v) for k, v in vars(args).items() if k != "verbose"}
    for key, value in [*flags.items(), *results, *manifest.items()]:
        entries.setdefault(_MANIFEST_KEYS.get(key, key), "" if value is None else value)
    write_text(Path(args.out_dir) / f"{args.command}.manifest",
               "".join(f"{k} = {v}\n" for k, v in entries.items()))


def _out_path(args, default_name: str) -> Path:
    return Path(args.out) if args.out else Path(args.out_dir) / default_name


# ---------------------------------------------------------------------------
# Commands


def cmd_parse(args) -> int:
    netlist, initial = _load_design(args)
    kinds = netlist.arrays.kind.tolist()
    _print_kv([
        ("nodes", len(kinds)),
        ("macros", kinds.count(KIND_CODE[NodeKind.MACRO])),
        ("stdcells", kinds.count(KIND_CODE[NodeKind.STDCELL])),
        ("ports", kinds.count(KIND_CODE[NodeKind.PORT])),
        ("nets", len(netlist.arrays.net_names)),
        ("pins", len(netlist.arrays.pin_owner)),
        ("canvas_w", float(netlist.canvas.width)),
        ("canvas_h", float(netlist.canvas.height)),
        ("placed", len(initial)),
    ])
    if args.out:
        write_netlist(netlist, args.out)
    if args.plot:
        write_svg(netlist, initial, args.plot, grid=_grid(args, netlist))
    return 0


def cmd_cluster(args) -> int:
    initial, grid, cnl = _clustered_design(args)
    if args.out:
        write_netlist(cnl.netlist, args.out)
    if args.placement_out:
        write_placement(cnl.netlist, cnl.seed_placement(initial), args.placement_out)
    _report(args, [
        ("clusters", int((cnl.cell_of >= 0).sum())),
        ("clustered_cells", int((cnl.cluster_of >= 0).sum())),
        ("nets", len(cnl.netlist.arrays.net_names)),
        ("nodes", len(cnl.netlist.arrays.names)),
    ])
    return 0


def cmd_fd(args) -> int:
    ka = 0.0 if args.repulsive_only else args.ka
    params = FDParams(num_iters=args.iters, k_attract=ka, k_repel=args.kr,
                      io_factor=args.io_factor, seed=args.seed)
    weights, cost_config = _weights(args), _cost_config(args)
    initial, grid, cnl = _clustered_design(args)
    placed = fd_place(cnl.netlist, cnl.seed_placement(initial), params)
    out = _out_path(args, "fd.pl")
    write_placement(cnl.netlist, placed, out)
    b = Evaluator(cnl.netlist, grid, cost_config).breakdown(placed, weights)
    _report(args, [*asdict(b).items(), ("out", str(out))], ka=ka, out=out)
    return 0


def cmd_evaluate(args) -> int:
    weights = _weights(args)
    _, placement, ev = _scored_design(args)
    b = ev.breakdown(placement, weights)
    _report(args, [*asdict(b).items(), ("gamma", args.gamma), ("lambda", args.lam)])
    return 0


def _parse_flag(flag: str, text: str, parse, expected: str):
    """parse(text), with a ValueError turned into a one-line user error."""
    try:
        return parse(text)
    except ValueError as exc:
        raise GridPlaceError(f"bad {flag} {text!r} ({exc}); expected {expected}") from exc


def _seed(text: str) -> int:
    """int(text), with a ValueError for a negative seed."""
    seed = int(text)
    if seed < 0:
        raise ValueError("negative seed")
    return seed


def _numbers(text: str, kind, count: int | None = None) -> tuple:
    """'0.5,1' -> (0.5, 1.0) for kind=float; ValueError on a bad item or count."""
    values = tuple(kind(v) for v in text.split(","))
    if count is not None and len(values) != count:
        raise ValueError(f"{len(values)} value(s) where {count} are needed")
    return values


def _action_weights(text: str) -> dict:
    """'swap=0.2,move=0.8' -> {'swap': 0.2, 'move': 0.8}, validated."""
    weights = {}
    for part in text.split(","):
        name, value = part.split("=")
        weights[name.strip()] = float(value)
    _action_probs(weights)
    return weights


def _sa_config(args) -> SAConfig:
    """The annealing config of the flags that `sa` and `stability` share; the
    defaults of SAConfig and FDParams stand for the others."""
    t_init = None
    if str(args.t_init) != "auto":
        t_init = _parse_flag("--t-init", args.t_init, float, "a number or 'auto'")
    return SAConfig(seed=args.seed, max_steps=args.steps, init=args.init, t_init=t_init,
                    fd_params=FDParams(num_iters=args.fd_iters, seed=args.seed),
                    weights=_weights(args), cost_config=_cost_config(args))


def _sa_command_config(args) -> SAConfig:
    """`_sa_config` with the cooling, epoch, action weight, FD cadence and
    force flags that only `sa` has."""
    config = _sa_config(args)
    action_weights = None
    if args.action_weights:
        action_weights = _parse_flag("--action-weights", args.action_weights, _action_weights,
                                     "action=weight pairs such as swap=0.2,move=0.8")
    return replace(config, cooling_ratio=args.cooling, epoch_len=args.epoch_len,
                   action_weights=action_weights, fd_interval_multiplier=args.fd_every,
                   fd_params=replace(config.fd_params, k_attract=args.ka, k_repel=args.kr,
                                     io_factor=args.io_factor))


def _check_run_flags(args) -> None:
    """Reject a worker count below one and a budget that is not positive."""
    if args.workers < 1:
        raise GridPlaceError(f"bad --workers {args.workers}; expected at least 1")
    if args.budget is not None and not args.budget > 0:
        raise GridPlaceError(f"bad --budget-seconds {args.budget}; expected a positive number")


def cmd_sa(args) -> int:
    # Flags are checked before the design loads, so that a bad one fails first.
    _check_run_flags(args)
    seeds = _parse_flag("--seeds", str(args.seeds or args.seed), lambda t: _numbers(t, _seed),
                        "comma-separated integer seeds such as 0,1")
    config = _sa_command_config(args)
    initial, grid, cnl = _clustered_design(args)
    t0 = time.monotonic()
    result = run_parallel(cnl, initial, config, args.workers, seeds,
                          wall_clock_budget=args.budget,
                          parallel=not args.sequential)
    elapsed = time.monotonic() - t0
    best = result.best
    out = _out_path(args, "best.pl")
    write_placement(cnl.netlist, best.best_placement, out)
    for i, worker in enumerate(result.workers):
        write_trace_csv(worker, Path(args.out_dir) / f"trace_w{i}.csv")
    # The printed workers line counts the workers that finished; the manifest
    # keeps --workers under that name and the finished count apart.
    _report(args, [
        ("workers", len(result.workers)),
        ("best_worker", result.best_index),
        ("init_total", best.init_cost.total),
        *asdict(best.best_cost).items(),
        ("elapsed_s", round(elapsed, 3)),
        ("out", str(out)),
    ], seeds=",".join(str(s) for s in seeds), out=out,
        workers_finished=len(result.workers),
        worker_seeds=",".join(str(c.seed) for c in result.configs),
        worker_steps=",".join(str(w.steps_run) for w in result.workers),
        worker_fd_multipliers=",".join(str(w.fd_interval_multiplier) for w in result.workers))
    return 0


def cmd_stability(args) -> int:
    _check_run_flags(args)
    pairs = _parse_flag("--seed-pairs", args.seed_pairs,
                        lambda t: [_numbers(part, _seed) for part in t.split(";")],
                        "semicolon-separated groups of integer seeds such as 0,1;2,3")
    # Parsed before the design loads, so that a bad file fails before any anneal.
    external = None
    if args.external_metrics:
        if not Path(args.external_metrics).is_file():
            raise MissingFile(args.external_metrics)
        external = read_external_metrics(args.external_metrics)
    config = _sa_config(args)
    initial, grid, cnl = _clustered_design(args)
    runs = []
    for seeds in pairs:
        label = "-".join(str(s) for s in seeds)
        result = run_parallel(cnl, initial, replace(config, seed=seeds[0]),
                              args.workers, list(seeds),
                              wall_clock_budget=args.budget,
                              parallel=not args.sequential)
        runs.append((label, result.best.best_cost))
    report = stability_study(runs, external)
    print(report.to_text(), end="")
    write_text(Path(args.out_dir) / "stability.csv", report.to_csv())
    _report(args)
    return 0


def cmd_sweep(args) -> int:
    combos = _parse_flag("--combos", args.combos,
                         lambda t: [_numbers(part, float, 2) for part in t.split(";")],
                         "gamma,lambda pairs such as 0.5,0.5;1,0.5")
    _, placement, ev = _scored_design(args)
    rows = weight_sweep(ev, placement, combos)
    print("gamma    lambda   wirelength     density        congestion     total")
    for r in rows:
        print(f"{r.gamma:<8g} {r.lam:<8g} {r.wirelength:<14.6f} {r.density:<14.6f} "
              f"{r.congestion:<14.6f} {r.total:.6f}")
    write_text(Path(args.out_dir) / "sweep.csv", sweep_to_csv(rows))
    _report(args)
    return 0


def cmd_shuffle(args) -> int:
    weights = _weights(args)
    cnl, placement, ev = _scored_design(args)
    before = ev.breakdown(placement, weights)
    shuffled = shuffle_same_size(cnl.netlist, placement, args.seed)
    after = ev.breakdown(shuffled, weights)
    out = _out_path(args, "shuffled.pl")
    write_placement(cnl.netlist, shuffled, out)
    _report(args, [
        ("before_total", before.total), ("after_total", after.total),
        ("before_wirelength", before.wirelength), ("after_wirelength", after.wirelength),
        ("before_density", before.density), ("after_density", after.density),
        ("before_congestion", before.congestion), ("after_congestion", after.congestion),
        ("out", str(out)),
    ], out=out)
    return 0


def cmd_kendall(args) -> int:
    if not Path(args.csv).is_file():
        raise MissingFile(args.csv)
    xs = []
    ys = []
    with open(args.csv, newline="") as fh:
        rows = csv.DictReader(fh)
        for rec in rows:
            if args.x not in rec or args.y not in rec:
                raise GridPlaceError(f"CSV lacks column {args.x!r} or {args.y!r}")
            try:
                xs.append(float(rec[args.x]))
                ys.append(float(rec[args.y]))
            except (TypeError, ValueError) as exc:   # TypeError: a short row
                raise GridPlaceError(f"{args.csv}:{rows.line_num}: no number in column "
                                     f"{args.x!r} or {args.y!r}") from exc
    tau = kendall_tau(xs, ys)
    _print_kv([("n", len(xs)), ("tau", tau)])
    return 0


def cmd_plot(args) -> int:
    netlist, initial = _load_design(args)
    grid = _grid(args, netlist)
    placement = dict(initial)
    if args.placement:
        placement.update(read_placement(args.placement, netlist))
    out = _out_path(args, "placement.svg")
    write_svg(netlist, placement, out, grid=grid, labels=args.labels)
    _report(args, [("out", str(out))], out=out)
    return 0


# Commands that write into --out-dir. It is made before the design loads, so
# that an unusable directory fails before any work is done.
WRITES_OUT_DIR = {"cluster", "fd", "evaluate", "sa", "stability", "sweep", "shuffle", "plot"}
# Explicit output file options; each one's directory is checked up front too.
OUTPUT_FILES = ("out", "placement_out", "plot")

COMMANDS = {
    "parse": cmd_parse,
    "cluster": cmd_cluster,
    "fd": cmd_fd,
    "evaluate": cmd_evaluate,
    "sa": cmd_sa,
    "stability": cmd_stability,
    "sweep": cmd_sweep,
    "shuffle": cmd_shuffle,
    "kendall": cmd_kendall,
    "plot": cmd_plot,
}


def _config_keys(parsers) -> dict:
    """Config key -> argparse destination: every long flag name (dashes as
    underscores) and every destination name of the given parsers."""
    keys = {}
    for p in parsers:
        for action in p._actions:
            if action.dest in ("help", "version", "config", "command"):
                continue
            keys[action.dest] = action.dest
            for opt in action.option_strings:
                if opt.startswith("--"):
                    keys[opt[2:].replace("-", "_")] = action.dest
    return keys


def _apply_config_file(parser: argparse.ArgumentParser, argv) -> None:
    """Load --config FILE (or --config=FILE) as defaults that explicit flags
    override, each read by its flag on the top-level parser or, if it is no
    shared flag, on the subcommand parsers that declare it."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = [parser] + [p for a in subs for p in a.choices.values()]
    defaults = _read_config_file(path, _config_keys(parsers))
    shared = {action.dest for action in parser._actions}
    for p in parsers:
        p.set_defaults(**{a.dest: _config_value(a, *defaults[a.dest]) for a in p._actions
                          if a.dest in defaults and (p is parser or a.dest not in shared)})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # Config file defaults lose to explicit flags: load them before parsing.
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        for value in vars(args).values():
            if isinstance(value, GridPlaceError):   # a bad config value of this command's flags
                raise value
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        _parse_flag("--seed", str(args.seed), _seed, "an integer >= 0")
        if getattr(args, "vacuous", None):
            _vacuous(args.vacuous)
        if args.command in WRITES_OUT_DIR:
            try:
                Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise IoFailure(f"cannot create output directory {args.out_dir}: {exc}") from exc
        for name in OUTPUT_FILES:
            target = getattr(args, name, None)
            if target and not Path(target).parent.is_dir():
                raise IoFailure(f"cannot write {target}: {Path(target).parent} is not a directory")
        return COMMANDS[args.command](args)
    except GridPlaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
