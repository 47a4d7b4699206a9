"""The benchmark's workloads: a closed loop of gridplace operations, timed
without tracing, checked afterwards, and summarised as metrics.

One run is a single process with a single client: each operation starts when
the previous one ends. In order, a run makes

  setups     parse the Bookshelf design, read the .pl, cluster the standard
             cells on the grid and build an Evaluator (repeated; median);
  rounds     at least Sizes.rounds, more while they fit in --seconds. A
             round is a chunk of the evaluation batch and one anneal; every
             other round starts with a force-directed pass of the clusters
             from their bucket centres. An evaluation is one full
             Evaluator.breakdown of a same-size macro shuffle of the
             bucket-centre placement, after one warm-up evaluation; an
             anneal is one in-process worker with a fixed step count;
  study      weight_sweep over the paper's weight pairs and kendall_tau
             between the proxy totals and the wirelengths of the batch.

The host's CPU speed drifts by up to ~1.6x over seconds to minutes, so each
timed metric reads the slow tail of samples spread over the whole run: the
90th percentile of the evaluations and of the FD iterations (timed with the
fd_place observer), and the slowest of the anneals.

Checks run after the timed part; an operation fails if it raises or fails a
check.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import gridplace as gp
import oracles
from designs import write_design
from gridplace.geometry import bbox_inside_canvas
from tracing import Tracer, children_of, instrument, per_call_overhead_s, self_times

ANNEAL_FD_ITERS = 10
PAPER_WEIGHTS = ((0.5, 0.5), (1.0, 0.5), (0.01, 0.01))
REL_TOL = 1e-9
PROBE_COUNT = 10


@dataclass(frozen=True)
class Sizes:
    grid: int = 32
    setup_reps: int = 3
    rounds: int = 4              # anneals; >= 2, so that the repeat checks determinism
    fd_iters: int = 30           # per pass; a pass in every other round
    eval_min: int = 100          # leaves 10 samples above the p90
    anneal_steps: int = 30


# workload -> (design, sizes). fanout's set-up and evaluations cost ~2x
# those of ibm01, so it takes fewer samples to stay within the run.
WORKLOADS = {
    "sa-ibm01": ("ibm01", Sizes()),
    "fanout": ("fanout", Sizes(fd_iters=15, eval_min=60, anneal_steps=25)),
}


def tiny_sizes(sizes: Sizes) -> Sizes:
    return replace(sizes, grid=8, setup_reps=2, rounds=2, fd_iters=5, eval_min=20,
                   anneal_steps=10)


class Ops:
    """Attempted and failed operations; failures keep their reason."""

    def __init__(self):
        self.attempted = 0
        self.errors: dict[int, str] = {}

    def run(self, kind: str, fn):
        """Call fn as one operation; returns (op id, result or None)."""
        op = self.attempted
        self.attempted += 1
        try:
            return op, fn()
        except Exception as exc:   # one failed operation must not end the run
            traceback.print_exc()
            self.errors[op] = f"{kind}: {exc!r}"
            return op, None

    def check(self, op: int, ok: bool, what: str) -> None:
        if not ok and op not in self.errors:
            self.errors[op] = f"check failed: {what}"

    @property
    def failed(self) -> int:
        return len(self.errors)


@dataclass
class Design:
    netlist: object
    initial: dict
    grid: object
    cnl: object
    evaluator: object


def machine_record() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "platform": platform.platform(),
    }


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _closed_loop(min_count: int, budget_s: float, fn) -> None:
    """fn(i) for i = 0, 1, ...: min_count calls, then more while another call
    of the mean duration so far still ends within budget_s."""
    t0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t0
        if i >= min_count and (i == 0 or elapsed * (i + 1) / i > budget_s):
            return
        fn(i)
        i += 1


def setup(aux: Path, sizes: Sizes, tr: Tracer) -> Design:
    netlist = tr.call("bookshelf.parse_bookshelf", gp.parse_bookshelf, aux)
    pl_path = gp.parse_aux(aux)["pl"]
    initial = tr.call("bookshelf.read_placement", gp.read_placement, pl_path, netlist)
    grid = gp.build_grid(netlist.canvas, sizes.grid, sizes.grid)
    cnl = tr.call("clustering.cluster_by_grid", gp.cluster_by_grid, netlist, initial, grid)
    return Design(netlist, initial, grid, cnl, gp.Evaluator(cnl.netlist, grid))


def net_cell_counts(netlist, placement, grid) -> dict:
    """Nets by number of distinct pin cells, as the congestion router sees them."""
    hist = {}
    for net in netlist.nets:
        cells = set()
        for pin in net.pins:
            pose = placement[pin.node]
            dx, dy = gp.transform_pin_offset(pin.dx, pin.dy, pose.orient)
            cells.add(grid.cell_of_point(pose.x + dx, pose.y + dy))
        hist[len(cells)] = hist.get(len(cells), 0) + 1
    k4 = {k: n for k, n in hist.items() if k >= 4}
    return {
        "nets_k2": hist.get(2, 0),
        "nets_k3": hist.get(3, 0),
        "nets_k4plus": sum(k4.values()),
        # One source-anchored L per sink cell for 2-cell and >3-cell nets.
        "l_routes": hist.get(2, 0) + sum((k - 1) * n for k, n in k4.items()),
    }


def p90(samples) -> float:
    s = sorted(samples)
    return s[math.ceil(0.9 * len(s)) - 1]


def clusters_on_canvas(netlist, placement, grid) -> bool:
    return all(bbox_inside_canvas(gp.node_bbox(n, placement[n.name]), netlist.canvas, grid.tol)
               for n in netlist.nodes if n.kind is gp.NodeKind.CLUSTER)


def fd_overlap_counts(netlist, placement, params):
    """Overlapping ordered node pairs that each FD iteration's dense check finds."""
    nodes = netlist.nodes
    cv = netlist.canvas
    hw = np.array([n.width / 2.0 for n in nodes])
    hh = np.array([n.height / 2.0 for n in nodes])
    mover = np.array([n.kind is gp.NodeKind.CLUSTER and n.movable for n in nodes])
    x = np.array([cv.width / 2.0 if m else placement[n.name].x for n, m in zip(nodes, mover)])
    y = np.array([cv.height / 2.0 if m else placement[n.name].y for n, m in zip(nodes, mover)])
    self_overlaps = int(((hw > 0) & (hh > 0)).sum())
    counts = []
    before = [(x, y)]   # centres at the start of the next iteration

    def observer(info):
        bx, by = before[0]
        ox = (hw[:, None] + hw[None, :]) - np.abs(bx[None, :] - bx[:, None])
        oy = (hh[:, None] + hh[None, :]) - np.abs(by[None, :] - by[:, None])
        counts.append(int(((ox > 0.0) & (oy > 0.0)).sum()) - self_overlaps)
        before[0] = (info.x, info.y)

    result = gp.fd_place(netlist, placement, params, observer=observer)
    return counts, result


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, out_dir: Path,
        tiny: bool = False) -> dict:
    """Run one workload; returns the result record (metrics and checks).

    tiny=True runs a reduced design with reduced minimum counts."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    kind, sizes = WORKLOADS[workload]
    if tiny:
        sizes = tiny_sizes(sizes)
    run_id = f"{workload}-s{seed}-t{int(traced)}-{os.getpid()}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
              "run_id": run_id, "machine": machine_record(),
              "loadavg_before": os.getloadavg()}
    tr = Tracer(run_id, enabled=traced)
    ops = Ops()
    design_dir = out_dir / "designs" / f"{kind}-{seed}{'-tiny' if tiny else ''}"
    aux = write_design(kind, design_dir, seed, tiny=tiny)

    fd_params = gp.FDParams(num_iters=sizes.fd_iters, seed=seed)
    sa_config = gp.SAConfig(seed=seed, max_steps=sizes.anneal_steps, probe_count=PROBE_COUNT,
                            fd_params=gp.FDParams(num_iters=ANNEAL_FD_ITERS, seed=seed))

    with instrument(tr) if traced else nullcontext():
        t_timed = time.perf_counter()

        setup_s = []
        design = None

        def one_setup():
            t0 = time.perf_counter()
            d = setup(aux, sizes, tr)
            setup_s.append(time.perf_counter() - t0)
            return d

        for _ in range(sizes.setup_reps):
            design = ops.run("setup", one_setup)[1] or design
        if design is None:
            raise RuntimeError("every setup failed")
        d = design
        base = d.cnl.seed_placement(d.initial)

        fd_runs = []   # (op, seconds, placement)
        fd_iter_s = []

        def fd_pass():
            stamps = []

            def go():
                t0 = time.perf_counter()
                pl = tr.call("fd.fd_place", gp.fd_place, d.cnl.netlist, base, fd_params,
                             observer=lambda info: stamps.append(time.perf_counter()),
                             attrs={"iters": fd_params.num_iters})
                return time.perf_counter() - t0, pl
            op, res = ops.run("fd", go)
            if res is not None:
                fd_runs.append((op,) + res)
                # Iteration i ends at stamps[i]. Iteration 0 is left out: its
                # time from the call also holds the pass set-up.
                fd_iter_s.extend(b - a for a, b in zip(stamps, stamps[1:]))

        warm_op, warm = ops.run("evaluation", lambda: d.evaluator.breakdown(base))
        evals = []     # (op, seconds, breakdown)
        checked = {}

        def one_eval():
            i = len(evals)

            def go():
                pl = tr.call("annealer.shuffle_same_size", gp.shuffle_same_size,
                             d.cnl.netlist, base, seed * 100_003 + i)
                t0 = time.perf_counter()
                b = d.evaluator.breakdown(pl)
                dt = time.perf_counter() - t0
                if i == 0:
                    checked["placement"] = pl
                return dt, b
            op, res = ops.run("evaluation", go)
            if res is not None:
                evals.append((op,) + res)

        anneals = []   # (op, seconds, SAResult, span id when traced)

        def audit(step, placement):
            tr.mark("annealer.accept", step=step)

        def one_anneal():
            span_id = len(tr.spans)

            def go():
                t0 = time.perf_counter()
                r = tr.call("annealer.anneal", gp.anneal, d.cnl, d.initial, sa_config,
                            accept_audit=audit if traced else None)
                return time.perf_counter() - t0, r
            op, res = ops.run("anneal", go)
            if res is not None:
                anneals.append((op,) + res + (span_id,))

        # Each kind of operation recurs in every round, so that its samples
        # see most of the run, not one contiguous window of it.
        chunk = -(-sizes.eval_min // sizes.rounds)

        def round_(r):
            if r % 2 == 0:
                fd_pass()
            for _ in range(chunk):
                one_eval()
            one_anneal()

        _closed_loop(sizes.rounds, seconds - (time.perf_counter() - t_timed), round_)

        def study():
            rows = tr.call("stats.weight_sweep", gp.weight_sweep, d.evaluator, base, PAPER_WEIGHTS)
            tau = tr.call("stats.kendall_tau", gp.kendall_tau,
                          [b.total for _, _, b in evals], [b.wirelength for _, _, b in evals])
            return rows, tau

        study_op, study_res = ops.run("evaluation", study)
        timed_wall = time.perf_counter() - t_timed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks, outside the timed regions ---------------------------------
    nl = d.cnl.netlist
    for op, _, pl in fd_runs:
        ops.check(op, clusters_on_canvas(nl, pl, d.grid), "FD result leaves a cluster off the canvas")
        ops.check(op, pl == fd_runs[0][2], "FD result differs across repeats of one seed")
    if warm is not None:
        ops.check(warm_op, math.isfinite(warm.total), "non-finite evaluation total")
    for op, _, b in evals:
        ops.check(op, math.isfinite(b.total), "non-finite evaluation total")
    counts = {}
    if evals and "placement" in checked:
        first_op, _, first = evals[0]
        pl = checked["placement"]
        ref = oracles.components(nl, pl, d.grid)
        got = (first.wirelength, first.density, first.congestion)
        ops.check(first_op, all(_rel_close(a, b) for a, b in zip(got, ref)),
                  f"evaluator {got} differs from the oracle {ref}")
        counts = net_cell_counts(nl, pl, d.grid)
        if kind == "fanout":
            ops.check(first_op, counts["nets_k3"] == 0,
                      f"fanout placement has {counts['nets_k3']} three-cell nets")
    if study_res is not None:
        rows, tau = study_res
        for row in rows:
            fresh = d.evaluator.breakdown(base, gp.ProxyWeights(row.gamma, row.lam))
            same = (row.wirelength, row.density, row.congestion, row.total) == (
                fresh.wirelength, fresh.density, fresh.congestion, fresh.total)
            ops.check(study_op, same, f"weight_sweep row {row} differs from a fresh breakdown")
        ops.check(study_op, -1.0 <= tau <= 1.0, f"kendall tau {tau} outside [-1, 1]")
    for op, _, r, _ in anneals:
        best = r.best_cost
        fresh = d.evaluator.breakdown(r.best_placement, sa_config.weights)
        ops.check(op, gp.placement_is_legal(nl, r.best_placement, d.grid), "SA best placement is illegal")
        ops.check(op, all(_rel_close(getattr(best, f), getattr(fresh, f))
                          for f in ("wirelength", "density", "congestion", "total")),
                  f"SA best cost {best} differs from a fresh breakdown {fresh}")
        ops.check(op, math.isfinite(best.total) and best.total <= r.init_cost.total,
                  f"SA best total {best.total} above the init total {r.init_cost.total}")
        first = anneals[0][2]
        ops.check(op, (best.total, r.best_placement, r.cost_trace)
                  == (first.best_cost.total, first.best_placement, first.cost_trace),
                  "SA result differs across repeats of one seed")
    # -- traced-run extras: FD pair counts from an untimed pass ----------
    fd_counts = []
    if traced:
        op, res = ops.run("fd", lambda: fd_overlap_counts(nl, base, fd_params))
        if res is not None:
            fd_counts, pl = res
            ops.check(op, bool(fd_runs) and pl == fd_runs[0][2],
                      "untimed FD pass differs from the timed one")
    record["loadavg_after"] = os.getloadavg()

    if not (setup_s and fd_iter_s and evals and anneals):
        raise RuntimeError("a phase produced no successful operation or no timing sample: "
                           + "; ".join(ops.errors.values()))
    eval_s = [dt for _, dt, _ in evals]
    first_sa = anneals[0][2]
    # On a shared host the CPU speed can drop by a third for seconds to
    # minutes at a time, and a run's median then flips between the two
    # levels. The slow tail of samples spread over the run is steadier.
    metrics = {
        "setup_s": statistics.median(setup_s),
        "eval_ms_p90": p90(eval_s) * 1e3,
        "fd_iter_ms_p90": p90(fd_iter_s) * 1e3,
        "sa_steps_per_s": min(r.steps_run / dt for _, dt, r, _ in anneals),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"evaluation": eval_s, "fd_iteration": fd_iter_s}
    record.update({
        "attempted": ops.attempted,
        "failed": ops.failed,
        "error_rate": ops.failed / ops.attempted,
        "errors": list(ops.errors.values()),
        "counts": {"setups": len(setup_s), "fd_passes": len(fd_runs), "anneals": len(anneals),
                   "sa_steps": first_sa.steps_run,
                   **{f"{k}_samples": len(v) for k, v in samples.items()},
                   **{f"{k}_samples_above_p90": len(v) - math.ceil(0.9 * len(v))
                      for k, v in samples.items()}},
        "informational": {
            **{f"{k}_ms_p50": statistics.median(v) * 1e3 for k, v in samples.items()},
            "fd_pass_s_p50": statistics.median(dt for _, dt, _ in fd_runs),
            "sa_best_total": first_sa.best_cost.total},
        "samples_s": {"setup": setup_s, "fd": [dt for _, dt, _ in fd_runs],
                      "anneal": [dt for _, dt, _, _ in anneals], **samples},
        "kendall_tau": study_res[1] if study_res else None,
        "timed_wall_s": timed_wall,
        "end_to_end": metrics,
    })
    if traced:
        record["per_layer"] = layer_metrics(tr, d, anneals, counts, fd_counts, timed_wall)
        tr.write(out_dir / f"spans-{run_id}.jsonl")
    return record


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of a traced run


def layer_metrics(tr: Tracer, d: Design, anneals, counts: dict, fd_counts: list,
                  timed_wall: float) -> dict:
    spans = tr.spans
    selfs = self_times(spans)
    kids = children_of(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total_ms(name):
        return sum(s.duration for s in by_name.get(name, ())) * 1e3

    def mean_ms(name):
        n = len(by_name.get(name, ()))
        return total_ms(name) / n if n else 0.0

    n_evals = len(by_name.get("cost.net_congestion_from_arrays", ()))
    breakdowns = by_name.get("cost.breakdown", ())
    fd_spans = by_name.get("fd.fd_place", ())
    top_fd = [s for s in fd_spans if s.parent is None]
    fd_iters = sum(s.attrs.get("iters", 0) for s in fd_spans)
    n_nodes = len(d.cnl.netlist.nodes)
    overlap = statistics.mean(fd_counts) if fd_counts else 0.0

    m = {
        "bookshelf.parse_bookshelf_ms": mean_ms("bookshelf.parse_bookshelf"),
        "bookshelf.read_placement_ms": mean_ms("bookshelf.read_placement"),
        "bookshelf.pins": sum(len(n.pins) for n in d.netlist.nets),
        "clustering.cluster_by_grid_ms": mean_ms("clustering.cluster_by_grid"),
        "clustering.clusters": len(d.cnl.members),
        "clustering.pins": sum(len(n.pins) for n in d.cnl.netlist.nets),
        "cost.evaluator_init_ms": mean_ms("cost.evaluator_init"),
        "cost.node_arrays_ms": mean_ms("cost.node_arrays"),
        "cost.node_arrays_calls": len(by_name.get("cost.node_arrays", ())),
        "cost.net_congestion_ms": mean_ms("cost.net_congestion_from_arrays"),
        "cost.wirelength_ms": mean_ms("cost.wirelength_from_arrays"),
        "cost.density_ms": mean_ms("cost.density_grid_from_arrays"),
        "cost.macro_congestion_ms": mean_ms("cost.macro_congestion_from_arrays"),
        "cost.smooth_pool_ms": ((total_ms("cost.smooth_grid") + total_ms("cost.top_fraction_mean"))
                                / n_evals if n_evals else 0.0),
        "cost.breakdown_ms": mean_ms("cost.breakdown"),
        "cost.breakdown_self_ms": (sum(selfs[s.id] for s in breakdowns) * 1e3 / len(breakdowns)
                                   if breakdowns else 0.0),
        "cost.breakdown_calls": len(breakdowns),
        **{f"cost.{k}": v for k, v in counts.items()},
        "fd.fd_place_ms": sum(s.duration for s in top_fd) * 1e3 / len(top_fd) if top_fd else 0.0,
        "fd.fd_place_calls": len(fd_spans),
        "fd.iter_ms": total_ms("fd.fd_place") / fd_iters if fd_iters else 0.0,
        "fd.star_pairs": sum(len(n.pins) - 1 for n in d.cnl.netlist.nets),
        "fd.pair_checks_per_iter": n_nodes * n_nodes,
        "fd.overlap_pairs_per_iter": overlap,
        "fd.useful_pair_ratio": overlap / (n_nodes * n_nodes),
        "annealer.shuffle_same_size_ms": mean_ms("annealer.shuffle_same_size"),
        "stats.weight_sweep_ms": mean_ms("stats.weight_sweep"),
        "stats.kendall_tau_ms": mean_ms("stats.kendall_tau"),
    }
    m.update(anneal_metrics(spans, kids, selfs, anneals))
    m["trace.overhead_pct"] = 100.0 * len(spans) * per_call_overhead_s() / timed_wall
    return m


ANNEAL_CHILD = {"annealer.init": "init", "fd.fd_place": "fd"}


def anneal_metrics(spans, kids: dict, selfs: dict, anneals) -> dict:
    """Per anneal call: time split into children and self, and what it did."""
    rows = []
    for _, _, result, span_id in anneals:
        span = spans[span_id]
        parts = {"init": 0.0, "fd": 0.0, "eval": 0.0}
        children = sorted(kids.get(span.id, ()), key=lambda s: s.start)
        for c in children:
            if c.name != "annealer.accept":
                parts[ANNEAL_CHILD.get(c.name, "eval")] += c.duration
        marks = [c for c in children if c.name == "annealer.accept"]
        loop_start = next((c.start for c in marks if c.attrs.get("step") == -1), span.start)
        in_loop = [c for c in children if c.start >= loop_start]
        # After the loop starts, every fd pass is followed by one re-score;
        # every other breakdown scores a legal proposal.
        legal = (sum(c.name == "cost.breakdown" for c in in_loop)
                 - sum(c.name == "fd.fd_place" for c in in_loop))
        accepts = sum(c.attrs.get("step", -1) >= 0 for c in marks)
        steps = result.steps_run
        row = {
            "annealer.anneal_ms": span.duration * 1e3,
            "annealer.init_ms": parts["init"] * 1e3,
            "annealer.fd_ms": parts["fd"] * 1e3,
            "annealer.eval_ms": parts["eval"] * 1e3,
            "annealer.self_ms": selfs[span.id] * 1e3,
            "annealer.steps": steps,
            "annealer.evals_per_step": legal / steps if steps else 0.0,
            "annealer.accepts": accepts,
            "annealer.accept_ratio": accepts / legal if legal else 0.0,
            "annealer.fd_passes": sum(c.name == "fd.fd_place" for c in children),
            "annealer.best_total": result.best_cost.total,
        }
        row.update({f"annealer.proposals_{a}": n for a, n in result.actions_taken.items()})
        rows.append(row)
    if not rows:
        return {}
    return {k: statistics.mean(r[k] for r in rows) for k in rows[0]}
