"""Simulated annealing over macro locations on the placement grid.

State: every movable macro sits at some cell center with one of four
orientations. Proposals are swap (two macros trade cells), shift (one macro to
a 4-adjacent cell), mirror (flip one macro's orientation about an axis), move
(one macro to a uniform random cell), and shuffle (random permutation of four
macros' cells). Illegal proposals are resampled up to 10 times, then the step
becomes a no-op. Acceptance is Metropolis with a geometric cooling schedule.

Soft clusters do not take part in proposals; a force-directed pass relocates
them every fd_interval_multiplier * n_macros evaluated actions, and the cost
keeps the stale cluster locations in between. The final answer re-runs FD on
the best macro placement and re-scores it.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import ClusteredNetlist
from .cost import CostConfig, Evaluator, ProxyBreakdown, ProxyWeights
from .errors import InitFailed, InvalidSetting, OutOfRange, Unplaceable
from .fd import FDParams, fd_place
from .geometry import Grid, MacroState
from .netlist import Netlist, Placement, PlacementState, write_text

log = logging.getLogger(__name__)

ACTIONS = ("swap", "shift", "mirror", "move", "shuffle")
FD_MULTIPLIER_CYCLE = (2, 3, 4, 5)
MAX_PROPOSAL_ATTEMPTS = 10
SHUFFLE_SIZE = 4


@dataclass(frozen=True)
class SAConfig:
    seed: int = 0
    max_steps: int = 10000
    init: str = "spiral"                    # "spiral" | "greedy"
    t_init: float | None = None             # None -> probe-based auto
    cooling_ratio: float = 0.95
    epoch_len: int | None = None            # None -> 10 * n_movable_macros
    action_weights: dict | None = None      # None -> uniform
    fd_interval_multiplier: int | None = None  # None -> cycle keyed by seed
    fd_params: FDParams = field(default_factory=FDParams)
    weights: ProxyWeights = field(default_factory=ProxyWeights)
    cost_config: CostConfig = field(default_factory=CostConfig)
    probe_count: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise OutOfRange(f"seed must be >= 0, got {self.seed}")
        if self.t_init is not None and not (math.isfinite(self.t_init) and self.t_init >= 0):
            raise OutOfRange(f"t_init must be finite and >= 0, got {self.t_init}")
        if not 0.0 < self.cooling_ratio < 1.0:
            raise OutOfRange(f"cooling_ratio must be in (0, 1), got {self.cooling_ratio}")
        if self.max_steps < 0:
            raise OutOfRange(f"max_steps must be >= 0, got {self.max_steps}")
        if self.epoch_len is not None and self.epoch_len < 1:
            raise OutOfRange(f"epoch_len must be >= 1, got {self.epoch_len}")
        if self.fd_interval_multiplier is not None and self.fd_interval_multiplier < 1:
            raise OutOfRange(f"fd_interval_multiplier must be >= 1, got {self.fd_interval_multiplier}")
        _action_probs(self.action_weights)


@dataclass
class SAResult:
    best_placement: Placement
    best_cost: ProxyBreakdown
    init_cost: ProxyBreakdown
    cost_trace: list
    actions_taken: dict
    steps_run: int
    seed: int
    fd_interval_multiplier: int


@dataclass
class ParallelResult:
    workers: list                       # SAResult of each worker that finished
    best_index: int                     # index into workers
    configs: list                       # config of each finished worker
    failed: list = field(default_factory=list)  # (worker slot, error text)

    @property
    def best(self) -> SAResult:
        return self.workers[self.best_index]


# ---------------------------------------------------------------------------
# Initial placements


def spiral_cells(n_cols: int, n_rows: int) -> list:
    """Grid cells in counterclockwise inward spiral order from lower-left."""
    out = []
    c0, r0, c1, r1 = 0, 0, n_cols - 1, n_rows - 1
    while c0 <= c1 and r0 <= r1:
        for c in range(c0, c1 + 1):
            out.append((c, r0))
        for r in range(r0 + 1, r1 + 1):
            out.append((c1, r))
        if r1 > r0:
            for c in range(c1 - 1, c0 - 1, -1):
                out.append((c, r1))
        if c1 > c0:
            for r in range(r1 - 1, r0, -1):
                out.append((c0, r))
        c0 += 1
        r0 += 1
        c1 -= 1
        r1 -= 1
    return out


_SCAN_BLOCK = 8


def _place_macros(netlist: Netlist, grid: Grid, fixed: Placement, order: np.ndarray, cells) -> PlacementState:
    """`fixed` plus each macro of `order`, an array of node indices, at the
    center of the first cell of `cells` where it is legal, checking the cells
    a block at a time.

    A scan skips a cell where a macro placed here sits with half extents
    above the grid tolerance: (hw_m + hw_i) - 0 >= hw_m > tol, so no later
    macro is legal there. For the same reason it skips from the start every
    cell whose center a macro outside `order` covers with hw_m - |x_m - cx|
    > tol and hh_m - |y_m - cy| > tol.
    """
    a = netlist.arrays
    placement = PlacementState.of(a, fixed).copy()
    st = MacroState(netlist, grid, placement)
    xs, ys = np.array([grid.cell_center(col, row) for col, row in cells]).reshape(-1, 2).T
    taken = np.zeros(xs.size, dtype=bool)
    for m in np.setdiff1d(st.macros, order).tolist():
        taken |= ((a.half_w[m] - np.abs(placement.x[m] - xs) > grid.tol)
                  & (a.half_h[m] - np.abs(placement.y[m] - ys) > grid.tol))
    for i in order.tolist():
        free = np.flatnonzero(~taken)
        for start in range(0, free.size, _SCAN_BLOCK):
            block = free[start:start + _SCAN_BLOCK]
            ok = st.legal_centers(i, xs[block], ys[block])
            if ok.any():
                k = block[np.argmax(ok)]
                placement.x[i], placement.y[i] = xs[k], ys[k]
                taken[k] = min(a.half_w[i], a.half_h[i]) > grid.tol
                break
        else:
            raise Unplaceable(a.names[i])
    return placement


def init_spiral(netlist: Netlist, grid: Grid, fixed: Placement) -> PlacementState:
    """`fixed` plus each movable macro (input order) at the first legal cell
    along a counterclockwise inward spiral from the lower-left cell."""
    a = netlist.arrays
    return _place_macros(netlist, grid, fixed, np.flatnonzero(a.is_macro & a.movable),
                         spiral_cells(grid.n_cols, grid.n_rows))


def init_greedy_pack(netlist: Netlist, grid: Grid, fixed: Placement) -> PlacementState:
    """`fixed` plus the movable macros, in descending area order, each at the
    first legal cell scanning row-major from the lower-left corner."""
    a = netlist.arrays
    movable = np.flatnonzero(a.is_macro & a.movable)
    order = movable[np.argsort(-(a.width[movable] * a.height[movable]), kind="stable")]
    cells = [(c, r) for r in range(grid.n_rows) for c in range(grid.n_cols)]
    return _place_macros(netlist, grid, fixed, order, cells)


INITIALIZERS = {"spiral": init_spiral, "greedy": init_greedy_pack}


# ---------------------------------------------------------------------------
# Annealer


def _action_probs(weights: dict | None) -> np.ndarray:
    if weights is None:
        return np.full(len(ACTIONS), 1.0 / len(ACTIONS))
    bad = set(weights) - set(ACTIONS)
    if bad:
        raise InvalidSetting(f"unknown action(s) {sorted(bad)}; valid: {ACTIONS}")
    raw = [float(weights.get(a, 0.0)) for a in ACTIONS]
    if not all(map(math.isfinite, raw)):
        raise InvalidSetting(f"action weights must be finite, got {weights}")
    p = np.array([max(0.0, w) for w in raw])
    with np.errstate(over="ignore"):
        s = p.sum()
    if not math.isfinite(s):
        raise InvalidSetting("action weights sum to more than the largest float")
    if s <= 0:
        raise InvalidSetting("action weights sum to zero")
    return p / s


class _Annealer:
    def __init__(self, cnl: ClusteredNetlist, fixed: Placement, config: SAConfig):
        self.netlist = cnl.netlist
        self.grid = cnl.grid
        self.config = config
        a = self.netlist.arrays
        if not (a.is_macro & a.movable).any():
            raise InitFailed("no movable macros to anneal")
        base = PlacementState.of(a, fixed).copy()
        base.x[a.movable] = base.y[a.movable] = np.nan
        base.sx[a.movable] = base.sy[a.movable] = 1.0
        base.require(~a.movable, "fixed node")
        init_fn = INITIALIZERS.get(config.init)
        if init_fn is None:
            raise InitFailed(f"unknown initializer {config.init!r}")
        placement = init_fn(self.netlist, self.grid, base)
        self.has_clusters = bool((a.is_cluster & a.movable).any())
        if self.has_clusters:
            placement = fd_place(self.netlist, placement, config.fd_params)
        self.evaluator = Evaluator(self.netlist, self.grid, config.cost_config)
        self.state = MacroState(self.netlist, self.grid, placement)
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        self.probs = _action_probs(config.action_weights)
        n = len(self.state.movable_idx)
        self.epoch_len = config.epoch_len if config.epoch_len else 10 * n
        mult = config.fd_interval_multiplier
        if mult is None:
            mult = FD_MULTIPLIER_CYCLE[config.seed % len(FD_MULTIPLIER_CYCLE)]
        self.fd_multiplier = mult
        self.fd_every = mult * n
        self.cur = self.evaluator.breakdown(self.placement, config.weights)
        self.init_cost = self.cur
        self.init_snapshot = self.placement.copy()
        self.best_cost = self.cur
        self.best_snapshot = self.placement.copy()

    @property
    def placement(self) -> PlacementState:
        """The one placement state: proposals move it, snapshots copy it."""
        return self.state.placement

    # -- proposals ---------------------------------------------------------

    def _candidate(self, action: str):
        """Apply one legal candidate for the action to the placement state.

        Returns a function that undoes it, or None, with the state unchanged,
        when the candidate cannot be built legally.
        """
        st = self.state
        p = self.placement
        rng = self.rng
        n = len(st.movable_idx)
        if action == "mirror":
            pick = int(st.movable_idx[rng.integers(n)])
            signs = p.sx if rng.integers(2) == 0 else p.sy

            def mirror():
                signs[pick] = -signs[pick]
            mirror()
            return mirror    # a mirror is its own inverse
        if action == "swap":
            if n < 2:
                return None
            ids = st.movable_idx[rng.choice(n, size=2, replace=False)]
            xs, ys = p.x[ids[::-1]], p.y[ids[::-1]]
        elif action in ("shift", "move"):
            ids = st.movable_idx[[rng.integers(n)]]
            if action == "shift":
                col, row = self.grid.cell_of_point(p.x[ids[0]], p.y[ids[0]])
                dc, dr = ((1, 0), (-1, 0), (0, 1), (0, -1))[rng.integers(4)]
                col, row = col + dc, row + dr
                if not (0 <= col < self.grid.n_cols and 0 <= row < self.grid.n_rows):
                    return None
            else:
                col = int(rng.integers(self.grid.n_cols))
                row = int(rng.integers(self.grid.n_rows))
            xs, ys = ([v] for v in self.grid.cell_center(col, row))
        elif action == "shuffle":
            ids = st.movable_idx[rng.choice(n, size=min(SHUFFLE_SIZE, n), replace=False)]
            take = ids[rng.permutation(len(ids))]
            xs, ys = p.x[take], p.y[take]
        else:
            raise ValueError(f"unknown action {action!r}")
        return st.try_moves(ids, xs, ys)

    def _propose(self):
        """Pick an action and try to apply it legally, up to 10 times.

        Returns (action, undo): the placement state carries the candidate and
        undo() backs it out, or undo is None and the state is unchanged.
        """
        action = ACTIONS[int(self.rng.choice(len(ACTIONS), p=self.probs))]
        for _ in range(MAX_PROPOSAL_ATTEMPTS):
            undo = self._candidate(action)
            if undo is not None:
                return action, undo
        return action, None

    # -- temperature -------------------------------------------------------

    def _auto_t_init(self) -> float:
        uphill = []
        for _ in range(self.config.probe_count):
            _, undo = self._propose()
            if undo is None:
                continue
            cand = self.evaluator.breakdown(self.placement, self.config.weights)
            undo()
            delta = cand.total - self.cur.total
            if delta > 0:
                uphill.append(delta)
        if not uphill:
            return 0.0
        return float(np.median(uphill)) / math.log(2.0)

    # -- main loop ---------------------------------------------------------

    def run(self, deadline=None, accept_audit=None) -> SAResult:
        cfg = self.config
        t = cfg.t_init if cfg.t_init is not None else self._auto_t_init()
        trace = []
        actions_taken = {a: 0 for a in ACTIONS}
        macro_actions = 0
        steps = 0
        if accept_audit is not None:
            accept_audit(-1, self.placement)
        for step in range(cfg.max_steps):
            if deadline is not None and time.monotonic() >= deadline:
                break
            steps = step + 1
            action, undo = self._propose()
            actions_taken[action] += 1
            if undo is not None:
                cand = self.evaluator.breakdown(self.placement, cfg.weights)
                delta = cand.total - self.cur.total
                accept = delta <= 0.0 or (t > 0.0 and self.rng.random() < math.exp(-delta / t))
                if accept:
                    self.cur = cand
                    if accept_audit is not None:
                        accept_audit(step, self.placement)
                    if cand.total < self.best_cost.total:
                        self.best_cost = cand
                        self.best_snapshot = self.placement.copy()
                else:
                    undo()
                macro_actions += 1
                if self.has_clusters and macro_actions % self.fd_every == 0:
                    self.state.placement = fd_place(self.netlist, self.placement, cfg.fd_params)
                    self.cur = self.evaluator.breakdown(self.placement, cfg.weights)
                    if self.cur.total < self.best_cost.total:
                        self.best_cost = self.cur
                        self.best_snapshot = self.placement.copy()
            trace.append((step, self.cur.total))
            if (step + 1) % self.epoch_len == 0:
                t *= cfg.cooling_ratio
        # Re-run FD on the best macro placement and re-score. The re-score can
        # exceed the stale-cluster score, so the initialization state (whose
        # re-score is bit-identical by FD determinism) acts as a floor.
        if self.has_clusters:
            final_placement = fd_place(self.netlist, self.best_snapshot, cfg.fd_params)
            final_cost = self.evaluator.breakdown(final_placement, cfg.weights)
        else:
            final_placement = self.best_snapshot
            final_cost = self.best_cost
        if final_cost.total > self.init_cost.total:
            final_placement = self.init_snapshot
            final_cost = self.init_cost
        return SAResult(
            best_placement=final_placement,
            best_cost=final_cost,
            init_cost=self.init_cost,
            cost_trace=trace,
            actions_taken=actions_taken,
            steps_run=steps,
            seed=cfg.seed,
            fd_interval_multiplier=self.fd_multiplier,
        )


def anneal(cnl: ClusteredNetlist, fixed: Placement, config: SAConfig,
           deadline=None, accept_audit=None) -> SAResult:
    """Run one annealing worker. Deterministic given (netlist, config) when no
    deadline cuts it short."""
    return _Annealer(cnl, fixed, config).run(deadline=deadline, accept_audit=accept_audit)


# ---------------------------------------------------------------------------
# Parallel workers


def _worker(args):
    cnl, fixed, config, deadline = args
    return anneal(cnl, fixed, config, deadline=deadline)


def derive_worker_seeds(seeds, n_workers: int) -> list:
    """Block-split seeds over workers: two seeds -> half/half, one per worker
    when counts match, contiguous blocks otherwise."""
    if not seeds:
        raise InvalidSetting("need at least one seed")
    return [seeds[i * len(seeds) // n_workers] for i in range(n_workers)]


def run_parallel(cnl: ClusteredNetlist, fixed: Placement, base_config: SAConfig,
                 n_workers: int, seeds, wall_clock_budget: float | None = None,
                 parallel: bool = True) -> ParallelResult:
    """Run independent annealing workers and keep the lowest-cost result.

    Workers never communicate. Each gets a seed from the block split and, when
    the base config leaves fd_interval_multiplier unset, a multiplier from the
    (2, 3, 4, 5) cycle keyed by its seed. The budget is a shared wall-clock
    window measured from launch.
    """
    if n_workers < 1:
        raise InvalidSetting("n_workers must be >= 1")
    worker_seeds = derive_worker_seeds(list(seeds), n_workers)
    configs = [replace(base_config, seed=s) for s in worker_seeds]
    deadline = time.monotonic() + wall_clock_budget if wall_clock_budget is not None else None
    # A state of cnl's own arrays travels to a worker with them, not with the
    # netlist that it was read for.
    fixed = PlacementState.of(cnl.netlist.arrays, fixed)
    args = [(cnl, fixed, cfg, deadline) for cfg in configs]
    if parallel and n_workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            futures = [pool.submit(_worker, a) for a in args]
            outcomes = [_outcome(f.result) for f in futures]
    else:
        outcomes = [_outcome(_worker, a) for a in args]
    results = [payload for status, payload in outcomes if status == "ok"]
    kept_configs = [cfg for cfg, (status, _) in zip(configs, outcomes) if status == "ok"]
    errors = [(i, payload) for i, (status, payload) in enumerate(outcomes) if status == "err"]
    for i, exc in errors:
        log.warning("annealing worker %d failed: %s", i, exc)
    if not results:
        raise errors[0][1]
    failed = [(i, str(exc)) for i, exc in errors]
    best_index = min(range(len(results)), key=lambda i: (results[i].best_cost.total, i))
    return ParallelResult(workers=results, best_index=best_index,
                          configs=kept_configs, failed=failed)


def _outcome(fn, *args):
    """("ok", fn(*args)), or ("err", what it raised): a failed worker does not
    stop the others, and the run fails only when every worker does."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return "err", exc


def write_trace_csv(result: SAResult, path) -> None:
    lines = ["step,cost"]
    lines += [f"{s},{c!r}" for s, c in result.cost_trace]
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Macro shuffling study op


def shuffle_same_size(netlist: Netlist, placement: Placement, seed: int) -> PlacementState:
    """Randomly permute poses within groups of identically sized placed
    movable macros. A macro receives both the location and the orientation
    of the macro whose spot it takes, so legality is preserved exactly."""
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    a = netlist.arrays
    st = PlacementState.of(a, placement)
    groups: dict[tuple, list] = {}
    placed = np.flatnonzero(a.is_macro & a.movable & ~np.isnan(st.x))
    for i, w, h in zip(placed.tolist(), a.width[placed].tolist(), a.height[placed].tolist()):
        groups.setdefault((w, h), []).append(i)
    out = st.copy()
    for group in groups.values():
        if len(group) > 1:
            take = np.array(group)[rng.permutation(len(group))]
            for new, old in zip((out.x, out.y, out.sx, out.sy), (st.x, st.y, st.sx, st.sy)):
                new[group] = old[take]
    return out
