"""In-memory spans around calls into the gridplace layers.

A Tracer records one span per traced call: name, start, end, parent span and
the id of the workload run it belongs to. Spans stay in memory until the run
ends and are then written out as JSON lines. With tracing disabled, `call`
invokes the function directly and nothing is recorded.

`instrument` installs wrappers only for a traced run, patching each name where
its caller looks it up, and restores the originals on exit.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import gridplace.annealer
import gridplace.cost

# Evaluator methods that get a span. `components` is left bare so that a
# breakdown's self time is the glue around the component computations.
EVALUATOR_METHODS = (
    "__init__",
    "node_arrays",
    "wirelength_from_arrays",
    "density_grid_from_arrays",
    "macro_congestion_from_arrays",
    "net_congestion_from_arrays",
    "breakdown",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """fn(*args, **kwargs) inside a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, 0.0, 0.0, self.run_id, dict(attrs or {}))
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def mark(self, name: str, **attrs) -> None:
        """A zero-length span under the current span."""
        if self.enabled:
            now = time.perf_counter()
            self.spans.append(Span(len(self.spans), self._stack[-1] if self._stack else None,
                                   name, now, now, self.run_id, attrs))

    def wrap(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _fd_iters(netlist, placement, params, observer=None):
    return {"iters": params.num_iters}


@contextmanager
def instrument(tracer: Tracer):
    """Patch the layer entry points the annealer and evaluator call."""
    ann = gridplace.annealer
    cost = gridplace.cost
    inits = ann.INITIALIZERS
    saved_inits = dict(inits)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in
             [(ann, "fd_place"), (cost, "smooth_grid"), (cost, "top_fraction_mean")]
             + [(cost.Evaluator, m) for m in EVALUATOR_METHODS]]
    try:
        # The annealer always passes FDParams to fd_place.
        ann.fd_place = tracer.wrap("fd.fd_place", ann.fd_place, _fd_iters)
        cost.smooth_grid = tracer.wrap("cost.smooth_grid", cost.smooth_grid)
        cost.top_fraction_mean = tracer.wrap("cost.top_fraction_mean", cost.top_fraction_mean)
        for method in EVALUATOR_METHODS:
            label = "evaluator_init" if method == "__init__" else method
            setattr(cost.Evaluator, method,
                    tracer.wrap(f"cost.{label}", cost.Evaluator.__dict__[method]))
        for key, fn in saved_inits.items():
            inits[key] = tracer.wrap("annealer.init", fn)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
        inits.update(saved_inits)


# ---------------------------------------------------------------------------
# Span arithmetic


def children_of(spans) -> dict:
    out: dict = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def covered(parent: Span, children) -> float:
    """Length of the part of parent's interval that its children cover."""
    pieces = sorted((max(c.start, parent.start), min(c.end, parent.end)) for c in children)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its direct children cover."""
    kids = children_of(spans)
    return {s.id: s.duration - covered(s, kids.get(s.id, ())) for s in spans}


def per_call_overhead_s(calls: int = 20000) -> float:
    """Extra seconds one traced call costs over a bare call of a no-op."""
    def noop(*args, **kwargs):
        return None

    probe = Tracer("calibration", enabled=True)
    wrapped = probe.wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(1)
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped(1)
    traced = time.perf_counter() - t0
    return max(traced - bare, 0.0) / calls
