"""Rank correlation, run-stability tables, and weight sweeps."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

from .cost import Evaluator, ProxyBreakdown, ProxyWeights
from .errors import DegenerateInput, LengthMismatch


def _merge_count_inversions(seq: list) -> int:
    """Strict inversions (seq[i] > seq[j], i < j) via merge sort."""
    n = len(seq)
    if n < 2:
        return 0
    buf = list(seq)
    tmp = [0] * n
    count = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if buf[j] < buf[i]:
                    # buf[j] jumps over the remaining left run: mid - i inversions
                    count += mid - i
                    tmp[k] = buf[j]
                    j += 1
                else:
                    tmp[k] = buf[i]
                    i += 1
                k += 1
            while i < mid:
                tmp[k] = buf[i]
                i += 1
                k += 1
            while j < hi:
                tmp[k] = buf[j]
                j += 1
                k += 1
            buf[lo:hi] = tmp[lo:hi]
        width *= 2
    return count


def _tie_pairs(values) -> int:
    return sum(t * (t - 1) // 2 for t in Counter(values).values())


def kendall_tau(xs, ys) -> float:
    """Tie-corrected Kendall rank correlation (tau-b).

    Computed from integer pair counts: discordant pairs by inversion counting
    over the y-sequence sorted by (x, y), tie groups by direct counting.
    """
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise LengthMismatch(f"got {len(xs)} x values and {len(ys)} y values")
    n = len(xs)
    if n < 2:
        raise DegenerateInput("need at least two observations")
    if any(v != v for v in xs + ys):   # only NaN differs from itself
        raise DegenerateInput("NaN has no rank")
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(xs)
    n2 = _tie_pairs(ys)
    if n0 == n1 or n0 == n2:
        raise DegenerateInput("all values tied in one ranking")
    n3 = _tie_pairs(list(zip(xs, ys)))
    order = sorted(range(n), key=lambda i: (xs[i], ys[i]))
    nd = _merge_count_inversions([ys[i] for i in order])
    nc = n0 - n1 - n2 + n3 - nd
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


# ---------------------------------------------------------------------------
# Stability report


@dataclass
class StabilityRow:
    label: str
    n_runs: int
    means: dict
    stds: dict


@dataclass
class StabilityReport:
    metrics: list
    rows: list          # per-label rows followed by the AGGR row

    def to_csv(self) -> str:
        header = ["group", "runs"]
        for m in self.metrics:
            header += [f"{m}_mean", f"{m}_std"]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [row.label, str(row.n_runs)]
            for m in self.metrics:
                cells += [repr(row.means[m]), repr(row.stds[m])]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = ["group", "runs"] + [f"{m} mean (std)" for m in self.metrics]
        table = [header]
        for row in self.rows:
            cells = [row.label, str(row.n_runs)]
            cells += [f"{row.means[m]:.6f} ({row.stds[m]:.6f})" for m in self.metrics]
            table.append(cells)
        widths = [max(len(r[c]) for r in table) for c in range(len(header))]
        out = []
        for r in table:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        return "\n".join(out) + "\n"


def _mean_std(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def summarize_groups(rows, metrics=None) -> StabilityReport:
    """rows: iterable of (label, {metric: value}). Groups rows by label, adds
    a pooled AGGR row; standard deviations are sample (n-1) based, 0 for a
    single run."""
    rows = list(rows)
    if not rows:
        raise DegenerateInput("no runs to summarize")
    if metrics is None:
        metrics = list(rows[0][1].keys())
    groups: dict[str, list] = {}
    for label, vals in rows:
        groups.setdefault(label, []).append(vals)
    out = []
    for label, vals in [*groups.items(), ("AGGR", [v for _, v in rows])]:
        stats = {m: _mean_std([v[m] for v in vals]) for m in metrics}
        out.append(StabilityRow(label, len(vals), {m: s[0] for m, s in stats.items()},
                                {m: s[1] for m, s in stats.items()}))
    return StabilityReport(metrics=list(metrics), rows=out)


PROXY_METRICS = ("wirelength", "density", "congestion", "total")


def stability_study(run_results, external: dict | None = None) -> StabilityReport:
    """Tabulate per-seed and aggregate stability of run results.

    run_results: iterable of (label, ProxyBreakdown). external (optional):
    {label: {metric: value}} merged into each row before summarizing, e.g.
    joined from a separate metrics CSV.
    """
    rows = []
    metrics = list(PROXY_METRICS)
    extra_keys: list = []
    for label, breakdown in run_results:
        vals = {m: getattr(breakdown, m) for m in PROXY_METRICS}
        if external and label in external:
            for k, v in external[label].items():
                vals[k] = v
                if k not in extra_keys:
                    extra_keys.append(k)
        rows.append((label, vals))
    if external:
        # Only keep extras present in every row, else means are ill-defined.
        extra_keys = [k for k in extra_keys if all(k in v for _, v in rows)]
        metrics += extra_keys
    return summarize_groups(rows, metrics)


def read_external_metrics(path, key_column: str = "run") -> dict:
    """CSV with a run-id column -> {run_id: {column: float}}."""
    out: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if key_column not in (reader.fieldnames or ()):
            raise DegenerateInput(f"external metrics need a {key_column!r} column")
        for rec in reader:
            label = rec[key_column]
            out[label] = {}
            for k, v in rec.items():
                if k == key_column or v is None or v == "":
                    continue
                try:
                    out[label][k] = float(v)
                except ValueError:
                    continue
    return out


# ---------------------------------------------------------------------------
# Weight sweep


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    lam: float
    wirelength: float
    density: float
    congestion: float
    total: float


def weight_sweep(evaluator: Evaluator, placement, combos) -> list:
    """Evaluate the geometry once and recombine totals for each
    (gamma, lambda) pair; the components are weight-independent."""
    wl, dens, cong = evaluator.components(placement)
    rows = []
    for gamma, lam in combos:
        b = ProxyBreakdown.combine(wl, dens, cong, ProxyWeights(gamma, lam))
        rows.append(SweepRow(gamma, lam, b.wirelength, b.density, b.congestion, b.total))
    return rows


def sweep_to_csv(rows) -> str:
    lines = ["gamma,lambda,wirelength,density,congestion,total"]
    for r in rows:
        lines.append(f"{r.gamma!r},{r.lam!r},{r.wirelength!r},{r.density!r},{r.congestion!r},{r.total!r}")
    return "\n".join(lines) + "\n"
