"""Compare the benchmark of two revisions and write one BENCH_<n>.json.

    python3 bench.py --out BENCH_<n>.json [--base HEAD~1] [--pairs 10]

Run from the root of a git checkout. The base revision (default HEAD~1) is
extracted with `git archive` into `.bench_build/<commit>/`; the checkout
itself is the head side. For each pair and each workload of BENCHMARK.json,
`benchmark/run.py` runs once on each side at seed 7 for BENCHMARK.json's
run_seconds, the side that goes first alternating from pair to pair. One
traced run per side and workload follows. The output file holds the machine
record, each side's source line count (`wc -l src/gridplace/*.py`), the
median and quartiles of every end-to-end metric per workload and side, how
many pairs the head side won per metric, the traced per-layer metrics and the
failed operation counts.

Next to `sa_steps_per_s`, the slowest anneal of a run, the file holds
`sa_steps_per_s_median`, the median anneal of a run (its steps over each
anneal's seconds, from the run record). A run fits more anneals when setup
or rounds get faster, and the slowest of more samples tends to be slower, so
the median shows a change of anneal speed more directly.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
SEED = 7
MEDIAN_ANNEAL = {"name": "sa_steps_per_s_median", "unit": "1/s", "better": "higher"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str) -> Path:
    """The files of commit `rev` under .bench_build/<commit>, extracted once."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = BUILD / sha
    if not (dest / "benchmark" / "run.py").is_file():
        blob = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                              capture_output=True).stdout
        dest.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_one(checkout: Path, workload: str, seconds: float, trace: int) -> dict:
    """One benchmark run: its result line, plus the machine record on success."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {"failed": None, "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    result = json.loads(lines[-1])
    record = next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("# record:")), None)
    if record:
        rec = json.loads((checkout / record).read_text())
        result["machine"] = rec["machine"]
        if not trace:
            steps = rec["counts"]["sa_steps"]
            result["metrics"][MEDIAN_ANNEAL["name"]] = {
                "value": statistics.median(steps / dt for dt in rec["samples_s"]["anneal"])}
    return result


def source_lines(checkout: Path) -> int:
    """The total that `wc -l src/gridplace/*.py` prints: newlines in the package sources."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "gridplace").glob("*.py"))


def summary(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="output file, BENCH_<n>.json")
    ap.add_argument("--base", default="HEAD~1", help="base revision (default HEAD~1)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    at = names.index("sa_steps_per_s") + 1
    end_to_end = spec["end_to_end"][:at] + [MEDIAN_ANNEAL] + spec["end_to_end"][at:]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"base": extract(args.base), "head": ROOT}
    revs = {"base": git("rev-parse", args.base),
            "head": git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")}

    runs = {w: {s: [] for s in sides} for w in workloads}
    machine = None
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            for side in order:
                r = run_one(sides[side], w, seconds, 0)
                machine = machine or r.get("machine")
                runs[w][side].append(r)
                print(f"pair {i} {w} {side}: failed={r['failed']}", file=sys.stderr, flush=True)
    traced = {w: {s: run_one(sides[s], w, seconds, 1) for s in sides}
              for w in workloads}

    out = {"command": f"python3 benchmark/run.py --workload W --seed {SEED} "
                      f"--seconds {seconds:g} --trace 0|1",
           "revisions": revs, "pairs": args.pairs, "machine": machine,
           "source_lines": {side: source_lines(path) for side, path in sides.items()},
           "workloads": {}}
    for w in workloads:
        entry = {}
        for side in sides:
            ok = [r for r in runs[w][side] if r["failed"] is not None]
            t = traced[w][side]
            counted = ok + ([t] if t["failed"] is not None else [])
            entry[side] = {
                "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in ok])
                               for m in end_to_end} if ok else {},
                "per_layer": {k: v["value"] for k, v in t.get("metrics", {}).items()},
                "failed": sum(r["failed"] for r in counted),
                "attempted": sum(r["attempted"] for r in counted),
                "runs_without_result": [r["error"] for r in runs[w][side] + [t] if r["failed"] is None],
            }
        wins = {}
        for m in end_to_end:
            sign = 1.0 if m["better"] == "lower" else -1.0
            wins[m["name"]] = sum(
                sign * (b["metrics"][m["name"]]["value"] - h["metrics"][m["name"]]["value"]) > 0
                for b, h in zip(runs[w]["base"], runs[w]["head"])
                if b["failed"] is not None and h["failed"] is not None)
        entry["head_better_pairs"] = wins
        out["workloads"][w] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
