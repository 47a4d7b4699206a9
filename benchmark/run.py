"""Run one gridplace benchmark workload and print its metrics.

    python3 benchmark/run.py --workload sa-ibm01 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from ./src and the
design generator from ./tests/fixture_gen.py; nothing is installed. Generated
designs, the result record (metrics, checks, machine record) and, for a
traced run, the spans are written under ./.bench_out. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# One client, one core. OpenBLAS's worker threads otherwise spin on the second
# core during every evaluation: twice the CPU time, slower and noisier runs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="design generator seed (>= 0)")
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured part")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="reduced design and counts (smoke tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "gridplace" / "__init__.py").is_file() or not (tests / "fixture_gen.py").is_file():
        print(f"error: {ROOT} lacks src/gridplace or tests/fixture_gen.py; "
              "run from a gridplace checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"     # before numpy is imported
    sys.path[:0] = [str(src), str(tests)]
    import gridplace
    if src not in Path(gridplace.__file__).resolve().parents:
        print(f"error: gridplace imported from {gridplace.__file__}, not {src}", file=sys.stderr)
        return 2
    logging.getLogger("gridplace").setLevel(logging.ERROR)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR,
                           tiny=args.tiny)
    suffix = "-tiny" if args.tiny else ""
    path = OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    # BENCHMARK.json names the metrics, their units and their order.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} traced={bool(args.trace)} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} load={record['loadavg_before'][0]:.2f}"
          f"->{record['loadavg_after'][0]:.2f}")
    for key, n in {**record["counts"], **record["informational"]}.items():
        print(f"# {key} = {n:.6g}")
    print(f"# error_rate = {record['error_rate']:.6g} failed/attempted "
          f"({record['failed']}/{record['attempted']})")
    for err in record["errors"]:
        print(f"# error: {err}")
    for m in spec:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
