"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads classes,poset]
                                [--seconds 15] [--trace 0] [--out FILE]
    python3 perfbench/spread.py --report FILE [FILE ...]

Each run's JSON result is appended to FILE (default perfbench/runs/
spread.jsonl) as one line.  The report gives, per workload and metric,
the median, the quartiles (statistics.quantiles, n=4) and the distance
between the quartiles as a share of the median: the figure the bounds in
BENCHMARK.json are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(args):
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            record = {
                "workload": workload, "seed": seed, "trace": args.trace,
                "exit": proc.returncode, "wall_s": time.monotonic() - start,
                "result": json.loads(lines[-1]) if proc.returncode == 0 else None,
            }
            if proc.returncode:
                sys.stderr.write(proc.stderr)
            with out.open("a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: exit {proc.returncode}, {record['wall_s']:.1f} s", flush=True)
    report([out])


def report(paths):
    groups = defaultdict(list)
    for path in paths:
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            groups[(record["workload"], record["trace"])].append(record)
    for (workload, trace), records in groups.items():
        results = [r["result"] for r in records if r["result"]]
        walls = [r["wall_s"] for r in records]
        failed = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"{workload} (trace {trace}): {len(results)}/{len(records)} runs ok,"
              f" correct {sorted({r['correct'] for r in results})},"
              f" wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s,"
              f" failed/attempted {failed}")
        values = defaultdict(list)
        for result in results:
            for name, metric in result["metrics"].items():
                values[(name, metric["unit"])].append(metric["value"])
        print(f"  {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'IQR/med':>8s}")
        for (name, unit), vals in values.items():
            if None in vals:
                print(f"  {name:30s} missing in {vals.count(None)} run(s)")
                continue
            med = statistics.median(vals)
            if len(vals) < 2 or not med:
                print(f"  {name:30s} {med:12.4f}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name + ' (' + unit + ')':30s} {med:12.4f} {q1:12.4f} {q3:12.4f}"
                  f" {(q3 - q1) / med:8.3f}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--workloads", default="classes,poset,ingest,surgery")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "runs" / "spread.jsonl"))
    parser.add_argument("--report", nargs="+", metavar="FILE", help="only summarize these files")
    args = parser.parse_args()
    if args.report:
        report(args.report)
    else:
        run(args)


if __name__ == "__main__":
    main()
