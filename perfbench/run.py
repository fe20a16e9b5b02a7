"""Benchmark of the toric_origami pipeline, measured from outside the package.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 15 --trace 0

Runs one workload (classes, poset, ingest or surgery; see README.md) in a
process of its own with a single thread and a fixed PYTHONHASHSEED, checks
every output, and prints one JSON object as its last line of output:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the same loop runs with every layer
boundary wrapped, and the metrics are per-layer self times and counts.

Set-up is measured in SETUP_RUNS processes (the timed one included) and
reported as their median; the classes workload warms up for one long pass
already, so it sets up once.  Exits nonzero, printing no result, when a
workload process fails or the package cannot be imported from `src`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# processes whose set-up time is measured, per workload
SETUP_RUNS = {"classes": 1, "poset": 3, "ingest": 3, "surgery": 3}
DEADLINE_S = 170.0  # the whole command, set-ups included


class WorkloadFailed(Exception):
    pass


def _worker(args, mode, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    t0 = perf_counter()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkloadFailed(f"{args.workload} {mode} process passed the deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"{args.workload} {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SETUP_RUNS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS[args.workload] - 1):
                setups.append(_worker(args, "setup", deadline)["setup_s"])
        run = _worker(args, "run", deadline)
    except WorkloadFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    correct = run["wrong"] == 0
    if args.trace:
        metrics = {}
        for name, (value, unit, missing) in run["layers"].items():
            metrics[name] = _metric(value, unit)
            if missing:
                metrics[name]["missing"] = missing
                print(f"layer metric {name} is missing: no {', '.join(missing)}", file=sys.stderr)
        metrics["host.ref_loop_ms"] = _metric(run["host.ref_loop_ms"], "ms")
        metrics["trace.ops_per_s"] = _metric(run["ops_per_s"], "1/s")
        # layer self times must fit inside the request that contains them
        correct = correct and run["trace_overruns"] == 0
    else:
        metrics = {
            "ops_per_s": _metric(run["ops_per_s"], "1/s"),
            "op_ms_p50": _metric(run["op_ms_p50"], "ms"),
            "op_ms_p90": _metric(run["op_ms_p90"], "ms"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(run["peak_rss_mb"], "MiB"),
        }
    print(f"{args.workload}: {run['passes']} pass(es), {run['attempted']} requests", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
