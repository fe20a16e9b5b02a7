"""One workload in one process: set up, warm up, then a timed closed loop.

Started by run.py, never by hand; prints one JSON object on its last line.
With --mode setup it stops after the warm-up pass and reports only its
set-up time.  The package is imported from the checkout's `src`, and
nothing else: a missing package is an error, not a fallback.

Set-up runs from the moment run.py starts this process (--t0, a
perf_counter reading, which is the same clock in every process on Linux)
to the first timed request.  It covers interpreter start, import, input
generation and one untimed pass over the request list, so caches filled
before the loop are paid for here.  The loop is closed with one client:
each request starts when the previous one returns, and checks run
between requests, outside the timed calls.  It runs whole passes until
`--seconds` is reached to the nearest half pass and at least
MIN_REQUESTS requests are done.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_REQUESTS = 100  # so that ten samples lie beyond the 90th percentile


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import toric_origami
    except ImportError as exc:
        sys.exit(f"cannot import toric_origami from {ROOT / 'src'}: {exc}")
    if Path(toric_origami.__file__).resolve().parent != ROOT / "src" / "toric_origami":
        sys.exit(f"toric_origami was imported from {toric_origami.__file__}, not the checkout")


def reference_loop_ms():
    """A fixed stdlib loop; its time tracks the host's speed, not the package's."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (perf_counter() - start) * 1000.0


def run_request(request, tracer, request_id):
    """Call and check one request: (seconds, "ok" | "wrong" | "error", traceback or None)."""
    if tracer is not None:
        tracer.begin(request_id)
    start = perf_counter()
    try:
        out = request.call()
    except Exception:
        seconds = perf_counter() - start
        error = traceback.format_exc()
    else:
        seconds = perf_counter() - start
        error = None
    if tracer is not None:
        tracer.end(seconds)
    if error is not None:
        return seconds, "error", error
    try:
        ok = request.check(out)
    except Exception:
        return seconds, "wrong", traceback.format_exc()
    return seconds, ("ok" if ok else "wrong"), None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    _import_package()
    import tracing
    from workloads import BUILDERS

    requests = BUILDERS[args.workload](args.seed)
    for request in requests:
        request.call()
    setup_s = perf_counter() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    latencies = []
    outcomes = {"ok": 0, "wrong": 0, "error": 0}
    reported = set()
    ref_ms = []
    passes = 0
    start = perf_counter()
    while True:
        if tracer is not None:
            ref_ms.append(reference_loop_ms())
        for request in requests:
            seconds, outcome, detail = run_request(request, tracer, len(latencies))
            latencies.append(seconds)
            outcomes[outcome] += 1
            if outcome != "ok" and request.label not in reported:
                reported.add(request.label)
                print(f"{outcome} in {request.label}\n{detail or ''}", file=sys.stderr)
        passes += 1
        elapsed = perf_counter() - start
        if len(latencies) >= MIN_REQUESTS and elapsed + elapsed / passes / 2 >= args.seconds:
            break
    if tracer is not None:
        ref_ms.append(reference_loop_ms())

    result = {
        "setup_s": setup_s,
        "attempted": len(latencies),
        "failed": outcomes["wrong"] + outcomes["error"],
        "wrong": outcomes["wrong"],
        "passes": passes,
        "ops_per_s": outcomes["ok"] / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1000.0,
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8] * 1000.0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["host.ref_loop_ms"] = statistics.median(ref_ms)
        result["trace_overruns"] = tracer.overruns
    print(json.dumps(result))


if __name__ == "__main__":
    main()
