"""Sample the host's speed with a fixed pure-Python loop and report its spread.

    python3 perfbench/hostspeed.py [--seconds 600]

Runs one small loop back to back for the given time, then prints, per
window length, how far the mean speed of the windows spreads: the distance
between the quartiles as a share of the median, the range as a share of
the median, and (where there are enough windows) the median and largest
spread of ten consecutive windows, which is what a set of ten runs sees.
Nothing of the package is involved; the bounds in BENCHMARK.json were set
from this table (see README.md).
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter


def unit():
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=600.0)
    seconds = parser.parse_args().seconds

    samples = []
    start = perf_counter()
    while (now := perf_counter()) - start < seconds:
        unit()
        samples.append((now - start, perf_counter() - now))
    times = sorted(d for _, d in samples)
    print(f"{len(samples)} loops in {seconds:.0f} s; loop time median {statistics.median(times) * 1e3:.3f} ms,"
          f" 10th percentile {times[len(times) // 10] * 1e3:.3f} ms")
    for window in (1, 5, 10, 15, 20, 30, 45, 60, 90):
        buckets = {}
        for t, d in samples:
            buckets.setdefault(int(t // window), []).append(d)
        speeds = [len(v) / sum(v) for k, v in sorted(buckets.items()) if (k + 1) * window <= seconds]
        if len(speeds) < 4:
            continue
        line = (f"{window:3d} s windows: {len(speeds):4d}, IQR/median {spread(speeds):.3f},"
                f" range/median {(max(speeds) - min(speeds)) / statistics.median(speeds):.3f}")
        tens = [spread(speeds[i:i + 10]) for i in range(len(speeds) - 9)]
        if tens:
            line += f", ten consecutive: IQR/median median {statistics.median(tens):.3f} max {max(tens):.3f}"
        print(line)


if __name__ == "__main__":
    main()
