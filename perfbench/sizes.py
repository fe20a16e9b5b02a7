"""Print the problem sizes of one pass of every workload, for README.md.

    python3 perfbench/sizes.py [--seed 1]

Sizes do not depend on the seed, except the JSON bytes of twisted box
paths, where a sign or a shear changes the digit count.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toric_origami import cohomology, gkm  # noqa: E402

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed

    print("classes: unknowns x rows of the divisibility system, by degree")
    for spec, g in workloads.class_graphs(seed)[:4]:
        n = g.dimension
        systems = []
        for d in range(n + 2):
            rows, ncols = cohomology._constraint_rows(g, d)
            systems.append(f"d{d} {ncols}x{len(rows)}")
        print(f"  {spec.kind}{spec.size}: {len(g.fixed_points)} fixed points,"
              f" {len(g.edges)} edges; {', '.join(systems)}")

    print("poset: faces and covers")
    for request in workloads.poset(seed):
        dot = request.call()
        print(f"  {request.label}: {dot.count('[label=')} faces, {dot.count(' -> ')} covers")

    print("ingest: JSON bytes, polytope definitions, fixed points, edges")
    for request in workloads.ingest(seed):
        _, g, text = request.call()
        definitions = text.count('"halfspaces"')
        print(f"  {request.label}: {len(text.encode())} bytes, {definitions} polytope(s),"
              f" {len(g.fixed_points)} fixed points, {len(g.edges)} edges")

    print("surgery: polytopes and fixed points of the rebuilt template")
    counts = Counter()
    for request in workloads.surgery(seed):
        _, rebuilt, _ = request.call()
        counts[(request.label, len(rebuilt.graph.vertices), len(gkm.fixed_points(rebuilt)))] += 1
    for (label, vertices, points), k in counts.items():
        print(f"  {label} x{k}: {vertices} polytopes, {points} fixed points")


if __name__ == "__main__":
    main()
