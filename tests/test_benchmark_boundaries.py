"""The benchmark's layer boundaries still name functions of the package.

`perfbench/tracing.py` wraps package functions by "module:attribute"
name and reports a boundary it cannot find as missing, so a rename in the
package would silently leave a per-layer metric without a value.  This
only resolves the names; no wrapper is installed.  `perfbench/sizes.py`
calls package internals too, so it is run once as a smoke test.
"""

import importlib
import re
import subprocess
import sys
from pathlib import Path

from helpers import constraint_row_graphs
from toric_origami.cohomology import _constraint_rows, _spanning_forest
from toric_origami.lattice import kernel_basis, kernel_dimension, rank

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    try:
        assert tracing.BOUNDARIES
        missing = [b.target for b in tracing.BOUNDARIES if tracing._resolve(b.target) is None]
        assert missing == []
    finally:
        sys.modules.pop("tracing", None)


def test_matrix_counts_of_sparse_rows_match_their_dense_expansion(monkeypatch):
    # the tracer iterates a row: over a {column: int} row that is its keys,
    # and it counts the truthy ones as the row's nonzeros
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    try:
        for g in constraint_row_graphs():
            forest = _spanning_forest(g)
            for d in range(g.dimension + 2):
                rows, ncols = _constraint_rows(g, d, forest)
                if not ncols:
                    continue
                dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
                for name, query in (("rank", rank), ("kernel_dimension", kernel_dimension),
                                    ("kernel_basis", kernel_basis)):
                    count = tracing._matrix_counts(name)
                    sparse_counts = count((rows, ncols), {}, query(rows, ncols))
                    assert sparse_counts == count((dense, ncols), {}, query(dense, ncols)), (g, d)
                    assert sparse_counts["lattice.nonzeros"] == sum(map(len, rows))
    finally:
        sys.modules.pop("tracing", None)


def test_the_size_script_runs():
    # sizes.py calls package internals (cohomology._constraint_rows with
    # two arguments) that no boundary names
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "sizes.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    start = lines.index("classes: unknowns x rows of the divisibility system, by degree")
    systems = lines[start + 1 : start + 5]
    assert len(systems) == 4
    for line in systems:
        assert re.fullmatch(r"  \w+: \d+ fixed points, \d+ edges; d0 \d+x\d+(, d\d+ \d+x\d+)+", line), line
