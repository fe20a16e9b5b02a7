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
