"""The benchmark's layer boundaries still name functions of the package.

`perfbench/tracing.py` wraps package functions by "module:attribute"
name and reports a boundary it cannot find as missing, so a rename in the
package would silently leave a per-layer metric without a value.  This
only resolves the names; no wrapper is installed.
"""

import importlib
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
