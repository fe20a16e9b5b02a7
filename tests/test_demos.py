"""The demo scripts run to completion against the package sources.

Each demo runs in its own interpreter with `src` on the import path; the
demos write only to `demos/output/`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_all_five_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "cut_and_rebuild.py",
        "orbit_space_poset.py",
        "render_gallery.py",
        "sphere_class_spaces.py",
        "tour_bundled_templates.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr
    if demo.name == "orbit_space_poset.py":
        verdicts = [line.strip() for line in done.stdout.splitlines() if "subgraph a tree" in line]
        # hirzebruch is a tree; torus and oddcycle3 have cycles
        assert verdicts == [
            "every face subgraph a tree: True",
            "every face subgraph a tree: False",
            "every face subgraph a tree: False",
        ]
