"""The package's runtime rules, read off its source: stdlib-only imports,
and no floating point outside the SVG renderer (`cli.py`)."""

import ast
import sys
from pathlib import Path

import toric_origami

PACKAGE = Path(toric_origami.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_module_is_checked():
    assert {m.name for m in MODULES} >= {"__init__.py", "cli.py", "lattice.py", "polytope.py"}


def test_absolute_imports_are_stdlib():
    for module in MODULES:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (module.name, name)


def test_no_float_outside_the_renderer():
    for module in MODULES:
        if module.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            assert not (isinstance(node, ast.Constant) and type(node.value) is float), (
                module.name,
                node.lineno,
            )
            assert not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ), (module.name, node.lineno)
