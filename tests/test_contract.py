"""The package's contract, read from its source: it imports only the
standard library, and its arithmetic is exact, with no floating-point or
complex numbers (``math.inf`` is the one unbounded-precision sentinel)."""

import ast
import sys
from pathlib import Path

import skewlocal

SOURCES = sorted(Path(skewlocal.__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield "%s:%d" % (path.name, getattr(node, "lineno", 0)), node


def test_sources_are_found():
    assert {"coeff.py", "series.py", "skew.py"} <= {p.name for p in SOURCES}


def test_imports_only_the_standard_library():
    bad = []
    for where, node in _nodes():
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad += [(where, n) for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert bad == []


def test_no_float_or_complex_numbers():
    bad = []
    for where, node in _nodes():
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            bad.append((where, node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            bad.append((where, node.func.id))
    assert bad == []
