"""The package's contract, read from its source: it imports only the
standard library, and its arithmetic is exact, with no floating-point or
complex numbers (``math.inf`` is the one unbounded-precision sentinel)."""

import ast
import importlib
import sys
from pathlib import Path

import skewlocal

SOURCES = sorted(Path(skewlocal.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def _tracer_tables():
    """The SPANNED, PARSERS and COEFF_COUNTERS tables of the benchmark's
    tracer, read from its source without importing it."""
    tables = {}
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "PARSERS", "COEFF_COUNTERS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_benchmark_tracer_targets_resolve():
    """Every name the benchmark's tracer wraps exists in the package, so
    deleting one fails here and not only in a traced benchmark run.  The
    tracer reads each name from its owner's ``__dict__``, so it must be
    defined on the owner itself: a method a subclass inherits is missing.
    Besides its tables the tracer wraps ``CommutationRule.__init__``."""
    tables = _tracer_tables()
    assert set(tables) == {"SPANNED", "PARSERS", "COEFF_COUNTERS"}
    targets = list(tables["SPANNED"].values())
    targets += [("skewlocal.parsing", name) for name in tables["PARSERS"]]
    targets += [("skewlocal.coeff", "Field." + name) for name in tables["COEFF_COUNTERS"]]
    targets.append(("skewlocal.skew", "CommutationRule.__init__"))
    missing = []
    for module, path in targets:
        *parents, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append((module, path))
    assert missing == []
