"""Smoke test of tools/seed_sweep.py on a tiny module: a property that fails
at every seed prints one line per seed with its falsifying example and its
@reproduce_failure blob, and one that passes prints only the count."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"

MODULE = '''
from hypothesis import given, settings, strategies as st

@settings(max_examples=5, database=None, print_blob=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0

@settings(max_examples=5, database=None)
@given(st.integers(0, 10))
def test_passes(x):
    assert x >= 0
'''


def _sweep(path, name, *seeds):
    done = subprocess.run(
        [sys.executable, str(TOOL), "%s::%s" % (path, name), "--seeds", *seeds],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout.splitlines()


def test_sweep_reports_each_failing_seed(tmp_path):
    path = tmp_path / "test_tiny.py"
    path.write_text(MODULE)
    code, lines = _sweep(path, "test_fails", "1-2", "5")
    assert code == 1
    assert [line.split(":")[0] for line in lines[:-1]] == ["seed 1", "seed 2", "seed 5"]
    for line in lines[:-1]:
        assert "Falsifying example: test_fails( x=0, )" in line
        assert "@reproduce_failure(" in line
    assert lines[-1] == "# 3 of 3 seeds failed"
    code, lines = _sweep(path, "test_passes", "1")
    assert (code, lines) == (0, ["# 0 of 1 seeds failed"])
