"""Smoke test of tools/dump_outputs.py: one seed at the smallest size of
each benchmark workload, run twice in fresh processes, prints the same
text both times, and every canonicalize item's records replay to its
canonical rule."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "dump_outputs.py"


def _dump():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "1", "--smallest"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dump_is_deterministic():
    first = _dump()
    assert first == _dump()
    for name in ("canonicalize", "normalize", "ring"):
        assert "== %s seed 1\n" % name in first
    assert "\n  invariants (" in first
    assert "\n  replay == canonical: True\n" in first
    assert "replay == canonical: False" not in first
    assert "\n  text " in first
    assert "\n  normal form zeta=" in first
