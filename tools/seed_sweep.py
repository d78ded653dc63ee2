"""Run one property test at each of a range of Hypothesis seeds and print
one line per failing seed, with the falsifying example and its
``@reproduce_failure`` blob.

    python3 tools/seed_sweep.py tests/test_properties.py::test_skew_invert_matches_geometric_loop --seeds 1-50

Every seed runs in this process, through ``pytest.main`` with
``--hypothesis-seed``, so the test module is imported once.  A seed whose
run passes prints nothing; the last line counts the failing seeds.  The
exit status is 1 when some seed failed, else 0.
"""

import argparse
import contextlib
import io
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(items):
    """Seeds from arguments such as 1 or 1-50 (both ends included)."""
    out = []
    for item in items:
        lo, _, hi = item.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


class _Failures:
    """A pytest plugin that keeps the text of every failed test phase."""

    def __init__(self):
        self.texts = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.texts.append(report.longreprtext)


def summarize(text):
    """One line from a failure report: each falsifying example (its call up
    to the closing parenthesis, then its draws), the reproduce blobs, else
    the last error line."""
    parts = []
    raw = text.splitlines()
    # pytest marks error lines "E ", exception groups draw "| " and "+-";
    # a value printed over several lines is indented below its first line
    marks = [re.match(r"(E\s)?[\s|+-]*", line).end() for line in raw]
    lines = [line[m:].rstrip() for line, m in zip(raw, marks)]

    def block(k):
        """Line k joined with the lines indented below it (and a call's
        closing parenthesis); returns the text and the next index."""
        end = k + 1
        while end < len(lines) and lines[end] and marks[end] > marks[k]:
            end += 1
        if end < len(lines) and lines[end] == ")" and lines[k].endswith("("):
            end += 1
        return " ".join(lines[k:end]), end

    k = 0
    while k < len(lines):
        if not lines[k].startswith("Falsifying example"):
            k += 1
            continue
        call, k = block(k)
        parts.append(call)
        while k < len(lines) and lines[k].startswith("Draw "):
            draw, k = block(k)
            parts.append(draw)
    parts.extend(re.findall(r"@reproduce_failure\([^)]*\)", text))
    if not parts:
        errors = [line for line in raw if line.startswith("E ")]
        parts.append(errors[-1].strip() if errors else raw[-1] if raw else "failed")
    return " | ".join(parts)


def sweep(test, seeds):
    """Yield (seed, one-line summary) for every seed at which the test fails."""
    for seed in seeds:
        plugin = _Failures()
        args = [test, "--hypothesis-seed=%d" % seed, "-q", "-p", "no:cacheprovider",
                "-W", "ignore", "--rootdir", ROOT]
        with contextlib.redirect_stdout(io.StringIO()):
            code = pytest.main(args, plugins=[plugin])
        if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
            raise SystemExit("pytest could not run %s (exit code %s)" % (test, code))
        if plugin.texts:
            yield seed, summarize("\n".join(plugin.texts))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("test", help="one test id, path::name")
    ap.add_argument("--seeds", nargs="+", default=["1-50"])
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    failed = 0
    for seed, line in sweep(args.test, seeds):
        failed += 1
        print("seed %d: %s" % (seed, line), flush=True)
    print("# %d of %d seeds failed" % (failed, len(seeds)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
