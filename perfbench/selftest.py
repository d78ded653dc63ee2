"""Smoke-size self-test of the benchmark harness.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Checks, for every workload, that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the per-layer
metrics, and that an item given a deliberately wrong expected answer is
counted as failed.
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SMOKE_SIZES = {"canonicalize": (7, 8), "normalize": (8, 9), "ring": (3, 4)}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _wrong(expected):
    """The expected answer with its last entry moved by one.  The first item
    of every workload is over Q, where that entry is a Fraction (canonicalize:
    a, normalize: y) or an int (ring: the Dubrovin valuation)."""
    if isinstance(expected, tuple):
        return expected[:-1] + (expected[-1] + 1,)
    return expected + 1


def test_every_metric_is_emitted():
    spec = _spec()
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS)
    for workload, sizes in SMOKE_SIZES.items():
        for trace in (0, 1):
            res = run.measure(workload, seed=1, seconds=0.5, trace=trace, sizes=sizes)
            assert res["correct"] and res["failed"] == 0, (workload, trace, res)
            assert set(res["metrics"]) == want[trace], (workload, trace)
            for name, m in res["metrics"].items():
                assert math.isfinite(m["value"]), (workload, name, m)


def test_wrong_expected_answer_counts_as_failed():
    for workload, sizes in SMOKE_SIZES.items():
        wl, corpus, _ = run.set_up(workload, 1, sizes)
        corpus[0].expected = _wrong(corpus[0].expected)
        _, attempted, failed = run.end_to_end(wl, corpus, 1e-9, (1.0, 1.0))
        assert (attempted, failed) == (1, 1), (workload, attempted, failed)


if __name__ == "__main__":
    test_every_metric_is_emitted()
    test_wrong_expected_answer_counts_as_failed()
    print("selftest passed")
