"""The summary of tools/bench_record.py, on canned benchmark output; no
benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _stdout(items_per_s, tail_ms, failed=0):
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "item_tail_ms": {"value": tail_ms, "unit": "ms"},
        },
    }
    return "# 100 items\nitems_per_s = %g 1/s\n%s\n" % (items_per_s, json.dumps(result))


def test_parse_result_reads_the_last_line():
    got = bench_record.parse_result(_stdout(40.0, 30.0, failed=2))
    assert got == {
        "failed": 2,
        "attempted": 100,
        "metrics": {"items_per_s": 40.0, "item_tail_ms": 30.0},
    }
    with pytest.raises(ValueError):
        bench_record.parse_result("\n\n")


def test_parse_seeds_expands_ranges():
    assert bench_record.parse_seeds(["911-913", "7"]) == [911, 912, 913, 7]


def test_summary_of_canned_pairs():
    parent = [(36.0, 37.0), (37.0, 36.0), (35.0, 38.0), (38.0, 35.0), (36.5, 36.5)]
    change = [(43.0, 31.0), (42.0, 32.0), (35.0, 38.0), (44.0, 36.0), (43.0, 36.5)]
    pairs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        pairs.append({
            "seed": 911 + k,
            "first": "parent" if k % 2 == 0 else "change",
            "parent": bench_record.parse_result(_stdout(*p)),
            "change": bench_record.parse_result(_stdout(*c, failed=k == 4)),
        })
    better = {"items_per_s": "higher", "item_tail_ms": "lower", "setup_s": "lower"}
    got = bench_record.summarize(pairs, better, {"items_per_s": 0.25, "item_tail_ms": 0.25})
    assert got["seeds"] == [911, 912, 913, 914, 915]
    # setup_s is in no result, so it is not summarized
    assert set(got["wins"]) == {"items_per_s", "item_tail_ms"}
    assert got["parent"]["items_per_s"] == {"median": 36.5, "q1": 36.0, "q3": 37.0}
    assert got["change"]["items_per_s"] == {"median": 43.0, "q1": 42.0, "q3": 43.0}
    assert got["change"]["item_tail_ms"] == {"median": 36.0, "q1": 32.0, "q3": 36.5}
    # the third pair ties on both metrics; in the fourth, item_tail_ms rises
    assert got["wins"] == {"items_per_s": 4, "item_tail_ms": 2}
    assert got["failed"] == {"parent": 0, "change": 1}
    # four wins in five pairs are no gain
    assert got["verdicts"] == {"items_per_s": "within bound", "item_tail_ms": "within bound"}


def test_a_single_pair_has_flat_quartiles():
    pair = {
        "seed": 1,
        "first": "parent",
        "parent": bench_record.parse_result(_stdout(10.0, 5.0)),
        "change": bench_record.parse_result(_stdout(11.0, 5.0)),
    }
    got = bench_record.summarize([pair], {"items_per_s": "higher"}, {"items_per_s": 0.25})
    assert got["change"]["items_per_s"] == {"median": 11.0, "q1": 11.0, "q3": 11.0}
    assert got["wins"] == {"items_per_s": 1}


def _ten_pairs(parent, change):
    """Ten canned pairs of items_per_s (higher is better) and item_tail_ms
    (lower is better): parent and change are lists of (items_per_s,
    item_tail_ms), one per pair."""
    return [
        {
            "seed": 2001 + k,
            "first": "parent" if k % 2 == 0 else "change",
            "parent": bench_record.parse_result(_stdout(*p)),
            "change": bench_record.parse_result(_stdout(*c)),
        }
        for k, (p, c) in enumerate(zip(parent, change))
    ]


BETTER = {"items_per_s": "higher", "item_tail_ms": "lower"}
BOUNDS = {"items_per_s": 0.25, "item_tail_ms": 0.25}


def test_verdict_gain_needs_nine_wins_and_a_gap_beyond_the_spread():
    parent = [(63.0 + k % 3, 20.0 + k % 2) for k in range(10)]
    # nine wins by about 25%, one loss: a gain on both metrics
    change = [(80.0 + k % 3, 15.0 + k % 2) for k in range(9)] + [(60.0, 22.0)]
    got = bench_record.summarize(_ten_pairs(parent, change), BETTER, BOUNDS)
    assert got["wins"] == {"items_per_s": 9, "item_tail_ms": 9}
    assert got["verdicts"] == {"items_per_s": "gain", "item_tail_ms": "gain"}
    # eight wins are not enough
    change[8] = (60.0, 22.0)
    got = bench_record.summarize(_ten_pairs(parent, change), BETTER, BOUNDS)
    assert got["verdicts"] == {"items_per_s": "within bound", "item_tail_ms": "within bound"}
    # ten wins by less than the parent's quartile spread (about 2 items/s)
    change = [(p + 0.5, t - 0.1) for p, t in parent]
    got = bench_record.summarize(_ten_pairs(parent, change), BETTER, BOUNDS)
    assert got["wins"] == {"items_per_s": 10, "item_tail_ms": 10}
    assert got["verdicts"]["items_per_s"] == "within bound"


def test_verdict_worse_beyond_the_bound_in_the_metric_direction():
    parent = [(64.0, 20.0)] * 10
    # 30% fewer items/s is worse; a 30% lower tail is better, not worse
    change = [(44.8, 14.0)] * 10
    got = bench_record.summarize(_ten_pairs(parent, change), BETTER, BOUNDS)
    assert got["verdicts"] == {"items_per_s": "worse", "item_tail_ms": "gain"}
    # 20% fewer items/s and a 20% higher tail stay inside the 0.25 bound
    change = [(51.2, 24.0)] * 10
    got = bench_record.summarize(_ten_pairs(parent, change), BETTER, BOUNDS)
    assert got["verdicts"] == {"items_per_s": "within bound", "item_tail_ms": "within bound"}


def test_verdict_unresolved_when_the_runs_spread_wider_than_the_bound():
    parent = [(64.0, 20.0)] * 10
    change = [(40.0 + 10.0 * (k % 4), 20.0) for k in range(10)]
    got = bench_record.summarize(_ten_pairs(parent, change), BETTER, BOUNDS)
    # quartiles 42.5 and 60 around a median of 50: a spread of 0.35
    assert got["change"]["items_per_s"]["median"] == 50.0
    assert got["verdicts"]["items_per_s"] == "unresolved"
    assert got["verdicts"]["item_tail_ms"] == "within bound"
