"""Benchmark harness for skewlocal.

    python3 perfbench/run.py --workload canonicalize|normalize|ring \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 runs passes over the workload's fixed corpus until S seconds of
item time are spent and reports the end-to-end metrics.  Times are reported
at reference speed: a fixed exact-arithmetic kernel that does not use
skewlocal runs right before every item, and the item's time is scaled by
REFERENCE_S over the kernel's time.  The shared machine this was built on
changes speed by up to 2x for minutes at a time, and the kernel slows with
it.  An item's time is the median of its scaled repeats.  Set-up is scaled
the same way, step by step.  --trace 1 runs the corpus twice, first
untraced and then traced, and reports the per-layer metrics; its counts
repeat exactly for a fixed seed.  See perfbench/NOTES.md.
"""

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# the reference kernel's fastest time on the machine the benchmark was built
# on (2 vCPU Xeon at 2.0 GHz, Python 3.11); reported times are scaled to it
REFERENCE_S = 0.002

sys.path.insert(0, HERE)
import baseline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import skewlocal afresh from this checkout's src/ directory."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "skewlocal" or m.startswith("skewlocal.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sl = importlib.import_module("skewlocal")
    where = os.path.dirname(os.path.abspath(sl.__file__))
    if where != os.path.join(SRC, "skewlocal"):
        raise ImportError("skewlocal was imported from %s, not from %s" % (where, SRC))
    return sl


_REF_A = {i: Fraction(i + 1, i + 2) for i in range(24)}
_REF_B = {i: Fraction(2 * i + 1, i + 3) for i in range(24)}


def reference_scale():
    """REFERENCE_S over one timing of the reference kernel: a dense product
    of two fixed 24-term polynomials with Fraction coefficients, held in
    dicts.  It is the same kind of work as the program's hot path, in code
    that no change to the program touches, so it measures how fast the
    machine is right now."""
    t0 = time.perf_counter()
    out = {}
    for i, x in _REF_A.items():
        for j, y in _REF_B.items():
            v = x * y
            k = i + j
            out[k] = out[k] + v if k in out else v
    return REFERENCE_S / (time.perf_counter() - t0)


class ScaledClock:
    """Sums the times of the calls made through it, raw and at reference
    speed: the reference kernel runs right before each call."""

    def __init__(self):
        self.raw = self.scaled = 0.0

    def __call__(self, fn, *args):
        scale = reference_scale()
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.raw += dt
        self.scaled += dt * scale
        return out


def set_up(workload, seed, sizes=None):
    """Import, generate the corpus and warm up, timed step by step: the
    import, the workload's construction, every generated input and every
    warm-up item.

    Done SETUP_REPEATS times, each from a fresh import; returns the last
    workload, its corpus and the median set-up time, raw and at reference
    speed."""
    raw = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        clock = ScaledClock()
        sl = clock(import_package)
        wl = clock(workloads.WORKLOADS[workload], sl, seed, sizes)
        wl.step = clock
        corpus = wl.corpus()
        if not wl.warm_up():
            raise RuntimeError("warm-up item failed its check")
        del wl.step
        raw.append(clock.raw)
        scaled.append(clock.scaled)
    return wl, corpus, (statistics.median(raw), statistics.median(scaled))


def run_item(item):
    """Time one item.  Returns (seconds, output); the output of an item that
    raised is the exception."""
    t0 = time.perf_counter()
    try:
        out = item.run()
    except Exception as exc:  # a raise is a failed item, never a dropped one
        out = exc
    return time.perf_counter() - t0, out


def check_item(item, out):
    """Check one item's output exactly, outside any timed region."""
    if isinstance(out, Exception):
        print("# item %s raised %s: %s" % (item.label, type(out).__name__, out))
        return False
    try:
        ok = bool(item.check(out, item.expected))
    except Exception as exc:
        print("# item %s check raised %s: %s" % (item.label, type(exc).__name__, exc))
        return False
    if not ok:
        print("# item %s failed its check" % item.label)
    return ok


def timed_loop(corpus, seconds):
    """Pass over the corpus until the summed item time reaches ``seconds``.

    Returns, for every corpus item, its repeats in seconds at reference
    speed (none for items never reached), the number of runs, the number of
    failed runs and the raw item seconds.  The reference kernel runs right
    before each item, so each repeat is scaled by the machine's speed at
    that moment."""
    times = [[] for _ in corpus]
    total = 0.0
    runs = failed = 0
    while True:
        for k, item in enumerate(corpus):
            if total >= seconds:
                return times, runs, failed, total
            scale = reference_scale()
            dt, out = run_item(item)
            total += dt
            runs += 1
            failed += not check_item(item, out)
            times[k].append(dt * scale)


def tail(times):
    """Highest percentile with at least TAIL_BEYOND items beyond it:
    (value, percentile, item count).  With too few items, the maximum."""
    s = sorted(times)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return s[k], 100.0 * (k + 1) / n, n


def growth_exponent(sized_times):
    """Least-squares slope of log(per-size geometric mean item time) on
    log(size).  Every template has the same number of items at each size, so
    this is the mean of the per-template slopes; a per-size median would
    jump between templates of different cost."""
    by_size = {}
    for size, dt in sized_times:
        by_size.setdefault(size, []).append(math.log(dt))
    pts = [(math.log(s), statistics.fmean(v)) for s, v in sorted(by_size.items())]
    if len(pts) < 2:
        return float("nan")
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, corpus, seconds, setup_s):
    """Metrics at reference speed; an item's time is the median of its
    scaled repeats."""
    repeats, runs, failed, raw_total = timed_loop(corpus, seconds)
    sized = [(item.size, statistics.median(r)) for item, r in zip(corpus, repeats) if r]
    times = [t for _, t in sized]
    value, pct, count = tail(times)
    metrics = {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (1000.0 * statistics.median(times), "ms"),
        "item_tail_ms": (1000.0 * value, "ms"),
        "growth_exponent": (growth_exponent(sized), "1"),
        "setup_s": (setup_s[1], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print("# %d items, %d runs (%.2f repeats per item), %d failed, fail_ratio %.6f" % (
        len(times), runs, runs / len(times), failed, failed / runs))
    print("# item_tail_ms is p%.2f of %d items" % (pct, count))
    print("# raw seconds: %.3f of item time, %.4f of set-up" % (raw_total, setup_s[0]))
    return metrics, runs, failed


def per_layer(wl, corpus, seed):
    """Untraced then traced pass over the corpus.  Checks run with tracing
    off, so they add nothing to the per-layer numbers."""
    failed = 0
    t_plain = 0.0
    for item in corpus:
        dt, out = run_item(item)
        t_plain += dt
        failed += not check_item(item, out)
    tracer = tracing.Tracer()
    tracer.install()
    t_traced = 0.0
    outputs = []
    try:
        for k, item in enumerate(corpus):
            tracer.item = k
            dt, out = run_item(item)
            t_traced += dt
            outputs.append(out)
    finally:
        tracer.uninstall()
    for item, out in zip(corpus, outputs):
        failed += not check_item(item, out)
    heights = max(tracing.height_bits(out) for out in outputs)
    metrics = tracer.layer_metrics(heights, t_traced / t_plain)
    print("# untraced %.3f s, traced %.3f s, %d spans" % (
        t_plain, t_traced, len(tracer.span_name)))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-%d.txt" % (wl.name, seed))
    tracer.write_spans(path)
    print("# spans written to %s" % os.path.relpath(path, ROOT))
    for name, median_s, reps in baseline.rows(wl.sl, wl.name):
        print("# baseline %s: %.4f ms per call (median of %d)" % (name, 1000 * median_s, reps))
    return metrics, 2 * len(corpus), failed


def measure(workload, seed, seconds, trace, sizes=None):
    """One benchmark run; returns the result object printed last."""
    wl, corpus, setup_s = set_up(workload, seed, sizes)
    if trace:
        metrics, attempted, failed = per_layer(wl, corpus, seed)
    else:
        metrics, attempted, failed = end_to_end(wl, corpus, seconds, setup_s)
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "skewlocal", "__init__.py")):
        print("error: no skewlocal sources under %s" % SRC, file=sys.stderr)
        return 2
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
