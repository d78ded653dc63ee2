"""Run the benchmark in alternating pairs, parent against change, and write
the per-side medians, quartiles and wins to a BENCH_*.json file.

    python3 tools/bench_record.py --parent REV --change . \
        --workload canonicalize --seeds 911-920 --seconds 30 --out BENCH_N.json

A side is a directory holding a checkout, used as it is, or a git revision
of this repository, exported with ``git archive`` into a scratch directory
so that it runs from committed files only.  Each seed is one pair: both
sides run ``perfbench/run.py --trace 0`` once on it, and the side that runs
first alternates from pair to pair, so slow drift of the machine hits both
alike.  A metric's wins count the pairs in which the change was better, in
the direction BENCHMARK.json gives for it, and its verdict (``verdict``)
reads the pairs against the metric's bound there.  With ``--trace-seed N`` each
side also makes one ``--trace 1`` run of every workload on seed N, and its
per-layer counts and times are recorded under ``traced``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_seeds(items):
    """Seeds from arguments such as 911 or 911-920 (both ends included)."""
    out = []
    for item in items:
        lo, _, hi = item.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def parse_result(stdout):
    """The result object a benchmark run prints as its last line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _spread(stats):
    """The quartile spread (q3 - q1) relative to the median."""
    width = stats["q3"] - stats["q1"]
    if stats["median"] == 0:
        return 0.0 if width == 0 else float("inf")
    return width / abs(stats["median"])


def verdict(parent, change, wins, n, better, bound):
    """What the pairs show for one metric, from each side's median and
    quartiles, the change's wins in n pairs, the better direction and the
    metric's relative bound:

    * "worse": the change's median is worse than the parent's by more than
      bound times the parent's median;
    * "unresolved": either side's quartile spread, relative to its median,
      is wider than the bound;
    * "gain": the change wins at least 9 in 10 pairs, and its median is
      better than the parent's by more than the parent's quartile spread;
    * "within bound": anything else.
    """
    sign = 1 if better == "higher" else -1
    gap = sign * (change["median"] - parent["median"])
    if gap < -bound * abs(parent["median"]):
        return "worse"
    if max(_spread(parent), _spread(change)) > bound:
        return "unresolved"
    if 10 * wins >= 9 * n and gap > parent["q3"] - parent["q1"]:
        return "gain"
    return "within bound"


def summarize(pairs, better, bounds):
    """Per-side median and quartiles of every metric, the change's wins, its
    ``verdict`` and the failed runs, for a list of pairs {"seed", "first",
    "parent", "change"} whose sides are parsed results; better maps each
    metric to "higher" or "lower", and bounds maps it to its relative bound,
    as in BENCHMARK.json."""
    out = {"seeds": [p["seed"] for p in pairs], "pairs": pairs}
    names = [n for n in better if all(n in p[s]["metrics"] for p in pairs for s in SIDES)]
    for side in SIDES:
        stats = {}
        for name in names:
            q1, q2, q3 = quartiles([p[side]["metrics"][name] for p in pairs])
            stats[name] = {"median": q2, "q1": q1, "q3": q3}
        out[side] = stats
    wins = {}
    for name in names:
        sign = 1 if better[name] == "higher" else -1
        wins[name] = sum(
            sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0
            for p in pairs
        )
    out["wins"] = wins
    out["verdicts"] = {
        name: verdict(out["parent"][name], out["change"][name], wins[name],
                      len(pairs), better[name], bounds[name])
        for name in names
    }
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    return out


def _git(cwd, *args):
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def checkout(spec, workdir, name):
    """(directory, revision, uncommitted changes) for one side."""
    if os.path.isdir(spec):
        rev = _git(spec, "rev-parse", "HEAD")
        status = _git(spec, "status", "--porcelain", "--untracked-files=no")
        return os.path.abspath(spec), rev, bool(status)
    rev = _git(ROOT, "rev-parse", "--verify", spec + "^{commit}")
    if rev is None:
        raise SystemExit("error: %s is neither a directory nor a git revision" % spec)
    path = os.path.join(workdir, name)
    os.makedirs(path)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", path], input=archive.stdout, check=True)
    return path, rev, False


def run_once(path, workload, seed, seconds, trace=0):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=path, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit("error: %s seed %d in %s failed:\n%s" % (
            workload, seed, path, done.stderr))
    return parse_result(done.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="directory or git revision")
    ap.add_argument("--change", required=True, help="directory or git revision")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds, or ranges a-b")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-seed", type=int, help="one traced run per side and workload")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory() as workdir:
        sides = {
            "parent": checkout(args.parent, workdir, "parent"),
            "change": checkout(args.change, workdir, "change"),
        }
        record = {
            side: {"revision": rev, "uncommitted": dirty}
            for side, (_, rev, dirty) in sides.items()
        }
        record["seconds"] = args.seconds
        record["workloads"] = {}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side][0], workload, seed, args.seconds)
                    print("# %s seed %d %s: %s" % (workload, seed, side, json.dumps(
                        pair[side]["metrics"])), flush=True)
                pairs.append(pair)
            record["workloads"][workload] = summarize(pairs, better, bounds)
            if args.trace_seed is not None:
                traced = {"seed": args.trace_seed}
                for side in SIDES:
                    traced[side] = run_once(
                        sides[side][0], workload, args.trace_seed, args.seconds, trace=1
                    )["metrics"]
                record["workloads"][workload]["traced"] = traced
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
