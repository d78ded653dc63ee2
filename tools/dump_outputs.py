"""Print every answer of the benchmark corpora as text, so that two
checkouts can be compared byte for byte.

    python3 tools/dump_outputs.py --seeds 1-4 > dump.txt
    python3 tools/dump_outputs.py --seeds 1 --smallest

The corpora are the canonicalize, normalize and ring workloads of
``perfbench/workloads.py``, built for each seed (``--smallest``: at the
smallest size of each workload only), and every item runs once.  Printed
are the invariants, the canonical rules with their t1- and t2-precisions,
the records with their kinds, grades, caps and terms, whether the records
replayed on the input rule give the canonical rule, the ring operands and
results term by term with their texts, and the normal forms with their
conjugators.
Every sparse map is printed in its own key order, so a change of dict
order shows as a difference.  The package is imported from ``src/`` of the
checkout that holds this script.
"""

import argparse
import inspect
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import skewlocal as sl  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(items):
    """Seeds from arguments such as 1 or 1-4 (both ends included)."""
    out = []
    for item in items:
        lo, _, hi = item.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def show(x):
    """Text for a value of any type the corpora return, maps in key order."""
    if isinstance(x, (bool, type(None), str)):
        return repr(x)
    if isinstance(x, (int, Fraction, float)):
        return str(x)
    if isinstance(x, (tuple, list)):
        return "(%s)" % ", ".join(show(v) for v in x)
    if isinstance(x, dict):
        return "{%s}" % ", ".join("%s: %s" % (show(k), show(v)) for k, v in x.items())
    if isinstance(x, sl.LaurentSeries):
        return "series%s O(%s)" % (show(x.coeffs), x.prec)
    if isinstance(x, sl.SkewSeries):
        return "skew%s O(t2^%s)" % (show(x.terms), x.gprec)
    if isinstance(x, sl.CommutationRule):
        return "rule t1_prec=%s t2_prec=%s C=%s" % (x.t1_prec(), x.t2_prec, show(x.coeffs))
    if isinstance(x, sl.PsiDO):
        return "psido%s cut=%s" % (show(x.coeffs), x.cut)
    if isinstance(x, sl.HeisenbergElement):
        return "heis%s" % show(x.levels)
    if isinstance(x, sl.DiskAutomorphism):
        return "auto %s" % show(x.image)
    if isinstance(x, sl.ParameterChange):
        return "change %s grade=%s cap=%s %s" % (x.kind, show(x.grade), x.cap, show(x.terms))
    if isinstance(x, sl.SkewInvariantSet):
        return "invariants %s" % show(x.key())
    if isinstance(x, sl.NormalFormInvariants):
        return "normal form zeta=%s n=%s i=%s x=%s y=%s x_class=%s prec=%s\n  nf: %s\n  conj: %s" % (
            show(x.zeta), show(x.n), show(x.i_alpha), show(x.x), show(x.y),
            show(x.x_class), show(x.precision), show(x.normal_form), show(x.conjugator))
    raise TypeError("no text for %r" % type(x).__name__)


def dump_canonicalize(out, item):
    invset, canon, records = out
    print(item.label)
    print("  " + show(invset))
    print("  " + show(canon))
    for rec in records:
        print("  " + show(rec))
    # the item's input is the rule its run closure canonicalizes; its t2_prec
    # is the default cap, so the records apply to it uncut
    cur = inspect.getclosurevars(item.run).nonlocals["rule"]
    for rec in records:
        cur = rec.apply(cur)
    print("  replay == canonical: %s" % show(cur == canon))


def dump_normalize(out, item):
    print(item.label)
    print("  " + show(out))


def dump_ring(out, item):
    values, texts = out
    print(item.label)
    for name, v in zip(("u", "v", "uv", "ui", "p", "pi", "ab"), values):
        print("  %s = %s" % (name, show(v)))
    for t in texts:
        print("  text " + t)


DUMPERS = {
    "canonicalize": dump_canonicalize,
    "normalize": dump_normalize,
    "ring": dump_ring,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds, or ranges a-b")
    ap.add_argument("--smallest", action="store_true", help="the smallest size only")
    args = ap.parse_args(argv)
    for seed in parse_seeds(args.seeds):
        for name, dump in DUMPERS.items():
            cls = workloads.WORKLOADS[name]
            sizes = (min(cls.sizes),) if args.smallest else None
            work = cls(sl, seed, sizes)
            print("== %s seed %d" % (name, seed))
            for item in work.corpus():
                dump(item.run(), item)
    return 0


if __name__ == "__main__":
    sys.exit(main())
