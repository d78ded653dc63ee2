"""Per-call medians for the rows of the ROADMAP Baseline table.

Printed by traced runs (never timed into a metric), so the hand-made table
can be refilled with harness numbers.  Each row is a fixed input; the
median is over REPEATS timings of a batch of calls.
"""

import statistics
import time
from fractions import Fraction

REPEATS = 5


def _per_call(fn, batch):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


def _series24(sl, field):
    """A dense 24-term series t + c2 t^2 + ... with small rational coefficients."""
    coeffs = {e: field.from_fraction(Fraction((-1) ** e * (e % 5 + 1), e % 3 + 1))
              for e in range(1, 25)}
    return sl.LaurentSeries(field, coeffs, 25)


def _field_rows(sl):
    rows = []
    for name in ("Q", "Q(zeta_5)", "F7"):
        f = sl.Field.from_text(name)
        a = f.add(f.from_fraction(Fraction(3, 7)), f.zeta()) if f.kind == "cyclotomic" else f.from_int(3)
        b = f.from_fraction(Fraction(-5, 2)) if f.char() == 0 else f.from_int(5)
        rows.append(("Field.mul %s" % name, lambda f=f, a=a, b=b: f.mul(a, b), 2000))
    return rows


def _series_rows(sl):
    Q = sl.Field.rationals()
    s = _series24(sl, Q)
    u = s.shift(-1)  # valuation 0, invertible
    return [
        ("series mul 24 terms Q", lambda: s * s, 20),
        ("series mul_invert 24 terms Q", lambda: u.mul_invert(24), 3),
        ("series compose 24 terms Q", lambda: s.compose(s), 3),
        ("series comp_invert 24 terms Q", lambda: s.comp_invert(24), 1),
    ]


def _skew_rows(sl):
    Q = sl.Field.rationals()
    rule = sl.build_from_invariants(Q, 2, Q.from_int(-1), 2, 1, Q.from_int(3), Q.one())
    S = sl.LaurentSeries.make
    u = rule.element({0: S(Q, {0: 1, 1: 2}), 1: S(Q, {-1: 3, 1: 1}), 2: S(Q, {2: 1})}, 10)
    v = rule.element({0: S(Q, {1: 1}), 1: S(Q, {0: 2, 3: 1})}, 10)
    sl.skew_invert(u, 10)  # warm the twist caches
    return [
        ("skew_mul gprec 10 warm, Q n=2 canonical rule", lambda: sl.skew_mul(u, v, 10), 10),
        ("skew_invert gprec 10 warm, Q n=2 canonical rule", lambda: sl.skew_invert(u, 10), 1),
    ]


def _normalize_rows(sl):
    Q = sl.Field.rationals()
    img = sl.parse_series("t + t^2 + t^3/3 + 2*t^4", Q, var="t", prec=16)
    auto = sl.DiskAutomorphism(img)
    return [("normalize t + t^2 + t^3/3 + 2t^4 prec 16", lambda: sl.normalize(auto, 16), 1)]


def _canonicalize_rows(sl):
    Q = sl.Field.rationals()
    base = sl.build_from_invariants(Q, 2, Q.from_int(-1), 2, 1, Q.from_int(3), Q.one())
    S = sl.LaurentSeries.make
    w = base.element({0: S(Q, {0: 1, 2: 2}), 2: S(Q, {1: 1})})
    pert = sl.change_t2(base, w, 8)
    return [("canonicalize perturbed n=2 i=2 rule cap 8", lambda: sl.canonicalize(pert), 1)]


ROWS = {
    "canonicalize": (_skew_rows, _canonicalize_rows),
    "normalize": (_series_rows, _normalize_rows),
    "ring": (_field_rows, _skew_rows),
}


def rows(sl, workload):
    """[(row name, median seconds per call, repeats)] for one workload."""
    out = []
    for make in ROWS[workload]:
        for name, fn, batch in make(sl):
            out.append((name, _per_call(fn, batch), REPEATS))
    return out
