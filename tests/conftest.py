"""Shared random-value generators for the test suite.

Everything takes an explicit random.Random so failures reproduce from the
seed written in the test.
"""

from fractions import Fraction

import pytest
from hypothesis import settings

from skewlocal import skew
from skewlocal.coeff import Field
from skewlocal.series import LaurentSeries
from skewlocal.skew import build_from_invariants

# a failing property example prints its @reproduce_failure blob; every
# other setting stays at the default or at what each test sets
settings.register_profile("skewlocal", print_blob=True)
settings.load_profile("skewlocal")

Q = Field.rationals()


@pytest.fixture
def evaluate_calls(monkeypatch):
    """A list whose one entry counts the calls of ``skew._evaluate``, the
    substitution behind every twist and power chain."""
    calls = [0]
    evaluate = skew._evaluate

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(skew, "_evaluate", counted)
    return calls


def replay(rule, records, cap):
    """The records of reduce_support or canonicalize applied in order to the
    rule they were made on, cut to cap when its t2-precision is finite."""
    cur = rule if rule.t2_prec is None else rule.truncate(cap)
    for rec in records:
        cur = rec.apply(cur)
    return cur


def rand_fraction(rng, nonzero=False):
    while True:
        num = rng.randint(-6, 6)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, 4))


def rand_field_element(rng, field, nonzero=False):
    while True:
        if field.kind == "cyclotomic":
            e = field.zero()
            for k in range(field.degree):
                e = field.add(
                    e,
                    field.mul(
                        field.from_fraction(rand_fraction(rng)),
                        field.pow(field.zeta(), k),
                    ),
                )
        elif field.kind == "prime":
            e = field.from_int(rng.randint(0, field.param - 1))
        else:
            e = field.from_fraction(rand_fraction(rng))
        if not (nonzero and field.is_zero(e)):
            return e


def rand_poly(rng, field, lo=0, hi=4, terms=3, nonzero=False):
    """Random exact polynomial-style Laurent series."""
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, terms)):
            e = rng.randint(lo, hi)
            c = rand_field_element(rng, field)
            if not field.is_zero(c):
                coeffs[e] = field.add(coeffs[e], c) if e in coeffs else c
        s = LaurentSeries(field, coeffs)
        if not (nonzero and s.is_zero()):
            return s


def rand_unit_poly(rng, field, hi=3):
    """Valuation 0 with an invertible constant term."""
    s = rand_poly(rng, field, lo=1, hi=hi, terms=2)
    return s + LaurentSeries.const(field, rand_field_element(rng, field, nonzero=True))


def rand_tangent_poly(rng, field, hi=4, unit=None):
    """Valuation 1; linear coefficient `unit` (default random nonzero)."""
    if unit is None:
        unit = rand_field_element(rng, field, nonzero=True)
    s = rand_poly(rng, field, lo=2, hi=hi, terms=3)
    return s + LaurentSeries(field, {1: unit})


def rand_admissible_set(rng, field, n):
    """(n, xi, i, r, c, a) admissible over the field; assumes the field has
    a primitive n-th root of unity."""
    if n == 1:
        xi = field.one()
    else:
        xi = field.primitive_root_of_unity(n)
    i = n * rng.randint(1, 2)
    choices = [r for r in range(0, i) if (r - 1) % n == 0]
    r = rng.choice(choices)
    c = rand_field_element(rng, field, nonzero=True)
    a = rand_field_element(rng, field)
    return n, xi, i, r, c, a


def rand_canonical_rule(rng, field, n):
    n, xi, i, r, c, a = rand_admissible_set(rng, field, n)
    return build_from_invariants(field, n, xi, i, r, c, a)
