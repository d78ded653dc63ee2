"""Property tests for composition, the closed-form elementary inverse and
the normal form reduction, checked against independent references."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewlocal.autonorm import (
    DiskAutomorphism,
    _conj_step,
    _elementary_inverse,
    conjugate,
    normalize,
)
from skewlocal.coeff import Field
from skewlocal.series import LaurentSeries

Q = Field.rationals()
C3 = Field.cyclotomic(3)

fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
nonzero_fractions = fractions.filter(lambda c: c != 0)


def cyclotomic_elements(field, nonzero=False):
    coords = st.tuples(*([fractions] * field.degree))
    if nonzero:
        coords = coords.filter(any)
    return coords.map(lambda xs: tuple(Fraction(x) for x in xs))


def elements(field, nonzero=False):
    if field.kind == "cyclotomic":
        return cyclotomic_elements(field, nonzero)
    return nonzero_fractions if nonzero else fractions


# -- compose against a dense evaluation ------------------------------------


def _dense_mul(a, b, bound):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if bound is None or e < bound:
                out[e] = out.get(e, 0) + c1 * c2
    return out


def _dense_compose(outer, outer_prec, inner, inner_prec):
    """outer(inner) on plain {exponent: Fraction} dicts, outer exponents >= 0.

    The unknown tail O(t^outer_prec) of the outer series becomes
    O(t^(outer_prec v)), and inner^e is known below inner_prec + (e - 1) v,
    where v is the valuation of inner.
    """
    v = min(inner)
    bounds = []
    if outer_prec is not None:
        bounds.append(outer_prec * v)
    positive = [e for e in outer if e > 0]
    if positive and inner_prec is not None:
        bounds.append(inner_prec + (min(positive) - 1) * v)
    prec = min(bounds) if bounds else None
    acc = {}
    power = {0: Fraction(1)}
    for e in range(max(outer) + 1):
        if e in outer:
            for x, c in power.items():
                acc[x] = acc.get(x, 0) + outer[e] * c
        power = _dense_mul(power, inner, prec)
    coeffs = {
        x: c for x, c in acc.items() if c != 0 and (prec is None or x < prec)
    }
    return coeffs, prec


@st.composite
def compose_inputs(draw):
    outer = draw(st.dictionaries(st.integers(0, 6), nonzero_fractions, min_size=1, max_size=5))
    outer_prec = draw(st.one_of(st.none(), st.integers(max(outer) + 1, 9)))
    v = draw(st.sampled_from([1, 2]))
    inner = {v: draw(nonzero_fractions)}
    inner.update(draw(st.dictionaries(st.integers(v + 1, v + 5), nonzero_fractions, max_size=4)))
    inner_prec = draw(st.one_of(st.none(), st.integers(v + 1, v + 8)))
    inner = {e: c for e, c in inner.items() if inner_prec is None or e < inner_prec}
    return outer, outer_prec, inner, inner_prec


@settings(max_examples=200, deadline=1000, database=None)
@given(compose_inputs())
def test_compose_matches_dense_evaluation(data):
    outer, outer_prec, inner, inner_prec = data
    got = LaurentSeries(Q, outer, outer_prec).compose(LaurentSeries(Q, inner, inner_prec))
    coeffs, prec = _dense_compose(outer, outer_prec, inner, inner_prec)
    assert got.prec == prec
    assert got.coeffs == coeffs


# -- closed-form inverse of t + b t^k ----------------------------------------


@st.composite
def elementary_inputs(draw):
    field = draw(st.sampled_from([Q, C3]))
    k = draw(st.integers(2, 6))
    b = draw(elements(field, nonzero=True))
    prec = draw(st.integers(2, 14))
    return field, k, b, prec


@settings(max_examples=60, deadline=2000, database=None)
@given(elementary_inputs())
def test_elementary_inverse_matches_comp_invert(data):
    field, k, b, prec = data
    f = LaurentSeries(field, {1: field.one(), k: b}, prec)
    assert _elementary_inverse(field, k, b, prec) == f.comp_invert()


@settings(max_examples=30, deadline=2000, database=None)
@given(elementary_inputs(), st.data())
def test_conj_step_matches_conjugate(data, more):
    field, k, b, prec = data
    cur = {1: more.draw(elements(field, nonzero=True))}
    cur.update(more.draw(st.dictionaries(st.integers(2, 8), elements(field), max_size=4)))
    cur = DiskAutomorphism(LaurentSeries(field, cur, prec))
    new, f = _conj_step(field, cur, k, b, prec)
    assert f == DiskAutomorphism(LaurentSeries(field, {1: field.one(), k: b}, prec))
    assert new == conjugate(cur, f)


# -- normalize reaches pass two and its conjugator is exact ---------------------

# (field, n, contact orders i with n | i - 1, i <= 5)
PASS_TWO_CASES = [(Q, 1, (2, 3, 4, 5)), (Q, 2, (3, 5)), (C3, 3, (4,))]


@st.composite
def hidden_normal_forms(draw):
    field, n, orders = draw(st.sampled_from(PASS_TWO_CASES))
    i = draw(st.sampled_from(orders))
    prec = draw(st.integers(2 * i, 2 * i + 3))
    zeta = field.primitive_root_of_unity(n)
    x = draw(elements(field, nonzero=True))
    y = draw(elements(field))
    normal = {1: zeta, i: x, 2 * i - 1: field.mul(field.mul(x, x), y)}
    conj = {1: field.one()}
    conj.update(draw(st.dictionaries(st.integers(2, 5), elements(field), min_size=1, max_size=3)))
    a = conjugate(
        DiskAutomorphism(LaurentSeries(field, normal, prec)),
        DiskAutomorphism(LaurentSeries(field, conj, prec)),
    )
    return a, zeta, n, i, prec


@settings(max_examples=60, deadline=5000, database=None)
@given(hidden_normal_forms())
def test_normalize_conjugator_reproduces_normal_form(data):
    a, zeta, n, i, prec = data
    nf = normalize(a, prec)
    assert (nf.zeta, nf.n, nf.i_alpha) == (zeta, n, i)
    assert conjugate(a, nf.conjugator) == nf.normal_form
