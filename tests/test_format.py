"""The five printed sums (cyclotomic elements, Laurent series, skew series,
operators and Dubrovin words) against reference printers: one written-out
printer per type, each with its own coefficient, sign, parenthesis and tail
rules, as they stood before ``coeff.format_sum`` served all five."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewlocal.coeff import Field
from skewlocal.dubrovin import Descriptor, HeisenbergElement
from skewlocal.psido import PsiDO
from skewlocal.series import LaurentSeries
from skewlocal.skew import CommutationRule, SkewSeries

FIELDS = (
    Field.rationals(),
    Field.cyclotomic(1),
    Field.cyclotomic(3),
    Field.cyclotomic(5),
    Field.prime_field(7),
)

# -- reference printers --------------------------------------------------------


def ref_join(parts):
    if not parts:
        return "0"
    return parts[0] + "".join(
        " - " + t[1:] if t.startswith("-") else " + " + t for t in parts[1:]
    )


def ref_element(f, a):
    if f.kind == "rational":
        return str(a)
    if f.kind == "prime":
        return str(a % f.param)
    parts = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            var = "zeta" if k == 1 else "zeta^%d" % k
            if c == 1:
                term = var
            elif c == -1:
                term = "-" + var
            else:
                term = "%s*%s" % (c, var)
            parts.append(term)
    return ref_join(parts)


def ref_series(s, var="t"):
    f = s.field
    parts = []
    for e in sorted(s.coeffs):
        c = s.coeffs[e]
        cs = ref_element(f, c)
        if e == 0:
            term = cs if f.is_simple(c) else "(%s)" % cs
        else:
            vs = var if e == 1 else "%s^%d" % (var, e)
            if cs == "1":
                term = vs
            elif cs == "-1":
                term = "-" + vs
            elif f.is_simple(c):
                term = "%s*%s" % (cs, vs)
            else:
                term = "(%s)*%s" % (cs, vs)
        parts.append(term)
    body = ref_join(parts)
    if s.prec is not None:
        tail = "O(%s^%d)" % (var, s.prec)
        body = tail if body == "0" else "%s + %s" % (body, tail)
    return body


def ref_graded(terms, inner, var, tail, order):
    """The skew-series and operator printer: series in ``inner`` as the
    coefficients of powers of ``var``, in the given order of exponents."""
    parts = []
    for k in order:
        s = terms[k]
        body = ref_series(s, inner)
        multi = len(s.coeffs) + (1 if s.prec is not None else 0) > 1
        if k == 0:
            parts.append("(%s)" % body if multi else body)
            continue
        vs = var if k == 1 else "%s^%d" % (var, k)
        if body == "1":
            term = vs
        elif body == "-1":
            term = "-" + vs
        elif multi:
            term = "(%s)*%s" % (body, vs)
        else:
            term = "%s*%s" % (body, vs)
        parts.append(term)
    body = ref_join(parts)
    if tail is not None:
        tail = "O(%s^%d)" % (var, tail)
        body = tail if body == "0" else "%s + %s" % (body, tail)
    return body


def ref_heis(h):
    d = h.descriptor
    one = d.field.one()

    def is_one(c):
        if d.series:
            return c.prec is None and c.support() == [0] and c.coeff(0) == one
        return c == one

    parts = []
    for k in sorted(h.levels):
        for a, b in sorted(h.levels[k]):
            c = h.levels[k][(a, b)]
            word = []
            if a:
                word.append("x" if a == 1 else "x^%d" % a)
            if b:
                word.append("y" if b == 1 else "y^%d" % b)
            if k:
                word.append("z" if k == 1 else "z^%d" % k)
            body = "*".join(word)
            cs = ref_series(c, "u") if d.series else ref_element(d.field, c)
            if not body:
                term = "(%s)" % cs if ("+" in cs[1:] or "-" in cs[1:]) else cs
            elif is_one(c):
                term = body
            elif cs == "-1":
                term = "-" + body
            elif "+" in cs[1:] or "-" in cs[1:] or " " in cs:
                term = "(%s)*%s" % (cs, body)
            else:
                term = "%s*%s" % (cs, body)
            parts.append(term)
    return ref_join(parts)


# -- strategies ------------------------------------------------------------------

# 0 and +-1 often: they are the coefficients the printers treat apart
values = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(2)]
)
precs = st.none() | st.integers(-3, 6)


def elements(f):
    if f.kind == "cyclotomic":
        return st.tuples(*([values] * f.degree))
    if f.kind == "prime":
        return st.integers(0, f.param - 1)
    return values


@st.composite
def fields_and(draw, build):
    f = draw(st.sampled_from(FIELDS))
    return f, draw(build(f))


def series(f, lo=-3, hi=4):
    return st.builds(
        lambda coeffs, prec: LaurentSeries(f, coeffs, prec),
        st.dictionaries(st.integers(lo, hi), elements(f), max_size=4),
        precs,
    )


def skew_series(f):
    rule = CommutationRule(f, {0: LaurentSeries.variable(f)})
    return st.builds(
        lambda terms, gprec: SkewSeries(rule, terms, gprec),
        st.dictionaries(st.integers(-2, 3), series(f), max_size=4),
        precs,
    )


def operators(f):
    # series with no terms and a precision are kept: zero to X-precision
    return st.builds(
        lambda coeffs, cut: PsiDO(f, coeffs, cut),
        st.dictionaries(st.integers(-3, 3), series(f), max_size=4),
        precs,
    )


def words(f):
    def levels(coeff):
        monomial = st.tuples(st.integers(0, 2), st.integers(0, 2))
        return st.dictionaries(
            st.integers(0, 2), st.dictionaries(monomial, coeff, max_size=3), max_size=3
        )

    # over the Laurent descriptor, u-exponents go negative: (u^-1)*x
    return levels(elements(f)).map(
        lambda lv: HeisenbergElement(Descriptor(f), lv)
    ) | levels(series(f, -3, 2)).map(
        lambda lv: HeisenbergElement(Descriptor(f, series=True), lv)
    )


# -- the comparisons ------------------------------------------------------------


@settings(max_examples=300, deadline=2000, database=None)
@given(fields_and(elements))
def test_element_format_matches_reference(fa):
    f, a = fa
    assert f.format_element(a) == ref_element(f, a)


@settings(max_examples=300, deadline=2000, database=None)
@given(fields_and(series), st.sampled_from(["t", "t1", "X", "u"]))
def test_series_format_matches_reference(fs, var):
    _, s = fs
    assert s.format(var) == ref_series(s, var)


@settings(max_examples=200, deadline=2000, database=None)
@given(fields_and(skew_series))
def test_skew_format_matches_reference(fx):
    _, x = fx
    # a grade known only as O(t1^k) prints as one
    shown = dict(x.entries())
    assert x.format() == ref_graded(shown, "t1", "t2", x.gprec, sorted(shown))


@settings(max_examples=200, deadline=2000, database=None)
@given(fields_and(operators))
def test_psido_format_matches_reference(fp):
    _, p = fp
    assert p.format() == ref_graded(p.coeffs, "X", "D", p.cut, sorted(p.coeffs, reverse=True))


@settings(max_examples=200, deadline=2000, database=None)
@given(fields_and(words))
def test_heisenberg_format_matches_reference(fh):
    _, h = fh
    assert h.format() == ref_heis(h)
