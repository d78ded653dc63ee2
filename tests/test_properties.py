"""Property tests for composition, the closed-form elementary inverse and
composition, the normal form reduction, the windowed skew solvers, the
integer series product, the operator product and the shared Newton inverse,
checked against independent references; for operator products and inverses
against completions of their truncated tails; and for negative twists
against the ring axioms."""

from fractions import Fraction
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from skewlocal.autonorm import (
    DiskAutomorphism,
    _conj_step,
    _elementary_compose,
    _elementary_inverse,
    conjugate,
    normalize,
)
from skewlocal.coeff import Field
from skewlocal.errors import NotSolvable, SkewFieldError
from skewlocal.psido import PsiDO, psido_compose, psido_invert
from skewlocal.series import DEFAULT_PRECISION, LaurentSeries
from skewlocal.skew import (
    CommutationRule,
    SkewSeries,
    change_t1,
    change_t2,
    skew_invert,
    skew_mul,
)

Q = Field.rationals()
C3 = Field.cyclotomic(3)
C5 = Field.cyclotomic(5)
F7 = Field.prime_field(7)

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
    if field.char():
        return st.integers(1 if nonzero else 0, field.char() - 1).map(field.from_int)
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


@settings(max_examples=150, deadline=2000, database=None)
@given(st.sampled_from([Q, C3, C5, F7]), st.integers(2, 6), st.data())
def test_elementary_compose_matches_compose(field, k, more):
    b = more.draw(elements(field, nonzero=True))
    prec = more.draw(st.integers(2, 14))
    g = {1: more.draw(elements(field, nonzero=True))}
    g.update(more.draw(st.dictionaries(st.integers(2, 16), elements(field), max_size=5)))
    # g exact, or known below, at or above prec
    gprec = more.draw(st.one_of(st.none(), st.integers(2, prec + 4)))
    g = LaurentSeries(field, g, gprec)
    f = LaurentSeries(field, {1: field.one(), k: b}, prec)
    assert _elementary_compose(g, k, b, prec) == g.compose(f)


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


# -- windowed skew solvers against full-cap references ---------------------------


def _reference_change_t2(rule, w_el, cap):
    """change_t2's system W C = sum c'_j N_(j+1) t2^j with every N_j and
    Phi^j(W) built to the full cap."""
    w = SkewSeries(rule, w_el.terms, w_el.gprec).truncate(cap)
    c_el = SkewSeries(rule, rule.coeffs, rule.t2_prec).truncate(cap)
    wc = skew_mul(w, c_el, cap)
    ns = [rule.one()]
    phiw = w
    for j in range(0, cap):
        ns.append(skew_mul(ns[-1], phiw, cap))
        phiw = rule._apply_phi(phiw, cap)
    out = {}
    for g in range(0, cap):
        acc = wc.coeff(g)
        for j, cj in out.items():
            nterm = ns[j + 1].terms.get(g - j)
            if nterm is not None:
                acc = acc - cj * nterm
        cg = acc / ns[g + 1].coeff(0)
        if not cg.is_zero():
            out[g] = cg
    return CommutationRule(rule.field, out, cap)


def _inverse_formula_change_t2(rule, w_el, cap):
    """The new rule from X = W C W^-1 = sum c'_j N_j t2^j, with W^-1 formed."""
    w = SkewSeries(rule, w_el.terms, w_el.gprec).truncate(cap)
    c_el = SkewSeries(rule, rule.coeffs, rule.t2_prec).truncate(cap)
    x = skew_mul(skew_mul(w, c_el, cap), skew_invert(w, cap), cap)
    ns = [rule.one()]
    phiw = w
    for j in range(1, cap):
        ns.append(skew_mul(ns[-1], phiw, cap))
        phiw = rule._apply_phi(phiw, cap)
    out = {}
    for g in range(0, cap):
        acc = x.coeff(g)
        for j, cj in out.items():
            nterm = ns[j].terms.get(g - j)
            if nterm is not None:
                acc = acc - cj * nterm
        cg = acc / ns[g].coeff(0)
        if not cg.is_zero():
            out[g] = cg
    return CommutationRule(rule.field, out, cap)


def _reference_inverse_rule(rule, cap):
    """inverse_rule with Phi applied at the full cap on every step."""
    d0 = rule.coeffs[0].comp_invert()
    if set(rule.coeffs) == {0}:
        return CommutationRule(rule.field, {0: d0}, rule.t2_prec)
    terms = {0: d0}
    t1el = rule.t1()
    for s in range(1, cap):
        resid = rule._apply_phi(SkewSeries(rule, terms, s + 1), cap) - t1el
        if resid.val_floor() < s:
            raise NotSolvable("residue below grade %d" % s)
        rho = resid.coeff(s)
        if not rho.is_zero():
            terms[s] = (-rho).compose(d0)
    final = rule._apply_phi(SkewSeries(rule, terms, cap), cap) - t1el
    if not final.is_zero() and final.valuation() < cap:
        raise NotSolvable("verification failed")
    return CommutationRule(rule.field, terms, cap)


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the library error it raised."""
    try:
        return fn(*args)
    except SkewFieldError as exc:
        return type(exc)


@st.composite
def series_data(draw, field, lo, hi, prec):
    coeffs = draw(st.dictionaries(st.integers(lo, hi), elements(field), max_size=3))
    return {e: c for e, c in coeffs.items() if prec is None or e < prec}


@st.composite
def rule_data(draw, t2_prec=True, exact=False):
    """(field, coefficient dicts, t1-precision, t2_prec) of a random rule.

    The residue automorphism is nonlinear only with truncated coefficients:
    exact nonlinear substitutions grow without bound."""
    field = draw(st.sampled_from([Q, C3, F7]))
    t1_prec = None if exact else draw(st.one_of(st.none(), st.integers(5, 8)))
    n = draw(st.sampled_from([1, 3] if field is C3 else [1, 2]))
    c0 = {1: field.primitive_root_of_unity(n)}
    if t1_prec is not None:
        c0.update(draw(series_data(field, 2, 4, t1_prec)))
    coeffs = {0: c0}
    for j in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)):
        coeffs[j] = draw(series_data(field, 0, 3, t1_prec))
    t2p = draw(st.one_of(st.none(), st.integers(3, 6))) if t2_prec else None
    return field, coeffs, t1_prec, t2p


def _rule(data):
    """A fresh rule, so that no twist cache is shared between the two sides."""
    field, coeffs, t1_prec, t2p = data
    return CommutationRule(
        field,
        {j: LaurentSeries(field, c, t1_prec) for j, c in coeffs.items()},
        t2p,
    )


@settings(max_examples=60, deadline=5000, database=None)
@given(rule_data(), st.data())
def test_change_t2_matches_full_cap_reference(data, more):
    field, _, t1_prec, t2p = data
    w = {0: {0: more.draw(elements(field, nonzero=True))}}
    w[0].update(more.draw(series_data(field, 1, 3, t1_prec)))
    for s in more.draw(st.lists(st.integers(1, 3), max_size=2, unique=True)):
        w[s] = more.draw(series_data(field, 0, 2, t1_prec))
    cap = more.draw(st.integers(2, 5) if t2p is None else st.integers(2, t2p))

    def run(fn):
        rule = _rule(data)
        el = rule.element({s: LaurentSeries(field, c, t1_prec) for s, c in w.items()})
        return _outcome(fn, rule, el, cap)

    assert run(change_t2) == run(_reference_change_t2)


@settings(max_examples=60, deadline=5000, database=None)
@given(rule_data(exact=True), st.data())
def test_change_t2_agrees_with_inverse_formula_on_exact_rules(data, more):
    """On exact inputs the inverse-free solve has the values of the W^-1
    formula, and at every grade at least its t1-precision: the truncated
    W^-1 loses t1-terms that multiplying by W never drops."""
    field, _, _, t2p = data
    w = {0: {0: more.draw(elements(field, nonzero=True))}}
    w[0].update(more.draw(series_data(field, 1, 3, None)))
    for s in more.draw(st.lists(st.integers(1, 3), max_size=2, unique=True)):
        w[s] = more.draw(series_data(field, 0, 2, None))
    cap = more.draw(st.integers(2, 5) if t2p is None else st.integers(2, t2p))

    def run(fn):
        rule = _rule(data)
        el = rule.element({s: LaurentSeries(field, c) for s, c in w.items()})
        return _outcome(fn, rule, el, cap)

    new, old = run(change_t2), run(_inverse_formula_change_t2)
    if isinstance(old, type) or isinstance(new, type):
        assert new == old
        return
    assert new.t2_prec == old.t2_prec
    zero = LaurentSeries.zero(field)
    for g in set(new.coeffs) | set(old.coeffs):
        a, b = new.coeffs.get(g, zero), old.coeffs.get(g, zero)
        assert a.agrees(b)
        assert (inf if a.prec is None else a.prec) >= (inf if b.prec is None else b.prec)


@settings(max_examples=40, deadline=5000, database=None)
@given(rule_data(t2_prec=False), st.integers(1, 2), st.integers(0, 3), st.data())
def test_grade_2i_probe_window(data, i, mu, more):
    """The grade-2i probe t1' = t1 + t1^mu t2^i solved to 2i + 1 agrees with
    the solve at a larger cap on every grade <= 2i."""
    field = data[0]
    cap = more.draw(st.integers(2 * i + 2, 2 * i + 3))

    def run(c):
        rule = _rule(data)
        y = rule.element({0: rule.t1_series(), i: LaurentSeries.monomial(field, mu)})
        return _outcome(change_t1, rule, y, c)

    full = run(cap)
    if isinstance(full, type):
        # the full solve failed, possibly above grade 2i only
        return
    window = run(2 * i + 1)
    assert window.t2_prec == 2 * i + 1
    for q in range(2 * i + 1):
        assert window.coeffs.get(q) == full.coeffs.get(q)


@settings(max_examples=40, deadline=5000, database=None)
@given(rule_data(), st.integers(2, 5))
def test_inverse_rule_matches_full_cap_reference(data, cap):
    got = _outcome(lambda: _rule(data).inverse_rule(cap))
    assert got == _outcome(_reference_inverse_rule, _rule(data), cap)


# -- integer series products against the coefficient-by-coefficient loop ----

KERNEL_FIELDS = (
    [Q]
    + [Field.cyclotomic(n) for n in (1, 2, 3, 4, 5, 7, 12)]
    + [Field.prime_field(p) for p in (2, 7, 10007)]
)


def _reference_mul(a, b):
    """a * b as one Field.mul and Field.add per coefficient pair."""
    f = a.field
    prec = min(
        inf if a.prec is None else a.prec + b.val_floor(),
        inf if b.prec is None else b.prec + a.val_floor(),
    )
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e >= prec:
                continue
            v = f.mul(c1, c2)
            out[e] = f.add(out[e], v) if e in out else v
    return LaurentSeries(f, out, None if prec == inf else prec)


def _reference_scale(a, c):
    f = a.field
    return LaurentSeries(f, {e: f.mul(c, x) for e, x in a.coeffs.items()}, a.prec)


@st.composite
def tall_elements(draw, field):
    """Elements with numerators up to 2^300 and denominators up to 2^64."""
    if field.char():
        return draw(st.integers(0, field.char() - 1))
    bits = draw(st.sampled_from([3, 64, 300]))
    tall = st.builds(
        Fraction,
        st.integers(-(1 << bits), 1 << bits),
        st.integers(1, 1 << min(bits, 64)),
    )
    if field.kind == "cyclotomic":
        return tuple(draw(st.lists(tall, min_size=field.degree, max_size=field.degree)))
    return draw(tall)


@st.composite
def series_pairs(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))

    def series():
        size = draw(st.sampled_from([1, 2, 8]))
        coeffs = draw(st.dictionaries(st.integers(-8, 8), tall_elements(field), max_size=size))
        prec = draw(st.one_of(st.none(), st.integers(-6, 12)))
        return LaurentSeries(field, coeffs, prec)

    return field, series(), series()


@settings(max_examples=300, deadline=3000, database=None)
@given(series_pairs(), st.data())
def test_series_product_matches_coefficient_loop(data, more):
    field, a, b = data
    got = a * b
    ref = _reference_mul(a, b)
    assert got == ref
    assert list(got.coeffs) == list(ref.coeffs)
    c = more.draw(tall_elements(field))
    assert a.scale(c) == _reference_scale(a, c)
    # the kernel itself, cut at any bound
    bound = more.draw(st.integers(-16, 16))
    exact = _reference_mul(LaurentSeries(field, a.coeffs), LaurentSeries(field, b.coeffs))
    cut = {e: x for e, x in exact.coeffs.items() if e < bound}
    assert field.convolve(a.coeffs, b.coeffs, bound) == cut


@settings(max_examples=100, deadline=3000, database=None)
@given(series_pairs())
def test_series_product_exact_cancellation(data):
    """a(t) a(-t) is even: every odd exponent cancels exactly, and so does
    the t term of (x + x t)(x - x t)."""
    field, a, _ = data
    f = field
    mirror = LaurentSeries(
        f, {e: f.neg(c) if e % 2 else c for e, c in a.coeffs.items()}, a.prec
    )
    got = a * mirror
    assert got == _reference_mul(a, mirror)
    if field.char() != 2:
        assert all(e % 2 == 0 for e in got.coeffs)
    x = next(iter(a.coeffs.values()), f.one())
    pair = LaurentSeries(f, {0: x, 1: x}) * LaurentSeries(f, {0: x, 1: f.neg(x)})
    assert pair == LaurentSeries(f, {0: f.mul(x, x), 2: f.neg(f.mul(x, x))})


@settings(max_examples=60, deadline=3000, database=None)
@given(
    st.sampled_from([Field.cyclotomic(n) for n in (1, 2, 3, 4, 5, 7, 12)]),
    st.integers(1, 6),
    st.sampled_from([1, 2, 64, 300]),
    st.booleans(),
)
def test_series_product_at_the_slot_bound(field, m, bits, negate):
    """Every coordinate of m terms a side at +-(2^bits - 1): the middle slot of
    the exponent m - 1 sums d * m equal products, the largest value a slot
    of the packed product can hold."""
    top = Fraction((1 << bits) - 1)
    a = LaurentSeries(field, {e: (top,) * field.degree for e in range(m)})
    sign = -top if negate else top
    b = LaurentSeries(field, {e: (sign,) * field.degree for e in range(m)})
    assert a * b == _reference_mul(a, b)


# -- operator products against the per-pair Leibniz loop ------------------------


def _reference_derive(b):
    f = b.field
    out = {e - 1: f.mul(f.from_int(e), c) for e, c in b.coeffs.items() if e != 0}
    return LaurentSeries(f, out, None if b.prec is None else b.prec - 1)


def _reference_psido_compose(u, v, depth=None):
    """u v with one Leibniz chain per term pair: every derivative rebuilt and
    every term scaled by its binomial coefficient, 1 included.  A term that
    is zero only to its X-precision is kept, since it bounds that precision."""
    field = u.field
    if (not u.coeffs and u.cut is None) or (not v.coeffs and v.cut is None):
        return PsiDO(field, None, None)
    low = -inf

    def c(cut):
        return low if cut is None else cut

    tu = max(max(u.coeffs), c(u.cut)) if u.coeffs else u.cut
    tv = max(max(v.coeffs), c(v.cut)) if v.coeffs else v.cut
    eff = max(c(u.cut) + tv, c(v.cut) + tu)
    hard = tu + tv - (depth if depth is not None else DEFAULT_PRECISION)
    out = {}
    for k, a in u.coeffs.items():
        for l, b in v.coeffs.items():
            floor = hard if k < 0 else low
            j, bj, coef = 0, b, 1
            while not (k >= 0 and j > k) and not (bj.is_zero() and bj.prec is None):
                g = k + l - j
                if g <= eff:
                    break
                if g <= floor:
                    eff = max(eff, g)
                    break
                term = (a * bj).scale(field.from_int(coef))
                if not term.is_exact_zero():
                    out[g] = out[g] + term if g in out else term
                j += 1
                coef = coef * (k - j + 1) // j
                bj = _reference_derive(bj)
    return PsiDO(field, out, None if eff == low else int(eff))


@st.composite
def operators(draw, field):
    """Operators with D exponents -3..2 and a finite cut or none; the
    coefficients are Laurent polynomials in X, exact or truncated."""
    prec = draw(st.one_of(st.none(), st.integers(1, 5)))
    coeffs = {}
    for k in draw(st.lists(st.integers(-3, 2), min_size=1, max_size=3, unique=True)):
        terms = draw(st.dictionaries(st.integers(-2, 3), elements(field), max_size=3))
        coeffs[k] = LaurentSeries(field, terms, prec)
    cut = draw(st.one_of(st.none(), st.integers(-6, min(coeffs) - 1)))
    return PsiDO(field, coeffs, cut)


@settings(max_examples=150, deadline=3000, database=None)
@given(st.sampled_from([Q, C3, F7]), st.data())
def test_psido_compose_matches_per_pair_leibniz_loop(field, more):
    u = more.draw(operators(field))
    v = more.draw(operators(field))
    depth = more.draw(st.one_of(st.none(), st.integers(1, 6)))
    got = psido_compose(u, v, depth)
    ref = _reference_psido_compose(u, v, depth)
    assert got == ref
    assert got.format() == ref.format()


# -- the shared Newton inverse against the geometric loops it replaced -------


def _geometric_mul_invert(s, target_prec=None):
    """LaurentSeries.mul_invert as a sum of powers of 1 - u, one product each."""
    f = s.field
    v, lead = s.leading()
    linv = f.inv(lead)
    if len(s.coeffs) == 1 and s.prec is None:
        out = LaurentSeries.monomial(f, -v, linv)
        return out.truncate(target_prec) if target_prec is not None else out
    if s.prec is not None:
        out_prec = s.prec - 2 * v
        if target_prec is not None:
            out_prec = min(out_prec, target_prec)
    else:
        out_prec = target_prec if target_prec is not None else DEFAULT_PRECISION - v
    depth = out_prec + v
    one = LaurentSeries.const(f, f.one())
    u = s.shift(-v).scale(linv).truncate(depth)
    negeps = (one - u).truncate(depth)
    geom = one.truncate(depth)
    pw = one.truncate(depth)
    while True:
        pw = (pw * negeps).truncate(depth)
        if pw.is_zero():
            break
        geom = geom + pw
    return geom.scale(linv).shift(-v).truncate(out_prec)


def _geometric_skew_invert(u, cap=None):
    """skew_invert as a sum of powers of 1 - q, one skew product each."""
    rule = u.rule
    v2 = u.valuation()
    av = u.terms[v2]
    if cap is None and u.gprec is None and len(u.terms) == 1:
        return rule.twist(_geometric_mul_invert(av), -v2, None).rshift_t2(-v2)
    if u.gprec is not None:
        out_g = u.gprec - 2 * v2
        if cap is not None:
            out_g = min(out_g, cap)
    else:
        out_g = cap if cap is not None else DEFAULT_PRECISION - v2
    depth = out_g + v2
    lead_inv = rule.twist(_geometric_mul_invert(av), -v2, depth).rshift_t2(-v2)
    q = skew_mul(lead_inv, u, depth)
    one = rule.one()
    eps = (q - one).truncate(depth)
    geom = one.truncate(depth)
    pw = one.truncate(depth)
    while True:
        pw = skew_mul(pw, -eps, depth).truncate(depth)
        if pw.is_zero():
            break
        geom = geom + pw
    return skew_mul(geom, lead_inv, out_g).truncate(out_g)


def _geometric_psido_invert(u, depth=None):
    """psido_invert as a sum of powers of 1 - q, one operator product each."""
    field = u.field
    n = u.top
    if depth is None and u.cut is None and len(u.coeffs) == 1:
        rest = PsiDO.from_series(field, _geometric_mul_invert(u.coeffs[n]))
        return psido_compose(PsiDO.d(field, -n), rest)
    window = depth if depth is not None else DEFAULT_PRECISION
    if u.cut is not None:
        out_cut = u.cut - 2 * n
        if depth is not None:
            out_cut = max(out_cut, -n - window)
    else:
        out_cut = -n - window
    work_cut = out_cut + n
    lead_inv = PsiDO(field, {-n: _geometric_mul_invert(u.coeffs[n])})
    q = psido_compose(lead_inv, u, window).truncate(work_cut)
    one = PsiDO.one(field)
    eps = (q - one).truncate(work_cut)
    geom = one.truncate(work_cut)
    pw = one.truncate(work_cut)
    while True:
        pw = psido_compose(pw, -eps, window).truncate(work_cut)
        if pw.is_zero():
            break
        geom = geom + pw
    return psido_compose(geom, lead_inv, window).truncate(out_cut)


def _assert_same_inverse(got, ref, exact, outer):
    """Exact inputs give equal results; truncated ones the same outer
    precision and equal coefficients wherever both are known."""
    if exact:
        assert got == ref
        assert got.format() == ref.format()
    else:
        assert outer(got) == outer(ref)
        assert got.agrees(ref)


@st.composite
def leading_series(draw, field, v, exact):
    """A series with a nonzero t^v term and up to three terms above it,
    exact or known to some precision above v."""
    prec = None if exact else draw(st.integers(v + 1, v + 8))
    coeffs = {v: draw(elements(field, nonzero=True))}
    coeffs.update(draw(st.dictionaries(st.integers(v + 1, v + 6), elements(field), max_size=3)))
    return LaurentSeries(field, coeffs, prec)


@settings(max_examples=200, deadline=3000, database=None)
@given(st.sampled_from([Q, C3, F7]), st.integers(-2, 3), st.booleans(), st.data())
def test_mul_invert_matches_geometric_loop(field, v, exact, more):
    s = more.draw(leading_series(field, v, exact))
    target = more.draw(st.one_of(st.none(), st.integers(-3, 10)))
    _assert_same_inverse(
        s.mul_invert(target), _geometric_mul_invert(s, target), exact, lambda x: x.prec
    )


@settings(max_examples=120, deadline=10000, database=None)
@given(rule_data(t2_prec=False), st.integers(-2, 3), st.data())
def test_skew_invert_matches_geometric_loop(data, v2, more):
    """Rules known only to a low t2-grade make the products lose precision
    of their own, which both loops must report alike."""
    field, coeffs, t1_prec, _ = data
    data = field, coeffs, t1_prec, more.draw(st.one_of(st.none(), st.integers(1, 6)))
    exact = t1_prec is None and more.draw(st.booleans())
    gprec = None if exact else more.draw(st.one_of(st.none(), st.integers(v2 + 1, v2 + 6)))
    cap = more.draw(st.integers(1, 6) if gprec is None else st.one_of(st.none(), st.integers(1, 6)))
    prec = None if exact else more.draw(st.one_of(st.none(), st.integers(4, 8)))
    terms = {v2: more.draw(leading_series(field, more.draw(st.integers(-2, 3)), exact))}
    for j in more.draw(st.lists(st.integers(v2 + 1, v2 + 3), max_size=2, unique=True)):
        terms[j] = LaurentSeries(field, more.draw(series_data(field, -1, 3, prec)), prec)

    def run(fn):
        rule = _rule(data)
        return _outcome(fn, rule.element(terms, gprec), cap)

    got, ref = run(skew_invert), run(_geometric_skew_invert)
    if isinstance(ref, type):
        assert got == ref
        return
    _assert_same_inverse(got, ref, exact and gprec is None, lambda x: x.gprec)


def test_skew_invert_keeps_the_precision_of_a_zero_residual():
    """Over a rule known only below t2^2, the residual 1 - q x is zero to a
    precision its products lost; the inverse keeps that precision."""
    S = LaurentSeries.make
    rule = CommutationRule(Q, {0: S(Q, {1: 1, 2: Fraction(1, 4)}, 7)}, 2)
    u = rule.element({0: S(Q, {0: 3}, 6), 1: S(Q, {-1: Fraction(-2, 3)}), 2: S(Q, {2: -2}, 6)}, 6)
    got, ref = skew_invert(u), _geometric_skew_invert(u)
    assert got.gprec == ref.gprec == 4
    assert got.agrees(ref)


@settings(max_examples=200, deadline=5000, database=None)
@given(st.sampled_from([Q, C3, F7]), st.integers(-2, 3), st.data())
def test_psido_invert_matches_geometric_loop(field, n, more):
    exact = more.draw(st.booleans())
    prec = None if exact else more.draw(st.one_of(st.none(), st.integers(1, 5)))
    coeffs = {n: more.draw(leading_series(field, more.draw(st.integers(-2, 3)), exact))}
    for k in more.draw(st.lists(st.integers(n - 3, n - 1), max_size=2, unique=True)):
        coeffs[k] = LaurentSeries(field, more.draw(series_data(field, -2, 3, prec)), prec)
    cut = None if exact else more.draw(st.one_of(st.none(), st.integers(n - 6, n - 1)))
    depth = more.draw(
        st.integers(1, 6) if cut is None else st.one_of(st.none(), st.integers(1, 6))
    )
    u = PsiDO(field, coeffs, cut)
    _assert_same_inverse(
        psido_invert(u, depth), _geometric_psido_invert(u, depth), exact, lambda x: x.cut
    )


# -- operators against completions of their X-tails --------------------------


def _complete(draw, u):
    """u with every coefficient known below X^p made exact, with random
    terms at X^p .. X^(p + 3): one operator the truncated u stands for."""
    field = u.field
    coeffs = {}
    for k, s in u.coeffs.items():
        c = dict(s.coeffs)
        if s.prec is not None:
            c.update(draw(st.dictionaries(st.integers(s.prec, s.prec + 3), elements(field))))
        coeffs[k] = LaurentSeries(field, c)
    return PsiDO(field, coeffs, u.cut)


def _assert_agrees_with_completion(got, completed):
    """The completed result knows at least the D exponents got claims, and
    at every one of them agrees with got to got's X-precision."""
    assert (-inf if completed.cut is None else completed.cut) <= (
        -inf if got.cut is None else got.cut
    )
    assert got.agrees(completed)


@settings(max_examples=100, deadline=5000, database=None)
@given(st.sampled_from([Q, C3, F7]), st.data())
def test_psido_compose_agrees_with_tail_completions(field, more):
    u = more.draw(operators(field))
    v = more.draw(operators(field))
    depth = more.draw(st.one_of(st.none(), st.integers(1, 6)))
    got = psido_compose(u, v, depth)
    for _ in range(3):
        completed = psido_compose(_complete(more.draw, u), _complete(more.draw, v), depth)
        _assert_agrees_with_completion(got, completed)


@settings(max_examples=100, deadline=5000, database=None)
@given(st.sampled_from([Q, C3, F7]), st.integers(-2, 2), st.data())
def test_psido_invert_agrees_with_tail_completions(field, n, more):
    prec = more.draw(st.integers(1, 5))
    coeffs = {n: more.draw(leading_series(field, more.draw(st.integers(-2, 2)), False))}
    for k in more.draw(st.lists(st.integers(n - 3, n - 1), max_size=2, unique=True)):
        coeffs[k] = LaurentSeries(field, more.draw(series_data(field, -2, 3, prec)), prec)
    cut = more.draw(st.one_of(st.none(), st.integers(n - 6, n - 1)))
    depth = more.draw(st.integers(1, 6))
    u = PsiDO(field, coeffs, cut)
    got = psido_invert(u, depth)
    for _ in range(3):
        _assert_agrees_with_completion(got, psido_invert(_complete(more.draw, u), depth))


# -- negative twists against the ring axioms ---------------------------------


@st.composite
def skew_elements(draw, rule, lo, hi):
    field = rule.field
    terms = {}
    for j in draw(st.lists(st.integers(lo, hi), min_size=1, max_size=2, unique=True)):
        terms[j] = LaurentSeries(field, draw(series_data(field, 0, 2, None)))
    return rule.element(terms)


@settings(max_examples=40, deadline=20000, database=None)
@given(rule_data(t2_prec=False, exact=True), st.data())
def test_negative_twists_keep_the_ring_axioms(data, more):
    """Phi^m for m <= -2 is Phi^-1 applied m times in this ring: products of
    elements with grades -3..3 associate, and u u^-1 = u^-1 u = 1 for
    t2-valuations 0..3."""
    rule = _rule(data)
    cap = 5
    a, b, c = (more.draw(skew_elements(rule, -3, 3)) for _ in range(3))
    left = skew_mul(skew_mul(a, b, cap), c, cap)
    right = skew_mul(a, skew_mul(b, c, cap), cap)
    assert left.agrees(right, cap)
    v2 = more.draw(st.integers(0, 3))
    u = more.draw(skew_elements(rule, v2, v2 + 2))
    if v2 not in u.terms:
        u = u + rule.t2(v2)
    ui = skew_invert(u, cap)
    assert skew_mul(u, ui, cap).agrees(rule.one(), cap)
    assert skew_mul(ui, u, cap).agrees(rule.one(), cap)
