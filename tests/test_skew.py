from fractions import Fraction

import pytest

from skewlocal.coeff import Field
from skewlocal.errors import (
    FieldMismatch,
    NotCompInvertible,
    NotSolvable,
    PrecisionExhausted,
    ZeroDivisorCandidate,
)
from skewlocal.series import LaurentSeries
from skewlocal.skew import (
    CommutationRule,
    SkewSeries,
    _subst_element,
    build_from_rule,
    conj_by_t2,
    delta_extract,
    skew_invert,
    skew_mul,
)

Q = Field.rationals()


def S(mapping, prec=None, field=Q):
    return LaurentSeries.make(field, mapping, prec)


def heis():
    # t2 t1 t2^-1 = t1 + t2
    return build_from_rule(Q, {0: S({1: 1}), 1: S({0: 1})})


def twisted(field):
    return build_from_rule(field, {0: LaurentSeries(field, {1: field.zeta()})})


def test_rule_validation():
    with pytest.raises(ValueError):
        build_from_rule(Q, {1: S({0: 1})})  # no c_0
    with pytest.raises(ValueError):
        build_from_rule(Q, {0: S({1: 1}), -1: S({0: 1})})
    with pytest.raises(NotCompInvertible):
        build_from_rule(Q, {0: S({2: 1})})  # c_0 must have valuation 1
    C3 = Field.cyclotomic(3)
    with pytest.raises(FieldMismatch):
        build_from_rule(Q, {0: S({1: 1}), 1: LaurentSeries.const(C3, C3.one())})


def test_rule_drops_zero_and_truncated_grades():
    r = build_from_rule(Q, {0: S({1: 1}), 1: S({}), 5: S({0: 1})}, t2_prec=4)
    assert sorted(r.coeffs) == [0]
    assert r.t2_prec == 4
    assert r.default_cap() == 4


def test_phi_of_t1_square():
    # Phi(t1^2) = (t1 + t2)^2 = t1^2 + 2 t1 t2 + 2 t2^2
    r = heis()
    img = r.twist(S({2: 1}), 1, 6)
    assert img.coeff(0) == S({2: 1})
    assert img.coeff(1) == S({1: 2})
    assert img.coeff(2) == S({0: 2})
    assert img.coeff(3).is_zero()


def test_t2_times_t1():
    r = heis()
    p = r.t2(1) * r.t1()
    assert p.coeff(1) == S({1: 1})
    assert p.coeff(2) == S({0: 1})


def test_exact_product_of_exact_elements():
    r = heis()
    x = r.t1() + r.t2(1)
    sq = x * x
    assert sq.gprec is None
    assert sq.support() == [0, 1, 2]
    assert sq.coeff(1) == S({1: 2})
    assert sq.coeff(2) == S({0: 2})


def test_mul_precision_bound():
    r = heis()
    u = r.element({0: S({1: 1})}, gprec=3)
    v = r.element({2: S({0: 1})})
    p = skew_mul(u, v)
    # unknown grades of u start at 3 and v sits at grade 2
    assert p.gprec == 5
    q = skew_mul(v, u)
    assert q.gprec == 5


def test_mul_associative_and_distributive_sample():
    r = heis()
    a = r.element({0: S({-1: 1, 1: 2}), 1: S({0: 1})}, gprec=7)
    b = r.element({0: S({1: 1}), 2: S({-2: 3})}, gprec=7)
    c = r.element({1: S({0: 1, 1: 1})}, gprec=7)
    lhs = skew_mul(skew_mul(a, b, 7), c, 7)
    rhs = skew_mul(a, skew_mul(b, c, 7), 7)
    assert lhs.agrees(rhs, 7)
    left = skew_mul(a, b + c, 7)
    right = skew_mul(a, b, 7) + skew_mul(a, c, 7)
    assert left.agrees(right, 7)


def test_invert_two_sided():
    r = heis()
    u = r.element({0: S({1: 1}), 2: S({0: 3})})
    ui = u.invert()
    one = r.one()
    assert skew_mul(u, ui, 10).agrees(one, 10)
    assert skew_mul(ui, u, 10).agrees(one, 10)


def test_invert_shifts_valuation():
    r = heis()
    u = r.element({2: S({1: 1})}, gprec=8)
    ui = skew_invert(u)
    assert ui.valuation() == -2
    assert skew_mul(u, ui, 4).agrees(r.one(), 4)


def test_invert_single_exact_term_is_exact_over_twisted_rule():
    C4 = Field.cyclotomic(4)
    r = twisted(C4)
    u = r.element({3: LaurentSeries(C4, {2: C4.zeta()})})
    ui = skew_invert(u)
    assert ui.gprec is None
    assert ui.support() == [-3]
    assert skew_mul(u, ui) == r.one()
    assert skew_mul(ui, u) == r.one()


def test_invert_zero_raises():
    r = heis()
    with pytest.raises(ZeroDivisorCandidate):
        skew_invert(r.zero())
    with pytest.raises(ZeroDivisorCandidate):
        skew_invert(r.zero(gprec=5))


def test_coeff_beyond_precision_raises():
    r = heis()
    u = r.element({0: S({1: 1})}, gprec=3)
    assert u.coeff(2).is_zero()
    with pytest.raises(PrecisionExhausted) as err:
        u.coeff(3)
    assert err.value.required == 4


def test_add_sub_and_truncate():
    r = heis()
    u = r.element({0: S({1: 1}), 4: S({0: 2})}, gprec=6)
    v = r.element({4: S({0: 2})})
    d = u - v
    assert d.support() == [0]
    assert d.gprec == 6
    t = u.truncate(4)
    assert t.support() == [0] and t.gprec == 4
    assert u.truncate(9).gprec == 6
    assert (u + (-u)).is_zero()


def test_eq_is_strict_and_agrees_is_windowed():
    r = heis()
    u = r.element({0: S({1: 1})}, gprec=5)
    v = r.element({0: S({1: 1})}, gprec=6)
    assert u != v
    assert u.agrees(v)
    w = r.element({0: S({1: 1}), 5: S({0: 1})}, gprec=6)
    assert u.agrees(w)  # they differ only at grade 5, beyond u's window
    assert not v.agrees(w)
    assert v.agrees(w, upto=5)


def test_elements_of_different_rules_do_not_mix():
    a = heis().t1()
    b = build_from_rule(Q, {0: S({1: 1}), 2: S({0: 1})}).t1()
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        skew_mul(a, b)


def test_conj_is_a_ring_homomorphism_sample():
    # linear residue part, negative exponents allowed
    r = build_from_rule(Q, {0: S({1: -1}), 1: S({1: 1}), 3: S({-1: 2})})
    a = S({-1: 2, 1: 1})
    b = S({0: 1, 2: 5})
    cap = 8
    left = conj_by_t2(a * b, r, 1, cap)
    right = skew_mul(conj_by_t2(a, r, 1, cap), conj_by_t2(b, r, 1, cap), cap)
    assert left.agrees(right, cap)
    add = conj_by_t2(a + b, r, 1, cap)
    assert add.agrees(conj_by_t2(a, r, 1, cap) + conj_by_t2(b, r, 1, cap), cap)


def test_conj_is_a_ring_homomorphism_nonlinear_alpha():
    # nonlinear residue part; exact images double in degree with each
    # conjugation, so keep the window small
    r = build_from_rule(Q, {0: S({1: 1, 2: 1}), 1: S({1: 1})})
    a = S({1: 1, 2: 3})
    b = S({0: 1, 1: 5})
    cap = 5
    left = conj_by_t2(a * b, r, 1, cap)
    right = skew_mul(conj_by_t2(a, r, 1, cap), conj_by_t2(b, r, 1, cap), cap)
    assert left.agrees(right, cap)


def test_conj_over_twisted_rule_is_alpha_exactly():
    C3 = Field.cyclotomic(3)
    r = twisted(C3)
    z = C3.zeta()
    a = LaurentSeries.make(C3, {-3: 1, 2: 2})
    img = conj_by_t2(a, r, 1)
    assert img.gprec is None and img.support() == [0]
    assert img.coeff(0) == LaurentSeries(
        C3, {-3: C3.pow(z, -3), 2: C3.mul(C3.from_int(2), C3.pow(z, 2))}
    )
    back = conj_by_t2(img.coeff(0), r, -1)
    assert back.gprec is None and back.coeff(0) == a


def test_conj_power_zero_is_identity():
    r = heis()
    a = S({-2: 1, 3: 4}, prec=9)
    img = conj_by_t2(a, r, 0)
    assert img.coeff(0) == a and img.support() == [0]


def test_delta_extract():
    r = heis()
    assert delta_extract(r, 1) == S({0: 1})
    assert delta_extract(r, 2).is_zero()
    # alpha = id here, so the primed reading agrees with the plain one
    assert delta_extract(r, 2, primed=True).is_zero()
    assert delta_extract(r, 1, primed=True) == S({0: 1})


def test_delta_primed_needs_finite_order():
    r = build_from_rule(Q, {0: S({1: 1, 2: 1})})
    with pytest.raises(NotSolvable):
        delta_extract(r, 2, primed=True)


def test_inverse_rule_oracle():
    # for C = t1 + t2 the inverse conjugation sends t1 to t1 - t2 + ...
    r = heis()
    inv = r.inverse_rule(6)
    assert inv.coeffs[0] == S({1: 1})
    assert inv.coeffs[1] == S({0: -1})
    assert inv._inverse is r
    # Phi^-1 then Phi gives back t1
    x = r.phi_image(-1, 6)
    y = r._apply_phi(x, 6)
    assert y.agrees(r.t1(), 6)


def test_inverse_rule_of_twisted_rule_is_exact():
    C3 = Field.cyclotomic(3)
    r = twisted(C3)
    inv = r.inverse_rule()
    assert inv.t2_prec is None
    assert inv.coeffs[0] == LaurentSeries(C3, {1: C3.pow(C3.zeta(), -1)})


def test_phi_image_cache_respects_caps():
    r = build_from_rule(Q, {0: S({1: 1}), 1: S({-1: 1})})
    shallow = r.phi_image(2, 3)
    deep = r.phi_image(2, 9)
    assert deep.truncate(3).agrees(shallow, 3)
    again = r.phi_image(2, 5)
    assert again.agrees(deep, 5)


def test_rshift_and_scale():
    r = heis()
    u = r.element({1: S({0: 1})}, gprec=5)
    shifted = u.rshift_t2(2)
    assert shifted.support() == [3] and shifted.gprec == 7
    assert u.scale(Fraction(1, 2)).coeff(1) == S({0: Fraction(1, 2)})


def test_char_p_rule_arithmetic():
    F5 = Field.prime_field(5)
    t1 = LaurentSeries.variable(F5)
    r = build_from_rule(F5, {0: t1, 3: LaurentSeries(F5, {-1: 2})}, t2_prec=12)
    a = r.element({0: LaurentSeries(F5, {1: 3}), 1: LaurentSeries(F5, {0: 1})})
    b = r.element({0: LaurentSeries(F5, {-1: 2})})
    c = r.element({3: LaurentSeries(F5, {2: 4})})
    lhs = skew_mul(skew_mul(a, b, 10), c, 10)
    rhs = skew_mul(a, skew_mul(b, c, 10), 10)
    assert lhs.agrees(rhs, 10)
    u = r.element({0: LaurentSeries(F5, {1: 1}), 3: LaurentSeries(F5, {0: 1})})
    ui = skew_invert(u, 8)
    assert skew_mul(u, ui, 8).agrees(r.one(), 8)


def test_format_smoke():
    r = heis()
    u = r.element({0: S({1: 1}), 2: S({-1: -1})}, gprec=5)
    assert u.format() == "t1 - t1^-1*t2^2 + O(t2^5)"
    assert r.zero().format() == "0"
    assert r.format() == "t1 + t2"


def test_truncated_series_at_an_element_caps_each_grade():
    """a = t1 + t1^2 + O(t1^6) at P = t1 + t2 in heis(): P^2 = t1^2 + 2 t1 t2
    + 2 t2^2, and each t2 factor in a power of P lowers its t1-degree by one,
    so the unknown terms a_e P^e, e >= 6, reach grade g from t1^(6 - g) on.
    twist substitutes P = Phi(t1); _subst_element substitutes P itself."""
    rule = heis()
    a = S({1: 1, 2: 1}, 6)
    want = SkewSeries(rule, {0: S({1: 1, 2: 1}, 6), 1: S({0: 1, 1: 2}, 5), 2: S({0: 2}, 4)}, 3)
    P = rule.element({0: S({1: 1}), 1: S({0: 1})})
    assert rule.twist(a, 1, 3) == want
    assert _subst_element(rule, a, P, 3, {}) == want
    # every completion of a's tail agrees with the capped result
    for tail in ({6: 1}, {6: -2, 7: 5}, {8: 3}):
        done = rule.twist(S({1: 1, 2: 1, **tail}), 1, 3)
        assert all(want.coeff(g).agrees(done.coeff(g)) for g in range(3))


def test_subst_element_cuts_cached_powers_to_its_cap():
    """Powers cached at a larger cap (change_t1 shares one cache over
    shrinking caps) are cut back: the result is the fresh one, to grade 3."""
    rule = heis()
    a = S({1: 1, 2: 1, 3: -1})
    P = rule.element({0: S({1: 1}), 1: S({0: 1})})
    cache = {}
    _subst_element(rule, a, P, 5, cache)
    got = _subst_element(rule, a, P, 3, cache)
    assert got.gprec == 3
    assert got == _subst_element(rule, a, P, 3, {})
