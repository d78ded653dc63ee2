import random
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
    _iterates,
    _mul_by_images,
    _substitute,
    build_from_rule,
    change_t2,
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


def test_mul_by_images_stops_at_the_images_precision():
    """On a rule known below t2^3 the images Phi^g(W) of an exact W are
    known below t2^3 too, so t2 W = Phi(W) t2 is known below t2^4, as
    skew_mul finds."""
    r = build_from_rule(Q, {0: S({1: 1}), 1: S({0: 1})}, t2_prec=3)
    w = r.element({0: S({0: 1, 1: 1})})
    iterates = [w]
    for k in range(1, 6):
        iterates.append(r._apply_phi(iterates[-1], 6 - k))
    got = _mul_by_images(r.t2(), lambda g, b: iterates[g], 6)
    assert got == skew_mul(r.t2(), w, 6)
    assert got.gprec == 4


def test_exact_zero_times_a_truncated_element_is_exact():
    """An exact zero times anything is an exact 0, in both orders and in
    both products, as a LaurentSeries or PsiDO product with an exact zero
    is; a truncated factor is no reason to claim only a finite grade."""
    r = heis()
    u = r.element({0: S({0: 1}), 1: S({1: 2})}, gprec=4)
    zero = r.zero()
    assert skew_mul(zero, u) == zero
    assert skew_mul(u, zero) == zero
    assert _mul_by_images(zero, _iterates(r, u, 4), None) == zero
    assert _mul_by_images(u, _iterates(r, zero, 4), None) == zero


def test_cache_hits_claim_what_a_cold_rule_claims():
    """Over Q with C = t1 + t2, an exact entry stored by a cap-None call
    is cut to the cap of a later call, so the warm rule answers as a cold
    one does, though the images themselves are exact."""
    t1_cubed = S({3: 1})
    warm = heis()
    warm.twist(t1_cubed, 1, None)
    cold = heis().twist(t1_cubed, 1, 3)
    assert cold.format() == "t1^3 + 3*t1^2*t2 + 6*t1*t2^2 + O(t2^3)"
    assert warm.twist(t1_cubed, 1, 3) == cold
    warm = heis()
    assert warm.phi_image(2, None).gprec is None
    cold = heis().phi_image(2, 3)
    assert cold.format() == "t1 + 2*t2 + O(t2^3)"
    assert warm.phi_image(2, 3) == cold


def test_change_t2_needs_a_unit_of_grade_zero():
    """t2' = W t2 is a parameter only for W of t2-valuation 0; a term below
    grade 0 would send change_t2 to an image Phi^g with g < 0."""
    r = heis()
    with pytest.raises(ZeroDivisorCandidate):
        change_t2(r, r.element({1: S({0: 1})}), 4)
    with pytest.raises(ZeroDivisorCandidate):
        change_t2(r, r.element({-1: S({0: 1}), 0: S({0: 1})}), 4)


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


def test_inverse_rule_applies_phi_once_to_verify(monkeypatch):
    """On C = t1 + t1 t2 + t2^3, the inverse rule to grade 12 twists each
    d_s once as it peels it, and applies Phi to the whole solution only to
    verify it: at most 2 applications of Phi and 3 cached entries, counted
    with their recursive calls (a loop of one Phi per grade made 12 and
    13)."""
    from skewlocal import skew

    counts = {"phi": 0, "stores": 0}
    apply_phi, memo_put = CommutationRule._apply_phi, skew._memo_put

    def counted_phi(self, *args):
        counts["phi"] += 1
        return apply_phi(self, *args)

    def counted_put(*args):
        counts["stores"] += 1
        return memo_put(*args)

    monkeypatch.setattr(CommutationRule, "_apply_phi", counted_phi)
    monkeypatch.setattr(skew, "_memo_put", counted_put)
    rule = build_from_rule(Q, {0: S({1: 1}), 1: S({1: 1}), 3: S({0: 1})})
    inv = rule.inverse_rule(12)
    assert counts["phi"] <= 2 and counts["stores"] <= 3
    assert inv.coeffs[1] == S({1: -1}) and inv.coeffs[11] == S({0: -1, 1: -1})
    assert rule._apply_phi(rule.phi_image(-1, 12), 12).agrees(rule.t1(), 12)

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


def test_phi_image_of_the_rule_is_cut_to_the_cap():
    """Phi(t1) = C is cut to the cap like every other image, on the first
    call as on the cached ones."""
    r = build_from_rule(Q, {0: S({1: 1}), 1: S({2: 1}), 5: S({1: 3})}, t2_prec=10)
    first = r.phi_image(1, 3)
    assert first.format() == "t1 + t1^2*t2 + O(t2^3)"
    assert r.phi_image(1, 3) == first
    assert r.phi_image(1, 10).format() == "t1 + t1^2*t2 + 3*t1*t2^5 + O(t2^10)"


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
    twist substitutes P = Phi(t1) through the rule's chain 1; _substitute
    reads P from its iterates, as change_t1 does."""
    rule = heis()
    a = S({1: 1, 2: 1}, 6)
    want = SkewSeries(rule, {0: S({1: 1, 2: 1}, 6), 1: S({0: 1, 1: 2}, 5), 2: S({0: 2}, 4)}, 3)
    P = rule.element({0: S({1: 1}), 1: S({0: 1})})
    assert rule.twist(a, 1, 3) == want
    assert _substitute(rule, a, _iterates(rule, P, 3), {}, 3) == want
    # every completion of a's tail agrees with the capped result
    for tail in ({6: 1}, {6: -2, 7: 5}, {8: 3}):
        done = rule.twist(S({1: 1, 2: 1, **tail}), 1, 3)
        assert all(want.coeff(g).agrees(done.coeff(g)) for g in range(3))


def test_substitute_cuts_cached_powers_to_its_cap():
    """Powers cached at a larger cap (change_t1 shares one power dict and
    one set of iterates over shrinking caps) are cut back: the result is
    the fresh one, to grade 3."""
    rule = heis()
    a = S({1: 1, 2: 1, 3: -1})
    P = rule.element({0: S({1: 1}), 1: S({0: 1})})
    images = _iterates(rule, P, 5)
    cache = {}
    _substitute(rule, a, images, cache, 5)
    got = _substitute(rule, a, images, cache, 3)
    assert got.gprec == 3
    assert got == _substitute(rule, a, _iterates(rule, P, 3), {}, 3)


def test_cache_info_counts_entries_hits_and_misses():
    rule = heis()
    assert rule.cache_info() == {"images": 0, "powers": 0}
    c0 = rule.coeffs[0]
    assert rule.twist(c0, 2, 4) == rule.element({0: S({1: 1}), 1: S({0: 2})}, 4)
    assert rule.cache_info() == {"images": 2, "powers": 0}
    assert rule.twist(c0, 2, 3) == rule.element({0: S({1: 1}), 1: S({0: 2})}, 3)
    rule.twist(S({1: 1}), 2, 3)  # an operand: never kept
    assert rule.cache_info() == {"images": 2, "powers": 0}
    # (t1 + 2 t2)^2 stores P^2 in chain 2 and reads Phi(P) = Phi^3(t1)
    square = rule.element({0: S({2: 1}), 1: S({1: 4}), 2: S({0: 6})}, 4)
    assert rule.twist(S({2: 1}), 2, 4) == square
    assert rule.cache_info() == {"images": 3, "powers": 1}


def test_power_chain_stores_neither_one_nor_the_image_twice():
    """Chain m holds Phi^m(t1) at entry 1 and the powers a twist reads
    above it: no P^0, and no second copy of P^1."""
    rule = heis()
    rule.twist(S({3: 1}), 1, 4)
    assert set(rule._pow_cache[1]) == {1, 2, 3}


def test_tail_cap_claims_do_not_depend_on_the_cap():
    """a = 5 t1 + O(t1^5) is a term of Phi^-2(t1).  Its cap-3 and cap-2
    twists by Phi^-1 both claim 2 t1 + O(t1^5) at t2: grade g of a
    substitution reads no grade of the image above g, and neither does the
    precision cap on it.  Completions of the rule's tails agree with both
    claims below t1^5 and differ at t1^5."""
    F7 = Field.prime_field(7)
    known = {0: {1: 1}, 1: {1: 1}, 2: {0: 1}}

    def rule_with(tails, prec):
        return build_from_rule(
            F7, {j: S({**c, **tails.get(j, {})}, prec, F7) for j, c in known.items()}
        )

    rule = rule_with({}, 5)
    a = rule.phi_image(-2, 3).terms[1]
    assert a == S({1: 5}, 5, F7)
    big = rule.twist(a, -1, 3)
    small = rule.twist(a, -1, 2)
    claim = S({1: 2}, 5, F7)
    assert big.coeff(1) == claim and small.coeff(1) == claim
    assert small == rule.twist(LaurentSeries(F7, a.coeffs, a.prec), -1, 2)
    rng = random.Random(5)
    fifth = set()
    for _ in range(12):
        done = rule_with({j: {e: rng.randrange(7) for e in range(5, 10)} for j in known}, 10)
        got = done.twist(done.phi_image(-2, 3).terms[1], -1, 3).coeff(1)
        assert claim.agrees(got)
        fifth.add(got.coeffs.get(5))
    assert len(fifth) > 1


def test_twist_claims_do_not_depend_on_earlier_calls():
    """A cap-3 twist first leaves the cap-2 twist of the same series as on a
    cold rule, (2 t1 + O(t1^5)) t2."""
    F7 = Field.prime_field(7)

    def rule():
        return build_from_rule(
            F7, {0: S({1: 1}, 5, F7), 1: S({1: 1}, 5, F7), 2: S({0: 1}, 5, F7)}, t2_prec=3
        )

    x = S({1: 1}, 5, F7)
    warm = rule()
    warm.twist(x, 2, 3)
    cold = rule().twist(x, 2, 2)
    assert warm.twist(x, 2, 2) == cold
    assert cold.coeff(1) == S({1: 2}, 5, F7)


def test_warm_products_convert_no_element_map(monkeypatch):
    """Series keep the integer form that ``Field.dot_forms`` reads and
    writes, so on warm caches a skew product turns no map of field elements
    into that form, and an inverse only the inverted leading coefficient
    it builds itself.  The rule and operands are those of the ring
    benchmark over Q(zeta_5) at gprec 5."""
    from skewlocal.parsing import parse_rule_text, parse_series

    rule = parse_rule_text("field: Q(zeta_5)\nprec: t1=exact t2=exact\nC = zeta*t1 + t1^2*t2\n")
    f = rule.field

    def element(terms):
        return rule.element({j: parse_series(t, f, var="t1") for j, t in terms.items()}, 5)

    u = element({
        0: "1 + (3/2*zeta)*t1 + (-3/2)*t1^2",
        1: "(-3/2*zeta)*t1^-1 + (3/2)*t1",
        2: "(3/2*zeta)*t1^2",
    })
    v = element({0: "(-3/2*zeta)*t1", 1: "(3/2*zeta) + (-3/2)*t1^3"})
    calls = [0]
    to_form = Field.to_form

    def counted(self, coeffs):
        calls[0] += 1
        return to_form(self, coeffs)

    monkeypatch.setattr(Field, "to_form", counted)
    for op, converted in ((lambda: skew_mul(u, v, 5), 0), (lambda: skew_invert(u, 5), 1)):
        cold = op()
        calls[0] = 0
        assert op() == cold
        assert calls[0] == converted
