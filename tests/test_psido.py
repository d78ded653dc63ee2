import random
from fractions import Fraction

import pytest

from skewlocal.coeff import Field
from skewlocal.errors import NotInvertible, PrecisionExhausted
from skewlocal.psido import PsiDO, psido_compose, psido_invert, to_skew, transcribe
from skewlocal.series import LaurentSeries
from skewlocal.skew import conj_by_t2, invariants

Q = Field.rationals()


def S(mapping, prec=None):
    return LaurentSeries.make(Q, {e: Fraction(c) for e, c in mapping.items()}, prec)


def P(mapping, cut=None):
    return PsiDO(Q, {k: S(m) for k, m in mapping.items()}, cut)


def test_d_times_x():
    got = PsiDO.d(Q) * PsiDO.x(Q)
    assert got == P({1: {1: 1}, 0: {0: 1}})
    assert got.cut is None


def test_commutator_is_one_exactly():
    d = PsiDO.d(Q)
    x = PsiDO.x(Q)
    assert d * x - x * d == PsiDO.one(Q)


def test_d_inverse_times_x():
    got = PsiDO.d(Q, -1) * PsiDO.x(Q)
    assert got == P({-1: {1: 1}, -2: {0: -1}})
    assert got.cut is None


def test_d_inverse_times_d():
    assert PsiDO.d(Q, -1) * PsiDO.d(Q) == PsiDO.one(Q)
    assert PsiDO.d(Q) * PsiDO.d(Q, -1) == PsiDO.one(Q)


def test_powers_cancel():
    for k in range(1, 6):
        u = PsiDO.d(Q, k)
        v = PsiDO.d(Q, -k)
        assert u * v == PsiDO.one(Q)
        assert v * u == PsiDO.one(Q)


def test_nonterminating_tail_is_cut():
    # D^-1 X^-1 has derivatives of X^-1 forever, so the tail runs to depth
    got = psido_compose(PsiDO.d(Q, -1), PsiDO.from_series(Q, S({-1: 1})), depth=6)
    assert got.cut == -1 - 6
    assert got.depth == 6
    assert got.coeff(-1) == S({-1: 1})
    assert got.coeff(-2) == S({-2: 1})
    assert got.coeff(-3) == S({-3: 2})
    with pytest.raises(PrecisionExhausted):
        got.coeff(-8)


def test_depth_is_read_from_the_top():
    p = P({2: {0: 1}}, cut=-3)
    assert p.top == 2
    assert p.depth == 5
    assert p.order() == -2
    assert PsiDO.zero(Q).order() == float("inf")


def test_cut_propagates_through_products():
    u = P({0: {1: 1}}, cut=-4)
    v = PsiDO.d(Q)
    assert (u * v).cut == -3
    assert (v * u).cut == -3


def test_add_sub_scale():
    u = P({1: {0: 1}, 0: {1: 1}})
    v = P({0: {1: 1}})
    assert u - v == P({1: {0: 1}})
    assert u + (-u) == PsiDO.zero(Q)
    assert u.scale(Q.from_int(3)) == P({1: {0: 3}, 0: {1: 3}})


def test_invert_d_and_x():
    assert psido_invert(PsiDO.d(Q)) == PsiDO.d(Q, -1)
    assert psido_invert(PsiDO.x(Q)) == PsiDO.from_series(Q, S({-1: 1}))


def test_invert_geometric():
    u = PsiDO.one(Q) + PsiDO.d(Q, -1)
    inv = psido_invert(u, depth=5)
    want = P({0: {0: 1}, -1: {0: -1}, -2: {0: 1}, -3: {0: -1}, -4: {0: 1}}, cut=-5)
    assert inv == want
    assert (u * inv).agrees(PsiDO.one(Q))
    assert (inv * u).agrees(PsiDO.one(Q))


def test_invert_round_trip():
    u = P({2: {0: 1}, 0: {1: 1}, -1: {0: 2}})
    inv = psido_invert(u, depth=8)
    assert (u * inv).agrees(PsiDO.one(Q))
    assert (inv * u).agrees(PsiDO.one(Q))


def test_invert_truncated_leading_coefficient_round_trip():
    """A Leibniz term that is zero only to its X-precision still bounds the
    precision of its coefficient, so no product claims terms it lacks."""
    one = PsiDO.one(Q)
    u = PsiDO(Q, {1: S({0: 1, 1: 1}, 3)})
    inv = psido_invert(u, depth=6)
    assert (u * inv).agrees(one) and (inv * u).agrees(one)
    u = PsiDO(Q, {2: S({0: -2, 1: Fraction(-4, 3)}, 4), 0: S({2: Fraction(-2, 3)}), -1: S({1: -1})})
    inv = psido_invert(u, depth=8)
    assert (u * inv).agrees(one) and (inv * u).agrees(one)


def test_invert_rejects_zero():
    with pytest.raises(NotInvertible):
        psido_invert(PsiDO.zero(Q))
    with pytest.raises(NotInvertible):
        psido_invert(PsiDO.zero(Q, cut=-3))


def test_associativity_samples():
    rng = random.Random(20240817)
    for _ in range(15):
        ops = []
        for _ in range(3):
            coeffs = {}
            for k in rng.sample(range(-2, 3), rng.randint(1, 3)):
                e = rng.randint(-1, 2)
                coeffs[k] = S({e: rng.randint(-3, 3), e + 1: rng.randint(-3, 3)})
            ops.append(PsiDO(Q, coeffs))
        u, v, w = ops
        left = psido_compose(psido_compose(u, v, 12), w, 12)
        right = psido_compose(u, psido_compose(v, w, 12), 12)
        assert left.agrees(right)


def test_to_skew_rule_is_exact():
    rule = to_skew(Q)
    assert rule.t2_prec is None
    assert rule.coeffs[0] == LaurentSeries.variable(Q)
    assert rule.coeffs[1] == LaurentSeries.const(Q, Q.one())
    assert sorted(rule.coeffs) == [0, 1]


def test_to_skew_invariants():
    s = invariants(to_skew(Q))
    assert s.key() == (1, Q.one(), 1, 0, Q.one(), Q.zero())


def test_transcription_matches_conjugation():
    rule = to_skew(Q)
    minus = Q.from_int(-1)
    t2 = PsiDO.d(Q, -1).scale(minus)
    t2_inv = PsiDO.d(Q, 1).scale(minus)
    rng = random.Random(9)
    for _ in range(10):
        coeffs = {}
        for k in rng.sample(range(-3, 3), rng.randint(1, 3)):
            coeffs[k] = S({rng.randint(0, 2): rng.randint(-4, 4)})
        p = PsiDO(Q, coeffs, cut=-9)
        native = psido_compose(psido_compose(t2, p, 12), t2_inv, 12)
        a = transcribe(p, rule)
        got = rule.t2(1) * a * rule.t2(-1)
        want = transcribe(native, rule)
        upto = min(got.gprec, want.gprec)
        assert got.agrees(want, upto=upto)
        # and assembled from the twist map coefficient by coefficient
        assembled = rule.zero(a.gprec)
        for m in a.support():
            assembled = assembled + conj_by_t2(a.coeff(m), rule).rshift_t2(m)
        assert assembled.agrees(got, upto=upto)


def test_coeff_query_respects_cut():
    p = P({0: {0: 1}}, cut=-2)
    assert p.coeff(-1).is_zero()
    with pytest.raises(PrecisionExhausted):
        p.coeff(-2)


def test_format():
    p = P({2: {0: 1}, 0: {1: 1, 0: 2}, -1: {0: -1}}, cut=-4)
    assert p.format() == "D^2 + (2 + X) - D^-1 + O(D^-4)"
    assert PsiDO.zero(Q).format() == "0"
    assert P({1: {1: 1}, 0: {0: 1}}).format() == "X*D + 1"
