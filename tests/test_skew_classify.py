from fractions import Fraction
from math import inf

import pytest
from conftest import replay

from skewlocal.coeff import Field
from skewlocal.errors import (
    FieldMismatch,
    InadmissibleSet,
    NotSolvable,
    PrecisionExhausted,
    UnsupportedField,
)
from skewlocal.series import LaurentSeries
from skewlocal.skew import (
    SkewInvariantSet,
    build_from_invariants,
    build_from_rule,
    canonicalize,
    change_t1,
    change_t2,
    invariants,
    isomorphic,
    reduce_support,
    scale_t2,
)

Q = Field.rationals()


def S(mapping, prec=None, field=Q):
    return LaurentSeries.make(field, mapping, prec)


def test_build_canonical_rules():
    r = build_from_invariants(Q, 1, Q.one(), 1, 0, Q.one(), Q.zero())
    assert r.t2_prec is None
    assert r.coeffs == {0: S({1: 1}), 1: S({0: 1})}

    # n = 2: the grade-2i entry carries 2 xi c^2 (a + r(2i+1)/4)
    r2 = build_from_invariants(Q, 2, Q.from_int(-1), 2, 1, Q.one(), Q.zero())
    assert r2.coeffs[0] == S({1: -1})
    assert r2.coeffs[2] == S({1: 1})
    assert r2.coeffs[4] == S({1: Fraction(-5, 2)})


def test_build_infinite_i():
    C3 = Field.cyclotomic(3)
    r = build_from_invariants(C3, 3, C3.zeta(), inf)
    assert r.t2_prec is None and sorted(r.coeffs) == [0]
    s = invariants(r)
    assert s.infinite_i and s.n == 3 and s.xi == C3.zeta()
    assert s.r is None and s.c is None and s.a is None


def test_build_validations():
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 0, Q.one(), 1, 0, Q.one(), Q.zero())
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 2, Q.one(), 2, 1, Q.one(), Q.zero())  # xi order 1
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 2, Q.from_int(-1), 3, 1, Q.one(), Q.zero())  # 2 | 3
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 2, Q.from_int(-1), 2, 2, Q.one(), Q.zero())  # r != 1 mod 2
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 1, Q.one(), 2, 2, Q.one(), Q.zero())  # r out of range
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 1, Q.one(), 1, 0, Q.zero(), Q.zero())  # c = 0
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 1, Q.one(), 1, 0, Q.one(), None)
    with pytest.raises(InadmissibleSet):
        build_from_invariants(Q, 1, Q.one(), inf, 0, None, None)
    F2 = Field.prime_field(2)
    with pytest.raises(InadmissibleSet):
        build_from_invariants(F2, 1, F2.one(), 1, 0, F2.one(), F2.zero())


def test_round_trip_n1():
    for (r, c, a) in [(0, Q.one(), Q.zero()), (0, Q.from_int(3), Q.from_int(-2)),
                      (1, Q.from_int(-1), Q.from_fraction(Fraction(1, 2)))]:
        rule = build_from_invariants(Q, 1, Q.one(), 2, r, c, a)
        assert invariants(rule).key() == (1, Q.one(), 2, r, c, a)


def test_round_trip_n2_and_n3():
    m1 = Q.from_int(-1)
    rule = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    assert invariants(rule).key() == (2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    rule = build_from_invariants(Q, 2, m1, 4, 3, Q.one(), Q.from_int(-4))
    assert invariants(rule).key() == (2, m1, 4, 3, Q.one(), Q.from_int(-4))

    C3 = Field.cyclotomic(3)
    z = C3.zeta()
    rule = build_from_invariants(C3, 3, z, 3, 1, C3.from_int(2), C3.from_int(-1))
    assert invariants(rule).key() == (3, z, 3, 1, C3.from_int(2), C3.from_int(-1))
    # composite i = 6 with n = 3
    rule = build_from_invariants(C3, 3, z, 6, 4, C3.one(), C3.from_int(5))
    assert invariants(rule).key() == (3, z, 6, 4, C3.one(), C3.from_int(5))


def test_reduce_kills_grades_not_divisible_by_n():
    m1 = Q.from_int(-1)
    # n = 2 and only odd grades present: everything dies
    rule = build_from_rule(Q, {0: S({1: -1}), 1: S({0: 1})})
    red, records = reduce_support(rule, 10)
    assert [j for j in red.coeffs if j >= 1] == []
    assert any(rec.kind == "t2" and rec.grade is not None for rec in records)
    # killing leaves only finite precision, so i = infinity is out of reach
    with pytest.raises(PrecisionExhausted):
        invariants(rule, 10)


def test_reduce_cleans_non_equivariant_exponents():
    m1 = Q.from_int(-1)
    base = build_from_invariants(Q, 2, m1, 2, 1, Q.one(), Q.zero())
    # pollute grade 2 = i with an exponent not congruent to 1 mod 2
    coeffs = dict(base.coeffs)
    coeffs[2] = coeffs[2] + S({2: 7})
    rule = build_from_rule(Q, coeffs)
    red, records = reduce_support(rule, 10)
    i = min(j for j in red.coeffs if j >= 1)
    assert i == 2
    assert all(e % 2 == 1 for e in red.coeffs[i].coeffs)
    assert any(rec.kind == "t1" and rec.grade is not None for rec in records)
    assert invariants(rule, 10).key() == (2, m1, 2, 1, Q.one(), Q.zero())


def test_reduce_linearizes_alpha():
    from skewlocal.autonorm import DiskAutomorphism, conjugate

    # a conjugate of t1 -> -t1 linearizes back to -t1
    neg = DiskAutomorphism(S({1: -1}))
    f = DiskAutomorphism(S({1: 1, 2: 1}))
    alpha = conjugate(neg, f)
    rule = build_from_rule(Q, {0: alpha.image, 2: S({1: 1})}, t2_prec=8)
    red, records = reduce_support(rule, 8)
    assert red.coeffs[0].coeffs == {1: Fraction(-1)}
    assert records and (records[0].kind, records[0].grade) == ("t1", None)


def test_reduce_rejects_finite_contact_order():
    # alpha = t1 + t1^2 is not conjugate to its linear part
    rule = build_from_rule(Q, {0: S({1: 1, 2: 1}), 2: S({1: 1})}, t2_prec=6)
    with pytest.raises(NotSolvable):
        reduce_support(rule, 6)


def test_detect_order_guard():
    rule = build_from_rule(Q, {0: S({1: 2}), 2: S({1: 1})})
    with pytest.raises(NotSolvable):
        invariants(rule, 8)


def test_char_p_is_rejected_for_classification():
    F5 = Field.prime_field(5)
    t1 = LaurentSeries.variable(F5)
    rule = build_from_rule(F5, {0: t1, 3: LaurentSeries(F5, {0: 1})}, t2_prec=8)
    with pytest.raises(UnsupportedField):
        reduce_support(rule)
    with pytest.raises(UnsupportedField):
        invariants(rule)
    with pytest.raises(UnsupportedField):
        canonicalize(rule)


def test_canonicalize_messy_rule():
    # worked example: support {1, 3} collapses onto the canonical rule of
    # (n, xi, i, r, c, a) = (1, 1, 1, 0, 1, -1)
    messy = build_from_rule(Q, {0: S({1: 1}), 1: S({1: 1}), 3: S({0: 1})})
    invset, canon, records = canonicalize(messy, 9)
    assert invset.key() == (1, Q.one(), 1, 0, Q.one(), Q.from_int(-1))
    assert canon.coeffs[0] == S({1: 1})
    assert canon.coeffs[1] == S({0: 1})
    assert canon.coeffs[2] == S({-1: -1})
    assert len(records) > 0
    # canonical input is a fixed point
    invset2, canon2, records2 = canonicalize(canon, 9)
    assert invset2.key() == invset.key()
    assert records2 == []


def test_canonicalize_quadratic_tail():
    simple = build_from_rule(Q, {0: S({1: 1}), 1: S({0: 1}), 2: S({0: 1})})
    invset, canon, records = canonicalize(simple, 9)
    assert invset.key() == (1, Q.one(), 1, 0, Q.one(), Q.zero())
    assert [j for j in canon.coeffs if j >= 1] == [1]


def test_canonicalize_perturbed_rule_recovers_set():
    m1 = Q.from_int(-1)
    base = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    s0 = invariants(base)
    w = base.element({0: S({0: 1, 2: 2}), 2: S({1: 1})})
    pert = change_t2(base, w, 12)
    invset, canon, records = canonicalize(pert)
    assert invset.key() == s0.key()
    tgt = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    for j in range(canon.t2_prec):
        want = tgt.coeffs.get(j, LaurentSeries.zero(Q))
        assert canon.coeffs.get(j, LaurentSeries.zero(Q)).agrees(want)


def _perturbed_rule(cap):
    m1 = Q.from_int(-1)
    base = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    w = base.element({0: S({0: 1, 2: 2}), 2: S({1: 1})})
    return change_t2(base, w, cap)


def test_change_t2_twists_only_by_phi():
    """A work count: a t2 move on a fresh rule reads its products from the
    iterates Phi^g and builds only the power chain of Phi(t1).  Twisting by
    each Phi^g with its own chain filled m = 1..9 here.  Chain m keeps the
    image Phi^m(t1) at entry 1, so every other chain holds that entry only."""
    pert = _perturbed_rule(12)
    change_t2(pert, pert.element({0: S({0: 1}), 3: S({1: 1})}), 12)
    assert {m for m, chain in pert._pow_cache.items() if set(chain) - {1}} == {1}


def test_canonicalize_evaluates_at_most_300_substitutions(evaluate_calls):
    """A work count: canonicalizing the perturbed rule at cap 12 evaluated
    392 substitutions with one power chain per Phi^g, and 255 with the
    iterates of Phi."""
    pert = _perturbed_rule(12)
    evaluate_calls[0] = 0
    canonicalize(pert)
    assert evaluate_calls[0] <= 300


def _grade0_changes(records):
    """The unit changes t2' = u(t1) t2 aimed at a grade (the shift
    t2' = t1^m t2 is aimed at none)."""
    return [r for r in records if r.kind == "t2" and set(r.terms) == {0} and r.grade is not None]


def test_canonicalize_monomializes_in_one_unit_change():
    """A move count, not a time: delta_i becomes c t1^r under one unit
    change t2' = q^(1/i) t2.  On the perturbed rule at cap 12 the loop of
    linearized unit changes it replaces recorded 4 grade-0 changes."""
    _, _, records = canonicalize(_perturbed_rule(12))
    assert len(_grade0_changes(records)) == 1


def test_canonicalize_monomializes_an_exact_rule_in_one_unit_change():
    """As above on an exact rule at cap 7, where the loop recorded 11."""
    exact = build_from_rule(Q, {0: S({1: 1}), 2: S({0: 3, 2: 5}), 3: S({1: 1})})
    invset, canon, records = canonicalize(exact, 7)
    assert len(_grade0_changes(records)) == 1
    assert invset.key() == (1, Q.one(), 2, 0, Q.from_int(3), Q.zero())
    assert canon.coeffs[2].agrees(S({0: 3}))


def test_parameter_changes_preserve_invariants():
    m1 = Q.from_int(-1)
    base = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    s0 = invariants(base)

    ch = change_t1(base, base.from_series(S({1: 1, 2: 3})), 12)
    assert invariants(ch).same_class(s0) == "yes"

    w = base.element({0: S({0: 2}), 2: S({0: 1})})
    assert invariants(change_t2(base, w, 12)).same_class(s0) == "yes"

    # second kind: t1' = t1 + b t2^s with s a multiple of n
    y = base.element({0: S({1: 1}), 2: S({1: 4})})
    assert invariants(change_t1(base, y, 12)).same_class(s0) == "yes"


def test_scale_t2_moves_c_within_its_class():
    m1 = Q.from_int(-1)
    base = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    s0 = invariants(base)
    sc = invariants(scale_t2(base, Q.from_int(5)))
    # lambda t2 multiplies c by lambda^-i, a d-th power since d | i
    assert sc.c == Q.from_fraction(Fraction(3, 25))
    assert sc.key() != s0.key()
    assert sc.same_class(s0) == "yes"


def test_same_class_decisions():
    one = Q.one()
    a0 = SkewInvariantSet(Q, 1, one, 2, 1, Q.from_int(2), Q.zero())
    # d = i = 2 when r = 1; 8/2 = 4 is a square
    b0 = SkewInvariantSet(Q, 1, one, 2, 1, Q.from_int(8), Q.zero())
    assert a0.same_class(b0) == "yes"
    c0 = SkewInvariantSet(Q, 1, one, 2, 1, Q.from_int(6), Q.zero())
    assert a0.same_class(c0) == "no"
    d0 = SkewInvariantSet(Q, 1, one, 2, 1, Q.from_int(2), Q.one())
    assert a0.same_class(d0) == "no"
    e0 = SkewInvariantSet(Q, 1, one, 4, 1, Q.from_int(2), Q.zero())
    assert a0.same_class(e0) == "no"

    C4 = Field.cyclotomic(4)
    z = C4.zeta()
    f0 = SkewInvariantSet(C4, 4, z, 4, 1, C4.from_int(2), C4.zero())
    g0 = SkewInvariantSet(C4, 4, z, 4, 1, C4.from_int(3), C4.zero())
    # power detection is not available over cyclotomic fields
    assert f0.same_class(g0) == "undecided"
    with pytest.raises(FieldMismatch):
        a0.same_class(f0)


def test_same_class_trivial_gcd_is_decided_everywhere():
    C3 = Field.cyclotomic(3)
    z = C3.zeta()
    # r = 0, i = 3 gives d = gcd(-1, 3) = 1: all c are equivalent
    a0 = SkewInvariantSet(C3, 3, z, 3, 0, C3.from_int(2), C3.zero())
    b0 = SkewInvariantSet(C3, 3, z, 3, 0, C3.from_int(5), C3.zero())
    assert a0.same_class(b0) == "yes"


def test_isomorphic_end_to_end():
    m1 = Q.from_int(-1)
    base = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    pert = change_t2(base, base.element({0: S({0: 1}), 2: S({1: -2})}), 12)
    assert isomorphic(base, pert) == "yes"
    other = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(2))
    assert isomorphic(base, other) == "no"
    with pytest.raises(FieldMismatch):
        isomorphic(base, build_from_invariants(Field.cyclotomic(3), 1,
                                               Field.cyclotomic(3).one(), 1, 0,
                                               Field.cyclotomic(3).one(),
                                               Field.cyclotomic(3).zero()))


def test_invariants_need_enough_precision():
    base = build_from_invariants(Q, 1, Q.one(), 3, 0, Q.one(), Q.zero())
    shallow = base.truncate(4)  # reading a needs grade 2i = 6
    with pytest.raises(PrecisionExhausted) as err:
        invariants(shallow)
    assert err.value.required >= 7


def test_invariants_do_not_depend_on_a_t2_shift():
    """t2' = t1 t2 moves the leading t1-exponent of grade i out of [0, i);
    the set is read after the shift back, as canonicalize reads it."""
    m1 = Q.from_int(-1)
    base = build_from_invariants(Q, 2, m1, 2, 1, Q.from_int(3), Q.from_int(1))
    moved = change_t2(base, base.t1(), 10)
    assert moved.coeffs[2].valuation() == -1
    got = invariants(moved)
    assert (got.c, got.a) == (Q.from_int(3), Q.from_int(1))
    assert got.key() == invariants(base).key()
    assert isomorphic(moved, base) == "yes"


def _grade_2i_rule():
    """C = t1 - 3 t1^2 t2^3 + (t1 - 3 t1^2) t2^4: i = 3, r = 2, and the
    grade-2i residual starts at t1^-1, below mu = 2."""
    return build_from_rule(Q, {0: S({1: 1}), 3: S({2: -3}), 4: S({1: 1, 2: -3})})


@pytest.mark.parametrize("cap", [8, 12])
def test_canonicalize_matches_the_grade_2i_residual_below_r(cap):
    invset, canon, _ = canonicalize(_grade_2i_rule(), cap)
    key = (1, Q.one(), 3, 2, Q.from_int(-3), Q.from_int(-4))
    assert invset.key() == key
    tgt = build_from_invariants(Q, *key)
    for j in range(cap):
        want = tgt.coeffs.get(j, LaurentSeries.zero(Q))
        assert canon.coeffs.get(j, LaurentSeries.zero(Q)).agrees(want)


def test_canonicalize_records_replay_to_the_canonical_rule():
    """Each record is the change it made: applied in order to the input,
    the records give the canonical rule, t1-precisions and key order too."""
    for rule, cap in ((_perturbed_rule(12), 12), (_grade_2i_rule(), 8)):
        _, canon, records = canonicalize(rule, cap)
        got = replay(rule, records, cap)
        assert got == canon
        assert list(got.coeffs) == list(canon.coeffs)


def test_a_lost_c0_is_a_precision_error():
    """A c_0 that was given but is cut away by a zero t2-precision or a
    t1-precision <= 1 raises PrecisionExhausted, not the ValueError of a
    rule with no c_0."""
    rule = build_from_rule(Q, {0: S({1: 1}), 1: S({1: 1}), 3: S({0: 1})}, t2_prec=9)
    calls = (
        lambda: canonicalize(rule, 0),
        lambda: invariants(rule, 0),
        lambda: isomorphic(rule, rule, 0),
        lambda: reduce_support(rule, 0),
        lambda: change_t1(rule, rule.t1(), 0),
        lambda: rule.inverse_rule(0),
        lambda: rule.truncate(9, 1),
        lambda: build_from_rule(Q, {0: S({1: 1}, 0)}),
    )
    for call in calls:
        with pytest.raises(PrecisionExhausted):
            call()
    with pytest.raises(ValueError):
        build_from_rule(Q, {1: S({0: 1})}, t2_prec=9)

