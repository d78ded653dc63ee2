from fractions import Fraction
from math import inf

import pytest

from skewlocal.autonorm import (
    DiskAutomorphism,
    auto_compose,
    auto_inverse,
    auto_iterate,
    conjugate,
    conjugate_test,
    normalize,
)
from skewlocal.coeff import Field
from skewlocal.errors import (
    NotCompInvertible,
    PrecisionExhausted,
    UnsupportedField,
)
from skewlocal.series import LaurentSeries

Q = Field.rationals()


def A(mapping, prec=None):
    return DiskAutomorphism(LaurentSeries.make(Q, mapping, prec))


def test_constructor_guards():
    with pytest.raises(NotCompInvertible):
        A({2: 1})
    with pytest.raises(NotCompInvertible):
        A({0: 1, 1: 1})
    with pytest.raises(NotCompInvertible):
        DiskAutomorphism(LaurentSeries.zero(Q))


def test_compose_oracle():
    # (t + t^2) o (2t) = 2t + 4t^2
    a = A({1: 1, 2: 1})
    b = A({1: 2})
    assert auto_compose(a, b).image == LaurentSeries.make(Q, {1: 2, 2: 4})


def test_iterate_oracle():
    a = A({1: 1, 2: 1})
    a2 = auto_iterate(a, 2)
    assert a2.image == LaurentSeries.make(Q, {1: 1, 2: 2, 3: 2, 4: 1})
    a1 = auto_iterate(a, 1)
    assert a1.image == a.image
    ident = auto_iterate(a, 0)
    assert ident.image == LaurentSeries.make(Q, {1: 1})
    # iterate(3) agrees with composing three copies
    a3 = auto_iterate(a, 3)
    assert a3.image == auto_compose(a, auto_compose(a, a)).image


def test_inverse():
    a = A({1: 1, 2: 1})
    inv = auto_inverse(a)
    assert auto_compose(a, inv).image.agrees(LaurentSeries.make(Q, {1: 1}))
    assert auto_compose(inv, a).image.agrees(LaurentSeries.make(Q, {1: 1}))


def test_normalize_already_normal():
    nf = normalize(A({1: 1, 2: 1}), prec=12)
    assert nf.zeta == 1 and nf.n == 1 and nf.i_alpha == 2
    assert nf.x == 1 and nf.y == 0
    assert nf.normal_form.image.agrees(LaurentSeries.make(Q, {1: 1, 2: 1}))


def test_normalize_kills_tail():
    # hand-checked: conjugating t + t^2 + t^4 by t + t^3 clears t^4 and the
    # surviving invariants are those of t + t^2 (position 3 is never touched)
    a = A({1: 1, 2: 1, 4: 1})
    nf = normalize(a, prec=12)
    assert (nf.zeta, nf.n, nf.i_alpha) == (1, 1, 2)
    assert nf.x == 1 and nf.y == 0
    # conjugator property, exactly to the working precision
    conj = conjugate(DiskAutomorphism(a.image.truncate(nf.precision)), nf.conjugator)
    assert conj.image == nf.normal_form.image


def test_normalize_y_readoff():
    nf = normalize(A({1: 1, 2: 1, 3: 5}), prec=10)
    assert nf.i_alpha == 2 and nf.x == 1 and nf.y == 5


def test_normalize_scaling_changes_x_not_y():
    # conjugation by lambda*t sends x to lambda^(i-1) x and fixes y
    lam = Q.from_int(3)
    a = A({1: 1, 3: 1, 5: 7})
    f = DiskAutomorphism(LaurentSeries(Q, {1: lam}))
    b = conjugate(a, f)
    na = normalize(a, prec=12)
    nb = normalize(b, prec=12)
    assert na.i_alpha == nb.i_alpha == 3
    assert na.y == nb.y == 7
    assert nb.x == Q.mul(na.x, Q.pow(lam, 2))


def test_normalize_non_root_of_unity():
    nf = normalize(A({1: 2, 2: 1, 3: 4, 7: 1}), prec=10)
    assert nf.n is None and nf.i_alpha == 1
    assert Q.is_zero(nf.x) and Q.is_zero(nf.y)
    assert nf.normal_form.image == LaurentSeries.make(Q, {1: 2}, 10)
    a = A({1: 2, 2: 1, 3: 4, 7: 1})
    conj = conjugate(DiskAutomorphism(a.image.truncate(10)), nf.conjugator)
    assert conj.image == nf.normal_form.image


def test_normalize_identity_to_precision():
    nf = normalize(A({1: 1}), prec=8)
    assert nf.i_alpha == inf and nf.n == 1
    assert Q.is_zero(nf.x) and Q.is_zero(nf.y)


def test_normalize_order_two():
    # hand-checked: -t + t^2 conjugates to -t + t^3 + (5/4)t^4 before the
    # ascending sweep reaches k = 4
    a = A({1: -1, 2: 1})
    nf = normalize(a, prec=12)
    assert nf.zeta == -1 and nf.n == 2
    assert nf.i_alpha == 3
    assert nf.i_alpha % 2 == 1
    assert nf.x == 1
    conj = conjugate(DiskAutomorphism(a.image.truncate(12)), nf.conjugator)
    assert conj.image == nf.normal_form.image
    # the normal form only carries exponents 1, 3, 5
    assert set(nf.normal_form.image.coeffs) <= {1, 3, 5}


def test_normalize_cyclotomic():
    F = Field.cyclotomic(4)
    z = F.zeta()
    img = LaurentSeries(F, {1: z, 2: F.one(), 5: z})
    nf = normalize(DiskAutomorphism(img), prec=12)
    assert nf.zeta == z and nf.n == 4
    assert nf.i_alpha % 4 == 1
    conj = conjugate(DiskAutomorphism(img.truncate(12)), nf.conjugator)
    assert conj.image == nf.normal_form.image


def test_normalize_guards():
    F5 = Field.prime_field(5)
    a = DiskAutomorphism(LaurentSeries.make(F5, {1: 1, 2: 1}))
    with pytest.raises(UnsupportedField):
        normalize(a)
    with pytest.raises(PrecisionExhausted):
        normalize(A({1: 1, 2: 1}), prec=3)  # needs 2 * i_alpha = 4


def test_normalize_claims_no_more_than_its_input():
    # -t + O(t^3) is the identity's square root to precision 3 only
    nf = normalize(A({1: -1}, 3), prec=10)
    assert (nf.i_alpha, nf.precision) == (inf, 3)
    assert nf.normal_form.image == LaurentSeries.make(Q, {1: -1}, 3)
    nf = normalize(A({1: 2, 2: 1}, 3), prec=10)
    assert nf.precision == 3
    assert nf.conjugator.image == LaurentSeries.make(Q, {1: 1, 2: Fraction(1, 2)}, 3)
    # asked for 7, known to 6: the same answer as at 6, not NotSolvable
    a = A({1: -1, 2: 1, 3: 2}, 6)
    at6, at7 = normalize(a, prec=6), normalize(a, prec=7)
    assert (at7.i_alpha, at7.x, at7.y, at7.precision) == (3, 3, Fraction(31, 36), 6)
    assert (at7.normal_form, at7.conjugator) == (at6.normal_form, at6.conjugator)


def test_conjugate_test_at_the_lesser_precision():
    # known to t^6, the t^5 coefficient y = 0 is known and differs from 1
    a = A({1: -1, 3: 1}, 6)
    assert conjugate_test(a, A({1: -1, 3: 1, 5: 1}), prec=10) == "not_conjugate"
    # the exact side is read no further than the truncated one
    a, b = A({1: -1}, 3), A({1: -1, 3: 1})
    b3 = DiskAutomorphism(b.image.truncate(3))
    assert conjugate_test(a, b, prec=10) == conjugate_test(a, b3, prec=10)


def test_conjugate_test_x_classes():
    # i = 2: the class modulus is 1, so any nonzero x values match
    assert conjugate_test(A({1: 1, 2: 1}), A({1: 1, 2: 3}), prec=10) == "conjugate"
    # i = 3: modulus 2, so the quotient must be a square in Q
    assert conjugate_test(A({1: 1, 3: 1}), A({1: 1, 3: 2}), prec=10) == "not_conjugate"
    assert conjugate_test(A({1: 1, 3: 1}), A({1: 1, 3: 4}), prec=10) == "conjugate"


def test_conjugate_test_invariant_mismatches():
    assert conjugate_test(A({1: 1, 2: 1}), A({1: 2}), prec=10) == "not_conjugate"
    assert (
        conjugate_test(A({1: 1, 3: 1}), A({1: 1, 3: 1, 5: 1}), prec=10)
        == "not_conjugate"
    )
    assert conjugate_test(A({1: 1}), A({1: 1}), prec=10) == "conjugate"


def test_conjugate_test_undecided_over_cyclotomic():
    F = Field.cyclotomic(4)
    z = F.zeta()
    a = DiskAutomorphism(LaurentSeries(F, {1: F.one(), 3: F.one()}))
    b = DiskAutomorphism(LaurentSeries(F, {1: F.one(), 3: z}))
    assert conjugate_test(a, b, prec=10) == "undecided"


def test_conjugacy_invariance_under_random_conjugator():
    f = A({1: 1, 2: Fraction(1, 2), 3: -2})
    a = A({1: 1, 3: 2, 5: 1})
    b = conjugate(a, f)
    na = normalize(a, prec=12)
    nb = normalize(b, prec=12)
    assert na.zeta == nb.zeta and na.n == nb.n
    assert na.i_alpha == nb.i_alpha
    assert na.y == nb.y
    assert conjugate_test(a, b, prec=12) == "conjugate"
