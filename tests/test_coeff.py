import random
import time
from fractions import Fraction
from math import gcd

import pytest

from skewlocal.coeff import Field
from skewlocal.errors import (
    DivisionByZero,
    ParseError,
    UnsupportedField,
    ZeroElement,
)

Q = Field.rationals()


def test_rational_basics():
    a = Q.from_fraction(Fraction(3, 2))
    b = Q.from_int(-2)
    assert Q.add(a, b) == Fraction(-1, 2)
    assert Q.mul(a, b) == Fraction(-3)
    assert Q.inv(a) == Fraction(2, 3)
    assert Q.pow(a, -2) == Fraction(4, 9)
    assert Q.is_zero(Q.sub(a, a))
    with pytest.raises(DivisionByZero):
        Q.inv(Q.zero())


def test_cyclotomic_4():
    F = Field.cyclotomic(4)
    z = F.zeta()
    # zeta_4^2 = -1
    assert F.mul(z, z) == F.from_int(-1)
    assert F.pow(z, 4) == F.one()
    assert F.inv(z) == F.neg(z)


def test_cyclotomic_3():
    F = Field.cyclotomic(3)
    z = F.zeta()
    # 1 + zeta + zeta^2 = 0
    s = F.add(F.add(F.one(), z), F.mul(z, z))
    assert F.is_zero(s)
    assert F.mul(z, F.mul(z, z)) == F.one()


def test_cyclotomic_inverse_random():
    F = Field.cyclotomic(5)
    z = F.zeta()
    samples = [
        F.add(F.one(), z),
        F.sub(F.mul(z, z), F.from_int(3)),
        F.add(F.pow(z, 3), F.from_fraction(Fraction(1, 2))),
    ]
    for a in samples:
        assert F.mul(a, F.inv(a)) == F.one()


def test_prime_field():
    F = Field.prime_field(7)
    assert F.from_int(10) == 3
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.from_fraction(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1
    assert F.char() == 7
    with pytest.raises(ValueError):
        Field.prime_field(6)


def test_root_of_unity_order():
    assert Q.root_of_unity_order(Q.one()) == 1
    assert Q.root_of_unity_order(Q.from_int(-1)) == 2
    assert Q.root_of_unity_order(Q.from_int(2)) is None
    with pytest.raises(ZeroElement):
        Q.root_of_unity_order(Q.zero())

    F3 = Field.cyclotomic(3)
    z = F3.zeta()
    assert F3.root_of_unity_order(z) == 3
    # -zeta_3 has order 6 = lcm(2, 3), the default bound
    assert F3.root_of_unity_order(F3.neg(z)) == 6
    assert F3.root_of_unity_order(F3.neg(z), bound=5) is None

    F13 = Field.prime_field(13)
    assert F13.root_of_unity_order(F13.from_int(12)) == 2
    assert F13.root_of_unity_order(F13.from_int(3)) == 3  # 27 = 1 mod 13


def test_primitive_root_of_unity():
    assert Q.primitive_root_of_unity(1) == Q.one()
    assert Q.primitive_root_of_unity(2) == Q.from_int(-1)
    with pytest.raises(UnsupportedField):
        Q.primitive_root_of_unity(3)

    F3 = Field.cyclotomic(3)
    for order in (1, 2, 3, 6):
        w = F3.primitive_root_of_unity(order)
        assert F3.root_of_unity_order(w, bound=6) == order
    with pytest.raises(UnsupportedField):
        F3.primitive_root_of_unity(4)

    F7 = Field.prime_field(7)
    w = F7.primitive_root_of_unity(3)
    assert F7.root_of_unity_order(w) == 3
    with pytest.raises(UnsupportedField):
        F7.primitive_root_of_unity(5)


def test_is_dth_power_rational():
    ok, w = Q.is_dth_power(Q.from_int(8), 3)
    assert ok and w == 2
    ok, w = Q.is_dth_power(Q.from_int(4), 2)
    assert ok and Q.mul(w, w) == 4
    ok, w = Q.is_dth_power(Q.from_int(2), 2)
    assert not ok and w is None
    ok, w = Q.is_dth_power(Q.from_int(-8), 3)
    assert ok and w == -2
    ok, w = Q.is_dth_power(Q.from_int(-4), 2)
    assert not ok
    ok, w = Q.is_dth_power(Q.from_fraction(Fraction(4, 9)), 2)
    assert ok and w == Fraction(2, 3)
    ok, w = Q.is_dth_power(Q.zero(), 5)
    assert ok and w == 0
    ok, w = Q.is_dth_power(Q.from_int(7), 1)
    assert ok and w == 7


def test_is_dth_power_rational_huge():
    # beyond float range: the integer root must not go through a float
    assert Q.is_dth_power(Fraction(10**400 + 1), 3) == (False, None)
    root = 10**130 + 7
    assert Q.is_dth_power(Fraction(root**3), 3) == (True, root)
    assert Q.is_dth_power(Fraction(1, root**4), 4) == (True, Fraction(1, root))


def test_primitive_root_of_unity_prime_fields():
    # the search is fast for large p, and exact for every order over small p
    F = Field.prime_field(1000003)
    assert F.primitive_root_of_unity(2) == 1000002
    w = F.primitive_root_of_unity(3)
    assert w != 1 and pow(w, 3, 1000003) == 1
    for p in (2, 3, 5, 7, 11, 13, 31):
        F = Field.prime_field(p)
        for order in range(1, p):
            if (p - 1) % order == 0:
                w = F.primitive_root_of_unity(order)
                assert F.root_of_unity_order(w) == order


def test_is_dth_power_prime():
    F7 = Field.prime_field(7)
    # squares mod 7 are {1, 2, 4}
    ok, w = F7.is_dth_power(F7.from_int(2), 2)
    assert ok and F7.mul(w, w) == 2
    ok, w = F7.is_dth_power(F7.from_int(3), 2)
    assert not ok and w is None
    F5 = Field.prime_field(5)
    ok, _ = F5.is_dth_power(F5.from_int(2), 4)
    assert not ok
    ok, w = F5.is_dth_power(F5.from_int(1), 4)
    assert ok and pow(w, 4, 5) == 1


def test_is_dth_power_prime_exhaustive():
    """Every a and d <= 12 over primes whose p - 1 has repeated factors:
    2^2 3, 2^2 3^2, 2^5 3 and 2^8."""
    for p in (13, 37, 97, 257):
        F = Field.prime_field(p)
        for d in range(1, 13):
            powers = {pow(b, d, p) for b in range(p)}
            for a in range(p):
                ok, w = F.is_dth_power(a, d)
                assert ok == (a in powers)
                assert w is None if not ok else pow(w, d, p) == a


@pytest.mark.parametrize("p", [100000007, 998244353, 1000000000039])
def test_is_dth_power_large_prime_is_bounded(p):
    """Residues and non-residues against Euler's criterion: a is a d-th
    power in F_p exactly when a^((p - 1) / gcd(d, p - 1)) = 1.  The witness
    search once looped over all of F_p.  998244353 - 1 = 119 * 2^23 takes
    Tonelli-Shanks through 23 binary digits."""
    rng = random.Random(p)
    start = time.perf_counter()
    F = Field.prime_field(p)
    for d in (2, 3, 4, 6):
        g = gcd(d, p - 1)
        seen = set()
        for a in [pow(rng.randrange(1, p), d, p) for _ in range(20)] + [
            rng.randrange(1, p) for _ in range(20)
        ]:
            ok, w = F.is_dth_power(a, d)
            assert ok == (pow(a, (p - 1) // g, p) == 1)
            assert w is None if not ok else pow(w, d, p) == a
            seen.add(ok)
        assert seen == ({True, False} if g > 1 else {True})
    assert time.perf_counter() - start < 5.0


def test_is_dth_power_cyclotomic_unsupported():
    F = Field.cyclotomic(4)
    with pytest.raises(UnsupportedField):
        F.is_dth_power(F.zeta(), 2)


def test_field_names():
    assert Field.from_text("Q") == Q
    assert Field.from_text("Q(zeta_5)") == Field.cyclotomic(5)
    assert Field.from_text("F7") == Field.prime_field(7)
    assert Field.from_text(" F7 ").name() == "F7"
    for bad in ("R", "Q(zeta_)", "F8", "F", "Qq"):
        with pytest.raises(ParseError):
            Field.from_text(bad)


def test_format_element():
    assert Q.format_element(Q.from_fraction(Fraction(-3, 2))) == "-3/2"
    F = Field.cyclotomic(3)
    a = F.add(F.one(), F.neg(F.zeta()))
    assert F.format_element(a) == "1 - zeta"
    assert F.format_element(F.zero()) == "0"
    assert not F.is_simple(a)
    assert F.is_simple(F.zeta())
    F7 = Field.prime_field(7)
    assert F7.format_element(F7.from_int(-1)) == "6"
