import random
import time
from math import factorial

import pytest

from skewlocal.coeff import Field
from skewlocal.dubrovin import Descriptor, HeisenbergElement, heis_mul, valuation_w
from skewlocal.errors import FieldMismatch
from skewlocal.series import LaurentSeries

Q = Field.rationals()
D = Descriptor(Q)


def rand_element(rng, d=D, maxdeg=3):
    levels = {}
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(0, 2)
        a = rng.randint(0, maxdeg)
        b = rng.randint(0, maxdeg)
        c = rng.randint(-4, 4)
        if c:
            lvl = levels.setdefault(k, {})
            lvl[(a, b)] = d.add(lvl.get((a, b), d.zero()), d.from_int(c))
    return HeisenbergElement(d, levels)


def test_defining_relation():
    x = HeisenbergElement.x(D)
    y = HeisenbergElement.y(D)
    z = HeisenbergElement.z(D)
    assert y * x == x * y - z
    assert (x * y).format() == "x*y"
    assert (y * x).format() == "x*y - z"


def test_second_order_rewrite():
    x = HeisenbergElement.x(D)
    y = HeisenbergElement.y(D)
    got = (y * x) * x
    want = HeisenbergElement(D, {0: {(2, 1): Q.one()}, 1: {(1, 0): Q.from_int(-2)}})
    assert got == want
    assert got == y * (x * x)


def test_z_is_central():
    x = HeisenbergElement.x(D)
    y = HeisenbergElement.y(D)
    z = HeisenbergElement.z(D)
    assert z * x == x * z
    assert z * y == y * z
    assert x * y - y * x == z


def test_high_degree_swap_is_closed_form():
    """y^1200 x^1200 in one product: the recursive rewrite it replaces
    exceeded Python's recursion limit there.  The coefficient of z^1200 is
    1200!, and w = 0."""
    start = time.perf_counter()
    got = HeisenbergElement.monomial(D, b=1200) * HeisenbergElement.monomial(D, a=1200)
    assert valuation_w(got) == 0
    assert got.coeff(1200, 1200, 0) == 1
    assert got.coeff(0, 0, 1200) == factorial(1200)
    assert len(got.levels) == 1201
    assert time.perf_counter() - start < 5.0

def test_valuation_examples():
    x = HeisenbergElement.x(D)
    y = HeisenbergElement.y(D)
    z = HeisenbergElement.z(D)
    assert valuation_w(x) == 0
    assert valuation_w(y) == 0
    assert valuation_w(x * y - y * x) == 1
    assert valuation_w(z * x + z * z) == 1
    assert valuation_w(HeisenbergElement.zero(D)) == float("inf")


def test_w_is_additive_on_products():
    rng = random.Random(41)
    done = 0
    while done < 100:
        a = rand_element(rng)
        b = rand_element(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert valuation_w(a * b) == valuation_w(a) + valuation_w(b)
        done += 1


def test_w_of_sums():
    rng = random.Random(42)
    for _ in range(50):
        a = rand_element(rng)
        b = rand_element(rng)
        assert valuation_w(a + b) >= min(valuation_w(a), valuation_w(b))


def test_products_associate():
    rng = random.Random(43)
    for _ in range(100):
        a = rand_element(rng, maxdeg=2)
        b = rand_element(rng, maxdeg=2)
        c = rand_element(rng, maxdeg=2)
        assert (a * b) * c == a * (b * c)


def test_distributivity():
    rng = random.Random(44)
    for _ in range(30):
        a = rand_element(rng)
        b = rand_element(rng)
        c = rand_element(rng)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_word_normal_form_is_order_free():
    # the same word bracketed every which way lands on one normal form
    x = HeisenbergElement.x(D)
    y = HeisenbergElement.y(D)
    w1 = ((y * x) * y) * x
    w2 = (y * (x * y)) * x
    w3 = y * ((x * y) * x)
    w4 = (y * x) * (y * x)
    assert w1 == w2 == w3 == w4


def test_descriptor_mismatch():
    other = Descriptor(Field.prime_field(5))
    with pytest.raises(FieldMismatch):
        heis_mul(HeisenbergElement.x(D), HeisenbergElement.x(other))


def test_descriptor_repr():
    assert repr(D) == "<descriptor Q>"
    assert repr(Descriptor(Field.cyclotomic(3), series=True)) == (
        "<descriptor Q(zeta_3)((u))>"
    )


def test_monomial_validation():
    with pytest.raises(ValueError):
        HeisenbergElement(D, {-1: {(0, 0): Q.one()}})
    with pytest.raises(ValueError):
        HeisenbergElement(D, {0: {(-1, 0): Q.one()}})


def test_series_coefficients():
    ds = Descriptor(Q, series=True)
    u = LaurentSeries.variable(Q)
    a = HeisenbergElement.monomial(ds, a=1, coeff=u)
    b = HeisenbergElement.y(ds)
    prod = a * b
    assert prod.coeff(1, 1, 0) == u
    got = b * a
    assert got.coeff(1, 1, 0) == u
    assert got.coeff(0, 0, 1) == -u
    assert valuation_w(got) == 0


def test_scale_and_coeff():
    x = HeisenbergElement.x(D)
    s = x.scale(Q.from_int(7))
    assert s.coeff(1, 0, 0) == Q.from_int(7)
    assert s.coeff(0, 0, 0) == Q.zero()


def test_format():
    e = HeisenbergElement(
        D,
        {
            0: {(2, 1): Q.one(), (0, 0): Q.from_int(-3)},
            2: {(0, 1): Q.from_int(2)},
        },
    )
    assert e.format() == "-3 + x^2*y + 2*y*z^2"
    assert HeisenbergElement.zero(D).format() == "0"
