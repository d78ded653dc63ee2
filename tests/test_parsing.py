import random
from fractions import Fraction
from math import comb

import pytest

from skewlocal.coeff import Field
from skewlocal.dubrovin import Descriptor, HeisenbergElement
from skewlocal.errors import ParseError
from skewlocal.parsing import (
    MAX_NESTING,
    parse_heis,
    parse_psido,
    parse_rule_text,
    parse_scalar,
    parse_series,
    rule_to_text,
    tokenize,
)
from skewlocal.psido import PsiDO
from skewlocal.series import LaurentSeries
from skewlocal.skew import build_from_invariants, build_from_rule

Q = Field.rationals()
C3 = Field.cyclotomic(3)
F5 = Field.prime_field(5)


def S(field, mapping, prec=None):
    return LaurentSeries.make(field, mapping, prec)


def test_tokenize_positions():
    toks = tokenize("t1 + 3*t2")
    assert [(k, t) for k, t, _ in toks[:-1]] == [
        ("name", "t1"),
        ("op", "+"),
        ("int", "3"),
        ("op", "*"),
        ("name", "t2"),
    ]
    with pytest.raises(ParseError) as err:
        tokenize("t1 ? t2")
    assert "position 3" in str(err.value)


def test_scalar_parsing():
    assert parse_scalar("3/4", Q) == Q.from_fraction(Fraction(3, 4))
    assert parse_scalar("-2", Q) == Q.from_int(-2)
    assert parse_scalar("2^3", Q) == Q.from_int(8)
    z = C3.zeta()
    assert parse_scalar("zeta^2 + zeta", C3) == C3.add(C3.mul(z, z), z)
    assert parse_scalar("3", F5) == F5.from_int(3)


def test_scalar_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_scalar("1 + bogus", Q)
    assert "position 4" in str(err.value)
    with pytest.raises(ParseError):
        parse_scalar("zeta", Q)
    with pytest.raises(ParseError):
        parse_scalar("1 + O(t^3)", Q)
    with pytest.raises(ParseError):
        parse_scalar("2 +", Q)
    with pytest.raises(ParseError):
        parse_scalar("(1", Q)
    with pytest.raises(ParseError):
        parse_scalar("t^x", Q)


def test_series_parsing():
    got = parse_series("t + t^2", Q)
    assert got == S(Q, {1: Fraction(1), 2: Fraction(1)})
    got = parse_series("1/2*t^-1 - t + O(t^8)", Q)
    assert got == S(Q, {-1: Fraction(1, 2), 1: Fraction(-1)}, prec=8)
    got = parse_series("(1 + zeta)*t^2", C3)
    assert got.coeff(2) == C3.add(C3.one(), C3.zeta())
    assert parse_series("t/t", Q) == S(Q, {0: Fraction(1)})
    assert parse_series("2", F5).coeff(0) == F5.from_int(2)


def test_nesting_limit_and_long_chains():
    depth = MAX_NESTING
    assert parse_series("(" * depth + "t" + ")" * depth, Q) == S(Q, {1: Fraction(1)})
    assert parse_series("-" * depth + "t", Q) == S(Q, {1: Fraction(1)})
    for text in ("(" * (depth + 1) + "t" + ")" * (depth + 1), "-" * (depth + 1) + "t"):
        with pytest.raises(ParseError):
            parse_series(text, Q)
    # long sums and products nest to the left, not deeper
    assert parse_scalar("1" + " + 1" * 3000, Q) == Fraction(3001)
    assert parse_series("t" + "*t" * 3000, Q, prec=5) == S(Q, {}, prec=5)


def test_series_prec_flag_truncates():
    got = parse_series("t + t^9", Q, prec=5)
    assert got.prec == 5
    assert got.support() == [1]


def test_series_round_trip():
    rng = random.Random(7)
    for field in (Q, C3, F5):
        for _ in range(20):
            coeffs = {}
            for e in rng.sample(range(-3, 6), rng.randint(1, 4)):
                c = field.from_int(rng.randint(-5, 5))
                if not field.is_zero(c):
                    coeffs[e] = c
            prec = rng.choice([None, 7, 10])
            s = LaurentSeries(field, coeffs, prec)
            again = parse_series(s.format(), field)
            assert again == s, s.format()


def test_rule_file_basic():
    rule = parse_rule_text(
        """
        # a comment
        field: Q
        prec: t1=exact t2=9

        C = t1 + t1*t2 + t2^3
        """
    )
    assert rule.field == Q
    assert rule.t2_prec == 9
    assert rule.coeffs[0] == S(Q, {1: Fraction(1)})
    assert rule.coeffs[1] == S(Q, {1: Fraction(1)})
    assert rule.coeffs[3] == S(Q, {0: Fraction(1)})


def test_rule_file_prec_caps():
    rule = parse_rule_text("field: Q\nprec: t1=4 t2=6\nC = t1 + t1^9*t2 + t2^7")
    assert rule.t2_prec == 6
    assert 7 not in rule.coeffs
    assert 1 not in rule.coeffs  # the t1^9 part fell above the t1 cap
    assert rule.coeffs[0].prec == 4


def test_rule_file_errors():
    with pytest.raises(ParseError):
        parse_rule_text("prec: t1=exact t2=9\nC = t1 + t2")
    with pytest.raises(ParseError):
        parse_rule_text("field: Q\n")
    with pytest.raises(ParseError):
        parse_rule_text("field: Q\nwhatever\nC = t1")
    with pytest.raises(ParseError):
        parse_rule_text("field: Q\nprec: bogus\nC = t1")
    with pytest.raises(ParseError):
        parse_rule_text("field: Q\nprec: t3=9\nC = t1")
    with pytest.raises(ParseError):
        parse_rule_text("field: Zsculpt\nC = t1")
    with pytest.raises(ParseError):
        parse_rule_text("field: Q\nC = t1 + t2^-1")
    with pytest.raises(ParseError):
        parse_rule_text("field: Q\nC = t1 / t2")


def test_rule_file_precision_errors_name_the_key():
    """A bad precision token names its key, and a negative precision is
    refused as such, not later as a missing c_0."""
    with pytest.raises(ParseError, match=r"^bad t1 precision 'abc'"):
        parse_rule_text("field: Q\nprec: t1=abc t2=5\nC = t1")
    with pytest.raises(ParseError, match=r"^bad t2 precision '4x'"):
        parse_rule_text("field: Q\nprec: t1=exact t2=4x\nC = t1")
    with pytest.raises(ParseError, match=r"^t1 precision must be >= 0, got -2$"):
        parse_rule_text("field: Q\nprec: t1=-2 t2=5\nC = t1 + t2")
    with pytest.raises(ParseError, match=r"^t2 precision must be >= 0, got -3$"):
        parse_rule_text("field: Q\nprec: t1=exact t2=-3\nC = t1 + t2")


def test_rule_without_c0_is_a_parse_error():
    for text in (
        "field: Q\nC = t2 + t1*t2^2",
        "field: Q\nC = 0",
        "field: Q\nC = O(t1^3) + t2",
        "field: Q\nprec: t1=1 t2=exact\nC = t1 + t2",
        "field: Q\nprec: t1=exact t2=0\nC = t1 + t2",
    ):
        with pytest.raises(ParseError, match="c_0"):
            parse_rule_text(text)


def test_rule_round_trips():
    z = C3.zeta()
    rules = [
        build_from_invariants(Q, 1, Q.one(), 1, 0, Q.one(), Q.zero()),
        build_from_invariants(C3, 3, z, 3, 1, C3.one(), z),
        build_from_rule(Q, {0: S(Q, {1: 1}), 2: S(Q, {-1: 2}, 9)}, 12),
        build_from_rule(F5, {0: S(F5, {1: 1}), 1: S(F5, {2: 3})}, 8),
        build_from_rule(
            C3,
            {
                0: LaurentSeries(C3, {1: z}),
                3: LaurentSeries(C3, {0: C3.add(z, C3.one())}),
            },
            None,
        ),
    ]
    for rule in rules:
        text = rule_to_text(rule)
        again = parse_rule_text(text)
        assert again == rule, text


def test_psido_parsing():
    got = parse_psido("D*X", Q)
    assert got == PsiDO(Q, {1: S(Q, {1: 1}), 0: S(Q, {0: 1})})
    got = parse_psido("X*D - D*X", Q)
    assert got == PsiDO(Q, {0: S(Q, {0: -1})})
    got = parse_psido("(1 + D^-1)^-1", Q, depth=4)
    assert got.coeffs[0] == S(Q, {0: 1})
    assert got.coeffs[-1] == S(Q, {0: -1})
    assert got.cut == -4
    got = parse_psido("X^-1*D^-1 + O(D^-3)", Q)
    assert got.cut == -3
    assert got.coeffs[-1] == S(Q, {-1: 1})


def test_psido_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        coeffs = {}
        for k in rng.sample(range(-3, 4), rng.randint(1, 3)):
            e = rng.randint(-2, 3)
            c = rng.randint(-5, 5)
            if c:
                coeffs[k] = S(Q, {e: c, e + 2: rng.randint(-3, 3)})
        cut = rng.choice([None, -6, -9])
        p = PsiDO(Q, coeffs, cut)
        again = parse_psido(p.format(), Q)
        assert again == p, p.format()


def test_heis_parsing():
    d = Descriptor(Q)
    got = parse_heis("y*x", d)
    assert got.format() == "x*y - z"
    got = parse_heis("y^2*x - x*y^2", d)
    assert got == HeisenbergElement(d, {1: {(0, 1): Q.from_int(-2)}})
    assert parse_heis("3/2*z^2", d).coeff(0, 0, 2) == Q.from_fraction(Fraction(3, 2))
    with pytest.raises(ParseError):
        parse_heis("x^-1", d)
    with pytest.raises(ParseError):
        parse_heis("x + O(z^2)", d)
    with pytest.raises(ParseError):
        parse_heis("x/y", d)


def test_heis_round_trip():
    d = Descriptor(Q)
    rng = random.Random(13)
    for _ in range(20):
        levels = {}
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(0, 2)
            c = rng.randint(-4, 4)
            if c:
                lvl = levels.setdefault(k, {})
                m = (rng.randint(0, 3), rng.randint(0, 3))
                lvl[m] = Q.add(lvl.get(m, Q.zero()), Q.from_int(c))
        e = HeisenbergElement(d, levels)
        assert parse_heis(e.format(), d) == e, e.format()


def test_heis_laurent_round_trip():
    d = Descriptor(Q, series=True)
    u = LaurentSeries.variable(Q)
    e = HeisenbergElement(d, {0: {(1, 0): u}, 1: {(0, 0): u * u - u}})
    assert parse_heis(e.format(), d) == e, e.format()


def test_powers_take_logarithmically_many_products(monkeypatch):
    """(1 + t)^1000 is built by repeated squaring: at most two series
    products per bit of the exponent, where a product per unit of the
    exponent made 1,000."""
    mul = LaurentSeries.__mul__
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    got = parse_series("(1+t)^1000", Q, prec=10)
    assert len(calls) <= 2 * (1000).bit_length()
    assert got == S(Q, {k: comb(1000, k) for k in range(10)}, 10)
