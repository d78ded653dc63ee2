"""Exact coefficient fields: rationals, cyclotomic extensions, prime fields.

Elements are plain payloads and all arithmetic goes through the owning
:class:`Field` object, which keeps hot loops free of wrapper objects:

* rationals: :class:`fractions.Fraction`
* cyclotomic Q(zeta_n): tuple of ``Fraction`` of length ``deg(Phi_n)``,
  coordinates with respect to ``1, zeta, ..., zeta^(deg-1)``
* prime field F_p: ``int`` normalized to ``0..p-1``
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    ParseError,
    UnsupportedField,
    ZeroElement,
)

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
PRIME = "prime"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _prime_factors(m):
    """Distinct prime factors of m >= 1, by trial division."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [_ZERO] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(a) >= len(b):
        c = a[-1] / lead
        k = len(a) - len(b)
        q[k] = c
        for j, bj in enumerate(b):
            a[k + j] -= c * bj
        _poly_trim(a)
        if not a:
            break
    return _poly_trim(q), a


def _cyclotomic_poly(n):
    """Dense coefficient list of Phi_n, little-endian, Fraction entries."""
    poly = [_ZERO] * n + [_ONE]
    poly[0] = -_ONE  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod(poly, _cyclotomic_poly(d))
            if r:
                raise AssertionError("cyclotomic division left a remainder")
            poly = q
    return poly


def join_terms(parts):
    """Formatted terms joined as a sum: a term with a leading "-" is
    subtracted; "0" for no terms."""
    if not parts:
        return "0"
    return parts[0] + "".join(
        " - " + t[1:] if t.startswith("-") else " + " + t for t in parts[1:]
    )


def _clear(coeffs):
    """(lcm of the denominators, integer numerators over it) of a map of
    Fractions."""
    den = lcm(*[c.denominator for c in coeffs.values()])
    return den, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}


def _pack(coords, w):
    """Each integer coordinate vector as one int, slot i at bit w * i."""
    out = {}
    for e, xs in coords.items():
        packed = 0
        for v in reversed(xs):
            packed = (packed << w) + v
        out[e] = packed
    return out


def _accumulate(a, b, bound):
    """Sums of the pair products of two maps of ints, per exponent below
    bound, keyed in first-seen pair order."""
    acc = {}
    for e1, x in a.items():
        for e2, y in b.items():
            e = e1 + e2
            if bound is not None and e >= bound:
                continue
            if e in acc:
                acc[e] += x * y
            else:
                acc[e] = x * y
    return acc


def _direct(ca, cb, bound, p):
    """Pair products one by one (reduced mod p unless p is None), for a
    factor with one term: no two pairs share an exponent, and a product of
    nonzero elements is nonzero."""
    out = {}
    for e1, x in ca.items():
        for e2, y in cb.items():
            e = e1 + e2
            if bound is None or e < bound:
                out[e] = x * y if p is None else x * y % p
    return out


def _iroot(n, d):
    """Exact integer d-th root of n >= 0, or None."""
    if n == 0:
        return 0
    if d == 1:
        return n
    # 2^(bits // d + 1) exceeds the root, and integer Newton steps from
    # above decrease strictly until they reach floor(n^(1/d))
    x = 1 << (n.bit_length() // d + 1)
    while True:
        nx = ((d - 1) * x + n // x ** (d - 1)) // d
        if nx >= x:
            break
        x = nx
    return x if x ** d == n else None


class Field:
    """One of Q, Q(zeta_n), F_p with exact element arithmetic."""

    def __init__(self, kind, param=None):
        self.kind = kind
        self.param = param
        if kind == RATIONAL:
            pass
        elif kind == CYCLOTOMIC:
            n = param
            if not isinstance(n, int) or n < 1:
                raise ValueError("cyclotomic order must be a positive integer")
            self.modulus = _cyclotomic_poly(n)
            self.degree = len(self.modulus) - 1
            # x^k mod Phi_n for k = degree .. 2*degree - 2, as (i, c) pairs
            # of the nonzero integer coefficients (Phi_n is monic in Z[x])
            pows = []
            rem = [-int(c) for c in self.modulus[:-1]]  # x^degree
            for _ in range(self.degree - 1):
                pows.append(list(rem))
                rem = [0] + rem
                top = rem.pop()
                if top:
                    base = pows[0]
                    for i in range(self.degree):
                        rem[i] += top * base[i]
            self._xpow = [[(i, c) for i, c in enumerate(row) if c] for row in pows]
        elif kind == PRIME:
            if not _is_prime(param):
                raise ValueError("%r is not prime" % (param,))
        else:
            raise ValueError("unknown field kind %r" % (kind,))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def rationals():
        return Field(RATIONAL)

    @staticmethod
    def cyclotomic(n):
        return Field(CYCLOTOMIC, n)

    @staticmethod
    def prime_field(p):
        return Field(PRIME, p)

    @staticmethod
    def from_text(text):
        """Parse a field name: ``Q``, ``Q(zeta_5)``, ``F7``."""
        t = text.strip()
        if t == "Q":
            return Field.rationals()
        if t.startswith("Q(zeta_") and t.endswith(")"):
            inner = t[len("Q(zeta_"):-1]
            if not inner.isdigit() or int(inner) < 1:
                raise ParseError("bad cyclotomic order in field name %r" % text)
            return Field.cyclotomic(int(inner))
        if t.startswith("F") and t[1:].isdigit():
            p = int(t[1:])
            if not _is_prime(p):
                raise ParseError("F%d is not a prime field" % p)
            return Field.prime_field(p)
        raise ParseError("unknown field name %r (expected Q, Q(zeta_N) or Fp)" % text)

    def name(self):
        if self.kind == RATIONAL:
            return "Q"
        if self.kind == CYCLOTOMIC:
            return "Q(zeta_%d)" % self.param
        return "F%d" % self.param

    def __repr__(self):
        return "Field(%s)" % self.name()

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.param == other.param
        )

    def __hash__(self):
        return hash((self.kind, self.param))

    def char(self):
        return self.param if self.kind == PRIME else 0

    # -- element construction -------------------------------------------

    def zero(self):
        if self.kind == RATIONAL:
            return _ZERO
        if self.kind == CYCLOTOMIC:
            return (_ZERO,) * self.degree
        return 0

    def one(self):
        return self.from_int(1)

    def from_int(self, m):
        if self.kind == RATIONAL:
            return Fraction(m)
        if self.kind == CYCLOTOMIC:
            return (Fraction(m),) + (_ZERO,) * (self.degree - 1)
        return m % self.param

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if self.kind == RATIONAL:
            return fr
        if self.kind == CYCLOTOMIC:
            return (fr,) + (_ZERO,) * (self.degree - 1)
        num = fr.numerator % self.param
        den = fr.denominator % self.param
        if den == 0:
            raise DivisionByZero("denominator divisible by %d" % self.param)
        return num * pow(den, -1, self.param) % self.param

    def zeta(self):
        """The distinguished generator zeta_n of a cyclotomic field."""
        if self.kind != CYCLOTOMIC:
            raise UnsupportedField("zeta is only defined for cyclotomic fields")
        if self.degree == 1:
            # zeta is rational here: the root of the degree-one Phi_n
            return (-self.modulus[0],)
        return (_ZERO, _ONE) + (_ZERO,) * (self.degree - 2)

    # -- arithmetic ------------------------------------------------------

    def is_zero(self, a):
        if self.kind == CYCLOTOMIC:
            return all(c == 0 for c in a)
        return a == 0

    def add(self, a, b):
        if self.kind == RATIONAL:
            return a + b
        if self.kind == CYCLOTOMIC:
            return tuple(x + y for x, y in zip(a, b))
        return (a + b) % self.param

    def sub(self, a, b):
        if self.kind == RATIONAL:
            return a - b
        if self.kind == CYCLOTOMIC:
            return tuple(x - y for x, y in zip(a, b))
        return (a - b) % self.param

    def neg(self, a):
        if self.kind == RATIONAL:
            return -a
        if self.kind == CYCLOTOMIC:
            return tuple(-x for x in a)
        return (-a) % self.param

    def mul_int(self, a, m):
        """a times the integer m, without building the element m first."""
        if self.kind == RATIONAL:
            return a * m
        if self.kind == CYCLOTOMIC:
            return tuple(x * m for x in a)
        return (a * m) % self.param

    def mul(self, a, b):
        if self.kind == RATIONAL:
            return a * b
        if self.kind == PRIME:
            return (a * b) % self.param
        d = self.degree
        out = [_ZERO] * d
        high = [_ZERO] * (d - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                k = i + j
                if k < d:
                    out[k] += ai * bj
                else:
                    high[k - d] += ai * bj
        for k, hk in enumerate(high):
            if hk == 0:
                continue
            for i, c in self._xpow[k]:
                out[i] += hk * c
        return tuple(out)

    def convolve(self, ca, cb, bound=None):
        """Nonzero coefficients below ``bound`` (None: all) of the product of
        the sparse maps ``ca``, ``cb`` (exponent -> nonzero element).

        Exact and equal to summing ``mul`` over all pairs, in the same key
        order, but computed on integers: over Q and Q(zeta_n) each factor is
        brought to one common denominator, and each output coefficient is
        divided (and over Q(zeta_n) reduced modulo Phi_n) once.
        """
        if not ca or not cb:
            return {}
        if self.kind == CYCLOTOMIC:
            return self._convolve_cyclotomic(ca, cb, bound)
        p = self.param if self.kind == PRIME else None
        if len(ca) == 1 or len(cb) == 1:
            # monomials and scalars: clearing denominators costs more here
            return _direct(ca, cb, bound, p)
        if p is not None:
            out = {}
            for e, v in _accumulate(ca, cb, bound).items():
                v %= p
                if v:
                    out[e] = v
            return out
        da, na = _clear(ca)
        db, nb = _clear(cb)
        den = da * db
        return {e: Fraction(v, den) for e, v in _accumulate(na, nb, bound).items() if v}

    def _convolve_cyclotomic(self, ca, cb, bound):
        """``convolve`` over Q(zeta_n): one bigint product per term pair."""
        d = self.degree
        da = lcm(*[c.denominator for x in ca.values() for c in x])
        db = lcm(*[c.denominator for x in cb.values() for c in x])
        ia = {e: [c.numerator * (da // c.denominator) for c in x] for e, x in ca.items()}
        ib = {e: [c.numerator * (db // c.denominator) for c in x] for e, x in cb.items()}
        # a slot holds one coordinate of the product before reduction,
        # summed over the at most min(#a, #b) term pairs of an exponent: a
        # sum of at most d * min(#a, #b) products, so |slot| < 2^(w - 2),
        # inside the signed range of w bits
        ma = max(abs(v) for x in ia.values() for v in x)
        mb = max(abs(v) for x in ib.values() for v in x)
        w = (
            ma.bit_length()
            + mb.bit_length()
            + (d * min(len(ca), len(cb))).bit_length()
            + 2
        )
        acc = _accumulate(_pack(ia, w), _pack(ib, w), bound)
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        full = 1 << w
        den = da * db
        xpow = self._xpow
        out = {}
        for e, packed in acc.items():
            # unpack the 2d - 1 signed slots, lowest first
            slots = []
            for _ in range(2 * d - 1):
                r = packed & mask
                if r >= half:
                    r -= full
                slots.append(r)
                packed = (packed - r) >> w
            coords = slots[:d]
            for k in range(d - 1):
                h = slots[d + k]
                if h:
                    for i, c in xpow[k]:
                        coords[i] += h * c
            if any(coords):
                out[e] = tuple(Fraction(v, den) if v else _ZERO for v in coords)
        return out

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero in %s" % self.name())
        if self.kind == RATIONAL:
            return 1 / a
        if self.kind == PRIME:
            return pow(a, -1, self.param)
        # extended Euclid in Q[x] against Phi_n; invariant r_k = s_k*a mod Phi_n
        r0, r1 = list(self.modulus), _poly_trim(list(a))
        s0, s1 = [], [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs = _poly_mul(q, s1)
            new_s = [
                (s0[i] if i < len(s0) else _ZERO) - (qs[i] if i < len(qs) else _ZERO)
                for i in range(max(len(s0), len(qs)))
            ]
            s0, s1 = s1, _poly_trim(new_s)
        if not r1:
            raise DivisionByZero("element is a zero divisor (not coprime to Phi_n)")
        c = r1[0]
        inv = [x / c for x in s1]
        _, rem = _poly_divmod(inv, self.modulus)
        rem = rem + [_ZERO] * (self.degree - len(rem))
        return tuple(rem[: self.degree])

    def div(self, a, b):
        if self.kind == RATIONAL:
            if b == 0:
                raise DivisionByZero("inverse of zero in Q")
            return a / b
        return self.mul(a, self.inv(b))

    def pow(self, a, m):
        if m < 0:
            a = self.inv(a)
            m = -m
        out = self.one()
        base = a
        while m:
            if m & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            m >>= 1
        return out

    # -- structure queries ------------------------------------------------

    def default_order_bound(self):
        if self.kind == RATIONAL:
            return 2
        if self.kind == CYCLOTOMIC:
            return lcm(2, self.param)
        return self.param - 1

    def root_of_unity_order(self, a, bound=None):
        """Least m <= bound with a^m = 1, or None.

        The default bound is 2 over Q, lcm(2, n) over Q(zeta_n), p - 1 over F_p.
        """
        if self.is_zero(a):
            raise ZeroElement("zero is not a root of unity")
        if bound is None:
            bound = self.default_order_bound()
        one = self.one()
        pw = a
        for m in range(1, bound + 1):
            if pw == one:
                return m
            pw = self.mul(pw, a)
        return None

    def primitive_root_of_unity(self, order):
        """Some element of exact multiplicative order ``order``."""
        if order < 1:
            raise ValueError("order must be positive")
        if order == 1:
            return self.one()
        if self.kind == RATIONAL:
            if order == 2:
                return Fraction(-1)
            raise UnsupportedField("Q has no root of unity of order %d" % order)
        if self.kind == CYCLOTOMIC:
            z = self.zeta()
            for sign in (False, True):
                cand = self.neg(z) if sign else z
                cur = self.one()
                for _ in range(self.default_order_bound()):
                    cur = self.mul(cur, cand)
                    if self.root_of_unity_order(cur) == order:
                        return cur
            raise UnsupportedField(
                "%s has no root of unity of order %d" % (self.name(), order)
            )
        p = self.param
        if (p - 1) % order != 0:
            raise UnsupportedField("F%d has no root of unity of order %d" % (p, order))
        # g = a^((p-1)/order) satisfies g^order = 1; it has exact order
        # ``order`` when no g^(order/q) with q a prime factor of order is 1
        primes = _prime_factors(order)
        for a in range(2, p):
            g = pow(a, (p - 1) // order, p)
            if all(pow(g, order // q, p) != 1 for q in primes):
                return g
        raise UnsupportedField("no element of order %d found in F%d" % (order, p))

    def is_dth_power(self, a, d):
        """Decide whether a = b^d for some b; returns (bool, witness).

        Over cyclotomic fields the question is not decided here and
        UnsupportedField is raised.
        """
        if not isinstance(d, int) or d < 1:
            raise ValueError("d must be a positive integer")
        if d == 1:
            return True, a
        if self.kind == CYCLOTOMIC:
            raise UnsupportedField(
                "d-th power detection is not implemented over %s" % self.name()
            )
        if self.is_zero(a):
            return True, self.zero()
        if self.kind == RATIONAL:
            neg = a < 0
            if neg and d % 2 == 0:
                return False, None
            num = _iroot(abs(a.numerator), d)
            den = _iroot(a.denominator, d)
            if num is None or den is None:
                return False, None
            w = Fraction(num, den)
            if neg:
                w = -w
            return True, w
        p = self.param
        g = gcd(d, p - 1)
        if pow(a, (p - 1) // g, p) != 1:
            return False, None
        for b in range(1, p):
            if pow(b, d, p) == a:
                return True, b
        return False, None

    # -- formatting --------------------------------------------------------

    def format_element(self, a):
        if self.kind == RATIONAL:
            return str(a)
        if self.kind == PRIME:
            return str(a % self.param)
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
        return join_terms(parts)

    def is_simple(self, a):
        """True when format_element(a) needs no parentheses inside a product."""
        if self.kind != CYCLOTOMIC:
            return True
        nonzero = [k for k, c in enumerate(a) if c != 0]
        return len(nonzero) <= 1
