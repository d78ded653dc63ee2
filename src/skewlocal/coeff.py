"""Exact coefficient fields: rationals, cyclotomic extensions, prime fields.

Elements are plain payloads and all arithmetic goes through the owning
:class:`Field` object, which keeps hot loops free of wrapper objects:

* rationals: :class:`fractions.Fraction`
* cyclotomic Q(zeta_n): tuple of ``Fraction`` of length ``deg(Phi_n)``,
  coordinates with respect to ``1, zeta, ..., zeta^(deg-1)``
* prime field F_p: ``int`` normalized to ``0..p-1``

A sparse map of elements (a series' coefficients) also has an integer
form (:meth:`Field.to_form`): one denominator and integer numerators over
Q, integer coordinate tuples over Q(zeta_n), the map itself over F_p.  It
is canonical (the denominator shares no factor with every numerator), and
``series.LaurentSeries`` stores it.  :meth:`Field.mul_nums` multiplies two
of its numerators, and a cyclotomic ``mul`` is one such product over the
product of the denominators.

:meth:`Field.dot_forms` is the one exact sum-of-products kernel: it reads
integer forms and writes one, with no ``Fraction`` in between and one gcd
over each result.  A product of two series calls it, and so do the
binomial levels of ``autonorm._elementary_compose``.  Every other sum of
products is filed by ``series.file_product`` and summed by
``series.sum_filed`` at the least precision of its products: each grade of
a skew product, of a twist or substitution a(P) = sum a_e P^e, of the
``change_t2`` solve and of a parsed rule product, each D-exponent of an
operator product, and each series composition.

:func:`format_sum` is the one printer of sparse sums: cyclotomic elements
here, and Laurent series, skew series, operators and Dubrovin words.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    NotSolvable,
    ParseError,
    UnsupportedField,
    ZeroElement,
)

RATIONAL = "rational"
CYCLOTOMIC = "cyclotomic"
PRIME = "prime"

_ZERO = Fraction(0)
_ONE = Fraction(1)


# the first 13 primes: as Miller-Rabin bases they decide every n below
# _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Primality by deterministic Miller-Rabin; a number with no small
    factor at or above _MR_LIMIT raises UnsupportedField."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise UnsupportedField("primality of %d is not decided above %d" % (n, _MR_LIMIT))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(m):
    """Distinct prime factors of 1 <= m < _MR_LIMIT, in increasing order:
    trial division by q < 100, then Pollard-Brent rho on the cofactor, each
    factor tested with ``_is_prime``."""
    out = set()
    for q in range(2, 100):
        while m % q == 0:
            out.add(q)
            m //= q
    rest = [m] if m > 1 else []
    while rest:
        n = rest.pop()
        if _is_prime(n):
            out.add(n)
        else:
            d = _rho(n)
            rest += [d, n // d]
    return sorted(out)


def _rho(n):
    """A proper factor of a composite n with no prime factor below 100, by
    Pollard's rho with Brent's cycle search and batched gcds (Brent, BIT 20,
    1980); x -> x^2 + c for c = 1, 2, ... until one splits n."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step from its start one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _prime_root(a, q, p):
    """A q-th root of a in F_p, for a prime q dividing p - 1 and a q-th power
    residue a: Tonelli-Shanks in the Sylow q-subgroup (Adleman, Manders and
    Miller, FOCS 1977).

    With p - 1 = q^t r and q not dividing r, x = a^(q^-1 mod r) has
    x^q = a e, e in the Sylow q-subgroup.  That subgroup is cyclic,
    generated by z = n^r for any q-th non-residue n, and x is corrected by
    the power y of z with y^q = e^-1, read off q-adic digit by digit.
    """
    m = p - 1
    t, r = 0, m
    while r % q == 0:
        t, r = t + 1, r // q
    x = pow(a, pow(q, -1, r), p)
    # a q-th non-residue: (q - 1) / q of all units are one
    n = 2
    while pow(n, m // q, p) == 1:
        n += 1
    z = pow(n, r, p)
    w = pow(z, q ** (t - 1), p)
    digit = {pow(w, j, p): j for j in range(q)}
    target = pow(pow(x, q, p) * pow(a, -1, p) % p, -1, p)
    log = 0
    for i in range(t):
        h = pow(target * pow(z, -log, p) % p, q ** (t - 1 - i), p)
        log += digit[h] * q ** i
    # target has order dividing q^(t - 1), so q divides its logarithm
    return x * pow(z, log // q, p) % p


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


def binary_power(x, m, mul, one):
    """x^m for an integer m >= 0 by repeated squaring under the product
    mul; one is the answer for m = 0 and is never multiplied."""
    out = None
    while m:
        if m & 1:
            out = x if out is None else mul(out, x)
        m >>= 1
        if m:
            x = mul(x, x)
    return one if out is None else out


def power_text(var, e):
    """``var^e`` as printed in a monomial: ``var`` for e = 1, "" for e = 0."""
    if e == 0:
        return ""
    return var if e == 1 else "%s^%d" % (var, e)


def format_sum(terms, tail=None):
    """A sparse sum as text, from its terms in print order.

    A term is (coefficient text, needs no parentheses, monomial text), with
    "" as the monomial of a constant.  A coefficient of 1 is left out, -1 is
    written as a sign, and one that needs parentheses gets them.  A term
    with a leading "-" is subtracted; no terms print as "0", and ``tail``
    (an ``O(var^N)``) is added last or stands alone.
    """
    parts = []
    for cs, simple, mono in terms:
        if not simple:
            cs = "(%s)" % cs
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            parts.append("%s*%s" % (cs, mono))
    if tail is not None:
        parts.append(tail)
    if not parts:
        return "0"
    return parts[0] + "".join(
        " - " + t[1:] if t.startswith("-") else " + " + t for t in parts[1:]
    )


def _pack(coords, w):
    """Each integer coordinate vector as one int, slot i at bit w * i."""
    out = {}
    for e, xs in coords.items():
        packed = 0
        for v in reversed(xs):
            packed = (packed << w) + v
        out[e] = packed
    return out


def _scaled(a, b, f):
    """The pair (a, b) of maps of ints with the smaller side times f."""
    if f == 1:
        return a, b
    if len(a) <= len(b):
        return {e: x * f for e, x in a.items()}, b
    return a, {e: y * f for e, y in b.items()}


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


def _merge(run, acc, modulus):
    """Add the sums of one term into the running map the way the series
    ``+`` does: an exponent whose running sum is zero (modulo ``modulus``
    unless it is None) is deleted, a new one is appended."""
    for e, v in acc.items():
        if e in run:
            v += run[e]
        if modulus is not None:
            v %= modulus
        if v:
            run[e] = v
        elif e in run:
            del run[e]


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
        # the numerator of 1 in the integer form, over den 1 (see to_form)
        self.one_num = 1
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
            # reducing a polynomial of degree < 2 degree - 1 modulo Phi_n
            # multiplies its largest coefficient at most this often
            self._growth = 1 + max(
                [sum(abs(c) for row in self._xpow for j, c in row if j == i) for i in range(self.degree)]
            )
            # Phi_n's integer coefficients, highest first, and the largest
            # absolute one below the leading 1
            self._phi = [int(c) for c in reversed(self.modulus)]
            self._height = max(abs(c) for c in self._phi[1:])
            self.one_num = (1,) + (0,) * (self.degree - 1)
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
            return not any(a)
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
        if self.kind != CYCLOTOMIC:
            return self.mul_nums(a, b)
        da = lcm(*[c.denominator for c in a])
        db = lcm(*[c.denominator for c in b])
        return self.element(da * db, self.mul_nums(
            [c.numerator * (da // c.denominator) for c in a],
            [c.numerator * (db // c.denominator) for c in b],
        ))

    def mul_nums(self, a, b):
        """The product of two numerators of the integer form: ints over Q,
        residues modulo p over F_p, and over Q(zeta_n) integer coordinate
        vectors, their product polynomial reduced modulo Phi_n by the rows
        of x^k mod Phi_n (a tuple)."""
        if self.kind == RATIONAL:
            return a * b
        if self.kind == PRIME:
            return (a * b) % self.param
        d = self.degree
        out = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for k, row in enumerate(self._xpow):
            h = out[d + k]
            if h:
                for i, c in row:
                    out[i] += h * c
        return tuple(out[:d])

    # -- the integer form of a sparse map -------------------------------------

    def to_form(self, coeffs):
        """The integer form (den, nums) of a sparse map exponent -> nonzero
        element: over Q the least common denominator and the integer
        numerators over it, over Q(zeta_n) the same with integer coordinate
        tuples, over F_p (1, coeffs).  Over Q and Q(zeta_n) the gcd of den
        and all the numerators is 1, so equal maps have equal forms."""
        if self.kind == PRIME:
            return 1, coeffs
        if self.kind == RATIONAL:
            den = lcm(*[c.denominator for c in coeffs.values()])
            return den, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        den = lcm(*[c.denominator for x in coeffs.values() for c in x])
        return den, {
            e: tuple([c.numerator * (den // c.denominator) for c in x])
            for e, x in coeffs.items()
        }

    def canonical(self, den, nums):
        """The canonical form of (den, nums): both divided by the greatest
        common divisor of den and every numerator or coordinate."""
        if self.kind == PRIME or den == 1:
            return den, nums
        if self.kind == RATIONAL:
            g = gcd(den, *nums.values())
            if g == 1:
                return den, nums
            return den // g, {e: v // g for e, v in nums.items()}
        g = gcd(den, *[v for x in nums.values() for v in x])
        if g == 1:
            return den, nums
        return den // g, {e: tuple([v // g for v in x]) for e, x in nums.items()}

    def element(self, den, num):
        """The field element num / den of one entry of an integer form."""
        if self.kind == RATIONAL:
            return Fraction(num, den)
        if self.kind == CYCLOTOMIC:
            return tuple([Fraction(v, den) if v else _ZERO for v in num])
        return num

    def from_form(self, den, nums):
        """The sparse map of field elements of an integer form, in its key
        order."""
        if self.kind == PRIME:
            return nums
        element = self.element
        return {e: element(den, v) for e, v in nums.items()}

    # -- sums of products --------------------------------------------------

    def dot_forms(self, terms, bound=None):
        """The integer form of the sum of m a b below ``bound`` (None: all)
        over ``terms``, a list of (m, da, na, db, nb) with an integer m and
        the integer forms (da, na), (db, nb) of a and b; a form need not be
        canonical, the result is.

        Exact and equal to summing the products term by term with ``mul``
        and ``add``, in the same key order: each term's pair products are
        summed per exponent and merged into the running sum the way the
        series ``+`` merges, so an exponent whose running sum cancels is
        deleted and appended again if it comes back.  Every term is brought
        to the least common multiple of the products da db, and the result
        is divided once by the greatest common divisor of that denominator
        and its numerators; over F_p a sum is reduced before it is tested
        for zero.
        """
        terms = [t for t in terms if t[2] and t[4]]
        if not terms:
            return 1, {}
        if self.kind == CYCLOTOMIC:
            return self._dot_cyclotomic(terms, bound)
        run = {}
        if self.kind == PRIME:
            for m, _, na, _, nb in terms:
                _merge(run, _accumulate(*_scaled(na, nb, m), bound), self.param)
            return 1, run
        den = lcm(*[da * db for _, da, _, db, _ in terms])
        for m, da, na, db, nb in terms:
            _merge(run, _accumulate(*_scaled(na, nb, m * (den // (da * db))), bound), None)
        return self.canonical(den, run)

    def _dot_cyclotomic(self, terms, bound):
        """``dot_forms`` over Q(zeta_n) by Kronecker substitution.

        A coordinate vector x is packed as the int x(2^w), so a product of
        packed ints is the unreduced product polynomial at 2^w, and sums
        stay exact whatever the slot contents.  Sums are kept modulo
        N = Phi_n(2^w): the residue is R(2^w) for R the sum reduced modulo
        Phi_n, once every coordinate of R is below B with 2B + H < 2^w (H
        the largest lower coefficient of Phi_n).  Then |R(2^w)| < N / 2, so
        a sum is zero in Q(zeta_n) exactly when its residue is 0, and the
        balanced residue unpacks into the coordinates of R, one signed slot
        each.  A coordinate of one term's unreduced sum at an exponent is a
        sum of at most d min(#a, #b) products, and reduction modulo Phi_n
        grows it at most ``self._growth``-fold, which bounds B over every
        partial sum of the terms.
        """
        d = self.degree
        den = lcm(*[da * db for _, da, _, db, _ in terms])
        top = 0
        for m, da, na, db, nb in terms:
            ma = max([abs(v) for x in na.values() for v in x])
            mb = max([abs(v) for x in nb.values() for v in x])
            top += abs(m) * (den // (da * db)) * ma * mb * min(len(na), len(nb))
        w = (2 * d * self._growth * top + self._height).bit_length()
        modulus = 0
        for c in self._phi:
            modulus = (modulus << w) + c
        run = {}
        for m, da, na, db, nb in terms:
            pa, pb = _scaled(_pack(na, w), _pack(nb, w), m * (den // (da * db)))
            _merge(run, _accumulate(pa, pb, bound), modulus)
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        full = 1 << w
        out = {}
        for e, v in run.items():
            if 2 * v > modulus:
                v -= modulus
            coords = []
            for _ in range(d):
                r = v & mask
                if r >= half:
                    r -= full
                coords.append(r)
                v = (v - r) >> w
            out[e] = tuple(coords)
        return self.canonical(den, out)

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("inverse of zero in %s" % self.name())
        if self.kind == RATIONAL:
            return 1 / Fraction(a)
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
            return Fraction(a) / b
        return self.mul(a, self.inv(b))

    def pow(self, a, m):
        if m < 0:
            a = self.inv(a)
            m = -m
        return binary_power(a, m, self.mul, self.one())

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
        if self.kind == PRIME:
            # the order divides p - 1: strip each prime factor q from p - 1
            # while a^(order / q) is still 1
            p = self.param
            order = p - 1
            for q in _prime_factors(order):
                while order % q == 0 and pow(a, order // q, p) == 1:
                    order //= q
            return order if order <= bound else None
        # every root of unity of Q(zeta_n) has order dividing lcm(2, n)
        one = self.one()
        pw = a
        for m in range(1, min(bound, self.default_order_bound()) + 1):
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
        m = p - 1
        g = gcd(d, m)
        if pow(a, m // g, p) != 1:
            return False, None
        # x -> x^d and x -> x^g have the same image.  A g-th root c, taken
        # one prime factor of g at a time, gives the d-th root c^e with
        # e (d / g) = 1 mod m / g, since gcd(d / g, m / g) = 1 and a^(m / g) = 1
        c = a
        for q in _prime_factors(g):
            k = g
            while k % q == 0:
                c = _prime_root(c, q, p)
                k //= q
        b = pow(c, pow(d // g, -1, m // g), p)
        if pow(b, d, p) != a:
            raise NotSolvable("F%d: %d is not a %d-th root of %d" % (p, b, d, a))
        return True, b

    # -- formatting --------------------------------------------------------

    def format_element(self, a):
        if self.kind == RATIONAL:
            return str(a)
        if self.kind == PRIME:
            return str(a % self.param)
        return format_sum(
            (str(c), True, power_text("zeta", k)) for k, c in enumerate(a) if c != 0
        )

    def is_simple(self, a):
        """True when format_element(a) needs no parentheses inside a product."""
        if self.kind != CYCLOTOMIC:
            return True
        nonzero = [k for k, c in enumerate(a) if c != 0]
        return len(nonzero) <= 1
