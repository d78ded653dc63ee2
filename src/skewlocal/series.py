"""Sparse Laurent series over an exact coefficient field.

A series carries a precision ``prec``: coefficients of exponents below
``prec`` are known, everything from ``prec`` on is unknown (think
``+ O(t^prec)``).  ``prec = None`` means the series is exact.

The coefficients are kept in the canonical integer form of
``Field.to_form``, the form ``Field.dot_forms`` reads and writes: over Q
one denominator ``den`` and a map ``num`` of integer numerators, over
Q(zeta_n) the same with integer coordinate tuples, over F_p the map of
residues with ``den`` = 1.  Products, sums, cuts and comparisons work on
the form; ``coeffs``, the map of field elements, is built when it is first
read and then kept.
"""

from fractions import Fraction
from math import inf, lcm

from .coeff import format_sum, power_text
from .errors import (
    FieldMismatch,
    NonConvergent,
    NotCompInvertible,
    PrecisionExhausted,
    ZeroSeries,
)

DEFAULT_PRECISION = 24


def _p(prec):
    return inf if prec is None else prec


def _unp(prec):
    return None if prec == inf else int(prec)


def unit_inverse(q, one, depth, cut, val):
    """The inverse of a unit q = 1 + (terms of filtration >= 1) below
    filtration ``depth``: of series and operators (skew series solve by grade).

    Newton's step x <- x + x (1 - q x) squares the residual, so the
    filtration to which x is right doubles per step (Kung, Numer. Math. 22,
    1974), from ``val(1 - q)`` on; a residual of filtration +inf (zero to
    its precision) costs no product.  ``cut(a, b, k)`` is the ring's product
    without its terms of filtration >= k; it claims only the precision a and
    b support, so x can grow past k.  The caller truncates the result at
    ``depth``.
    """
    x, r = one, one - q
    k = val(r)
    if k < 1:
        raise NonConvergent("1 - q must have filtration >= 1, not %s" % k)
    while True:
        k = min(2 * k, depth)
        x = x + (r if val(r) == inf else cut(x, r, k))
        if k == depth:
            return x
        r = one - cut(q, x, min(2 * k, depth))


def _mul_prec(a, b):
    """The precision of the product of series a and b, +inf when exact."""
    prec = inf if a.prec is None else a.prec + b.val_floor()
    return prec if b.prec is None else min(prec, b.prec + a.val_floor())


def _rescaled(field, num, k):
    """A new map of the numerators num, each times the integer k."""
    if k == 1:
        return dict(num)
    mul_int = field.mul_int
    return {e: mul_int(x, k) for e, x in num.items()}


def _series(field, den, num, prec):
    """A series from a canonical integer form whose entries are nonzero and
    below prec."""
    out = LaurentSeries.__new__(LaurentSeries)
    out.field = field
    out.prec = prec
    out.den = den
    out.num = num
    out._coeffs = None
    return out


def file_product(sums, key, a, b, m=1):
    """File the product m a b of two series under key in sums, which maps a
    key to [the terms of one ``Field.dot_forms``, the least precision
    filed]: a sum is known to the least precision of its products, and
    below cap at most when its entry starts as [[], cap]."""
    prec = _mul_prec(a, b)
    term = (m, a.den, a.num, b.den, b.num)
    entry = sums.get(key)
    if entry is None:
        sums[key] = [[term], prec]
    else:
        entry[0].append(term)
        entry[1] = min(entry[1], prec)


def sum_filed(field, entry):
    """The series a ``file_product`` entry sums to, at its precision."""
    terms, prec = entry
    prec = _unp(prec)
    return _series(field, *field.dot_forms(terms, prec), prec)


class LaurentSeries:
    __slots__ = ("field", "prec", "den", "num", "_coeffs")

    def __init__(self, field, coeffs=None, prec=None):
        self.field = field
        self.prec = prec
        out = {}
        if coeffs:
            for e, c in coeffs.items():
                if prec is not None and e >= prec:
                    continue
                if not field.is_zero(c):
                    out[e] = c
        self._coeffs = out
        self.den, self.num = field.to_form(out)

    @property
    def coeffs(self):
        """The nonzero coefficients, exponent -> field element, in the key
        order of the form; read-only."""
        if self._coeffs is None:
            self._coeffs = self.field.from_form(self.den, self.num)
        return self._coeffs

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field, prec=None):
        return _series(field, 1, {}, prec)

    @staticmethod
    def const(field, value, prec=None):
        return LaurentSeries(field, {0: value}, prec)

    @staticmethod
    def monomial(field, exp, coeff=None, prec=None):
        if coeff is not None:
            return LaurentSeries(field, {exp: coeff}, prec)
        if prec is not None and exp >= prec:
            return LaurentSeries.zero(field, prec)
        return _series(field, 1, {exp: field.one_num}, prec)

    @staticmethod
    def variable(field, prec=None):
        return LaurentSeries.monomial(field, 1, None, prec)

    @staticmethod
    def make(field, mapping, prec=None):
        """Build from {exponent: int | Fraction} for tests and fixtures."""
        coeffs = {e: field.from_fraction(Fraction(v)) for e, v in mapping.items()}
        return LaurentSeries(field, coeffs, prec)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        """Zero up to the known precision."""
        return not self.num

    def is_exact_zero(self):
        return not self.num and self.prec is None

    def valuation(self):
        """Least exponent with a nonzero coefficient; +inf when none visible."""
        return min(self.num) if self.num else inf

    def val_floor(self):
        """A lower bound for the valuation that accounts for truncation."""
        if self.num:
            return min(self.num)
        return inf if self.prec is None else self.prec

    def coeff(self, e):
        if self.prec is not None and e >= self.prec:
            raise PrecisionExhausted(
                "coefficient of t^%d is beyond the known precision" % e,
                required=e + 1,
            )
        n = self.num.get(e)
        return self.field.zero() if n is None else self.field.element(self.den, n)

    def coeff_series(self, e):
        """The coefficient of t^e as an exact constant series."""
        n = self.num.get(e)
        if n is None:
            return LaurentSeries.zero(self.field)
        return _series(self.field, *self.field.canonical(self.den, {0: n}), None)

    def leading(self):
        v = self.valuation()
        if v == inf:
            raise ZeroSeries("series has no visible leading term")
        return v, self.coeff(v)

    def support(self):
        return sorted(self.num)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(
                "series over %s and %s" % (self.field.name(), other.field.name())
            )

    def __add__(self, other):
        self._check(other)
        prec = _unp(min(_p(self.prec), _p(other.prec)))
        f = self.field
        den = lcm(self.den, other.den)
        out = _rescaled(f, self.num, den // self.den)
        add = f.add
        for e, y in _rescaled(f, other.num, den // other.den).items():
            out[e] = add(out[e], y) if e in out else y
        is_zero = f.is_zero
        kept = {
            e: x for e, x in out.items()
            if not is_zero(x) and (prec is None or e < prec)
        }
        return _series(f, *f.canonical(den, kept), prec)

    def __neg__(self):
        neg = self.field.neg
        return _series(
            self.field, self.den, {e: neg(x) for e, x in self.num.items()}, self.prec
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        prec = _unp(_mul_prec(self, other))
        f = self.field
        term = (1, self.den, self.num, other.den, other.num)
        return _series(f, *f.dot_forms([term], prec), prec)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return LaurentSeries.zero(f, self.prec)
        return self._times(LaurentSeries.const(f, c))

    def _times(self, c):
        """self times the exact constant series c, at self's precision."""
        f = self.field
        term = (1, c.den, c.num, self.den, self.num)
        return _series(f, *f.dot_forms([term]), self.prec)

    def shift(self, m):
        prec = None if self.prec is None else self.prec + m
        return _series(
            self.field, self.den, {e + m: x for e, x in self.num.items()}, prec
        )

    def truncate(self, prec):
        new = _unp(min(_p(self.prec), _p(prec)))
        if new == self.prec:
            return self
        return self.with_prec(new)

    def with_prec(self, prec):
        """The known coefficients below prec, claimed to precision prec."""
        num = self.num
        if prec is None or all(e < prec for e in num):
            out = _series(self.field, self.den, num, prec)
            out._coeffs = self._coeffs
            return out
        kept = {e: x for e, x in num.items() if e < prec}
        return _series(self.field, *self.field.canonical(self.den, kept), prec)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.prec == other.prec
            and self.den == other.den
            and self.num == other.num
        )

    def agrees(self, other, upto=None):
        """Coefficientwise equality below min(precisions, upto)."""
        self._check(other)
        bound = min(_p(self.prec), _p(other.prec), _p(upto))
        da, db = self.den, other.den
        na, nb = self.num, other.num
        mul_int = self.field.mul_int
        for e in set(na) | set(nb):
            if e >= bound:
                continue
            x = na.get(e)
            y = nb.get(e)
            if x is None or y is None:
                return False
            if da != db:
                x, y = mul_int(x, db), mul_int(y, da)
            if x != y:
                return False
        return True

    # -- inversion, composition, calculus -----------------------------------

    def mul_invert(self, target_prec=None):
        """Multiplicative inverse; truncated unless a single exact term."""
        if not self.num:
            raise ZeroSeries("cannot invert a series that is zero to precision")
        f = self.field
        v, lead = self.leading()
        linv = LaurentSeries.const(f, f.inv(lead))
        if len(self.num) == 1 and self.prec is None:
            out = linv.shift(-v)
            return out.truncate(target_prec) if target_prec is not None else out
        if self.prec is not None:
            out_prec = self.prec - 2 * v
            if target_prec is not None:
                out_prec = min(out_prec, target_prec)
        else:
            out_prec = target_prec if target_prec is not None else DEFAULT_PRECISION - v
        depth = out_prec + v
        q = self.shift(-v)._times(linv).truncate(depth)

        def cut(a, b, k):
            return _series(f, *f.dot_forms([(1, a.den, a.num, b.den, b.num)], k), None)

        one = LaurentSeries.monomial(f, 0)
        x = unit_inverse(q, one, depth, cut, LaurentSeries.valuation)
        return x.truncate(depth)._times(linv).shift(-v)

    def __truediv__(self, other):
        self._check(other)
        return self * other.mul_invert()

    def _int_power(self, e, cache, bound=None):
        """self^e for e >= 0, truncated at ``bound`` and memoized in ``cache``.

        Truncation commutes with products of series of valuation >= 0, so
        for such a series the powers agree with the untruncated ones below
        ``bound``.
        """
        if e in cache:
            return cache[e]
        if e == 0:
            out = LaurentSeries.monomial(self.field, 0)
        elif e % 2 == 0:
            h = self._int_power(e // 2, cache, bound)
            out = h * h
        else:
            out = self._int_power(e - 1, cache, bound) * self
        out = out.truncate(bound)
        cache[e] = out
        return out

    def compose(self, s):
        """Substitution self(s); needs the inner series to have valuation >= 1."""
        self._check(s)
        if s.val_floor() < 1:
            raise NonConvergent(
                "inner series must have valuation at least 1 (floor is %s)"
                % s.val_floor()
            )
        f = self.field
        if not s.num:
            # substituting a series that is zero to precision
            if self.valuation() < 0:
                raise NonConvergent("negative exponents evaluated at a zero series")
            if self.prec is not None and self.prec <= 0:
                raise PrecisionExhausted(
                    "constant term unknown at this precision", required=1
                )
            const = self.coeff_series(0)
            if s.prec is None:
                return const
            bounds = [e * s.prec for e in self.num if e >= 1]
            if self.prec is not None:
                bounds.append(max(self.prec, 1) * s.prec)
            return const.with_prec(min(bounds) if bounds else None)
        vs = s.val_floor()
        cap = _p(self.prec) * vs
        # s^e carries precision s.prec + (e - 1) vs, so the least positive
        # exponent bounds what the final truncation keeps; no power needs
        # coefficients beyond that
        e_min = min((e for e in self.num if e > 0), default=None)
        bound = cap if e_min is None else min(cap, _p(s.prec) + (e_min - 1) * vs)
        bound = _unp(bound)
        pos_cache = {}
        neg_cache = {}
        sinv = None
        # one sum of products a_e s^e, known below cap at most
        sums = {0: [[], cap]}
        for e in sorted(self.num):
            if e >= 0:
                pw = s._int_power(e, pos_cache, bound)
            else:
                if sinv is None:
                    sinv = s.mul_invert()
                pw = sinv._int_power(-e, neg_cache)
            file_product(sums, 0, self.coeff_series(e), pw)
        return sum_filed(f, sums[0])

    def comp_invert(self, target_prec=None):
        """Compositional inverse of a series with valuation exactly 1."""
        if self.prec is not None and self.prec <= 1:
            raise PrecisionExhausted(
                "linear coefficient is not visible", required=2
            )
        if not self.num:
            raise NotCompInvertible("zero series has no compositional inverse")
        v = self.valuation()
        if v != 1:
            raise NotCompInvertible(
                "compositional inverse needs valuation 1, got %s" % v
            )
        f = self.field
        s1inv = f.inv(self.coeff(1))
        u = LaurentSeries.monomial(f, 1, s1inv)
        if len(self.num) == 1 and self.prec is None:
            return u.truncate(target_prec) if target_prec is not None else u
        if target_prec is not None:
            n_out = target_prec
        elif self.prec is not None:
            n_out = self.prec
        else:
            n_out = DEFAULT_PRECISION
        for m in range(2, n_out):
            # ansatz: coefficients above m - 1 are zero; the error coefficient
            # at t^m is affine in the missing u_m with slope s1
            err = self.compose(u.with_prec(m + 1)) - LaurentSeries.variable(f)
            if m in err.num:
                u = u + LaurentSeries.monomial(f, m, f.neg(f.mul(err.coeff(m), s1inv)))
        return u.with_prec(n_out)

    def derive(self):
        f = self.field
        out = {}
        for e, x in self.num.items():
            if e == 0:
                continue
            x = f.mul_int(x, e)
            if not f.is_zero(x):
                out[e - 1] = x
        prec = None if self.prec is None else self.prec - 1
        return _series(f, *f.canonical(self.den, out), prec)

    def residue(self):
        """Coefficient of t^-1."""
        if self.prec is not None and self.prec < 0:
            raise PrecisionExhausted(
                "residue needs the coefficient of t^-1", required=0
            )
        return self.coeff(-1)

    # -- formatting -----------------------------------------------------------

    def shows_one_term(self):
        """True when ``format`` prints at most one term: one coefficient, or
        the O(t^prec) tail alone."""
        return len(self.num) + (self.prec is not None) <= 1

    def format(self, var="t"):
        f = self.field
        return format_sum(
            (
                (f.format_element(c), f.is_simple(c), power_text(var, e))
                for e, c in sorted(self.coeffs.items())
            ),
            None if self.prec is None else "O(%s^%d)" % (var, self.prec),
        )

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "<series %s>" % self.format()
