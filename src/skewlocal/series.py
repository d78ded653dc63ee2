"""Sparse Laurent series over an exact coefficient field.

A series carries a precision ``prec``: coefficients of exponents below
``prec`` are known, everything from ``prec`` on is unknown (think
``+ O(t^prec)``).  ``prec = None`` means the series is exact.
"""

from fractions import Fraction
from math import inf

from .coeff import join_terms
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
    filtration ``depth``, in any complete filtered ring, commutative or not.

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


def _series(field, coeffs, prec):
    """A series from coefficients that are already nonzero and below prec."""
    out = LaurentSeries.__new__(LaurentSeries)
    out.field = field
    out.coeffs = coeffs
    out.prec = prec
    return out


class LaurentSeries:
    __slots__ = ("field", "coeffs", "prec")

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
        self.coeffs = out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field, prec=None):
        return LaurentSeries(field, None, prec)

    @staticmethod
    def const(field, value, prec=None):
        return LaurentSeries(field, {0: value}, prec)

    @staticmethod
    def monomial(field, exp, coeff=None, prec=None):
        if coeff is None:
            coeff = field.one()
        return LaurentSeries(field, {exp: coeff}, prec)

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
        return not self.coeffs

    def is_exact_zero(self):
        return not self.coeffs and self.prec is None

    def valuation(self):
        """Least exponent with a nonzero coefficient; +inf when none visible."""
        return min(self.coeffs) if self.coeffs else inf

    def val_floor(self):
        """A lower bound for the valuation that accounts for truncation."""
        if self.coeffs:
            return min(self.coeffs)
        return inf if self.prec is None else self.prec

    def coeff(self, e):
        if self.prec is not None and e >= self.prec:
            raise PrecisionExhausted(
                "coefficient of t^%d is beyond the known precision" % e,
                required=e + 1,
            )
        return self.coeffs.get(e, self.field.zero())

    def leading(self):
        v = self.valuation()
        if v == inf:
            raise ZeroSeries("series has no visible leading term")
        return v, self.coeffs[v]

    def support(self):
        return sorted(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(
                "series over %s and %s" % (self.field.name(), other.field.name())
            )

    def __add__(self, other):
        self._check(other)
        prec = _unp(min(_p(self.prec), _p(other.prec)))
        out = dict(self.coeffs)
        add = self.field.add
        for e, c in other.coeffs.items():
            out[e] = add(out[e], c) if e in out else c
        return LaurentSeries(self.field, out, prec)

    def __neg__(self):
        neg = self.field.neg
        return LaurentSeries(
            self.field, {e: neg(c) for e, c in self.coeffs.items()}, self.prec
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        prec = _unp(
            min(
                _p(self.prec) + other.val_floor(),
                _p(other.prec) + self.val_floor(),
            )
        )
        f = self.field
        return _series(f, f.convolve(self.coeffs, other.coeffs, prec), prec)

    def scale(self, c):
        f = self.field
        if f.is_zero(c):
            return LaurentSeries(f, None, self.prec)
        return _series(f, f.convolve({0: c}, self.coeffs), self.prec)

    def shift(self, m):
        prec = None if self.prec is None else self.prec + m
        return LaurentSeries(
            self.field, {e + m: c for e, c in self.coeffs.items()}, prec
        )

    def truncate(self, prec):
        new = _unp(min(_p(self.prec), _p(prec)))
        if new == self.prec:
            return self
        return LaurentSeries(self.field, self.coeffs, new)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def agrees(self, other, upto=None):
        """Coefficientwise equality below min(precisions, upto)."""
        self._check(other)
        bound = min(_p(self.prec), _p(other.prec), _p(upto))
        for e in set(self.coeffs) | set(other.coeffs):
            if e >= bound:
                continue
            if self.coeffs.get(e) != other.coeffs.get(e):
                return False
        return True

    # -- inversion, composition, calculus -----------------------------------

    def mul_invert(self, target_prec=None):
        """Multiplicative inverse; truncated unless a single exact term."""
        if not self.coeffs:
            raise ZeroSeries("cannot invert a series that is zero to precision")
        f = self.field
        v, lead = self.leading()
        linv = f.inv(lead)
        if len(self.coeffs) == 1 and self.prec is None:
            out = LaurentSeries.monomial(f, -v, linv)
            return out.truncate(target_prec) if target_prec is not None else out
        if self.prec is not None:
            out_prec = self.prec - 2 * v
            if target_prec is not None:
                out_prec = min(out_prec, target_prec)
        else:
            out_prec = target_prec if target_prec is not None else DEFAULT_PRECISION - v
        depth = out_prec + v
        q = self.shift(-v).scale(linv).truncate(depth)

        def cut(a, b, k):
            return _series(f, f.convolve(a.coeffs, b.coeffs, k), None)

        one = LaurentSeries.const(f, f.one())
        x = unit_inverse(q, one, depth, cut, LaurentSeries.valuation)
        return x.truncate(depth).scale(linv).shift(-v)

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
            out = LaurentSeries.const(self.field, self.field.one())
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
        if not s.coeffs:
            # substituting a series that is zero to precision
            if self.valuation() < 0:
                raise NonConvergent("negative exponents evaluated at a zero series")
            if self.prec is not None and self.prec <= 0:
                raise PrecisionExhausted(
                    "constant term unknown at this precision", required=1
                )
            const = self.coeffs.get(0)
            out = {} if const is None else {0: const}
            if s.prec is None:
                return LaurentSeries(f, out, None)
            bounds = [e * s.prec for e in self.coeffs if e >= 1]
            if self.prec is not None:
                bounds.append(max(self.prec, 1) * s.prec)
            return LaurentSeries(f, out, min(bounds) if bounds else None)
        vs = s.val_floor()
        cap = _p(self.prec) * vs
        # s^e carries precision s.prec + (e - 1) vs, so the least positive
        # exponent bounds what the final truncation keeps; no power needs
        # coefficients beyond that
        e_min = min((e for e in self.coeffs if e > 0), default=None)
        bound = cap if e_min is None else min(cap, _p(s.prec) + (e_min - 1) * vs)
        bound = _unp(bound)
        pos_cache = {}
        neg_cache = {}
        sinv = None
        acc = LaurentSeries.zero(f)
        for e in sorted(self.coeffs):
            if e >= 0:
                pw = s._int_power(e, pos_cache, bound)
            else:
                if sinv is None:
                    sinv = s.mul_invert()
                pw = sinv._int_power(-e, neg_cache)
            acc = acc + pw.scale(self.coeffs[e])
        return acc.truncate(_unp(min(cap, _p(acc.prec))))

    def comp_invert(self, target_prec=None):
        """Compositional inverse of a series with valuation exactly 1."""
        if self.prec is not None and self.prec <= 1:
            raise PrecisionExhausted(
                "linear coefficient is not visible", required=2
            )
        if not self.coeffs:
            raise NotCompInvertible("zero series has no compositional inverse")
        v = self.valuation()
        if v != 1:
            raise NotCompInvertible(
                "compositional inverse needs valuation 1, got %s" % v
            )
        f = self.field
        s1 = self.coeffs[1]
        s1inv = f.inv(s1)
        if len(self.coeffs) == 1 and self.prec is None:
            out = LaurentSeries.monomial(f, 1, s1inv)
            return out.truncate(target_prec) if target_prec is not None else out
        if target_prec is not None:
            n_out = target_prec
        elif self.prec is not None:
            n_out = self.prec
        else:
            n_out = DEFAULT_PRECISION
        ucoeffs = {1: s1inv}
        for m in range(2, n_out):
            # ansatz: coefficients above m - 1 are zero; the error coefficient
            # at t^m is affine in the missing u_m with slope s1
            u = LaurentSeries(f, ucoeffs, m + 1)
            err = self.compose(u) - LaurentSeries.variable(f)
            c = err.coeffs.get(m)
            if c is not None:
                ucoeffs[m] = f.neg(f.mul(c, s1inv))
        return LaurentSeries(f, ucoeffs, n_out)

    def derive(self):
        f = self.field
        out = {}
        for e, c in self.coeffs.items():
            if e == 0:
                continue
            out[e - 1] = f.mul_int(c, e)
        prec = None if self.prec is None else self.prec - 1
        return LaurentSeries(f, out, prec)

    def residue(self):
        """Coefficient of t^-1."""
        if self.prec is not None and self.prec < 0:
            raise PrecisionExhausted(
                "residue needs the coefficient of t^-1", required=0
            )
        return self.coeffs.get(-1, self.field.zero())

    # -- formatting -----------------------------------------------------------

    def format(self, var="t"):
        f = self.field
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = f.format_element(c)
            if e == 0:
                term = cs if f.is_simple(c) else "(%s)" % cs
            else:
                if e == 1:
                    vs = var
                else:
                    vs = "%s^%d" % (var, e)
                if cs == "1":
                    term = vs
                elif cs == "-1":
                    term = "-" + vs
                elif f.is_simple(c):
                    term = "%s*%s" % (cs, vs)
                else:
                    term = "(%s)*%s" % (cs, vs)
            parts.append(term)
        body = join_terms(parts)
        if self.prec is not None:
            tail = "O(%s^%d)" % (var, self.prec)
            body = tail if body == "0" else "%s + %s" % (body, tail)
        return body

    def __str__(self):
        return self.format()

    def __repr__(self):
        return "<series %s>" % self.format()
