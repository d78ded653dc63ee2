"""The algebra F<x,y>/([x,[x,y]], [y,[x,y]]) with its valuation w.

Writing z for [x,y], both defining relations say z is central, and the
single rewrite y x -> x y - z pushes every word into the unique normal form
sum_k f_k(x, y) z^k with all x powers left of y powers.  w(a) is the least
k with f_k nonzero, and is a discrete valuation: w(ab) = w(a) + w(b).
"""

from math import inf

from .coeff import format_sum, power_text
from .errors import FieldMismatch
from .series import LaurentSeries


class Descriptor:
    """Coefficient domain: a plain field, or Laurent series over one.

    With series=True the coefficients are LaurentSeries in u; equality of
    elements is then only as good as the precision carried by the series.
    """

    def __init__(self, field, series=False):
        self.field = field
        self.series = series

    def zero(self):
        if self.series:
            return LaurentSeries.zero(self.field)
        return self.field.zero()

    def one(self):
        if self.series:
            return LaurentSeries.const(self.field, self.field.one())
        return self.field.one()

    def from_int(self, n):
        if self.series:
            return LaurentSeries.const(self.field, self.field.from_int(n))
        return self.field.from_int(n)

    def add(self, a, b):
        if self.series:
            return a + b
        return self.field.add(a, b)

    def mul(self, a, b):
        if self.series:
            return a * b
        return self.field.mul(a, b)

    def neg(self, a):
        if self.series:
            return -a
        return self.field.neg(a)

    def inv(self, a):
        if self.series:
            return a.mul_invert()
        return self.field.inv(a)

    def is_zero(self, a):
        if self.series:
            return a.is_zero()
        return self.field.is_zero(a)

    def format(self, a):
        if self.series:
            return a.format(var="u")
        return self.field.format_element(a)

    def __eq__(self, other):
        return (
            isinstance(other, Descriptor)
            and self.field == other.field
            and self.series == other.series
        )

    def __repr__(self):
        base = self.field.name()
        return "<descriptor %s>" % ("%s((u))" % base if self.series else base)


def _swap(a, b):
    """Normal form of y^b x^a as a map (a', b', k) -> integer coefficient.

    With z central, y^b x^a = sum_k (-1)^k k! C(a, k) C(b, k)
    x^(a-k) y^(b-k) z^k; consecutive coefficients differ by the factor
    -(a - k)(b - k) / (k + 1)."""
    out = {}
    c = 1
    for k in range(min(a, b) + 1):
        out[(a - k, b - k, k)] = c
        c = -c * (a - k) * (b - k) // (k + 1)
    return out


class HeisenbergElement:
    __slots__ = ("descriptor", "levels")

    def __init__(self, descriptor, levels=None):
        self.descriptor = descriptor
        out = {}
        if levels:
            for k, poly in levels.items():
                if not isinstance(k, int) or k < 0:
                    raise ValueError("z-degree must be a non-negative integer")
                kept = {}
                for (a, b), c in poly.items():
                    if a < 0 or b < 0:
                        raise ValueError("monomial degrees must be non-negative")
                    if not descriptor.is_zero(c):
                        kept[(a, b)] = c
                if kept:
                    out[k] = kept
        self.levels = out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(descriptor):
        return HeisenbergElement(descriptor)

    @staticmethod
    def monomial(descriptor, a=0, b=0, k=0, coeff=None):
        c = descriptor.one() if coeff is None else coeff
        return HeisenbergElement(descriptor, {k: {(a, b): c}})

    @staticmethod
    def one(descriptor):
        return HeisenbergElement.monomial(descriptor)

    @staticmethod
    def x(descriptor):
        return HeisenbergElement.monomial(descriptor, a=1)

    @staticmethod
    def y(descriptor):
        return HeisenbergElement.monomial(descriptor, b=1)

    @staticmethod
    def z(descriptor):
        return HeisenbergElement.monomial(descriptor, k=1)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.levels

    def coeff(self, a, b, k):
        return self.levels.get(k, {}).get((a, b), self.descriptor.zero())

    def _check(self, other):
        if self.descriptor != other.descriptor:
            raise FieldMismatch("elements over different descriptors")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        d = self.descriptor
        out = {k: dict(poly) for k, poly in self.levels.items()}
        for k, poly in other.levels.items():
            tgt = out.setdefault(k, {})
            for m, c in poly.items():
                tgt[m] = d.add(tgt[m], c) if m in tgt else c
        return HeisenbergElement(d, out)

    def __neg__(self):
        d = self.descriptor
        return HeisenbergElement(
            d,
            {k: {m: d.neg(c) for m, c in poly.items()} for k, poly in self.levels.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        d = self.descriptor
        return HeisenbergElement(
            d,
            {k: {m: d.mul(c, v) for m, v in poly.items()} for k, poly in self.levels.items()},
        )

    def __mul__(self, other):
        return heis_mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, HeisenbergElement)
            and self.descriptor == other.descriptor
            and self.levels == other.levels
        )

    def format(self):
        terms = []
        for k in sorted(self.levels):
            for (a, b), c in sorted(self.levels[k].items()):
                cs = self.descriptor.format(c)
                # a sign after the first character marks a sum or a negative
                # u-exponent, as in (u^-1)*x
                simple = "+" not in cs[1:] and "-" not in cs[1:]
                word = (power_text("x", a), power_text("y", b), power_text("z", k))
                terms.append((cs, simple, "*".join(w for w in word if w)))
        return format_sum(terms)

    def __repr__(self):
        return "<heis %s>" % self.format()


def heis_mul(u, v):
    """Product in normal form."""
    u._check(v)
    d = u.descriptor
    out = {}
    for k1, p1 in u.levels.items():
        for k2, p2 in v.levels.items():
            for (a1, b1), c1 in p1.items():
                for (a2, b2), c2 in p2.items():
                    c = d.mul(c1, c2)
                    for (am, bm, km), n in _swap(a2, b1).items():
                        m = (a1 + am, bm + b2)
                        k = k1 + k2 + km
                        w = c if n == 1 else d.mul(d.from_int(n), c)
                        lvl = out.setdefault(k, {})
                        lvl[m] = d.add(lvl[m], w) if m in lvl else w
    return HeisenbergElement(d, out)


def valuation_w(a):
    """Least k with f_k nonzero; +inf for zero."""
    if not a.levels:
        return inf
    return min(a.levels)
