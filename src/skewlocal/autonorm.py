"""Normal forms of one-variable formal disk automorphisms.

An automorphism is a series a(t) with valuation 1 and invertible linear
coefficient, acting by substitution.  Over a characteristic-zero field
every such map is conjugate to

    zeta * t + x * t^i + x^2 * y * t^(2i - 1)

where zeta is the linear coefficient, i is the contact order of the first
iterate of finite order (i = 1 with x = y = 0 when zeta is not a root of
unity, i = +infinity with x = y = 0 when some iterate is the identity to
working precision), and x is well defined up to (i - 1)-th powers.

``normalize`` gets there by conjugating with elementary maps f = t + b t^k,
each step in closed form: a(f) by the binomial expansion of
(t + b t^k)^e (``_elementary_compose``), f^-1 by its Fuss-Catalan series
(``_elementary_inverse``), evaluated at a(f) by Horner's rule in
a(f)^(k - 1) (``_conj_step``).  The generic ``compose``, ``comp_invert``,
``auto_compose`` and ``conjugate`` serve every other inner series.
"""

from math import comb, inf

from .errors import (
    FieldMismatch,
    NotCompInvertible,
    NotSolvable,
    PrecisionExhausted,
    UnsupportedField,
)
from .series import DEFAULT_PRECISION, LaurentSeries, _p, _unp


class DiskAutomorphism:
    """Invertible substitution t -> image(t) on the formal disk."""

    __slots__ = ("image",)

    def __init__(self, image):
        if image.val_floor() < 1 or image.valuation() != 1:
            raise NotCompInvertible(
                "automorphism image must have valuation 1 with a unit linear term"
            )
        self.image = image

    @staticmethod
    def identity(field, prec=None):
        return DiskAutomorphism(LaurentSeries.variable(field, prec))

    @property
    def field(self):
        return self.image.field

    def linear_coeff(self):
        return self.image.coeffs[1]

    def __eq__(self, other):
        return isinstance(other, DiskAutomorphism) and self.image == other.image

    def __call__(self, series):
        """Apply to a coefficient series: s goes to s(image)."""
        return series.compose(self.image)

    def __repr__(self):
        return "<automorphism t -> %s>" % self.image.format()


def auto_compose(a, b):
    """Composite a after b: (a o b)(t) = a(b(t))."""
    if a.field != b.field:
        raise FieldMismatch("automorphisms over different fields")
    return DiskAutomorphism(a.image.compose(b.image))


def auto_inverse(a, target_prec=None):
    return DiskAutomorphism(a.image.comp_invert(target_prec))


def auto_iterate(a, m):
    """m-fold composite of a with itself, computed by repeated squaring."""
    if m < 0:
        return auto_iterate(auto_inverse(a), -m)
    if m == 0:
        return DiskAutomorphism.identity(a.field, a.image.prec)
    base = a
    out = None
    while m:
        if m & 1:
            out = base if out is None else auto_compose(out, base)
        m >>= 1
        if m:
            base = auto_compose(base, base)
    return out


def conjugate(a, f):
    """f^-1 o a o f, the coordinate change t -> f(t)."""
    finv = auto_inverse(f, target_prec=a.image.prec)
    return auto_compose(finv, auto_compose(a, f))


class NormalFormInvariants:
    """Classification data of a disk automorphism.

    Attributes: zeta, n (None when zeta is not a root of unity), i_alpha
    (int or +infinity), x, y (field elements), x_class (x reduced modulo
    (i_alpha - 1)-th powers when that is decidable), conjugator (a
    DiskAutomorphism f with f^-1 o a o f equal to the normal form),
    normal_form, precision (the working precision actually used).
    """

    def __init__(self, zeta, n, i_alpha, x, y, x_class, conjugator, normal_form, precision):
        self.zeta = zeta
        self.n = n
        self.i_alpha = i_alpha
        self.x = x
        self.y = y
        self.x_class = x_class
        self.conjugator = conjugator
        self.normal_form = normal_form
        self.precision = precision

    def key(self):
        return (self.zeta, self.n, self.i_alpha, self.x, self.y)

    def __repr__(self):
        return "<normal form zeta=%r n=%r i_alpha=%r x=%r y=%r>" % (
            self.zeta,
            self.n,
            self.i_alpha,
            self.x,
            self.y,
        )


def _elementary_inverse(field, k, b, prec):
    """Compositional inverse of t + b t^k to precision ``prec``, k >= 2.

    By Lagrange inversion its coefficient at t^(1 + m(k - 1)) is
    (-b)^m C(km, m) / ((k - 1)m + 1), a Fuss-Catalan number times (-b)^m.
    This is the series ``comp_invert`` returns, without a reversion.
    """
    one = field.one()
    negb = field.neg(b)
    coeffs = {1: one}
    pw = one
    for m in range(1, (prec - 2) // (k - 1) + 1):
        pw = field.mul(pw, negb)
        fc = comb(k * m, m) // ((k - 1) * m + 1)
        coeffs[1 + m * (k - 1)] = field.mul(field.from_int(fc), pw)
    return LaurentSeries(field, coeffs, prec)


def _elementary_compose(g, k, b, prec):
    """g(t + b t^k) to precision ``prec``, for g of valuation 1 and k >= 2.

    By the binomial theorem (t + b t^k)^e = sum_j C(e, j) b^j t^(e + j(k - 1)),
    so g(t + b t^k) = sum_j b^j t^(j(k - 1)) sum_(e >= j) C(e, j) g_e t^e:
    integer-weighted, shifted copies of g and no series product (Brent and
    Kung, J. ACM 25, 1978).  This is the series
    ``g.compose(LaurentSeries(field, {1: 1, k: b}, prec))`` returns,
    coefficients and precision.
    """
    field = g.field
    top = min(_p(g.prec), _p(prec))
    terms = [(e, c) for e, c in sorted(g.coeffs.items()) if e < top]
    out = dict(terms)
    bj = field.one()
    j = 1
    while True:
        # e >= j and e + j(k - 1) < top: both tighten as j grows
        shift = j * (k - 1)
        terms = [(e, c) for e, c in terms if e >= j and e + shift < top]
        if not terms:
            return LaurentSeries(field, out, _unp(top))
        bj = field.mul(bj, b)
        level = {e + shift: field.mul_int(c, comb(e, j)) for e, c in terms}
        for e, c in field.convolve({0: bj}, level).items():
            out[e] = field.add(out[e], c) if e in out else c
        j += 1


def _conj_step(field, cur, k, b, prec):
    """Conjugate ``cur`` (at precision ``prec``) by f = t + b t^k.

    Returns (f^-1 o cur o f, f).  g = cur o f is the binomial expansion of
    ``_elementary_compose``.  f^-1 is t phi(t^(k - 1)), phi the Fuss-Catalan
    polynomial of ``_elementary_inverse``, so f^-1(g) = g phi(h) with
    h = g^(k - 1), evaluated by Horner's rule.  The partial sum that h^m
    multiplies is needed only below t^(p - 1 - m(k - 1)), p the precision of
    g, so each Horner product is cut there.
    """
    f = DiskAutomorphism(LaurentSeries(field, {1: field.one(), k: b}, prec))
    g = _elementary_compose(cur.image, k, b, prec)
    p = g.prec
    phi = _elementary_inverse(field, k, b, p).coeffs
    h = g.truncate(p - 1)
    for _ in range(k - 2):
        h = (h * g).truncate(p - 1)
    zero = field.zero()
    acc = LaurentSeries.zero(field)
    for m in range((p - 2) // (k - 1), -1, -1):
        cut = p - 1 - m * (k - 1)
        acc = (h.truncate(cut) * acc).truncate(cut)
        acc = acc + LaurentSeries.const(field, phi.get(1 + m * (k - 1), zero))
    return DiskAutomorphism(LaurentSeries(field, (g * acc).coeffs, p)), f


def normalize(auto, prec=None):
    """Two-pass reduction of a disk automorphism to its normal form.

    Pass one conjugates away every coefficient at exponents k with
    k - 1 not divisible by the order n of the linear part; pass two kills
    the remaining exponents above i_alpha except 2 i_alpha - 1.  Every
    step conjugates by some t + b t^k with b solved from a closed-form
    slope: zeta - zeta^k in pass one, (i_alpha - k) x in pass two.  Each
    elementary conjugation is verified exactly.

    A step is ``_conj_step``: the binomial expansion a(f) of
    ``_elementary_compose``, then the Fuss-Catalan series of f^-1 evaluated
    at it by Horner's rule.  The conjugator is kept as the running composite
    total o f, again by ``_elementary_compose``.
    """
    field = auto.field
    if field.char() != 0:
        raise UnsupportedField(
            "normal forms need characteristic zero (got %s)" % field.name()
        )
    if prec is None:
        prec = auto.image.prec if auto.image.prec is not None else DEFAULT_PRECISION
    if prec < 2:
        raise PrecisionExhausted("normalization needs the linear term", required=2)

    cur = DiskAutomorphism(auto.image.truncate(prec))
    zeta = cur.linear_coeff()
    n = field.root_of_unity_order(zeta)
    one = field.one()
    total = DiskAutomorphism.identity(field, prec)
    zero = field.zero()

    def kill(k):
        """Remove the coefficient at t^k; the slope zeta - zeta^k is nonzero."""
        nonlocal cur, total
        a_k = cur.image.coeffs.get(k)
        if a_k is None:
            return
        slope = field.sub(zeta, field.pow(zeta, k))
        b = field.neg(field.div(a_k, slope))
        cur, _ = _conj_step(field, cur, k, b, prec)
        total = DiskAutomorphism(_elementary_compose(total.image, k, b, prec))
        if not field.is_zero(cur.image.coeffs.get(k, zero)):
            raise NotSolvable("elementary conjugation failed to clear t^%d" % k)

    if n is None:
        # zeta is not a root of unity: every exponent can be cleared
        for k in range(2, prec):
            kill(k)
        nf = DiskAutomorphism(LaurentSeries(field, {1: zeta}, prec))
        return NormalFormInvariants(
            zeta, None, 1, zero, zero, zero, total, nf, prec
        )

    # pass one: exponents k with n not dividing k - 1
    for k in range(2, prec):
        if (k - 1) % n != 0:
            kill(k)

    support = [k for k in sorted(cur.image.coeffs) if k >= 2]
    if not support:
        # identity to working precision (after removing the linear part)
        nf = DiskAutomorphism(LaurentSeries(field, {1: zeta}, prec))
        return NormalFormInvariants(
            zeta, n, inf, zero, zero, zero, total, nf, prec
        )

    i_alpha = support[0]
    if prec < 2 * i_alpha:
        raise PrecisionExhausted(
            "normal form at contact order %d needs precision 2*%d"
            % (i_alpha, i_alpha),
            required=2 * i_alpha,
        )
    x = cur.image.coeffs[i_alpha]

    # pass two: clear t^m for m > i_alpha with n | m - 1, except
    # m = 2 i_alpha - 1, by conjugating with f = t + b t^k, k = m - i_alpha + 1.
    # Since n | k - 1, zeta^(k-1) = 1 and zeta t commutes with f exactly.
    # The x t^i_alpha term moves t^m by b (i_alpha x - k zeta^(k-1) x), every
    # higher term lands above t^m, and every b^2 term at exponent
    # >= i_alpha + 2(k - 1) > m.  So t^m moves by exactly b (i_alpha - k) x,
    # with a nonzero slope because k != i_alpha.
    for m in range(i_alpha + 1, prec):
        if (m - 1) % n != 0 or m == 2 * i_alpha - 1:
            continue
        a_m = cur.image.coeffs.get(m)
        if a_m is None:
            continue
        k = m - i_alpha + 1
        slope = field.mul(field.from_int(i_alpha - k), x)
        b = field.neg(field.div(a_m, slope))
        cur, _ = _conj_step(field, cur, k, b, prec)
        total = DiskAutomorphism(_elementary_compose(total.image, k, b, prec))
        if not field.is_zero(cur.image.coeffs.get(m, zero)):
            raise NotSolvable("affine solve failed to clear t^%d" % m)

    y_num = cur.image.coeffs.get(2 * i_alpha - 1, zero)
    y = field.div(y_num, field.mul(x, x))
    expected = LaurentSeries(
        field,
        {1: zeta, i_alpha: x, 2 * i_alpha - 1: y_num},
        prec,
    )
    if cur.image != expected:
        raise NotSolvable("reduction left unexpected coefficients")

    d = i_alpha - 1
    x_class = x
    if d >= 1:
        try:
            ok, _ = field.is_dth_power(x, d)
            if ok:
                x_class = one
        except UnsupportedField:
            pass
    return NormalFormInvariants(
        zeta, n, i_alpha, x, y, x_class, total, DiskAutomorphism(expected), prec
    )


def conjugate_test(a, b, prec=None):
    """Decide conjugacy of two automorphisms over the same field.

    Returns "conjugate", "not_conjugate" or "undecided" (the latter only
    when the x-class comparison is not decidable over the field).
    """
    if a.field != b.field:
        raise FieldMismatch("automorphisms over different fields")
    na = normalize(a, prec)
    nb = normalize(b, prec)
    field = a.field
    if na.zeta != nb.zeta or na.n != nb.n or na.i_alpha != nb.i_alpha:
        return "not_conjugate"
    if na.i_alpha == inf or na.n is None:
        return "conjugate"
    if na.y != nb.y:
        return "not_conjugate"
    if na.x == nb.x:
        return "conjugate"
    d = na.i_alpha - 1
    if d == 0:
        return "conjugate" if na.x == nb.x else "not_conjugate"
    q = field.div(na.x, nb.x)
    try:
        ok, _ = field.is_dth_power(q, d)
    except UnsupportedField:
        return "undecided"
    return "conjugate" if ok else "not_conjugate"
