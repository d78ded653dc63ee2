"""Formal pseudo-differential operators a(X) D^k with D X = X D + 1.

An operator is a finite sum sum_{k <= top} a_k(X) D^k stored as a sparse
dictionary exponent -> Laurent series in X.  The completion is D^-1-adic:
``cut`` marks the exponent at and below which coefficients are unknown
(None means the operator is exact), and ``depth`` reads the same bound
relative to the leading exponent.  A coefficient that is zero only to its
X-precision, O(X^k), stays in the dictionary: it is known to be 0 below X^k
and unknown from there on, unlike an absent, exactly zero coefficient.

Composing past a negative power of D uses the generalized Leibniz rule

    D^k a = sum_{j >= 0} binom(k, j) a^(j) D^(k-j)

whose tail terminates exactly when the derivatives of a run out; otherwise
it is truncated at the working depth.
"""

from math import inf

from .coeff import format_sum, power_text
from .errors import FieldMismatch, NotInvertible, PrecisionExhausted
from .series import (
    DEFAULT_PRECISION,
    LaurentSeries,
    file_product,
    sum_filed,
    unit_inverse,
)
from .skew import SkewSeries, build_from_rule


# -inf, not series._p's +inf: a cut bounds the unknown exponents from above
def _c(cut):
    return -inf if cut is None else cut


def _uc(cut):
    return None if cut == -inf else int(cut)


class PsiDO:
    __slots__ = ("field", "coeffs", "cut")

    def __init__(self, field, coeffs=None, cut=None):
        self.field = field
        self.cut = cut
        out = {}
        if coeffs:
            for k, s in coeffs.items():
                if not isinstance(k, int):
                    raise ValueError("exponents of D must be integers, got %r" % (k,))
                if s.field != field:
                    raise FieldMismatch("coefficient over the wrong field")
                if cut is not None and k <= cut:
                    continue
                if not s.is_exact_zero():
                    out[k] = s
        self.coeffs = out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field, cut=None):
        return PsiDO(field, None, cut)

    @staticmethod
    def one(field):
        return PsiDO(field, {0: LaurentSeries.const(field, field.one())})

    @staticmethod
    def x(field):
        return PsiDO(field, {0: LaurentSeries.variable(field)})

    @staticmethod
    def d(field, k=1):
        return PsiDO(field, {k: LaurentSeries.const(field, field.one())})

    @staticmethod
    def from_series(field, s, k=0):
        return PsiDO(field, {k: s})

    # -- queries -------------------------------------------------------------

    @property
    def top(self):
        """The leading exponent: the largest with a nonzero coefficient."""
        nonzero = [k for k, s in self.coeffs.items() if not s.is_zero()]
        return max(nonzero) if nonzero else None

    @property
    def depth(self):
        if self.cut is None:
            return None
        top = self.top
        return (self.cut if top is None else top) - self.cut

    def order(self):
        """t2-style valuation with t2 = D^-1: minus the leading exponent."""
        top = self.top
        return inf if top is None else -top

    def coeff(self, k):
        if self.cut is not None and k <= self.cut:
            raise PrecisionExhausted(
                "coefficient of D^%d is below the known depth" % k
            )
        return self.coeffs.get(k, LaurentSeries.zero(self.field))

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self):
        """Zero to the known precision: no coefficient has a nonzero term."""
        return self.top is None

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("operators over different fields")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, s in other.coeffs.items():
            out[k] = out[k] + s if k in out else s
        return PsiDO(self.field, out, _uc(max(_c(self.cut), _c(other.cut))))

    def __neg__(self):
        return PsiDO(self.field, {k: -s for k, s in self.coeffs.items()}, self.cut)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return psido_compose(self, other)

    def scale(self, c):
        return PsiDO(
            self.field, {k: s.scale(c) for k, s in self.coeffs.items()}, self.cut
        )

    def truncate(self, cut):
        new = _uc(max(_c(self.cut), _c(cut)))
        if new == self.cut:
            return self
        return PsiDO(self.field, self.coeffs, new)

    def invert(self, depth=None):
        return psido_invert(self, depth)

    def __eq__(self, other):
        return (
            isinstance(other, PsiDO)
            and self.field == other.field
            and self.cut == other.cut
            and self.coeffs == other.coeffs
        )

    def agrees(self, other, downto=None):
        """Equality of coefficients above max(cuts, downto)."""
        self._check(other)
        floor = max(_c(self.cut), _c(other.cut), _c(downto))
        for k in set(self.coeffs) | set(other.coeffs):
            if k <= floor:
                continue
            a = self.coeffs.get(k, LaurentSeries.zero(self.field))
            b = other.coeffs.get(k, LaurentSeries.zero(self.field))
            if not a.agrees(b):
                return False
        return True

    def format(self):
        return format_sum(
            (
                (s.format(var="X"), s.shows_one_term(), power_text("D", k))
                for k, s in sorted(self.coeffs.items(), reverse=True)
            ),
            None if self.cut is None else "O(D^%d)" % self.cut,
        )

    def __repr__(self):
        return "<psido %s>" % self.format()


def psido_compose(u, v, depth=None):
    """The product u v, truncated at the working depth when a Leibniz tail
    does not terminate."""
    u._check(v)
    field = u.field
    if not u.coeffs and u.cut is None:
        return PsiDO(field, None, None)
    if not v.coeffs and v.cut is None:
        return PsiDO(field, None, None)
    tu = max(max(u.coeffs), _c(u.cut)) if u.coeffs else u.cut
    tv = max(max(v.coeffs), _c(v.cut)) if v.coeffs else v.cut
    eff = max(_c(u.cut) + tv, _c(v.cut) + tu)
    window = depth if depth is not None else DEFAULT_PRECISION
    hard = tu + tv - window
    terms = {}
    # the derivative chains b, b', b'', ... of v's coefficients, grown on
    # demand and shared by every term of u
    chains = {l: [b] for l, b in v.coeffs.items()}
    char = field.char()
    for k, a in u.coeffs.items():
        for l, chain in chains.items():
            floor = hard if k < 0 else -inf
            j = 0
            coef = 1
            while True:
                if k >= 0 and j > k:
                    break
                if j == len(chain):
                    chain.append(chain[-1].derive())
                bj = chain[j]
                if bj.is_zero() and bj.prec is None:
                    break
                g = k + l - j
                if g <= eff:
                    break
                if g <= floor:
                    eff = max(eff, g)
                    break
                # the term coef a b^(j) is an exact zero only when both
                # factors are exact and p divides coef; a term zero only to
                # its X-precision still caps that of D^g
                if a.prec is not None or bj.prec is not None or not (char and coef % char == 0):
                    file_product(terms, g, a, bj, coef)
                j += 1
                coef = coef * (k - j + 1) // j
    out = {g: sum_filed(field, entry) for g, entry in terms.items() if g > eff}
    return PsiDO(field, out, _uc(eff))


def _filtration(p):
    """The D^-1-adic filtration of every kept entry of p: a residual entry
    O(X^k) D^-j is zero only to its X-precision, and its products still
    reach D^-2j and below."""
    return -max(p.coeffs) if p.coeffs else inf


def psido_invert(u, depth=None):
    """Two-sided inverse; the leading coefficient must be nonzero.

    A coefficient above the leading term that is zero only to its
    X-precision may be the true leading term, so such an operator raises
    PrecisionExhausted.
    """
    if u.is_zero():
        raise NotInvertible("cannot invert an operator that is zero to depth")
    field = u.field
    n = u.top
    if max(u.coeffs) > n:
        raise PrecisionExhausted(
            "the coefficient of D^%d is zero only to its X-precision, so the "
            "leading term is unknown" % max(u.coeffs)
        )
    if depth is None and u.cut is None and len(u.coeffs) == 1:
        # a single exact term a*D^n inverts as D^-n a^-1, which stays exact
        # whenever the Leibniz tail terminates
        rest = PsiDO.from_series(field, u.coeffs[n].mul_invert())
        return psido_compose(PsiDO.d(field, -n), rest)
    window = depth if depth is not None else DEFAULT_PRECISION
    if u.cut is not None:
        out_cut = u.cut - 2 * n
        if depth is not None:
            out_cut = max(out_cut, -n - window)
    else:
        out_cut = -n - window
    work_cut = out_cut + n
    lead_inv = PsiDO(field, {-n: u.coeffs[n].mul_invert()})
    q = psido_compose(lead_inv, u, window).truncate(work_cut)
    # the D^0 coefficient of q is a^-1 a, exactly 1 for every completion of
    # the leading coefficient a; only the X-precision of a^-1 hides that
    coeffs = dict(q.coeffs)
    coeffs[0] = LaurentSeries.const(field, field.one())
    q = PsiDO(field, coeffs, q.cut)

    def cut(a, b, k):
        # D^-j has filtration j; the Leibniz tails stop at D^-k.  The
        # working depth counts from the largest kept exponents, and a
        # residual keeps zero-to-precision entries above its leading term
        p = psido_compose(a, b, max(a.coeffs) + max(b.coeffs) + k).truncate(-k)
        return p if p.cut > -k else PsiDO(field, p.coeffs)

    x = unit_inverse(q, PsiDO.one(field), -work_cut, cut, _filtration)
    return psido_compose(x.truncate(work_cut), lead_inv, window).truncate(out_cut)


def to_skew(field, depth=None):
    """The commutation rule of the operator field under t1 = X, t2 = -D^-1.

    The sign makes the conjugation t2 X t2^-1 = X + t2 come out with a plus:
    D^-1 X D = X - D^-1.  The transcription of a(X) D^k to a coefficient of
    t2^m = (-D^-1)^m picks up (-1)^m on the way.
    """
    x = PsiDO.x(field)
    minus = field.from_int(-1)
    t2 = PsiDO.d(field, -1).scale(minus)
    t2_inv = PsiDO.d(field, 1).scale(minus)
    img = psido_compose(psido_compose(t2, x, depth), t2_inv, depth)
    return build_from_rule(field, *_t2_terms(img))


def transcribe(p, rule):
    """The skew series matching the operator p under t1 = X, t2 = -D^-1."""
    return SkewSeries(rule, *_t2_terms(p))


def _t2_terms(p):
    """The coefficients (-1)^m a of t2^m, m = -k, for the terms a(X) D^k of
    p, and the cut of p as a t2-grade precision."""
    minus = p.field.from_int(-1)
    terms = {-k: s if k % 2 == 0 else s.scale(minus) for k, s in p.coeffs.items()}
    return terms, None if p.cut is None else -p.cut
