"""Skew Laurent series in t2 over a Laurent series field in t1.

A commutation rule stores C with t2 * t1 * t2^-1 = C = sum c_j(t1) t2^j,
where c_0 has valuation 1 (its substitution action is the residue
automorphism alpha).  Conjugation by t2 extends to the whole coefficient
field by substitution, Phi(a) = a(C), and multiplication twists
coefficients past powers of t2 accordingly.

Elements (SkewSeries) are sparse dictionaries grade -> coefficient series
with a t2-grade precision ``gprec`` (grades below it are known).
"""

from fractions import Fraction
from math import gcd, inf

from . import autonorm
from .errors import (
    FieldMismatch,
    InadmissibleSet,
    NotSolvable,
    PrecisionExhausted,
    UnsupportedField,
    ZeroDivisorCandidate,
)
from .coeff import format_sum, power_text
from .series import (
    DEFAULT_PRECISION,
    LaurentSeries,
    _p,
    _unp,
    file_product,
    sum_filed,
    unit_inverse,
)


class SkewSeries:
    __slots__ = ("rule", "terms", "gprec")

    def __init__(self, rule, terms=None, gprec=None):
        self.rule = rule
        self.gprec = gprec
        out = {}
        if terms:
            for j, s in terms.items():
                if gprec is not None and j >= gprec:
                    continue
                if not s.is_zero():
                    out[j] = s
        self.terms = out

    # -- queries ---------------------------------------------------------

    def valuation(self):
        return min(self.terms) if self.terms else inf

    def val_floor(self):
        if self.terms:
            return min(self.terms)
        return inf if self.gprec is None else self.gprec

    def coeff(self, j):
        if self.gprec is not None and j >= self.gprec:
            raise PrecisionExhausted(
                "coefficient of t2^%d is beyond the known precision" % j,
                required=j + 1,
            )
        return self.terms.get(j, LaurentSeries.zero(self.rule.field))

    def support(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self.terms

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if self.rule is not other.rule and self.rule != other.rule:
            raise FieldMismatch("skew series over different commutation rules")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for j, s in other.terms.items():
            out[j] = out[j] + s if j in out else s
        return SkewSeries(self.rule, out, _unp(min(_p(self.gprec), _p(other.gprec))))

    def __neg__(self):
        return SkewSeries(self.rule, {j: -s for j, s in self.terms.items()}, self.gprec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return skew_mul(self, other)

    def scale(self, c):
        return SkewSeries(
            self.rule, {j: s.scale(c) for j, s in self.terms.items()}, self.gprec
        )

    def rshift_t2(self, m):
        """Right multiplication by t2^m (no twisting)."""
        gp = None if self.gprec is None else self.gprec + m
        return SkewSeries(self.rule, {j + m: s for j, s in self.terms.items()}, gp)

    def truncate(self, gprec):
        new = _unp(min(_p(self.gprec), _p(gprec)))
        if new == self.gprec:
            return self
        return SkewSeries(self.rule, self.terms, new)

    def invert(self, cap=None):
        return skew_invert(self, cap)

    def __eq__(self, other):
        return (
            isinstance(other, SkewSeries)
            and self.rule == other.rule
            and self.gprec == other.gprec
            and self.terms == other.terms
        )

    def agrees(self, other, upto=None):
        self._check(other)
        bound = min(_p(self.gprec), _p(other.gprec), _p(upto))
        for j in set(self.terms) | set(other.terms):
            if j >= bound:
                continue
            a = self.terms.get(j)
            b = other.terms.get(j)
            if a is None:
                a = LaurentSeries.zero(self.rule.field)
            if b is None:
                b = LaurentSeries.zero(self.rule.field)
            if not a.agrees(b):
                return False
        return True

    def format(self):
        return format_sum(
            (
                (s.format(var="t1"), s.shows_one_term(), power_text("t2", j))
                for j, s in sorted(self.terms.items())
            ),
            None if self.gprec is None else "O(t2^%d)" % self.gprec,
        )

    def __repr__(self):
        return "<skew %s>" % self.format()


class CommutationRule:
    """The conjugation data C of a split two-dimensional local skew field.

    C = t2 t1 t2^-1 is the image Phi(t1), and the rule keeps it as the
    SkewSeries ``_image``: its filter decides which grades the rule has
    (``coeffs`` is its terms), its ``agrees`` how two rules compare, and
    phi_image(1, cap) is it cut to cap.
    """

    def __init__(self, field, coeffs, t2_prec=None):
        self.field = field
        self.t2_prec = t2_prec
        for j, s in coeffs.items():
            if not isinstance(j, int) or j < 0:
                raise ValueError("rule grades must be integers >= 0, got %r" % (j,))
            if s.field != field:
                raise FieldMismatch("rule coefficient over the wrong field")
        self._image = SkewSeries(self, coeffs, t2_prec)
        self.coeffs = self._image.terms
        if 0 not in self.coeffs:
            c0 = coeffs.get(0)
            if _p(t2_prec) > 0 and (c0 is None or _p(c0.prec) > 1):
                raise ValueError("rule needs a grade-zero coefficient c_0")
            raise PrecisionExhausted("c_0 is lost to the rule's t1- or t2-precision")
        self._alpha = autonorm.DiskAutomorphism(coeffs[0])  # validates c_0
        self._pow_cache = {}
        self._inverse = None

    @property
    def alpha(self):
        return self._alpha

    @property
    def zeta(self):
        return self.coeffs[0].coeffs[1]

    def __eq__(self, other):
        return (
            isinstance(other, CommutationRule)
            and self.field == other.field
            and self.t2_prec == other.t2_prec
            and self.coeffs == other.coeffs
        )

    def cache_info(self):
        """Entry counts of the power chains: "images" counts the entries 1
        (the images Phi^m(t1)), "powers" every other entry."""
        images = sum(1 in chain for chain in self._pow_cache.values())
        entries = sum(len(chain) for chain in self._pow_cache.values())
        return {"images": images, "powers": entries - images}

    def t1_prec(self):
        precs = [s.prec for s in self.coeffs.values() if s.prec is not None]
        return min(precs) if precs else None

    def truncate(self, t2_prec, t1_prec=None):
        coeffs = self.coeffs
        if t1_prec is not None:
            coeffs = {j: s.truncate(t1_prec) for j, s in coeffs.items()}
        return CommutationRule(
            self.field, coeffs, _unp(min(_p(self.t2_prec), _p(t2_prec)))
        )

    def default_cap(self):
        return self.t2_prec if self.t2_prec is not None else DEFAULT_PRECISION

    # -- element constructors ---------------------------------------------

    def element(self, terms, gprec=None):
        return SkewSeries(self, terms, gprec)

    def zero(self, gprec=None):
        return SkewSeries(self, None, gprec)

    def one(self, gprec=None):
        return SkewSeries(self, {0: LaurentSeries.monomial(self.field, 0)}, gprec)

    def t1_series(self):
        return LaurentSeries.variable(self.field)

    def t1(self, gprec=None):
        return SkewSeries(self, {0: self.t1_series()}, gprec)

    def t2(self, j=1, gprec=None):
        return SkewSeries(self, {j: LaurentSeries.monomial(self.field, 0)}, gprec)

    def from_series(self, s, gprec=None):
        return SkewSeries(self, {0: s}, gprec)

    # -- the conjugation engine ---------------------------------------------

    def phi_image(self, m, cap):
        """Phi^m(t1) as a skew series, computed to t2-grade cap.

        cap=None asks for no forced truncation: the result is exact when the
        rule is exact and the computation stays polynomial, and otherwise
        carries whatever finite precision the computation honestly produced.
        """
        if m == 0:
            return self.t1()
        if m == -1:
            img = self.inverse_rule(cap).phi_image(1, cap)
            return SkewSeries(self, img.terms, img.gprec)
        # the image is entry 1 of its own power chain
        chain = self._pow_cache.setdefault(m, {})
        img = _memo_get(chain, 1, cap)
        if img is not None:
            return img
        if m == 1:
            img = self._image.truncate(cap)
        else:
            # Phi^-1 is applied in this ring: the inverse rule's own products
            # would move t2 past coefficients by Phi^-1 instead of Phi
            step = 1 if m > 0 else -1
            img = self._apply_phi(self.phi_image(m - step, cap), cap, step)
        return _memo_put(chain, 1, cap, img)

    def _apply_phi(self, x, cap, step=1):
        """Phi^step (step = +-1) applied to an element: sum Phi^step(x_l) t2^l."""
        acc = {}
        capg = _p(cap)
        gp = _p(x.gprec)
        for l in sorted(x.terms):
            b = min(capg, gp)
            if l >= b:
                # twists have grade valuation >= 0, so this term only feeds
                # grades at or beyond the output precision
                continue
            w = self.twist(x.terms[l], step, None if b == inf else b - l)
            if w.gprec is not None:
                gp = min(gp, w.gprec + l)
            for g, sg in w.terms.items():
                j = l + g
                acc[j] = acc[j] + sg if j in acc else sg
        return SkewSeries(self, acc, _unp(min(gp, capg)))

    def twist(self, a, m, cap=None):
        """Phi^m(a) for a coefficient series a: substitute P = Phi^m(t1)
        through the rule's chain m, with images Phi^g(P) = Phi^(m+g)(t1).

        cap=None means no forced truncation (see phi_image)."""
        if cap is not None and cap <= 0:
            return self.zero(cap)
        if m == 0 or a.is_zero():
            return self.from_series(a)
        # inverting Phi^m(t1) re-enters the chain at smaller caps
        chain = self._pow_cache.setdefault(m, {})
        return _substitute(self, a, lambda g, b: self.phi_image(m + g, b), chain, cap)

    # -- inverse rule ---------------------------------------------------------

    def inverse_rule(self, t2_prec=None):
        """The rule D = t2^-1 t1 t2 = sum d_s t2^s: Phi(D) = t1 reads
        t1 = sum d_s(C) t2^s, which ``_peel`` solves; Phi verifies it."""
        cap = t2_prec if t2_prec is not None else self.default_cap()
        if self._inverse is not None and _p(self._inverse.t2_prec) >= cap:
            return self._inverse
        c0inv = self.coeffs[0].comp_invert()
        if set(self.coeffs) == {0}:
            out = CommutationRule(self.field, {0: c0inv}, self.t2_prec)
            self._inverse = out
            out._inverse = self
            return out
        t1el = self.t1()
        terms = _peel(t1el, c0inv, lambda c, k: self.twist(c, 1, k), cap)
        final = self._apply_phi(SkewSeries(self, terms, cap), cap) - t1el
        if not final.is_zero() and final.valuation() < cap:
            raise NotSolvable("inverse rule verification failed")
        out = CommutationRule(self.field, terms, cap)
        self._inverse = out
        out._inverse = self
        return out

    def format(self):
        return self._image.format()

    def __repr__(self):
        return "<rule C = %s>" % self.format()


def _memo_get(cache, key, cap):
    """The entry for key, cut to grade cap, if it was computed to at least
    that grade; else None.  An exact entry was computed to grade inf and is
    cut like any other, so a hit claims what a cold call at cap claims."""
    entry = cache.get(key)
    if entry is None or entry[0] < _p(cap):
        return None
    return entry[1].truncate(cap)


def _memo_put(cache, key, cap, value):
    """Store value as computed to grade cap (to its own precision when cap
    is None) and return it."""
    stored = _p(cap)
    if stored == inf and value.gprec is not None:
        stored = value.gprec
    cache[key] = (stored, value)
    return value


def _power(rule, cache, e, cap, images):
    """P^e to grade cap for P = images(0, cap), memoized in cache with the cap
    each entry was computed at.  P^0 and P^1 (P cut to the cap) are not
    stored: a rule's chain m holds Phi^m(t1) at entry 1 (see phi_image).

    With images(g, b) = Phi^g(P) to grade b, a positive power is
    P^e = P^(e-1) P = sum_g P^(e-1)[g] Phi^g(P) t2^g (see _mul_by_images).
    For a rule's chain of P = Phi^m(t1) the images are Phi^(m+g)(t1); each
    is built by Phi from the one before, twisting with the chain of Phi(t1)
    at a smaller cap, so that chain is the only positive one a twist needs."""
    if e == 0:
        return rule.one()
    if e == 1:
        return images(0, cap).truncate(cap)
    out = _memo_get(cache, e, cap)
    if out is not None:
        return out
    if e > 0:
        out = _mul_by_images(_power(rule, cache, e - 1, cap, images), images, cap)
    elif e == -1:
        out = skew_invert(images(0, cap), cap)
    else:
        out = skew_mul(
            _power(rule, cache, e + 1, cap, images), _power(rule, cache, -1, cap, images), cap
        )
    return _memo_put(cache, e, cap, out)


def _mul_by_images(u, images, cap):
    """The product u V, to grade cap, for u of grades >= 0, from the images
    images(g, b) = Phi^g(V) known to at least grade b (images(0, b) is V).

    t2^g V = Phi^g(V) t2^g, so u V = sum_g u_g Phi^g(V) t2^g: grade g of u
    reads Phi^g(V) only below grade cap - g, and every piece
    u_g Phi^g(V)[l] is a product of coefficient series, filed under grade
    g + l, so nothing is twisted here.  The bound and gprec are those of
    skew_mul(u, V, cap), and every grade claims at least its t1-precision:
    skew_mul files the pieces u_g Phi^g(V_l)[k] before they sum to
    Phi^g(V)[l + k], so a piece that cancels there still caps its claim."""
    rule = u.rule
    v = images(0, cap)
    vfv = v.val_floor()
    bound = min(_p(u.gprec) + vfv, _p(v.gprec) + u.val_floor(), _p(cap))
    pieces = {}
    eff = bound
    for g, ug in u.terms.items():
        if g + vfv >= eff:
            continue
        img = v if g == 0 else images(g, _unp(eff - g))
        if img.gprec is not None:
            eff = min(eff, g + img.gprec)
        for l, x in img.terms.items():
            if g + l < eff:
                file_product(pieces, g + l, ug, x)
    out = {j: sum_filed(rule.field, entry) for j, entry in pieces.items() if j < eff}
    return SkewSeries(rule, out, _unp(eff))


def _iterates(rule, v, cap):
    """images(g, b) = Phi^g(v) to grade cap - g, which serves every
    b <= cap - g that _mul_by_images asks for.  Grade l of Phi(x) reads x
    only at grades <= l, so each is Phi of the one before, built on first
    use."""
    its = [v]

    def images(g, b):
        while len(its) <= g:
            its.append(rule._apply_phi(its[-1], cap - len(its)))
        return its[g]

    return images


def _substitute(rule, a, images, pows, cap):
    """a(P) to grade cap for P = images(0, cap), where images(g, b) is
    Phi^g(P) to at least grade b and pows memoizes the powers of P."""
    power = lambda e: _power(rule, pows, e, cap, images)
    return _evaluate(a, power, cap, lambda: images(0, cap))


def _evaluate(a, power, cap, base):
    """a(P) = sum a_e P^e for a coefficient series a with at least one term.

    power(e) is P^e to grade cap; base() is P, read only to cap the
    coefficient precisions when a is truncated.  Each product a_e P^e[g] is
    filed under its grade g, and each grade is one ``Field.dot_forms`` at the
    least precision of its products.
    """
    f = a.field
    sums = {}
    gprec = inf
    for e in sorted(a.num):
        pw = power(e)
        gprec = min(gprec, _p(pw.gprec))
        ce = a.coeff_series(e)
        for g, s in pw.terms.items():
            file_product(sums, g, ce, s)
    acc = SkewSeries(
        pw.rule, {g: sum_filed(f, entry) for g, entry in sums.items() if g < gprec}, _unp(gprec)
    )
    if a.prec is not None:
        acc = _tail_cap(acc, a.prec, base())
    return acc


def _tail_cap(acc, aprec, base):
    """Cap the coefficient precisions of a substituted series.

    When a series a with t1-precision aprec is evaluated at a skew element
    base of grades >= 0 whose grade-zero part has valuation 1, the unknown
    exponents e >= aprec of a contribute to grade g at t1-valuations at
    least aprec - k * (1 - v_g), where k bounds how many positive-grade
    factors of base fit into grade g and v_g is the worst valuation of
    base's grades 1..g: grade g reads no grade of base above g, so neither
    does its bound, and it holds at every cap base is cut to.
    """
    pos = [g for g in base.terms if g >= 1]
    terms = {}
    for g, s in acc.terms.items():
        below = [h for h in pos if h <= g]
        k = g // min(below) if below else 0
        v_g = min([1] + [base.terms[h].valuation() for h in below])
        terms[g] = s.truncate(aprec - k * (1 - v_g))
    return SkewSeries(acc.rule, terms, acc.gprec)


def build_from_rule(field, coeffs, t2_prec=None):
    """Plain constructor, usable over any coefficient field."""
    return CommutationRule(field, coeffs, t2_prec)


# -- arithmetic ---------------------------------------------------------------


def skew_mul(u, v, cap=None):
    """The product u v: every piece c_m Phi^m(c'_l)[g] is filed under its
    grade m + l + g, and each grade is one ``Field.dot_forms`` over its
    pieces at the least precision among them.  A product of nonzero series
    is nonzero to its precision (the lowest terms multiply to a nonzero
    term), so no piece is zero to its precision and every piece counts."""
    u._check(v)
    rule = u.rule
    f = rule.field
    vfu = u.val_floor()
    vfv = v.val_floor()
    bound = min(_p(u.gprec) + vfv, _p(v.gprec) + vfu, _p(cap))
    pieces = {}
    eff = bound
    for m, cu in u.terms.items():
        for l, cv in v.terms.items():
            base = m + l
            if base >= eff:
                continue
            if m == 0:
                tw = {0: cv}
            else:
                budget = _unp(eff - base) if eff != inf else None
                twisted = rule.twist(cv, m, budget)
                if twisted.gprec is not None:
                    eff = min(eff, base + twisted.gprec)
                tw = twisted.terms
            for g, sg in tw.items():
                file_product(pieces, base + g, cu, sg)
    out = {j: sum_filed(f, entry) for j, entry in pieces.items() if j < eff}
    return SkewSeries(rule, out, _unp(eff))


def skew_invert(u, cap=None):
    rule = u.rule
    v2 = u.valuation()
    if v2 == inf:
        raise ZeroDivisorCandidate(
            "cannot invert a skew series that is zero to precision"
        )
    av = u.terms[v2]
    if cap is None and u.gprec is None and len(u.terms) == 1:
        # a single exact term a*t2^v inverts in closed form
        return rule.twist(av.mul_invert(), -v2, None).rshift_t2(-v2)
    if _p(u.gprec) != inf:
        out_g = u.gprec - 2 * v2
        if cap is not None:
            out_g = min(out_g, cap)
    else:
        out_g = cap if cap is not None else DEFAULT_PRECISION - v2
    depth = out_g + v2
    ainv = av.mul_invert()
    lead_inv = rule.twist(ainv, -v2, depth).rshift_t2(-v2)
    q = skew_mul(lead_inv, u, depth)

    def cut(a, b, k):
        p = skew_mul(a, b, k)
        return p if p.gprec < k else SkewSeries(rule, p.terms)

    x = unit_inverse(q, rule.one(), depth, cut, SkewSeries.valuation)
    return skew_mul(x.truncate(depth), lead_inv, out_g).truncate(out_g)


def conj_by_t2(a, rule, power=1, cap=None):
    """t2^power * a * t2^-power for a coefficient series a.

    The exported name for ``rule.twist(a, power, cap)``, kept so that the
    public API does not change.
    """
    return rule.twist(a, power, cap)


def delta_extract(rule, j, primed=False, n=None):
    """delta_j(t1) (coefficient of t2^j in Phi(t1)), or the primed variant
    read from Phi^n(t1) when the residue automorphism has order n."""
    if not primed:
        img = rule.phi_image(1, j + 1)
        return img.coeff(j)
    if n is None:
        n = _detect_order(rule)
    img = rule.phi_image(n, j + 1)
    g0 = img.coeff(0) - rule.t1_series()
    if not g0.is_zero():
        raise NotSolvable(
            "primed deltas need alpha^n = id to precision; grade zero of "
            "Phi^n(t1) is not t1"
        )
    return img.coeff(j)


# -- parameter changes ---------------------------------------------------------


class ParameterChange:
    """One change of local parameters, solved to t2-grade cap: kind "t1" is
    t1' = sum terms[g] t2^g, kind "t2" is t2' = (sum terms[g] t2^g) t2, with
    coefficient series terms[g]; grade is the grade it was aimed at (None
    for the linearization of alpha and the t2 shift).  The records of
    reduce_support and canonicalize, applied in order to the input rule (cut
    to the cap when its t2_prec is finite), give the rule they return."""

    def __init__(self, kind, terms, cap, grade=None):
        self.kind = kind
        self.terms = terms
        self.cap = cap
        self.grade = grade

    def apply(self, rule):
        change = change_t1 if self.kind == "t1" else change_t2
        return change(rule, rule.element(self.terms), self.cap)

    def __repr__(self):
        return "<change %s at grade %s>" % (self.kind, self.grade)


def scale_t2(rule, lam):
    """t2 -> lam * t2 with a central scalar lam: c_j picks up lam^-j."""
    f = rule.field
    if f.is_zero(lam):
        raise ZeroDivisorCandidate("scaling t2 by zero")
    coeffs = {
        j: s.scale(f.pow(lam, -j)) for j, s in rule.coeffs.items()
    }
    return CommutationRule(f, coeffs, rule.t2_prec)


def change_t1(rule, y_el, cap=None):
    """Rewrite the rule for the new first parameter t1' = y_el (t2 fixed):
    Phi(y) = sum c'_j(y) t2^j, solved by ``_peel`` with S = y.  Each c'_j(y)
    is one ``_substitute`` through the iterates Phi^g(y) and powers of y
    that the move builds once, at its cap.  The grade-zero part of y_el
    must have valuation 1."""
    if cap is None:
        cap = min(_p(rule.t2_prec), _p(y_el.gprec), DEFAULT_PRECISION)
    y0 = y_el.coeff(0)
    autonorm.DiskAutomorphism(y0)  # validates valuation 1, unit linear term
    rebound = SkewSeries(rule, y_el.terms, y_el.gprec).truncate(cap)
    images = _iterates(rule, rebound, cap)
    pows = {}
    out = _peel(
        rule._apply_phi(rebound, cap),
        y0.comp_invert(),
        lambda c, k: _substitute(rule, c, images, pows, k),
        cap,
    )
    return CommutationRule(rule.field, out, cap)


def _peel(x, s0inv, subst, cap):
    """The c_j, j < cap, with x = sum_j c_j(S) t2^j, for S of grades >= 0
    whose grade-zero part s_0 has valuation 1: change_t1 solves
    Phi(y) = sum c'_j(y) t2^j (S = y), inverse_rule t1 = sum d_s(C) t2^s
    (S = C).  Grade j of x - sum_(l<j) c_l(S) t2^l is c_j(s_0), so c_j is
    that grade composed with s0inv = s_0^-1; subst(c, k) is c(S) to grade
    k.  What is left below cap must vanish: the expansion is verified."""
    resid = x
    out = {}
    for j in range(0, cap):
        if resid.val_floor() > j:
            continue
        if resid.valuation() < j:
            raise NotSolvable("peeling left residue below grade %d" % j)
        cj = resid.coeff(j).compose(s0inv)
        if cj.is_zero():
            continue
        out[j] = cj
        resid = resid - subst(cj, cap - j).rshift_t2(j)
    if resid.terms and resid.valuation() < cap:
        raise NotSolvable("peeling did not close at the working precision")
    return out


def change_t2(rule, w_el, cap=None):
    """Rewrite the rule for t2' = w_el * t2.

    The new rule is X = W C W^-1 = sum c'_j N_j t2^j with
    N_j = W Phi(W) ... Phi^(j-1)(W).  Since t2^j W = Phi^j(W) t2^j and
    N_j Phi^j(W) = N_(j+1), multiplying on the right by W removes the
    inverse:

        W C = sum c'_j N_(j+1) t2^j.

    The system is triangular because the grade-zero part of N_(j+1) is the
    unit tau_(j+1): c'_g = ((W C)[g] - sum_(j<g) c'_j N_(j+1)[g-j]) / tau_(g+1).
    W C twists C only by the grades of W, and no inverse of W is formed.

    The solve below grade cap reads N_(j+1) only below grade cap - j.
    Both products are read from iterates of Phi, through
    t2^g V = Phi^g(V) t2^g (see _mul_by_images): W C = sum_g w_g
    Phi^(g+1)(t1) t2^g from the rule's cached images, and
    N_(j+1) = sum_g N_j[g] Phi^(j+g)(W) t2^g, whose grade g reads
    Phi^(j+g)(W) below grade cap - j - g (see _iterates).  So the only
    twists are Phi itself, and a fresh rule builds only the power chain of
    Phi(t1).
    """
    if cap is None:
        cap = min(_p(rule.t2_prec), _p(w_el.gprec), DEFAULT_PRECISION)
    w = SkewSeries(rule, w_el.terms, w_el.gprec).truncate(cap)
    if w.coeff(0).is_zero() or w.valuation() < 0:
        raise ZeroDivisorCandidate(
            "t2 change needs W of t2-valuation 0 with an invertible grade-zero part"
        )
    wc = _mul_by_images(w, lambda g, b: rule.phi_image(g + 1, b), cap)
    phiw = _iterates(rule, w, cap)
    # ns[j] is N_(j+1) to grade cap - j
    ns = [w]
    for j in range(1, cap):
        ns.append(_mul_by_images(ns[-1], lambda g, b, j=j: phiw(j + g, b), cap - j))
    one = LaurentSeries.monomial(rule.field, 0)
    sums = {}
    out = {}
    for g in range(0, cap):
        file_product(sums, g, wc.coeff(g), one)
        for j, cj in out.items():
            nterm = ns[j].terms.get(g - j)
            if nterm is not None:
                file_product(sums, g, cj, nterm, -1)
        tau = ns[g].coeff(0)
        if tau.is_zero():
            raise NotSolvable("t2 change lost invertibility at grade %d" % g)
        cg = sum_filed(rule.field, sums.pop(g)) / tau
        if not cg.is_zero():
            out[g] = cg
    return CommutationRule(rule.field, out, cap)


# -- support reduction and invariants -------------------------------------------


def _detect_order(rule):
    n = rule.field.root_of_unity_order(rule.zeta)
    if n is None:
        raise NotSolvable(
            "the linear coefficient of c_0 is not a root of unity; the residue "
            "automorphism cannot have finite order"
        )
    return n


def _non_equivariant(s, n):
    """The part of a series with exponents not == 1 mod n."""
    junk = {e: c for e, c in s.coeffs.items() if (e - 1) % n != 0}
    return LaurentSeries(s.field, junk, s.prec)


def reduce_support(rule, cap=None):
    """Kill every removable t2-grade of the rule.

    Returns (new_rule, records).  Afterwards the support is {0} or
    {0, i} union {2i, 2i + n, ...} with n | i, the grade-i coefficient has
    only exponents == 1 mod n, and c_0 = zeta * t1 exactly (the residue
    automorphism is linearized on the way when it is of finite order).
    """
    field = rule.field
    if field.char() != 0:
        raise UnsupportedField("support reduction needs characteristic zero")
    if cap is None:
        cap = rule.default_cap()
    xi = rule.zeta
    n = _detect_order(rule)
    records = []
    # a rule with exact coefficients stays exact as long as no change is
    # applied; that is what lets an infinite i be recognized later
    cur = rule if rule.t2_prec is None else rule.truncate(cap)

    # linearize alpha
    if cur.coeffs[0].coeffs != {1: xi}:
        nf = autonorm.normalize(rule.alpha)
        if nf.i_alpha != inf:
            raise NotSolvable(
                "residue automorphism is not of finite order to precision "
                "(contact order %s); cannot linearize" % nf.i_alpha
            )
        y0 = nf.conjugator.image.comp_invert()
        cur = _move(cur, records, "t1", {0: y0}, cap)
        if cur.coeffs[0].coeffs != {1: xi}:
            raise NotSolvable("linearization did not produce zeta * t1")

    i_locked = None
    top = max(cur.coeffs)
    loop_bound = cap if cur.t2_prec is not None else max(cap, top + 1)
    for j in range(1, loop_bound):
        if j not in cur.coeffs:
            continue
        if i_locked is not None and j >= 2 * i_locked and j % n == 0:
            # allowed support: multiples of n at or above 2i stay
            continue
        cur = _clear_grade(cur, j, i_locked, n, cap, records)
        if i_locked is None and j in cur.coeffs:
            i_locked = j
    return cur, records


def _clear_grade(cur, j, i, n, cap, records):
    """Clear grade j of the rule cur with one parameter change.

    n does not divide j: first kind, t2' = (1 + g t2^j) t2.  Otherwise the
    non-equivariant exponents go first with t1' = t1 + b t2^j; what is left
    is then moved by the interaction with the locked grade i, or stays in
    place when i is None.  Appends the records and returns the new rule.
    """
    field = cur.field
    xi = cur.zeta
    one = LaurentSeries.const(field, field.one())
    delta = cur.coeffs[j]
    if j % n != 0:
        # solving g * (alpha^(j+1) - alpha)(t1) = -delta
        slope = field.sub(field.pow(xi, j + 1), xi)
        g = delta.scale(field.neg(field.inv(slope))).shift(-1)
        return _move(cur, records, "t2", {0: one, j: g}, cap, j)
    junk = _non_equivariant(delta, n)
    if not junk.is_zero():
        b = _diagonal_solve(field, junk, xi, n)
        cur = _move(cur, records, "t1", {0: cur.t1_series(), j: b}, cap, j, keep=True)
        delta = cur.coeffs.get(j)
        if delta is not None and not _non_equivariant(delta, n).is_zero():
            raise NotSolvable(
                "diagonal cleanup left non-equivariant terms at grade %d" % j
            )
    if delta is None or i is None:
        return cur
    # interaction move: t2' = (1 + g t2^s) t2 with s = j - i shifts
    # grade j by (s - i) g delta_i when n | s and alpha is linear
    s = j - i
    h = delta / cur.coeffs[i]
    g = h.scale(field.inv(field.from_int(i - s)))
    return _move(cur, records, "t2", {0: one, s: g}, cap, j)


def _diagonal_solve(field, junk, xi, n):
    """b with alpha(b) - xi*b = -junk for the non-equivariant part, where
    alpha(t1) = xi*t1; diagonal per exponent with slope xi^m - xi."""
    out = {}
    for m, cm in junk.coeffs.items():
        slope = field.sub(field.pow(xi, m), xi)
        if field.is_zero(slope):
            raise NotSolvable("diagonal solve hit an equivariant exponent")
        out[m] = field.neg(field.div(cm, slope))
    return LaurentSeries(field, out, junk.prec)


def _agree_below(rule, other, j):
    """Whether two rules agree at every grade below j: their images Phi(t1),
    read in the ring of the first, agree below j."""
    return rule._image.agrees(SkewSeries(rule, other.coeffs, other.t2_prec), j)


def _move(cur, records, kind, terms, cap, grade=None, keep=False):
    """Make the change (kind, terms, cap, grade) on the rule cur, append its
    record and return the new rule.  A change aimed at a grade leaves every
    lower grade as it was and clears that grade unless keep is set."""
    change = ParameterChange(kind, terms, cap, grade)
    nxt = change.apply(cur)
    if grade is not None and not _agree_below(cur, nxt, grade):
        raise NotSolvable("parameter change aimed at grade %d disturbed a lower grade" % grade)
    if grade is not None and not keep and grade in nxt.coeffs:
        raise NotSolvable("parameter change failed to clear grade %d" % grade)
    records.append(change)
    return nxt


class SkewInvariantSet:
    """The classifying data (n, xi, i, r, c, a) of a rule in characteristic 0.

    When i is infinite the remaining entries are None and the underlying
    object is commutative enough to be described by (n, xi) alone; the
    ``infinite_i`` flag reports that case.
    """

    def __init__(self, field, n, xi, i, r=None, c=None, a=None):
        self.field = field
        self.n = n
        self.xi = xi
        self.i = i
        self.r = r
        self.c = c
        self.a = a

    @property
    def infinite_i(self):
        return self.i == inf

    @property
    def d(self):
        if self.infinite_i:
            return None
        return gcd(self.r - 1, self.i)

    def key(self):
        return (self.n, self.xi, self.i, self.r, self.c, self.a)

    def __eq__(self, other):
        return (
            isinstance(other, SkewInvariantSet)
            and self.field == other.field
            and self.key() == other.key()
        )

    def same_class(self, other):
        """Compare as classifying data: c counts modulo d-th powers.

        Returns "yes", "no" or "undecided" (the latter only when the
        d-th power test is unsupported over the field).
        """
        if self.field != other.field:
            raise FieldMismatch("invariant sets over different fields")
        if (self.n, self.xi, self.i) != (other.n, other.xi, other.i):
            return "no"
        if self.infinite_i:
            return "yes"
        if self.r != other.r or self.a != other.a:
            return "no"
        return autonorm.same_mod_powers(self.field, self.c, other.c, self.d)

    def __repr__(self):
        return "<invariants n=%r xi=%r i=%r r=%r c=%r a=%r>" % self.key()


def invariants(rule, cap=None):
    """Extract (n, xi, i, r, c, a) from a rule over a characteristic-0 field."""
    return _classify(rule, cap)[0]


def _classify(rule, cap):
    """(set, rule, records, cap): the invariant set of a rule, the rule it
    is read from, the changes that led there and the cap used.

    The set is read after reduce_support and the shift t2' = t1^m t2 that
    puts the leading t1-exponent of grade i into [0, i), the range where
    _read_invariants holds; t1^m is a unit, so the set does not depend on
    the t2 the rule was given in.
    """
    field = rule.field
    if field.char() != 0:
        raise UnsupportedField("invariants are defined in characteristic zero")
    if cap is None:
        cap = rule.default_cap()
    cur, records = reduce_support(rule, cap)
    n = _detect_order(cur)
    xi = cur.zeta
    i = _least_grade(cur)
    if i == inf:
        return SkewInvariantSet(field, n, xi, inf), cur, records, cap
    rho = cur.coeffs[i].valuation()
    m_sh = (rho - rho % i) // i
    if m_sh != 0:
        cur = _move(cur, records, "t2", {0: LaurentSeries.monomial(field, m_sh)}, cap)
    r, c, a = _read_invariants(cur, n, i)
    return SkewInvariantSet(field, n, xi, i, r, c, a), cur, records, cap


def _least_grade(reduced):
    """The least positive grade i of a rule that reduce_support left; when
    none survives, inf for an exact rule, else PrecisionExhausted."""
    support = [j for j in reduced.coeffs if j >= 1]
    if support:
        return min(support)
    if reduced.t2_prec is None:
        return inf
    raise PrecisionExhausted(
        "no surviving grade below the working precision; i may be "
        "infinite or beyond reach",
        required=reduced.t2_prec + 1,
    )


def _read_invariants(reduced, n, i):
    """(r, c, a) of a rule that reduce_support left with least positive
    grade i, read from the grades i and 2i of Phi^n(t1)."""
    field = reduced.field
    xi = reduced.zeta
    if i % n != 0:
        raise NotSolvable("reduction locked i = %d not divisible by n = %d" % (i, n))
    if reduced.t2_prec is not None and reduced.t2_prec < 2 * i + 1:
        raise PrecisionExhausted(
            "reading the grade-2i coefficient of Phi^n(t1)", required=2 * i + 1
        )
    img = reduced.phi_image(n, 2 * i + 1)
    g0 = img.coeff(0) - reduced.t1_series()
    if not g0.is_zero():
        raise NotSolvable("alpha^n is not the identity to working precision")
    x_n = img.coeff(i)
    y_n = img.coeff(2 * i)
    if x_n.is_zero():
        raise NotSolvable("grade-i trace vanished during extraction")
    rho, lead = x_n.leading()
    r = rho % i
    c = field.div(field.mul(xi, lead), field.from_int(n))
    half = field.from_fraction(Fraction(i + 1, 2))
    xp = x_n.derive()
    integrand = (y_n - (xp * x_n).scale(half)) / (x_n * x_n)
    a = integrand.residue()
    return r, c, a


def build_from_invariants(field, n, xi, i, r=None, c=None, a=None):
    """The canonical rule with the given invariants; validates admissibility."""
    if not isinstance(n, int) or n < 1:
        raise InadmissibleSet("n must be a positive integer")
    order = field.root_of_unity_order(xi, bound=n)
    if order != n:
        raise InadmissibleSet("xi must be a primitive n-th root of unity")
    if i == inf or i is None:
        if not (r is None and c is None and a is None):
            raise InadmissibleSet("r, c, a must be omitted when i is infinite")
        return CommutationRule(
            field, {0: LaurentSeries(field, {1: xi})}, None
        )
    if not isinstance(i, int) or i < 1:
        raise InadmissibleSet("i must be a positive integer or infinity")
    if i % n != 0:
        raise InadmissibleSet("i must be divisible by n")
    if not isinstance(r, int) or not 0 <= r < i:
        raise InadmissibleSet("r must satisfy 0 <= r < i")
    if (r - 1) % n != 0:
        raise InadmissibleSet("r must be congruent to 1 modulo n")
    if c is None or field.is_zero(c):
        raise InadmissibleSet("c must be a nonzero field element")
    if a is None:
        raise InadmissibleSet("a must be a field element")
    p = field.char()
    if p != 0 and (2 * n) % p == 0:
        raise InadmissibleSet("characteristic must not divide 2n")
    quarter = field.from_fraction(Fraction(r * (n * i + 1), 2 * n))
    y_coeff = field.mul(
        field.from_int(n),
        field.mul(
            field.pow(xi, n - 1),
            field.mul(field.mul(c, c), field.add(a, quarter)),
        ),
    )
    coeffs = {
        0: LaurentSeries(field, {1: xi}),
        i: LaurentSeries(field, {r: c}),
    }
    if not field.is_zero(y_coeff):
        coeffs[2 * i] = LaurentSeries(field, {2 * r - 1: y_coeff})
    return CommutationRule(field, coeffs, None)


def canonicalize(rule, cap=None):
    """Reduce a rule to the canonical representative of its invariants.

    Returns (invariant_set, canonical_rule, records); the canonical rule is
    verified against build_from_invariants, so a successful return is a
    proof of the classification for this input.
    """
    invset, cur, records, cap = _classify(rule, cap)
    if invset.infinite_i:
        return invset, cur, records
    field = rule.field
    n, xi, i, r, c, a = invset.key()
    one = field.one()

    # monomialize delta_i = c t1^r q to c t1^r with one unit change
    # t2' = u(t1) t2.  After reduce_support c_0 = xi t1 and no grade lies
    # strictly between 0 and i, so the change_t2 solve at grade i reads
    # c'_i N_(i+1)[0] = u c_i with N_(i+1)[0] = u(t1) u(xi t1) ... u(xi^i t1).
    # q lies in 1 + t1^n k[[t1^n]], and so does u = q^(1/i); such a u is
    # fixed by t1 -> xi t1, the product is u^(i+1) and c'_i = c_i u^-i,
    # which is c t1^r.
    mono = LaurentSeries.monomial(field, r, c)
    q = cur.coeffs[i] / mono
    if q.coeffs != {0: one}:
        if q.valuation() != 0 or q.coeffs[0] != one:
            raise NotSolvable("grade-i coefficient has an unexpected leading part")
        cur = _move(cur, records, "t2", {0: _unit_root(q, i)}, cap, i, keep=True)
        if not cur.coeffs.get(i, LaurentSeries.zero(field)).agrees(mono):
            raise NotSolvable("monomialization left t1-terms at grade %d" % i)

    target = build_from_invariants(field, n, xi, i, r, c, a)

    # fix grade 2i: first remove non-equivariant junk, then move the
    # equivariant residual into the image of t1-changes at grade i
    if 2 * i < cap:
        cur = _fix_grade_2i(cur, target, i, n, cap, records)

    # tail: grades above 2i
    for j in range(2 * i + 1, cap):
        if j in cur.coeffs:
            cur = _clear_grade(cur, j, i, n, cap, records)

    # final verification against the built representative
    if not _agree_below(cur, target, cap):
        raise NotSolvable("canonical form disagrees with its invariants below grade %d" % cap)
    return invset, cur, records


def _unit_root(q, i):
    """u = q^(1/i) for a series q with constant term 1, as the exact
    polynomial of its terms below P = q.prec (DEFAULT_PRECISION when q is
    exact, the bound mul_invert applies).

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) with
    a = 1/i: u_0 = 1, u_k = sum_(j=1..k) ((a + 1) j - k) / k * q_j u_(k-j).
    """
    f = q.field
    prec = DEFAULT_PRECISION if q.prec is None else q.prec
    qs = [(j, q.coeffs[j]) for j in sorted(q.coeffs) if j > 0]
    u = {0: f.one()}
    for k in range(1, prec):
        acc = f.zero()
        for j, qj in qs:
            if j > k:
                break
            uk = u.get(k - j)
            if uk is not None:
                # i ((a + 1) j - k) = (i + 1) j - i k
                acc = f.add(acc, f.mul_int(f.mul(qj, uk), (i + 1) * j - i * k))
        if not f.is_zero(acc):
            u[k] = f.div(acc, f.from_int(i * k))
    return LaurentSeries(f, u)


def _fix_grade_2i(cur, target, i, n, cap, records):
    """Match the grade-2i coefficient to the canonical one."""
    field = cur.field
    t1 = cur.t1_series()
    want = target.coeffs.get(2 * i, LaurentSeries.zero(field))
    if 2 * i in cur.coeffs:
        # only the non-equivariant junk: the interaction is done below
        cur = _clear_grade(cur, 2 * i, None, n, cap, records)
    delta = cur.coeffs.get(2 * i, LaurentSeries.zero(field))
    guard = 0
    while True:
        resid = delta - want
        if resid.is_zero():
            break
        e, coeff = resid.leading()
        r = target.coeffs[i].valuation()
        mu = e - r + 1
        if e == 2 * r - 1:
            raise NotSolvable(
                "residual at grade 2i has a component along the residue "
                "direction; the invariant a was extracted inconsistently"
            )
        # b = beta t1^mu comes with t2^i, so terms quadratic in b sit at
        # grade >= 3i and the probe reads the exact linear response at
        # grade 2i for every mu; it is solved only that far
        probe = {0: t1, i: LaurentSeries.monomial(field, mu)}
        probed = _move(cur, [], "t1", probe, 2 * i + 1, 2 * i, keep=True)
        pd = probed.coeffs.get(2 * i, LaurentSeries.zero(field))
        lam = pd.coeffs.get(e, field.zero())
        lam = field.sub(lam, delta.coeffs.get(e, field.zero()))
        if field.is_zero(lam):
            raise NotSolvable(
                "grade-2i coefficient does not react at t1^%d" % e
            )
        beta = field.neg(field.div(coeff, lam))
        b = LaurentSeries(field, {mu: beta})
        cur = _move(cur, records, "t1", {0: t1, i: b}, cap, 2 * i, keep=True)
        delta = cur.coeffs.get(2 * i, LaurentSeries.zero(field))
        new_resid = delta - want
        if not new_resid.is_zero() and new_resid.valuation() <= e:
            raise NotSolvable("grade-2i matching made no progress at t1^%d" % e)
        guard += 1
        if guard > 4 * cap + 64:
            raise NotSolvable("grade-2i matching did not terminate")
    return cur


def isomorphic(rule_a, rule_b, cap=None):
    """Compare two rules; returns "yes", "no" or "undecided"."""
    if rule_a.field != rule_b.field:
        raise FieldMismatch("rules over different coefficient fields")
    sa = invariants(rule_a, cap)
    sb = invariants(rule_b, cap)
    return sa.same_class(sb)
