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
from functools import reduce
from math import gcd, inf
from operator import add

from . import autonorm
from .errors import (
    FieldMismatch,
    InadmissibleSet,
    NotSolvable,
    PrecisionExhausted,
    UnsupportedField,
    ZeroDivisorCandidate,
)
from .coeff import join_terms
from .series import DEFAULT_PRECISION, LaurentSeries, _p, _unp, unit_inverse


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
        parts = []
        for j in sorted(self.terms):
            s = self.terms[j]
            body = s.format(var="t1")
            multi = len(s.coeffs) + (1 if s.prec is not None else 0) > 1
            if j == 0:
                parts.append("(%s)" % body if multi else body)
                continue
            t2s = "t2" if j == 1 else "t2^%d" % j
            if body == "1":
                term = t2s
            elif body == "-1":
                term = "-" + t2s
            elif multi:
                term = "(%s)*%s" % (body, t2s)
            else:
                term = "%s*%s" % (body, t2s)
            parts.append(term)
        body = join_terms(parts)
        if self.gprec is not None:
            tail = "O(t2^%d)" % self.gprec
            body = tail if body == "0" else "%s + %s" % (body, tail)
        return body

    def __repr__(self):
        return "<skew %s>" % self.format()


class CommutationRule:
    """The conjugation data C of a split two-dimensional local skew field."""

    def __init__(self, field, coeffs, t2_prec=None):
        self.field = field
        self.t2_prec = t2_prec
        clean = {}
        for j, s in coeffs.items():
            if not isinstance(j, int) or j < 0:
                raise ValueError("rule grades must be integers >= 0, got %r" % (j,))
            if s.field != field:
                raise FieldMismatch("rule coefficient over the wrong field")
            if t2_prec is not None and j >= t2_prec:
                continue
            if not s.is_zero():
                clean[j] = s
        if 0 not in clean:
            raise ValueError("rule needs a grade-zero coefficient c_0")
        self.coeffs = clean
        self._alpha = autonorm.DiskAutomorphism(clean[0])  # validates c_0
        self._phi_cache = {}
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
        return SkewSeries(self, {0: LaurentSeries.const(self.field, self.field.one())}, gprec)

    def t1_series(self):
        return LaurentSeries.variable(self.field)

    def t1(self, gprec=None):
        return SkewSeries(self, {0: self.t1_series()}, gprec)

    def t2(self, j=1, gprec=None):
        return SkewSeries(
            self, {j: LaurentSeries.const(self.field, self.field.one())}, gprec
        )

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
        need = _p(cap)
        cached = self._phi_cache.get(m)
        if cached is not None:
            if cached[1].gprec is None:
                return cached[1]
            if cached[0] >= need:
                return cached[1] if cap is None else cached[1].truncate(cap)
        if m == 1:
            img = SkewSeries(self, self.coeffs, self.t2_prec)
        else:
            # Phi^-1 is applied in this ring: the inverse rule's own products
            # would move t2 past coefficients by Phi^-1 instead of Phi
            step = 1 if m > 0 else -1
            img = self._apply_phi(self.phi_image(m - step, cap), cap, step)
        stored = need
        if stored == inf and img.gprec is not None:
            stored = img.gprec
        self._phi_cache[m] = (stored, img)
        return img

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

    def _phi_power(self, m, e, cap):
        """(Phi^m(t1))^e, cached per rule with per-entry caps.

        Inverting Phi^m(t1) re-enters this cache at smaller caps, so every
        entry records the cap it was computed at and is only reused when
        that is large enough.
        """
        need = _p(cap)
        pows = self._pow_cache.setdefault(m, {})
        entry = pows.get(e)
        if entry is not None:
            if entry[1].gprec is None:
                return entry[1]
            if entry[0] >= need:
                return entry[1] if cap is None else entry[1].truncate(cap)
        if e == 0:
            out = self.one()
        elif e > 0:
            out = skew_mul(self._phi_power(m, e - 1, cap), self.phi_image(m, cap), cap)
        elif e == -1:
            out = skew_invert(self.phi_image(m, cap), cap)
        else:
            out = skew_mul(
                self._phi_power(m, e + 1, cap), self._phi_power(m, -1, cap), cap
            )
        stored = need
        if stored == inf and out.gprec is not None:
            stored = out.gprec
        pows[e] = (stored, out)
        return out

    def twist(self, a, m, cap=None):
        """Phi^m(a) for a coefficient series a: substitute Phi^m(t1).

        cap=None means no forced truncation (see phi_image)."""
        if cap is not None and cap <= 0:
            return self.zero(cap)
        if m == 0 or a.is_zero():
            return self.from_series(a)
        return _evaluate(
            a, lambda e: self._phi_power(m, e, cap), cap, lambda: self.phi_image(m, cap)
        )

    # -- inverse rule ---------------------------------------------------------

    def inverse_rule(self, t2_prec=None):
        """The rule for t2^-1 t1 t2, solved order by order."""
        cap = t2_prec if t2_prec is not None else self.default_cap()
        if self._inverse is not None and _p(self._inverse.t2_prec) >= cap:
            return self._inverse
        d0 = self.coeffs[0].comp_invert()
        if set(self.coeffs) == {0}:
            out = CommutationRule(self.field, {0: d0}, self.t2_prec)
            self._inverse = out
            out._inverse = self
            return out
        terms = {0: d0}
        t1el = self.t1()
        for s in range(1, cap):
            # step s reads the residual only at grades <= s
            cand = SkewSeries(self, terms, s + 1)
            resid = self._apply_phi(cand, s + 1) - t1el
            if resid.val_floor() < s:
                raise NotSolvable(
                    "inverse rule solve left residue at grade %s" % resid.valuation()
                )
            rho = resid.coeff(s)
            if not rho.is_zero():
                terms[s] = (-rho).compose(d0)
        full = SkewSeries(self, terms, cap)
        final = self._apply_phi(full, cap) - t1el
        if not final.is_zero() and final.valuation() < cap:
            raise NotSolvable("inverse rule verification failed")
        out = CommutationRule(self.field, terms, cap)
        self._inverse = out
        out._inverse = self
        return out

    def format(self):
        return SkewSeries(self, self.coeffs, self.t2_prec).format()

    def __repr__(self):
        return "<rule C = %s>" % self.format()


def _evaluate(a, power, cap, base):
    """a(P) = sum a_e P^e for a coefficient series a with at least one term.

    power(e) is P^e to grade cap; base() is P, read only to cap the
    coefficient precisions when a is truncated."""
    acc = reduce(add, (power(e).scale(c) for e, c in sorted(a.coeffs.items())))
    if acc.gprec is not None:
        acc = acc.truncate(cap)
    if a.prec is not None:
        acc = _tail_cap(acc, a.prec, base())
    return acc


def _tail_cap(acc, aprec, base):
    """Cap the coefficient precisions of a substituted series.

    When a series a with t1-precision aprec is evaluated at a skew element
    base whose grade-zero part has valuation 1, the unknown exponents
    e >= aprec of a contribute to grade g at t1-valuations at least
    aprec - k * (1 - v_min), where k bounds how many positive-grade factors
    of base fit into grade g and v_min is the worst coefficient valuation.
    """
    rule = acc.rule
    pos = [g for g in base.terms if g >= 1]
    terms = {}
    if not pos:
        for g, s in acc.terms.items():
            terms[g] = s.truncate(aprec) if g == 0 else s
    else:
        i_min = min(pos)
        v_min = min([1] + [base.terms[g].valuation() for g in pos])
        for g, s in acc.terms.items():
            k = max(g, 0) // i_min
            terms[g] = s.truncate(aprec - k * (1 - v_min))
    return SkewSeries(rule, terms, acc.gprec)


def build_from_rule(field, coeffs, t2_prec=None):
    """Plain constructor, usable over any coefficient field."""
    return CommutationRule(field, coeffs, t2_prec)


# -- arithmetic ---------------------------------------------------------------


def skew_mul(u, v, cap=None):
    u._check(v)
    rule = u.rule
    vfu = u.val_floor()
    vfv = v.val_floor()
    bound = min(_p(u.gprec) + vfv, _p(v.gprec) + vfu, _p(cap))
    if bound == inf and not (u.gprec is None and v.gprec is None):
        bound = DEFAULT_PRECISION
    out = {}
    eff = bound
    for m, cu in u.terms.items():
        for l, cv in v.terms.items():
            base = m + l
            if base >= eff:
                continue
            if m == 0:
                w = cu * cv
                if not w.is_zero():
                    out[base] = out[base] + w if base in out else w
                continue
            budget = _unp(eff - base) if eff != inf else None
            tw = rule.twist(cv, m, budget)
            if tw.gprec is not None:
                eff = min(eff, base + tw.gprec)
            for g, sg in tw.terms.items():
                j = base + g
                piece = cu * sg
                if piece.is_zero():
                    continue
                out[j] = out[j] + piece if j in out else piece
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
    """Record of one admissible change of local parameters."""

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data

    def __repr__(self):
        return "<change %s>" % self.kind


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
    """Rewrite the rule for the new first parameter t1' = y_el (t2 fixed).

    The grade-zero part of y_el must have valuation 1; the new coefficients
    are peeled off grade by grade and the expansion is verified exactly.
    """
    if cap is None:
        cap = min(_p(rule.t2_prec), _p(y_el.gprec), DEFAULT_PRECISION)
    y0 = y_el.coeff(0)
    autonorm.DiskAutomorphism(y0)  # validates valuation 1, unit linear term
    y = y_el.truncate(cap)
    rebound = SkewSeries(rule, y.terms, y.gprec)
    resid = rule._apply_phi(rebound, cap)
    y0inv = y0.comp_invert()
    out = {}
    pow_cache = {}
    for j in range(0, cap):
        if resid.val_floor() > j:
            continue
        if resid.valuation() < j:
            raise NotSolvable(
                "change of t1 left residue below grade %d" % j
            )
        rho = resid.coeff(j)
        cj = rho.compose(y0inv)
        if cj.is_zero():
            continue
        out[j] = cj
        term = _subst_element(rule, cj, rebound, cap - j, pow_cache).rshift_t2(j)
        resid = resid - term
    if resid.terms and resid.valuation() < cap:
        raise NotSolvable("change of t1 did not close at the working precision")
    return CommutationRule(rule.field, out, cap)


def _subst_element(rule, a, S, cap, pow_cache):
    """a(S) for a coefficient series a and a skew element S with unit
    grade-zero part; powers of S are memoized in pow_cache."""

    def power(e):
        if e in pow_cache:
            return pow_cache[e]
        if e == 0:
            out = rule.one()
        elif e > 0:
            out = skew_mul(power(e - 1), S, cap)
        else:
            if "inv" not in pow_cache:
                pow_cache["inv"] = skew_invert(S, cap)
            out = skew_mul(power(e + 1), pow_cache["inv"], cap)
        pow_cache[e] = out
        return out

    return _evaluate(a, power, cap, lambda: S)


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

    The solve below grade cap reads N_j only below grade cap - j + 1.
    Twists have grade valuation >= 0, so those grades of
    N_(j+1) = N_j Phi^j(W) depend only on the factors below cap - j, and
    Phi^j(W) is needed only to that grade as well; each is built to
    exactly that window.
    """
    if cap is None:
        cap = min(_p(rule.t2_prec), _p(w_el.gprec), DEFAULT_PRECISION)
    w = SkewSeries(rule, w_el.terms, w_el.gprec).truncate(cap)
    w0 = w.coeff(0)
    if w0.is_zero():
        raise ZeroDivisorCandidate("t2 change needs an invertible grade-zero part")
    c_el = SkewSeries(rule, rule.coeffs, rule.t2_prec).truncate(cap)
    wc = skew_mul(w, c_el, cap)
    # ns[j] is N_(j+1) to grade cap - j; phiw is Phi^j(W) to the same grade
    ns = [w]
    phiw = w
    for j in range(1, cap):
        phiw = rule._apply_phi(phiw, cap - j)
        ns.append(skew_mul(ns[-1], phiw, cap - j))
    out = {}
    for g in range(0, cap):
        acc = wc.coeff(g)
        for j, cj in out.items():
            nterm = ns[j].terms.get(g - j)
            if nterm is not None:
                acc = acc - cj * nterm
        tau = ns[g].coeff(0)
        if tau.is_zero():
            raise NotSolvable("t2 change lost invertibility at grade %d" % g)
        cg = acc / tau
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
        cur = change_t1(cur, cur.from_series(y0), cap)
        records.append(ParameterChange("t1", {"image": y0}))
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
    one = field.one()
    delta = cur.coeffs[j]
    if j % n != 0:
        # solving g * (alpha^(j+1) - alpha)(t1) = -delta
        slope = field.sub(field.pow(xi, j + 1), xi)
        g = delta.scale(field.neg(field.inv(slope))).shift(-1)
        w = cur.element({0: LaurentSeries.const(field, one), j: g})
        nxt = change_t2(cur, w, cap)
        _check_kill(cur, nxt, j)
        records.append(ParameterChange("t2_unit", {"grade": j, "g": g}))
        return nxt
    junk = _non_equivariant(delta, n)
    if not junk.is_zero():
        b = _diagonal_solve(field, junk, xi, n)
        y = cur.element({0: cur.t1_series(), j: b})
        nxt = change_t1(cur, y, cap)
        _check_kill(cur, nxt, j, allow_nonzero=True)
        records.append(ParameterChange("t1_shift", {"grade": j, "b": b}))
        cur = nxt
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
    w = cur.element({0: LaurentSeries.const(field, one), s: g})
    nxt = change_t2(cur, w, cap)
    _check_kill(cur, nxt, j)
    records.append(ParameterChange("t2_unit", {"grade": s, "g": g}))
    return nxt


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


def _check_kill(old, new, j, allow_nonzero=False):
    """The move at grade j must not disturb grades below j."""
    for q in range(0, j):
        a = old.coeffs.get(q, LaurentSeries.zero(old.field))
        b = new.coeffs.get(q, LaurentSeries.zero(old.field))
        if not a.agrees(b):
            raise NotSolvable(
                "parameter change aimed at grade %d disturbed grade %d" % (j, q)
            )
    if not allow_nonzero:
        left = new.coeffs.get(j)
        if left is not None and not left.is_zero():
            raise NotSolvable("parameter change failed to clear grade %d" % j)


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
        return gcd(self.r - 1, self.i) if self.r != 1 else self.i

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
        if self.c == other.c:
            return "yes"
        q = self.field.div(self.c, other.c)
        try:
            ok, _ = self.field.is_dth_power(q, self.d)
        except UnsupportedField:
            return "undecided"
        return "yes" if ok else "no"

    def __repr__(self):
        return "<invariants n=%r xi=%r i=%r r=%r c=%r a=%r>" % self.key()


def invariants(rule, cap=None):
    """Extract (n, xi, i, r, c, a) from a rule over a characteristic-0 field."""
    field = rule.field
    if field.char() != 0:
        raise UnsupportedField("invariants are defined in characteristic zero")
    reduced, _ = reduce_support(rule, cap)
    n = _detect_order(reduced)
    xi = reduced.zeta
    support = [j for j in sorted(reduced.coeffs) if j >= 1]
    if not support:
        if reduced.t2_prec is None:
            return SkewInvariantSet(field, n, xi, inf)
        raise PrecisionExhausted(
            "no surviving grade below the working precision; i may be "
            "infinite or beyond reach",
            required=(reduced.t2_prec or 0) + 1,
        )
    i = support[0]
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
    return SkewInvariantSet(field, n, xi, i, r, c, a)


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
    field = rule.field
    if field.char() != 0:
        raise UnsupportedField("canonical forms need characteristic zero")
    if cap is None:
        cap = rule.default_cap()
    cur, records = reduce_support(rule, cap)
    n = _detect_order(cur)
    xi = cur.zeta
    support = [j for j in sorted(cur.coeffs) if j >= 1]
    if not support:
        if cur.t2_prec is None:
            invset = SkewInvariantSet(field, n, xi, inf)
            return invset, cur, records
        raise PrecisionExhausted(
            "no surviving grade below the working precision",
            required=(cur.t2_prec or 0) + 1,
        )
    i = support[0]
    one = field.one()

    # shift the leading exponent into [0, i) if an exotic input needs it
    rho = cur.coeffs[i].valuation()
    m_sh = (rho - rho % i) // i
    if m_sh != 0:
        w = cur.element({0: LaurentSeries.monomial(field, m_sh)})
        nxt = change_t2(cur, w, cap)
        records.append(ParameterChange("t2_shift", {"power": m_sh}))
        cur = nxt

    invset = invariants(cur, cap)
    if invset.i != i:
        raise NotSolvable("extraction disagrees with the reduced support")
    r, c, a = invset.r, invset.c, invset.a

    # monomialize delta_i to c * t1^r with unit changes u(t1)
    guard = 0
    while True:
        di = cur.coeffs[i]
        q = di / LaurentSeries.monomial(field, r, c)
        junk = [e for e in sorted(q.coeffs) if e != 0 or q.coeffs[e] != one]
        if not junk:
            break
        e = junk[0]
        if e <= 0:
            raise NotSolvable("grade-i coefficient has an unexpected leading part")
        mu = field.div(q.coeffs[e], field.from_int(i))
        u = LaurentSeries(field, {0: one, e: mu})
        nxt = change_t2(cur, cur.element({0: u}), cap)
        _check_kill(cur, nxt, i, allow_nonzero=True)
        records.append(ParameterChange("t2_unit", {"grade": 0, "g": u}))
        new_junk = nxt.coeffs[i] / LaurentSeries.monomial(field, r, c)
        new_e = [x for x in sorted(new_junk.coeffs) if x != 0 or new_junk.coeffs[x] != one]
        if new_e and new_e[0] <= e:
            raise NotSolvable("monomialization made no progress at t1^%d" % e)
        cur = nxt
        guard += 1
        if guard > 4 * cap + 64:
            raise NotSolvable("monomialization did not terminate")

    target = build_from_invariants(field, n, xi, i, r, c, a)

    # fix grade 2i: first remove non-equivariant junk, then move the
    # equivariant residual into the image of t1-changes at grade i
    if 2 * i < cap:
        cur, records = _fix_grade_2i(cur, target, i, n, cap, records)

    # tail: grades above 2i
    for j in range(2 * i + 1, cap):
        if j in cur.coeffs:
            cur = _clear_grade(cur, j, i, n, cap, records)

    # final verification against the built representative
    tgt = target.truncate(cap)
    for j in range(0, cap):
        a_s = cur.coeffs.get(j, LaurentSeries.zero(field))
        b_s = tgt.coeffs.get(j, LaurentSeries.zero(field))
        if not a_s.agrees(b_s):
            raise NotSolvable(
                "canonical form disagrees with its invariants at grade %d" % j
            )
    return invset, cur, records


def _fix_grade_2i(cur, target, i, n, cap, records):
    """Match the grade-2i coefficient to the canonical one."""
    field = cur.field
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
        if r >= 2 and mu <= 1:
            # corrections b = beta * t1^mu act on the t1^e coefficient
            # through c * t1'^r; the quadratic part of that expansion sits
            # at t1^(r - 2 + 2 mu), which stays above e only for mu > 1
            # (for r <= 1 it vanishes and the response is exactly linear)
            raise NotSolvable(
                "grade-2i residual reaches t1^%d below the monotone range" % e
            )
        # the probe is read only at grade 2i, so it is solved only that far
        probe_b = LaurentSeries.monomial(field, mu)
        y = cur.element({0: cur.t1_series(), i: probe_b})
        probed = change_t1(cur, y, 2 * i + 1)
        _check_kill(cur, probed, 2 * i, allow_nonzero=True)
        pd = probed.coeffs.get(2 * i, LaurentSeries.zero(field))
        lam = pd.coeffs.get(e, field.zero())
        lam = field.sub(lam, delta.coeffs.get(e, field.zero()))
        if field.is_zero(lam):
            raise NotSolvable(
                "grade-2i coefficient does not react at t1^%d" % e
            )
        beta = field.neg(field.div(coeff, lam))
        b = LaurentSeries(field, {mu: beta})
        y = cur.element({0: cur.t1_series(), i: b})
        nxt = change_t1(cur, y, cap)
        _check_kill(cur, nxt, 2 * i, allow_nonzero=True)
        new_delta = nxt.coeffs.get(2 * i, LaurentSeries.zero(field))
        new_resid = new_delta - want
        if not new_resid.is_zero() and new_resid.valuation() <= e:
            raise NotSolvable("grade-2i matching made no progress at t1^%d" % e)
        records.append(ParameterChange("t1_shift", {"grade": i, "b": b}))
        cur = nxt
        delta = new_delta
        guard += 1
        if guard > 4 * cap + 64:
            raise NotSolvable("grade-2i matching did not terminate")
    return cur, records


def isomorphic(rule_a, rule_b, cap=None):
    """Compare two rules; returns "yes", "no" or "undecided"."""
    if rule_a.field != rule_b.field:
        raise FieldMismatch("rules over different coefficient fields")
    sa = invariants(rule_a, cap)
    sb = invariants(rule_b, cap)
    return sa.same_class(sb)
