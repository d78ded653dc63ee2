"""The three benchmark workloads: seeded inputs, one timed call per item and
an exact check of every answer.

Each workload is a class built from the imported ``skewlocal`` package and a
seed.  ``corpus()`` returns its items: ``copies`` rounds of every template at
every size.  Each round has its own perturbation shape and fresh seeded
values.  The inputs depend only on (workload, seed), never on timing.  An
item runs the program on inputs it was given (``run``) and then, outside the
timed region, checks the answer exactly against what the generator knows
(``check``).

Item cost is bounded by input properties only: the size sweep (cap, prec,
gprec/depth) and the perturbation shapes, which are fixed per template and
round.  The seed draws only the coefficient values.

Set-up work that costs time (generating one input, running one warm-up
item) goes through ``self.step(fn, *args)``, so that a caller can time it
step by step.
"""

import random
from fractions import Fraction


class Item:
    __slots__ = ("size", "label", "run", "check", "expected")

    def __init__(self, size, label, run, check, expected):
        self.size = size
        self.label = label
        self.run = run
        self.check = check
        self.expected = expected


def _frac(rng):
    """A nonzero rational of fixed height with a seeded sign.

    The seed draws signs, not sizes: with numerators and denominators drawn
    from a range, coefficient growth and chance cancellations made one
    item's cost differ by up to half between seeds."""
    return Fraction(rng.choice((-3, 3)), 2)


def _elem(field, rng):
    """A small nonzero field element; over Q(zeta_m) it has two coordinates
    along 1 and zeta."""
    if field.kind == "cyclotomic":
        return field.add(
            field.from_fraction(_frac(rng)),
            field.mul(field.from_fraction(_frac(rng)), field.zeta()),
        )
    return field.from_fraction(_frac(rng))


def _rng(name, seed, round_no):
    return random.Random("%s:%d:%d" % (name, seed, round_no))


def _call(fn, *args):
    return fn(*args)


class Workload:
    """Shared corpus and warm-up logic; subclasses define items(round_no)."""

    copies = 3
    step = staticmethod(_call)

    def __init__(self, sl, seed, sizes=None):
        self.sl = sl
        self.seed = seed
        if sizes is not None:
            self.sizes = sizes

    def corpus(self):
        return [item for r in range(self.copies) for item in self.items(r)]

    def warm_up(self):
        """Run and check the first item of a throw-away round."""
        item = self.items(-1)[0]
        return item.check(self.step(item.run), item.expected)


# -- canonicalize -------------------------------------------------------------

# (field, n, i, r, moves).  A move is ("t2", {grade: t1 exponent}) for
# t2' = (1 + sum g_s t1^e t2^s) t2 or ("t1", {grade: t1 exponent}) for
# t1' = t1 + sum b_s t1^e t2^s.  Grade-0 terms carry the constant 1 (t2) or
# the linear term t1 (t1) as well, so the moves fix (n, xi, i, r, c, a)
# exactly, not only up to class.  Round k raises every exponent e by
# k % EXPONENT_SHIFTS, so the rounds are different shapes, not only different
# values, and item costs spread out instead of repeating a few clusters.
CANON_TEMPLATES = (
    ("Q", 1, 1, 0, (("t2", {1: 1}), ("t1", {1: 2}))),
    ("Q", 1, 2, 1, (("t2", {0: 3, 2: 1}),)),
    ("Q", 2, 2, 1, (("t2", {0: 4}),)),
    ("Q", 2, 2, 1, (("t1", {2: 1}), ("t2", {1: 2}))),
    ("Q(zeta_3)", 3, 3, 1, (("t2", {1: 1}), ("t1", {3: 1}))),
)
CANON_CAPS = (7, 8, 9)
EXPONENT_SHIFTS = 3


class Canonicalize(Workload):
    """Hidden canonical rules, canonicalized over a cap sweep."""

    name = "canonicalize"
    sizes = CANON_CAPS

    def __init__(self, sl, seed, sizes=None):
        super().__init__(sl, seed, sizes)
        self.fields = {}
        for spec in CANON_TEMPLATES:
            self.fields.setdefault(spec[0], sl.Field.from_text(spec[0]))

    def _hidden_rule(self, rng, spec, cap, shift):
        sl = self.sl
        fname, n, i, r, moves = spec
        f = self.fields[fname]
        xi = f.primitive_root_of_unity(n)
        c = _elem(f, rng)
        a = _elem(f, rng)
        rule = sl.build_from_invariants(f, n, xi, i, r, c, a)
        for kind, grades in moves:
            terms = {}
            for s, e in grades.items():
                coeffs = {e + shift: _elem(f, rng)}
                if s == 0:
                    coeffs[0 if kind == "t2" else 1] = f.one()
                terms[s] = sl.LaurentSeries(f, coeffs)
            if 0 not in terms:
                terms[0] = sl.LaurentSeries(f, {0 if kind == "t2" else 1: f.one()})
            el = rule.element(terms)
            change = sl.change_t2 if kind == "t2" else sl.change_t1
            rule = change(rule, el, cap)
        return rule, (n, xi, i, r, c, a)

    def items(self, round_no):
        rng = _rng(self.name, self.seed, round_no)
        out = []
        shift = round_no % EXPONENT_SHIFTS
        for cap in self.sizes:
            for t, spec in enumerate(CANON_TEMPLATES):
                rule, key = self.step(self._hidden_rule, rng, spec, cap, shift)
                out.append(self._item(rule, key, cap, t))
        return _interleave(out, len(self.sizes))

    def _item(self, rule, key, cap, t):
        sl = self.sl

        def run():
            return sl.canonicalize(rule)

        def check(out, expected):
            invset, canon, _ = out
            if invset.key() != expected:
                return False
            target = sl.build_from_invariants(rule.field, *expected)
            zero = sl.LaurentSeries.zero(rule.field)
            return all(
                canon.coeffs.get(j, zero).agrees(target.coeffs.get(j, zero))
                for j in range(cap)
            )

        return Item(cap, "T%d cap %d" % (t, cap), run, check, key)


# -- normalize ----------------------------------------------------------------

# (field, order n of zeta); the contact order is i = n + 1.
NORM_TEMPLATES = (
    ("Q", 1),
    ("Q", 2),
    ("Q(zeta_3)", 3),
    ("Q(zeta_5)", 1),
    ("Q(zeta_5)", 2),
)
NORM_PRECS = (8, 9, 10, 11, 12)
# conjugator exponents above the linear term, one shape per round (cycled)
CONJ_SHAPES = ((2, 3, 4), (2, 4, 5))


class Normalize(Workload):
    """Normal forms zeta t + x t^i + x^2 y t^(2i-1), hidden by a random
    tangent conjugator and normalized over a precision sweep."""

    name = "normalize"
    sizes = NORM_PRECS
    copies = 2

    def __init__(self, sl, seed, sizes=None):
        super().__init__(sl, seed, sizes)
        self.fields = {}
        for fname, _ in NORM_TEMPLATES:
            self.fields.setdefault(fname, sl.Field.from_text(fname))

    def items(self, round_no):
        rng = _rng(self.name, self.seed, round_no)
        out = []
        shape = CONJ_SHAPES[round_no % len(CONJ_SHAPES)]
        for prec in self.sizes:
            for t, (fname, n) in enumerate(NORM_TEMPLATES):
                out.append(self.step(self._item, rng, self.fields[fname], n, prec, t, shape))
        return _interleave(out, len(self.sizes))

    def _item(self, rng, f, n, prec, t, shape):
        sl = self.sl
        zeta = f.primitive_root_of_unity(n)
        i = n + 1
        x = _elem(f, rng)
        y = _elem(f, rng)
        normal = sl.LaurentSeries(
            f, {1: zeta, i: x, 2 * i - 1: f.mul(f.mul(x, x), y)}, prec
        )
        # over Q the linear coefficient lam moves x by lam^(i-1); over the
        # cyclotomic fields it stays 1, so x itself is the expected answer
        lam = f.from_fraction(_frac(rng)) if f.kind == "rational" else f.one()
        conj = {1: lam}
        for e in shape:
            conj[e] = f.from_fraction(_frac(rng))
        hidden = sl.conjugate(
            sl.DiskAutomorphism(normal),
            sl.DiskAutomorphism(sl.LaurentSeries(f, conj, prec)),
        )

        def run():
            return sl.normalize(hidden, prec)

        def check(nf, expected):
            zeta_, n_, i_, x_, y_ = expected
            if (nf.zeta, nf.n, nf.i_alpha, nf.y) != (zeta_, n_, i_, y_):
                return False
            if nf.x == x_:
                return True
            if f.kind != "rational":
                return False
            ok, _ = f.is_dth_power(f.div(nf.x, x_), i_ - 1)
            return ok

        return Item(prec, "T%d prec %d" % (t, prec), run, check, (zeta, n, i, x, y))


# -- ring ---------------------------------------------------------------------

RING_RULES = (
    ("Qcanon", None),  # the canonical Q rule with n = 2, written by rule_to_text
    ("Qmessy", "field: Q\nprec: t1=exact t2=exact\nC = t1 + t1*t2 + t2^3\n"),
    ("Z5", "field: Q(zeta_5)\nprec: t1=exact t2=exact\nC = zeta*t1 + t1^2*t2\n"),
    ("F7", "field: F7\nprec: t1=exact t2=exact\nC = t1 + t1^2*t2 + 3*t2^2\n"),
)
RING_GPRECS = (3, 4, 5)
PSIDO_DEPTH_PER_GPREC = 2
ASSOC_EVERY = 3


def _coeff_text(rng, field, zeta=False):
    """A small nonzero coefficient as text; over Q(zeta_m) a multiple of
    zeta when ``zeta`` is set."""
    if field.kind == "prime":
        return str(rng.randint(1, field.param - 1))
    text = str(_frac(rng))
    if zeta and field.kind == "cyclotomic":
        text += "*zeta"
    return "(%s)" % text


def _poly_text(rng, field, var, exps):
    """sum c_e var^e; the first coefficient carries zeta over Q(zeta_m)."""
    return " + ".join(
        "%s*%s^%d" % (_coeff_text(rng, field, k == 0), var, e) for k, e in enumerate(exps)
    )


class Ring(Workload):
    """Few fixed rules, many seeded operands: skew products and inverses over
    a gprec sweep, operator products and inverses over a depth sweep, and
    Dubrovin products.  Operands go in as text and results come out as text."""

    name = "ring"
    sizes = RING_GPRECS
    copies = 4

    def __init__(self, sl, seed, sizes=None):
        super().__init__(sl, seed, sizes)
        Q = sl.Field.rationals()
        canon = sl.build_from_invariants(Q, 2, Q.from_int(-1), 2, 1, Q.from_int(3), Q.one())
        self.rules = []
        for name, text in RING_RULES:
            if text is None:
                text = sl.rule_to_text(canon)
            self.rules.append((name, sl.parse_rule_text(text)))

    def items(self, round_no):
        rng = _rng(self.name, self.seed, round_no)
        out = []
        shift = round_no % len(self.rules)
        for g in self.sizes:
            for name, rule in self.rules:
                assoc = len(out) % ASSOC_EVERY == 0
                out.append(self._item(rng, name, rule, g, assoc, shift))
        return _interleave(out, len(self.sizes))

    def warm_up(self):
        """Fill every rule's twist caches up to the largest gprec."""
        top = max(self.sizes)
        ok = True
        for item in self.items(-1):
            if item.size == top:
                ok = item.check(self.step(item.run), item.expected) and ok
        return ok

    def _item(self, rng, name, rule, g, assoc, shift):
        sl = self.sl
        f = rule.field
        depth = PSIDO_DEPTH_PER_GPREC * g
        # skew operands: grade -> t1 series text; u has a grade-0 unit, and
        # its t1 exponents move up by ``shift`` from round to round
        u_text = {
            0: "1 + " + _poly_text(rng, f, "t1", (1 + shift, 2 + shift)),
            1: _poly_text(rng, f, "t1", (shift - 1, shift + 1)),
            2: _poly_text(rng, f, "t1", (2 + shift,)),
        }
        v_text = {
            0: _poly_text(rng, f, "t1", (1,)),
            1: _poly_text(rng, f, "t1", (0, 3)),
        }
        w_text = {0: _poly_text(rng, f, "t1", (0, 1)), 2: _poly_text(rng, f, "t1", (1,))}
        p_text = "X*D^2 + %s*D + %s*X^2 + %s*D^-1" % (
            _coeff_text(rng, f, True), _coeff_text(rng, f), _coeff_text(rng, f))
        q_text = "%s*D + X^-1 + %s*X*D^-2" % (_coeff_text(rng, f, True), _coeff_text(rng, f))
        # Dubrovin words with known valuation: the least z power written
        # (the word grammar has no zeta)
        ka, kb = rng.randint(0, 1), rng.randint(0, 2)
        a_text = "%s*y^2*x^2*z^%d + %s*x*y^3*z^%d" % (
            _coeff_text(rng, f), ka, _coeff_text(rng, f), ka + 1)
        b_text = "%s*y*x^3*z^%d + %s*y^2*z^%d" % (
            _coeff_text(rng, f), kb, _coeff_text(rng, f), kb + 1)
        desc = sl.Descriptor(f)

        def parse_skew(terms):
            return rule.element(
                {j: sl.parse_series(t, f, var="t1") for j, t in terms.items()}, g
            )

        def run():
            u = parse_skew(u_text)
            v = parse_skew(v_text)
            uv = sl.skew_mul(u, v, g)
            ui = sl.skew_invert(u, g)
            p = sl.parse_psido(p_text, f, depth)
            q = sl.parse_psido(q_text, f, depth)
            pq = sl.psido_compose(p, q, depth)
            pi = sl.psido_invert(p, depth)
            a = sl.parse_heis(a_text, desc)
            b = sl.parse_heis(b_text, desc)
            ab = a * b
            text = (uv.format(), ui.format(), pq.format(), pi.format(), ab.format())
            return (u, v, uv, ui, p, pi, ab), text

        def check(out, expected):
            (u, v, uv, ui, p, pi, ab), _ = out
            if not sl.skew_mul(u, ui, g).agrees(rule.one(), g):
                return False
            if not sl.psido_compose(p, pi, depth).agrees(sl.PsiDO.one(f)):
                return False
            if sl.valuation_w(ab) != expected:
                return False
            if assoc:
                w = parse_skew(w_text)
                left = sl.skew_mul(uv, w, g)
                right = sl.skew_mul(u, sl.skew_mul(v, w, g), g)
                if not left.agrees(right, g):
                    return False
            return True

        return Item(g, "%s gprec %d" % (name, g), run, check, ka + kb)


def _interleave(items, nsizes):
    """Round-robin over sizes: items arrive grouped by size, leave alternating,
    so drift over the run hits every size alike."""
    per = len(items) // nsizes
    groups = [items[k * per:(k + 1) * per] for k in range(nsizes)]
    return [g[j] for j in range(per) for g in groups]


WORKLOADS = {cls.name: cls for cls in (Canonicalize, Normalize, Ring)}
