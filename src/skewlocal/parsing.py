"""Expression and rule-file parsing shared by the command line tools.

One tokenizer and one precedence parser serve every grammar; what differs
is the evaluation domain, which says what the names mean and how values
combine.  Precision markers are written O(var^N) and evaluate to a zero
of that precision, so `t + O(t^5)` comes out right through ordinary
addition.
"""

from .coeff import Field, binary_power
from .dubrovin import Descriptor, HeisenbergElement
from .errors import ParseError
from .psido import PsiDO, psido_compose, psido_invert
from .series import LaurentSeries, _p, _unp, file_product, sum_filed
from .skew import CommutationRule, build_from_rule

_OPS = set("+-*/^(),=")

# Parentheses and unary minus nest at most this deep.  Each level costs a few
# interpreter frames in the parser and in _eval, so the limit keeps both well
# under the recursion limit.
MAX_NESTING = 100


def tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r at position %d" % (ch, i))
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive-descent parser producing a small AST.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | primary ['^' ['-'] INT]
    primary:= INT | NAME | 'O' '(' expr ')' | '(' expr ')'
    """

    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.next()
        if kind != "op" or text != op:
            raise ParseError("expected %r at position %d" % (op, pos))

    def enter(self, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                "expression nested deeper than %d levels at position %d"
                % (MAX_NESTING, pos)
            )

    def at_op(self, op):
        kind, text, _ = self.peek()
        return kind == "op" and text == op

    def parse(self):
        ast = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r at position %d" % (text, pos))
        return ast

    def expr(self):
        node = self.term()
        while self.at_op("+") or self.at_op("-"):
            op = self.next()[1]
            rhs = self.term()
            node = ("bin", op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.at_op("*") or self.at_op("/"):
            op = self.next()[1]
            rhs = self.factor()
            node = ("bin", op, node, rhs)
        return node

    def factor(self):
        if self.at_op("-"):
            pos = self.next()[2]
            self.enter(pos)
            node = ("neg", self.factor(), pos)
            self.depth -= 1
            return node
        node = self.primary()
        if self.at_op("^"):
            self.next()
            sign = 1
            if self.at_op("-"):
                self.next()
                sign = -1
            kind, text, pos = self.next()
            if kind != "int":
                raise ParseError("expected an integer exponent at position %d" % pos)
            node = ("pow", node, sign * int(text), pos)
        return node

    def primary(self):
        kind, text, pos = self.next()
        if kind == "int":
            return ("int", int(text), pos)
        if kind == "name":
            if text == "O":
                self.expect_op("(")
                self.enter(pos)
                inner = self.expr()
                self.expect_op(")")
                self.depth -= 1
                return ("O", inner, pos)
            return ("name", text, pos)
        if kind == "op" and text == "(":
            self.enter(pos)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ParseError("unexpected %r at position %d" % (text or "end of input", pos))


def _eval(ast, dom):
    tag = ast[0]
    if tag == "int":
        return dom.from_int(ast[1])
    if tag == "name":
        return dom.atom(ast[1], ast[2])
    if tag == "neg":
        return dom.neg(_eval(ast[1], dom))
    if tag == "pow":
        return dom.power(_eval(ast[1], dom), ast[2], ast[3])
    if tag == "O":
        return dom.o_marker(ast[1], ast[2])
    # a chain a + b + c + ... nests to the left without bound, so walk its
    # left spine in a loop; only the right operands recurse
    spine = []
    while ast[0] == "bin":
        spine.append(ast)
        ast = ast[2]
    a = _eval(ast, dom)
    for _, op, _, r in reversed(spine):
        b = _eval(r, dom)
        if op == "+":
            a = dom.add(a, b)
        elif op == "-":
            a = dom.add(a, dom.neg(b))
        elif op == "*":
            a = dom.mul(a, b)
        else:
            a = dom.div(a, b)
    return a


def _o_shape(ast):
    """The (variable name, exponent) of a precision marker argument."""
    if ast[0] == "name":
        return ast[1], 1
    if ast[0] == "pow" and ast[1][0] == "name":
        return ast[1][1], ast[2]
    return None, None


class _Domain:
    """What the evaluation domains share: values lifted from the field
    (``lift``), the ring operators, division by an inverse, integer powers
    by repeated squaring, the name `zeta` of a cyclotomic field's root of
    unity and no precision markers.  A domain overrides what differs."""

    def __init__(self, field):
        self.field = field

    def from_int(self, n):
        return self.lift(self.field.from_int(n))

    def one(self):
        return self.from_int(1)

    def atom(self, name, pos):
        if name == "zeta" and self.field.kind == "cyclotomic":
            return self.lift(self.field.zeta())
        raise ParseError("unknown name %r at position %d" % (name, pos))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return self.mul(a, self.invert(b, 0))

    def power(self, v, k, pos):
        if k < 0:
            v = self.invert(v, pos)
            k = -k
        return binary_power(v, k, self.mul, self.one())

    def o_marker(self, ast, pos):
        raise ParseError("precision markers make no sense here (position %d)" % pos)


class ScalarDomain(_Domain):
    """Field elements."""

    def lift(self, c):
        return c

    def add(self, a, b):
        return self.field.add(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def invert(self, a, pos):
        return self.field.inv(a)


class SeriesDomain(_Domain):
    """Laurent series in one variable."""

    def __init__(self, field, var="t"):
        super().__init__(field)
        self.var = var

    def lift(self, c):
        return LaurentSeries.const(self.field, c)

    def atom(self, name, pos):
        if name == self.var:
            return LaurentSeries.variable(self.field)
        return super().atom(name, pos)

    def invert(self, a, pos):
        return a.mul_invert()

    def o_marker(self, ast, pos):
        name, exp = _o_shape(ast)
        if name != self.var:
            raise ParseError(
                "precision marker must be O(%s^N) (position %d)" % (self.var, pos)
            )
        return LaurentSeries.zero(self.field, exp)


class RuleDomain(_Domain):
    """Two-variable series sum_j c_j(t1) t2^j, coefficients written on the
    left; this is notation for the coefficient map, so evaluation commutes."""

    class Value:
        __slots__ = ("coeffs", "gprec")

        def __init__(self, coeffs, gprec=None):
            # zero-to-precision coefficients stay: they carry O(t1^N) markers
            self.coeffs = {j: s for j, s in coeffs.items() if not s.is_exact_zero()}
            self.gprec = gprec

    def lift(self, c):
        return RuleDomain.Value({0: LaurentSeries.const(self.field, c)})

    def atom(self, name, pos):
        if name == "t1":
            return RuleDomain.Value({0: LaurentSeries.variable(self.field)})
        if name == "t2":
            return RuleDomain.Value({1: LaurentSeries.const(self.field, self.field.one())})
        return super().atom(name, pos)

    def add(self, a, b):
        out = dict(a.coeffs)
        for j, s in b.coeffs.items():
            out[j] = out[j] + s if j in out else s
        return RuleDomain.Value(out, _unp(min(_p(a.gprec), _p(b.gprec))))

    def neg(self, a):
        return RuleDomain.Value({j: -s for j, s in a.coeffs.items()}, a.gprec)

    def mul(self, a, b):
        sums = {}
        for j, s in a.coeffs.items():
            for l, w in b.coeffs.items():
                file_product(sums, j + l, s, w)
        out = {m: sum_filed(self.field, entry) for m, entry in sums.items()}
        gp = None
        if a.gprec is not None:
            gp = a.gprec + (min(b.coeffs) if b.coeffs else 0)
        if b.gprec is not None:
            g2 = b.gprec + (min(a.coeffs) if a.coeffs else 0)
            gp = g2 if gp is None else min(gp, g2)
        return RuleDomain.Value(out, gp)

    def invert(self, a, pos):
        if list(a.coeffs) != [0]:
            raise ParseError(
                "only t2-free factors can be inverted in a rule (position %d)" % pos
            )
        return RuleDomain.Value({0: a.coeffs[0].mul_invert()})

    def o_marker(self, ast, pos):
        name, exp = _o_shape(ast)
        if name == "t2":
            return RuleDomain.Value({}, exp)
        if name == "t1":
            return RuleDomain.Value({0: LaurentSeries.zero(self.field, exp)})
        raise ParseError(
            "precision marker must be O(t1^N) or O(t2^N) (position %d)" % pos
        )


class PsidoDomain(_Domain):
    """Operators in X and D; products go through the composition rule."""

    def __init__(self, field, depth=None):
        super().__init__(field)
        self.depth = depth

    def lift(self, c):
        return PsiDO.from_series(self.field, LaurentSeries.const(self.field, c))

    def atom(self, name, pos):
        if name == "X":
            return PsiDO.x(self.field)
        if name == "D":
            return PsiDO.d(self.field)
        return super().atom(name, pos)

    def mul(self, a, b):
        return psido_compose(a, b, self.depth)

    def invert(self, a, pos):
        return psido_invert(a, self.depth)

    def o_marker(self, ast, pos):
        name, exp = _o_shape(ast)
        if name != "D":
            raise ParseError("precision marker must be O(D^N) (position %d)" % pos)
        return PsiDO.zero(self.field, exp)


class HeisDomain(_Domain):
    """Words in x, y, z over a descriptor; the word grammar has no zeta."""

    def __init__(self, descriptor):
        super().__init__(descriptor.field)
        self.descriptor = descriptor

    def from_int(self, n):
        return HeisenbergElement.monomial(
            self.descriptor, coeff=self.descriptor.from_int(n)
        )

    def atom(self, name, pos):
        if name in ("x", "y", "z"):
            return getattr(HeisenbergElement, name)(self.descriptor)
        if name == "u" and self.descriptor.series:
            return HeisenbergElement.monomial(
                self.descriptor, coeff=LaurentSeries.variable(self.descriptor.field)
            )
        raise ParseError("unknown name %r at position %d" % (name, pos))

    def _as_scalar(self, v):
        if list(v.levels) == [0] and list(v.levels[0]) == [(0, 0)]:
            return v.levels[0][(0, 0)]
        return None

    def div(self, a, b):
        c = self._as_scalar(b)
        if c is None:
            raise ParseError("only scalars can be divided by in this algebra")
        return a.scale(self.descriptor.inv(c))

    def invert(self, a, pos):
        c = self._as_scalar(a)
        if c is None:
            raise ParseError(
                "negative powers are not available in this algebra (position %d)" % pos
            )
        return HeisenbergElement.monomial(self.descriptor, coeff=self.descriptor.inv(c))


def _run(text, dom):
    return _eval(_Parser(text).parse(), dom)


def parse_scalar(text, field):
    return _run(text, ScalarDomain(field))


def parse_series(text, field, var="t", prec=None):
    s = _run(text, SeriesDomain(field, var))
    if prec is not None:
        s = s.truncate(prec)
    return s


def parse_psido(text, field, depth=None):
    return _run(text, PsidoDomain(field, depth))


def parse_heis(text, descriptor):
    return _run(text, HeisDomain(descriptor))


# -- rule files ---------------------------------------------------------------


def _prec_token(value):
    return "exact" if value is None else str(value)


def _parse_prec_token(key, text):
    if text == "exact":
        return None
    try:
        value = int(text)
    except ValueError:
        raise ParseError("bad %s precision %r: expected 'exact' or an integer" % (key, text))
    if value < 0:
        raise ParseError("%s precision must be >= 0, got %d" % (key, value))
    return value


def parse_rule_text(text):
    """Read a rule from its three-line textual form:

        field: Q
        prec: t1=exact t2=8
        C = t1 + t2
    """
    field = None
    precs = {"t1": None, "t2": None}
    c_value = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field:"):
            field = Field.from_text(line[len("field:"):])
            continue
        if line.startswith("prec:"):
            for part in line[len("prec:"):].split():
                if "=" not in part:
                    raise ParseError("bad precision entry %r" % part)
                key, val = part.split("=", 1)
                if key not in precs:
                    raise ParseError("unknown precision key %r" % key)
                precs[key] = _parse_prec_token(key, val)
            continue
        if line.startswith("C") and line.lstrip("C").lstrip().startswith("="):
            if field is None:
                raise ParseError("rule file must name its field before C")
            expr = line.split("=", 1)[1]
            c_value = _run(expr, RuleDomain(field))
            continue
        raise ParseError("unrecognized rule line %r" % line)
    if field is None:
        raise ParseError("rule file has no field line")
    if c_value is None:
        raise ParseError("rule file has no C line")
    gp = _unp(min(_p(c_value.gprec), _p(precs["t2"])))
    coeffs = c_value.coeffs
    if precs["t1"] is not None:
        coeffs = {j: s.truncate(precs["t1"]) for j, s in coeffs.items()}
    c0 = coeffs.get(0)
    if c0 is None or c0.is_zero() or (gp is not None and gp <= 0):
        raise ParseError("C needs a nonzero t2-free term c_0(t1)")
    return build_from_rule(field, coeffs, gp)


def rule_to_text(rule):
    # coefficient precision travels inside the C line as O(t1^N) markers,
    # so the prec line only repeats the t2 bound and caps nothing new
    lines = [
        "field: %s" % rule.field.name(),
        "prec: t1=exact t2=%s" % _prec_token(rule.t2_prec),
        "C = %s" % rule.format(),
    ]
    return "\n".join(lines) + "\n"
