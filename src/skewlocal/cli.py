"""Command line front-end.

Every subcommand reads expressions or rule files under the module grammars,
runs the library, and prints a deterministic report.  Diagnostics go to
stderr and the exit status is 0 exactly when no error occurred.

The --format structured mode emits stable `key = value` lines behind a
schema version header, for golden tests and scripting.
"""

import argparse
import os
import sys
from math import inf

from .autonorm import DiskAutomorphism, normalize
from .coeff import Field
from .dubrovin import Descriptor, valuation_w
from .errors import ParseError, SkewFieldError
from .parsing import (
    parse_heis,
    parse_psido,
    parse_rule_text,
    parse_scalar,
    parse_series,
    rule_to_text,
)
from .psido import to_skew
from .series import DEFAULT_PRECISION
from .skew import build_from_invariants, canonicalize, invariants, isomorphic

SCHEMA = "skewlocal/1"
PREC_ENV = "SKEWLOCAL_PREC"


def _at_least(value, name, least=0):
    """``value`` itself, or an error when it is set and below ``least``."""
    if value is not None and value < least:
        raise SkewFieldError("%s must be at least %d, got %d" % (name, least, value))
    return value


def _resolve_default_prec(flag_value, flag, least=0):
    """Precision to use and where it came from: flag beats the environment
    variable beats the built-in default.  Values below ``least`` are
    rejected."""
    if flag_value is not None:
        return _at_least(flag_value, flag, least), "command line"
    env = os.environ.get(PREC_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise SkewFieldError("%s must be an integer, got %r" % (PREC_ENV, env))
        return _at_least(value, PREC_ENV, least), PREC_ENV
    return DEFAULT_PRECISION, "default"


def _fmt(field, value):
    if value is None:
        return "none"
    if value == inf:
        return "infinity"
    if isinstance(value, int):
        return str(value)
    return field.format_element(value)


class _Report:
    """Collects key = value lines; text mode may add bare and comment lines."""

    def __init__(self, fmt):
        self.fmt = fmt
        self.lines = []
        if fmt == "structured":
            self.lines.append("schema = %s" % SCHEMA)

    def entry(self, key, value):
        self.lines.append("%s = %s" % (key, value))

    def bare(self, text):
        if self.fmt == "structured":
            raise AssertionError("bare lines are text-only")
        self.lines.append(text)

    def note(self, text):
        if self.fmt == "text":
            self.lines.append("# %s" % text)

    def emit(self):
        for line in self.lines:
            print(line)


def _read_rule(path, prec_t1, prec_t2):
    _at_least(prec_t1, "--prec-t1")
    _at_least(prec_t2, "--prec-t2")
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    rule = parse_rule_text(text)
    if prec_t1 is not None or prec_t2 is not None:
        t2 = prec_t2 if prec_t2 is not None else rule.t2_prec
        rule = rule.truncate(t2, prec_t1)
    return rule


def _invariant_entries(report, field, s):
    report.entry("n", _fmt(field, s.n))
    report.entry("xi", _fmt(field, s.xi))
    report.entry("i", _fmt(field, s.i))
    report.entry("r", _fmt(field, s.r))
    report.entry("c", _fmt(field, s.c))
    report.entry("a", _fmt(field, s.a))


def _cmd_autonorm(args, report):
    field = Field.from_text(args.field)
    prec, source = _resolve_default_prec(args.prec, "--prec", least=2)
    auto = DiskAutomorphism(parse_series(args.series, field, var="t", prec=prec))
    nf = normalize(auto, prec)
    report.entry("zeta", _fmt(field, nf.zeta))
    report.entry("n", _fmt(field, nf.n))
    report.entry("i_alpha", _fmt(field, nf.i_alpha))
    report.entry("x", _fmt(field, nf.x))
    report.entry("y", _fmt(field, nf.y))
    report.entry("x_class", _fmt(field, nf.x_class))
    report.entry("normal_form", nf.normal_form.image.format())
    report.entry("conjugator", nf.conjugator.image.format())
    if nf.precision < prec:
        source = "series"
    report.note("precision: t = %d (%s)" % (nf.precision, source))
    return 0


def _cmd_skew_invariants(args, report):
    rule = _read_rule(args.rule, args.prec_t1, args.prec_t2)
    s = invariants(rule)
    report.entry("field", rule.field.name())
    _invariant_entries(report, rule.field, s)
    report.note(
        "precision: t2 = %s (%s)"
        % (
            "exact" if rule.t2_prec is None else str(rule.t2_prec),
            "rule file" if args.prec_t2 is None else "command line",
        )
    )
    return 0


def _cmd_skew_canonicalize(args, report):
    rule = _read_rule(args.rule, args.prec_t1, args.prec_t2)
    s, canon, records = canonicalize(rule)
    report.entry("field", rule.field.name())
    _invariant_entries(report, rule.field, s)
    report.entry("changes", str(len(records)))
    report.entry("C", canon.format())
    return 0


def _cmd_skew_isomorphic(args, report):
    rule_a = _read_rule(args.rule, args.prec_t1, args.prec_t2)
    rule_b = _read_rule(args.other, args.prec_t1, args.prec_t2)
    report.entry("verdict", isomorphic(rule_a, rule_b))
    return 0


def _set_int(text, name):
    try:
        return int(text)
    except ValueError:
        raise ParseError("--set entry %s must be an integer, got %r" % (name, text))


def _parse_set(text, field):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 6):
        raise SkewFieldError(
            "--set needs n,xi,i,r,c,a (or n,xi,inf for infinite i), got %r" % text
        )
    n = _set_int(parts[0], "n")
    xi = parse_scalar(parts[1], field)
    if parts[2] in ("inf", "infinity"):
        return n, xi, inf, None, None, None
    i = _set_int(parts[2], "i")
    if len(parts) == 3:
        raise SkewFieldError("finite i needs the full set n,xi,i,r,c,a")
    r = _set_int(parts[3], "r")
    c = parse_scalar(parts[4], field)
    a = parse_scalar(parts[5], field)
    return n, xi, i, r, c, a


def _cmd_skew_construct(args, report):
    field = Field.from_text(args.field)
    n, xi, i, r, c, a = _parse_set(args.set, field)
    rule = build_from_invariants(field, n, xi, i, r, c, a)
    if report.fmt == "text":
        for line in rule_to_text(rule).splitlines():
            report.bare(line)
    else:
        report.entry("field", field.name())
        report.entry("C", rule.format())
    return 0


def _cmd_psido(args, report):
    field = Field.from_text(args.field)
    depth, source = _resolve_default_prec(args.depth, "--depth")
    value = parse_psido(args.expr, field, depth)
    report.entry("value", value.format())
    report.entry("order", _fmt(field, value.order()))
    if args.to_skew:
        rule = to_skew(field, depth)
        report.entry("sign", "t2 = -D^-1")
        report.entry("C", rule.format())
    report.note("depth: %d (%s)" % (depth, source))
    return 0


def _cmd_dubrovin(args, report):
    field = Field.from_text(args.field)
    descriptor = Descriptor(field, series=args.laurent)
    value = parse_heis(args.expr, descriptor)
    if report.fmt == "text":
        report.bare(value.format())
    else:
        report.entry("value", value.format())
    report.entry("w", _fmt(field, valuation_w(value)))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="skewlocal",
        description="split two-dimensional local skew fields: normal forms, "
        "invariants, operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="output style (default text)",
        )

    p = sub.add_parser("autonorm", help="normal form of a disk automorphism")
    p.add_argument("--field", default="Q")
    p.add_argument("--series", required=True, help="image of t, e.g. 't + t^2'")
    p.add_argument("--prec", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_autonorm)

    p = sub.add_parser("skew-invariants", help="classifying data of a rule file")
    p.add_argument("--rule", required=True, help="rule file path, or - for stdin")
    p.add_argument("--prec-t1", type=int, default=None)
    p.add_argument("--prec-t2", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_skew_invariants)

    p = sub.add_parser("skew-canonicalize", help="canonical form of a rule file")
    p.add_argument("--rule", required=True)
    p.add_argument("--prec-t1", type=int, default=None)
    p.add_argument("--prec-t2", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_skew_canonicalize)

    p = sub.add_parser("skew-isomorphic", help="compare two rule files")
    p.add_argument("--rule", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--prec-t1", type=int, default=None)
    p.add_argument("--prec-t2", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_skew_isomorphic)

    p = sub.add_parser("skew-construct", help="canonical rule from an invariant set")
    p.add_argument("--field", default="Q")
    p.add_argument("--set", required=True, help='"n,xi,i,r,c,a" or "n,xi,inf"')
    common(p)
    p.set_defaults(func=_cmd_skew_construct)

    p = sub.add_parser("psido", help="evaluate a pseudo-differential expression")
    p.add_argument("--field", default="Q")
    p.add_argument("--expr", required=True, help="e.g. 'D*X' or '(1 + D^-1)^-1'")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument(
        "--to-skew", action="store_true",
        help="also print the commutation rule induced by t2 = -D^-1",
    )
    common(p)
    p.set_defaults(func=_cmd_psido)

    p = sub.add_parser("dubrovin", help="normal form and valuation in the example algebra")
    p.add_argument("--field", default="Q")
    p.add_argument("--expr", required=True, help="word in x, y, z, e.g. 'y*x'")
    p.add_argument(
        "--laurent", action="store_true",
        help="coefficients are Laurent series in u instead of field elements",
    )
    common(p)
    p.set_defaults(func=_cmd_dubrovin)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = _Report(args.format)
    try:
        status = args.func(args, report)
    except SkewFieldError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    report.emit()
    return status


if __name__ == "__main__":
    sys.exit(main())
