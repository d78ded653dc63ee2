"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install()`` replaces the public functions of each skewlocal layer
with wrappers.  It patches every loaded ``skewlocal.*`` namespace that binds
the same function object, and the class attribute for methods, so calls made
inside the package are seen too.  ``uninstall()`` puts the originals back.

Spans (name, start, end, parent span, item id) are kept in memory in flat
arrays and written out once at the end.  Coefficient arithmetic (``Field``)
gets counters only: its calls are too small and too many for spans, and
their time shows up as the self time of the enclosing span.
"""

import sys
import time
from array import array
from functools import wraps

# layer name -> (module, attribute path) of the wrapped callable
SPANNED = {
    "series.mul": ("skewlocal.series", "LaurentSeries.__mul__"),
    "series.mul_invert": ("skewlocal.series", "LaurentSeries.mul_invert"),
    "series.compose": ("skewlocal.series", "LaurentSeries.compose"),
    "series.comp_invert": ("skewlocal.series", "LaurentSeries.comp_invert"),
    "autonorm.normalize": ("skewlocal.autonorm", "normalize"),
    "autonorm.conjugate": ("skewlocal.autonorm", "conjugate"),
    "skew.canonicalize": ("skewlocal.skew", "canonicalize"),
    "skew.change_t2": ("skewlocal.skew", "change_t2"),
    "skew.change_t1": ("skewlocal.skew", "change_t1"),
    "skew.mul": ("skewlocal.skew", "skew_mul"),
    "skew.invert": ("skewlocal.skew", "skew_invert"),
    "skew.twist": ("skewlocal.skew", "CommutationRule.twist"),
    "psido.compose": ("skewlocal.psido", "psido_compose"),
    "psido.invert": ("skewlocal.psido", "psido_invert"),
    "dubrovin.mul": ("skewlocal.dubrovin", "heis_mul"),
}
PARSERS = ("parse_scalar", "parse_series", "parse_psido", "parse_heis", "parse_rule_text")

# Field method -> counter slot
COEFF_COUNTERS = {
    "mul": 0, "add": 1, "sub": 1, "neg": 1, "inv": 2, "div": 2,
}

# per-layer metric names reported for every workload, in report order
LAYER_METRICS = (
    "coeff.mul.calls", "coeff.add.calls", "coeff.inv.calls",
    "coeff.cyclotomic_share", "coeff.height_bits",
    "series.mul.calls", "series.mul.products", "series.mul.self_s",
    "series.mul_invert.calls", "series.mul_invert.self_s",
    "series.compose.calls", "series.compose.self_s",
    "series.comp_invert.calls", "series.comp_invert.self_s",
    "autonorm.normalize.self_s",
    "autonorm.conjugate.calls", "autonorm.conjugate.self_s",
    "skew.change_t2.calls", "skew.change_t2.self_s",
    "skew.change_t1.calls", "skew.change_t1.self_s",
    "skew.records", "skew.rules_built",
    "skew.mul.calls", "skew.mul.self_s",
    "skew.invert.calls", "skew.invert.self_s",
    "skew.twist.calls", "skew.twist.self_s", "skew.twists_per_rule",
    "psido.compose.calls", "psido.compose.self_s",
    "psido.invert.calls", "psido.invert.self_s",
    "dubrovin.mul.calls", "dubrovin.mul.self_s",
    "parsing.calls", "parsing.bytes", "parsing.self_s",
    "trace.overhead_ratio",
)


def _resolve(module, path):
    owner = sys.modules[module]
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.stack = [-1]
        self.item = -1
        # coeff mul, add/sub/neg, inv/div, cyclotomic mul
        self.coeff = [0, 0, 0, 0]
        self.extra = {"series.mul.products": 0, "skew.records": 0,
                      "skew.rules_built": 0, "parsing.bytes": 0}
        # rules that received twist calls, kept alive so ids stay distinct
        self.twisted_rules = {}
        self._undo = []

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr, new):
        """Point owner.attr and every skewlocal namespace binding the same
        object at ``new``."""
        old = owner.__dict__[attr]
        targets = [(owner, attr)]
        for modname, mod in list(sys.modules.items()):
            if modname != "skewlocal" and not modname.startswith("skewlocal."):
                continue
            for name, val in list(vars(mod).items()):
                if val is old and (mod, name) != (owner, attr):
                    targets.append((mod, name))
        for obj, name in targets:
            setattr(obj, name, new)
            self._undo.append((obj, name, old))

    def install(self):
        for layer, (module, path) in SPANNED.items():
            owner, attr = _resolve(module, path)
            self._replace(owner, attr, self._span(layer, owner.__dict__[attr]))
        parsing = sys.modules["skewlocal.parsing"]
        for attr in PARSERS:
            self._replace(parsing, attr, self._span("parsing", getattr(parsing, attr)))
        field_cls = sys.modules["skewlocal.coeff"].Field
        for attr, slot in COEFF_COUNTERS.items():
            self._replace(field_cls, attr, self._count(slot, getattr(field_cls, attr)))
        rule_cls = sys.modules["skewlocal.skew"].CommutationRule
        self._replace(rule_cls, "__init__", self._count_rules(rule_cls.__init__))

    def uninstall(self):
        for obj, name, old in reversed(self._undo):
            setattr(obj, name, old)
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer, fn):
        code = self.name_ids.setdefault(layer, len(self.names))
        if code == len(self.names):
            self.names.append(layer)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, items, stack = self.span_parent, self.span_item, self.stack
        clock = time.perf_counter
        extra = self.extra
        twisted = self.twisted_rules
        tracer = self

        def note(args, result):
            # work counts that need the arguments or the result
            if layer == "series.mul":
                extra["series.mul.products"] += len(args[0].coeffs) * len(args[1].coeffs)
            elif layer == "parsing":
                extra["parsing.bytes"] += len(args[0])
            elif layer == "skew.canonicalize":
                extra["skew.records"] += len(result[2])
            elif layer == "skew.twist":
                twisted[id(args[0])] = args[0]

        needs_note = layer in ("series.mul", "parsing", "skew.canonicalize", "skew.twist")

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            items.append(tracer.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if needs_note:
                note(args, result)
            return result

        return wrapper

    def _count(self, slot, fn):
        counts = self.coeff
        if slot == 0:
            def mul(field, a, b):
                counts[0] += 1
                if field.kind == "cyclotomic":
                    counts[3] += 1
                return fn(field, a, b)
            return wraps(fn)(mul)

        @wraps(fn)
        def wrapper(*args):
            counts[slot] += 1
            return fn(*args)

        return wrapper

    def _count_rules(self, fn):
        extra = self.extra

        @wraps(fn)
        def wrapper(*args, **kwargs):
            extra["skew.rules_built"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per layer; self time is the span's duration
        minus the durations of its direct children."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for k in range(n):
            p = parents[k]
            if p >= 0:
                child[p] += ends[k] - starts[k]
        calls = {name: 0 for name in SPANNED}
        calls["parsing"] = 0
        self_s = dict.fromkeys(calls, 0.0)
        for k in range(n):
            name = self.names[self.span_name[k]]
            calls[name] += 1
            self_s[name] += ends[k] - starts[k] - child[k]
        return calls, self_s

    def layer_metrics(self, height_bits, overhead_ratio):
        calls, self_s = self.self_times()
        mul, add, inv, cyc = self.coeff
        out = {
            "coeff.mul.calls": (mul, "count"),
            "coeff.add.calls": (add, "count"),
            "coeff.inv.calls": (inv, "count"),
            "coeff.cyclotomic_share": (cyc / mul if mul else 0.0, "1"),
            "coeff.height_bits": (height_bits, "bits"),
            "skew.records": (self.extra["skew.records"], "count"),
            "skew.rules_built": (self.extra["skew.rules_built"], "count"),
            "series.mul.products": (self.extra["series.mul.products"], "count"),
            "parsing.calls": (calls["parsing"], "count"),
            "parsing.bytes": (self.extra["parsing.bytes"], "bytes"),
            "parsing.self_s": (self_s["parsing"], "s"),
            "trace.overhead_ratio": (overhead_ratio, "1"),
        }
        for layer in SPANNED:
            out.setdefault(layer + ".calls", (calls[layer], "count"))
            out.setdefault(layer + ".self_s", (self_s[layer], "s"))
        rules = len(self.twisted_rules)
        out["skew.twists_per_rule"] = (calls["skew.twist"] / rules if rules else 0.0, "1")
        return {name: out[name] for name in LAYER_METRICS}

    def write_spans(self, path):
        """One header line with the layer names, then one line per span:
        name id, start, end, parent span (-1 for none), item id."""
        with open(path, "w") as fh:
            fh.write("# names: %s\n" % " ".join(self.names))
            fh.write("# name start_s end_s parent item\n")
            for k in range(len(self.span_name)):
                fh.write("%d %.9f %.9f %d %d\n" % (
                    self.span_name[k], self.span_start[k], self.span_end[k],
                    self.span_parent[k], self.span_item[k]))


def height_bits(obj):
    """Largest numerator or denominator bit length inside a result."""
    best = 0
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, bool) or x is None:
            continue
        if isinstance(x, int):
            best = max(best, x.bit_length())
        elif hasattr(x, "denominator") and hasattr(x, "numerator"):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        else:
            for attr in ("coeffs", "terms", "levels", "image", "x", "y", "c", "a",
                         "conjugator", "normal_form"):
                val = getattr(x, attr, None)
                if val is not None and not callable(val):
                    stack.append(val)
    return best
