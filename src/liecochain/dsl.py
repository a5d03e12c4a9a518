"""Workspace description language: declarations of charts, function symbols,
Lie algebras, subgroups, fields, forms, chains, actions, points and check
directives, with source-span error reporting and a canonical renderer.

Declarations must appear before use (no forward references).  Scalar
subexpressions share one surface syntax (`K(z)`, `D(K(z),z)`, `p/q`, `^`);
`d(x)` is a form atom, `D(x)` a chain atom, and `^` between tensor atoms is
the wedge.

One walk, `load`, reports every error of syntax, names, kinds, degrees,
charts, duplicates, check directives and nesting at once.  Its expression
grammar reads by precedence level, the token index in a local variable: a
polynomial stays a list of terms, d(x) and D(x) stay coefficient maps, and
every other operation goes on its declaration's tape.  Each field, form,
chain and action is built on first read: the tape runs in text order on
{index tuple: ScalarExpr} maps, and the tensor is made once.  An error of
value (a zero divisor, a power, sum or derivative over its work budget) is
reported then.  `parse` is `load` and a read of every declaration in text
order.
"""

from __future__ import annotations

import functools
import operator
import re
import sys
from fractions import Fraction

from . import chart_calculus as cc
from . import scalar_field as sf
from .action_analysis import ActionSpec
from .lie_cohomology import MAX_COCHAINS, AltForm, LieAlgebra, SubgroupSpec
from .linalg import _accumulate, _Frozen, _Record


class SourceSpan(_Frozen):
    """Never changed once made; compared and hashed by its four fields."""

    __slots__ = ("file", "line", "column", "length")   # line and column are 1-based

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, message, span=None):
        super().__init__(f"{span}: {message}" if span else message)
        self.message = message
        self.span = span


class UnknownReference(ParseError):
    pass


class ArityMismatch(ParseError):
    pass


class DuplicateName(ParseError):
    pass


_KEYWORDS = {
    "lie_algebra", "subgroup", "chart", "function", "vectorfield", "form",
    "chain", "action", "point", "check", "on", "of", "dim", "bracket",
    "span", "component", "coords", "generators", "orbit_dim", "algebra",
}
_RESERVED = _KEYWORDS | {"d", "D", "wedge"}

# One match per token: the blanks and comments before it, then the token:
# a name, an integer, an operator, any other character (an error), or ""
# at the end of the text.  Each match starts where the last one ended.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*"
                       r"([A-Za-z_][A-Za-z_0-9]*|[0-9]+|[{}\[\]()=,+\-*/^]|.|\Z)")
_BAD_RE = re.compile(r"[^A-Za-z_0-9{}\[\]()=,+\-*/^]")


def _tokenize(text, file):
    """The token texts of `text`, then at least two "" for its end, so that
    a look one token ahead stays in range.  A name is a token that
    `str.isidentifier` accepts, an integer one that `str.isdigit` does; an
    integer has at most the digits that `int` reads, which only a text
    longer than that can exceed."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    if _BAD_RE.search("".join(tokens)):
        i = next(i for i, t in enumerate(tokens) if _BAD_RE.match(t))
        raise ParseError(f"unexpected character {tokens[i]!r}", _Source(text, file).span(i))
    limit = getattr(sys, "get_int_max_str_digits", int)()   # 0: no limit, as before 3.10.7
    if limit and len(text) > limit and max(map(len, tokens)) > limit:
        for i, t in enumerate(tokens):
            if len(t) > limit and t.isdigit():
                raise ParseError(f"integer of {len(t)} digits, over the limit of {limit}",
                                 _Source(text, file).span(i))
    return tokens


class _Source(_Frozen):
    """_Source(text, file): a workspace text and its file name; where each
    token is, found only when an error needs a span."""

    __slots__ = ("text", "file")

    def span(self, i):
        """The span of token i; the end of the text is placed just after
        the last token."""
        start, length, end = 0, 1, 0
        for k, m in enumerate(_TOKEN_RE.finditer(self.text)):
            token = m.group(1)
            if k == i or not token:
                start, length = (m.start(1), len(token)) if token else (end, 1)
                break
            end = m.end(1)
        line = self.text.count("\n", 0, start) + 1
        return SourceSpan(self.file, line, start - self.text.rfind("\n", 0, start), length)


# ---------------------------------------------------------------------------
# workspace model


class _Pending:
    """A field, form or chain not built yet: its kind, degree and chart, and
    its tape, the operations on values in text order.  Each (fn, at, a, b)
    is fn(a, b), a ScalarError or ChartError reported at token `at`; an
    operand is a polynomial's terms, a map {index tuple: ScalarExpr}, an
    earlier operation's value by its place, or a plain argument, and fn None
    reads declaration a, whose value each name shares.  The tensor is made
    once, from `result`."""

    __slots__ = ("kind", "degree", "chart", "cls", "tape", "result", "source", "value")

    def __init__(self, cls, degree, chart, tape, result, source):
        self.kind, self.degree, self.chart, self.cls = cls.kind, degree, chart, cls
        self.tape, self.result, self.source, self.value = tape, result, source, None

    def build(self):
        """The value: each tape runs in order, on an explicit stack of the
        declarations being built, so nothing recurses however long the chain
        of names; an operation's value is held until its declaration is built."""
        stack = [(self, [])] if self.value is None else []
        while stack:
            decl, values = stack[-1]
            tape = decl.tape
            while len(values) < len(tape):
                fn, at, a, b = tape[len(values)]
                if fn is None:
                    if a.value is None:
                        stack.append((a, []))
                        break
                    values.append(a.value.coeffs)
                    continue
                try:
                    values.append(fn(_operand(a, values), _operand(b, values)))
                except (sf.ScalarError, cc.ChartError) as exc:
                    raise ParseError(str(exc), decl.source.span(at)) from None
            else:
                stack.pop()
                value = _operand(decl.result, values)
                decl.value = decl.cls._of(decl.chart, decl.degree,
                                          value if value.__class__ is dict else {(): value})
        return self.value


def _operand(x, values):
    cls = x.__class__
    return values[x] if cls is int else sf.polynomial(x) if cls is list else x


# The operations on the tape: scalars are ScalarExprs, tensors maps, and a
# scalar joins a sum as the map of degree 0.  Each rule computes what the
# AltTensor operation computes, coefficient by coefficient, in its order,
# but not as one: an AltTensor sorts its terms and drops zeros after every
# operation, and multiplies by the unit coefficient of each d(x) or D(x);
# these rules skip both, and the tensor is made once.  A tape of AltTensor
# operations made `cli_workspaces` about 9 % slower in process (best-of
# sums of 62.3/64.9/64.5 ms against 56.9/58.9/58.8 ms, 2-vCPU host).

def _scale(f, t):
    return {idx: f if c is sf.ONE else f * c for idx, c in t.items()}


def _add(a, b):
    out = dict(a) if a.__class__ is dict else {(): a}
    for idx, c in sorted(b.items()) if b.__class__ is dict else (((), b),):
        out[idx] = out[idx] + c if idx in out else c
    return out


def _negate(v, _):
    """-v for a map, a polynomial's terms, or a ScalarExpr."""
    if v.__class__ is list:
        return [(-c, m) for c, m in v]
    return {idx: -c for idx, c in v.items()} if v.__class__ is dict else -v


def _subtract(a, b):
    return _add(a, _negate(b, None))


def _wedge(s, t):
    return _accumulate((i + j, x if y is sf.ONE else y if x is sf.ONE else x * y)
                       for i, x in sorted(s.items()) for j, y in sorted(t.items())
                       if set(i).isdisjoint(j))


def _invert(f, _):
    if f.is_zero():
        raise sf.DivisionByZeroExpr("division by zero")
    return sf.ONE / f


class _Store(dict):
    """The fields, forms or chains of a loaded workspace: each is built when
    `store[name]` first reads it, and kept."""

    def __getitem__(self, name):
        value = dict.__getitem__(self, name)
        if value.__class__ is _Pending:
            value = value.build()
            dict.__setitem__(self, name, value)
        return value


class SubgroupDecl(_Record):
    def __init__(self, algebra, spec):
        self.algebra = algebra
        self.spec = spec             # its basis holds the span's unit vectors as written


class ActionDecl(_Record):
    """Compared by what was written: not by `build`, or `spec` once read."""

    _uncompared = ("build", "spec")

    def __init__(self, algebra, chart, generators, orbit_dim, build):
        self.algebra = algebra
        self.chart = chart
        self.generators = generators     # vector field names
        self.orbit_dim = orbit_dim
        self.build = build               # () -> `spec`

    @functools.cached_property
    def spec(self):
        """The ActionSpec, built when first read."""
        return self.build()


class CheckDecl(_Record):
    """Compared by what was written, not by `where`."""

    _uncompared = ("where",)

    def __init__(self, kind, values, where):
        self.kind = kind
        self.values = values     # slot name -> name, integer or tuple of names
        self.where = where       # () -> the span of the kind

    @property
    def span(self):
        return self.where()


OBJECT_KINDS = ("form", "field", "chain")   # what an `object` reference names
_STORES = {"lie_algebra": "lie_algebras", "subgroup": "subgroups", "action": "actions",
           "point": "points", "form": "forms", "field": "vector_fields", "chain": "chains"}


class Workspace(_Record):
    """Every store starts empty; fields, forms and chains are `_Store`s.
    Compared by the stores, not by `source_name`."""

    _uncompared = ("source_name",)

    def __init__(self, source_name="<input>"):
        self.source_name = source_name
        self.charts = {}
        self.functions = {}      # name -> argument names
        self.lie_algebras = {}
        self.subgroups = {}
        self.vector_fields = _Store()
        self.forms = _Store()
        self.chains = _Store()
        self.actions = {}
        self.points = {}         # name -> (chart name, tuple)
        self.tensor_charts = {}  # field, form or chain -> chart name
        self.checks = []
        self.order = []          # (kind, name-or-index)

    def store(self, kind):
        """The declarations of a reference kind of `CHECKS`, by name."""
        return getattr(self, _STORES[kind])

    def find_object(self, name, kinds=OBJECT_KINDS):
        """(kind, entry) for the declaration of `name` among `kinds`, which
        are reference kinds of `CHECKS`: KeyError if none declares it.  The
        entry is as stored, so a field, form or chain that `load` left
        unbuilt is a `_Pending`; `store(kind)[name]` builds it."""
        for kind in kinds:
            store = self.store(kind)
            if name in store:
                return kind, dict.__getitem__(store, name)
        raise KeyError(name)


# ---------------------------------------------------------------------------
# the checks


class Slot:
    """One argument of a check: the command line's `--name` flag, and in a
    `check` directive a positional argument or the keyword list `name=[...]`."""

    def __init__(self, name, ref, count="1"):
        self.name = name
        self.ref = ref  # lie_algebra, subgroup, int, action, point, object, chain, form or field
        self.count = count  # "1" exactly one, "?" at most one, "*" any number, "+" at least one

    @property
    def many(self):
        return self.count in "*+"


class Check:
    def __init__(self, slots, command=()):
        self.slots = slots
        self.command = command   # the command-line words; () for a check with no command

    @functools.cached_property
    def positional(self):
        """How many slots a directive writes positionally: the single slots
        before the first list; every later slot is a keyword list, holding
        exactly one name for a single slot."""
        return next((i for i, s in enumerate(self.slots) if s.many), len(self.slots))


_ACTION = Slot("action", "action")
_CHAIN = Slot("chain", "chain")
_FORM = Slot("form", "form")
_FIELDS = Slot("fields", "field", "*")
_POINTS = Slot("points", "point", "*")

# Every check's arguments, for the workspace parser and the command line.
# An action or algebra comes first where there is one: each point must lie
# on the action's chart, and each subgroup be of its algebra.
CHECKS = {
    "validate": Check((), ("validate",)),
    "cohomology": Check((Slot("algebra", "lie_algebra"), Slot("subgroup", "subgroup", "?"),
                         Slot("degree", "int")), ("cohomology",)),
    "isotropy": Check((_ACTION, Slot("point", "point")), ("isotropy",)),
    "invariant": Check((_ACTION, Slot("object", "object")), ("check", "invariant")),
    "vertical": Check((_ACTION, Slot("object", "chain"), _POINTS), ("check", "vertical")),
    "semibasic": Check((_ACTION, Slot("object", "form")), ("check", "semibasic")),
    "cochain": Check((_ACTION, _CHAIN, Slot("forms", "form", "*"), _FIELDS, _POINTS),
                     ("check", "cochain")),
    "rho": Check((_ACTION, _CHAIN, _FORM, _POINTS), ("rho",)),
    "lambda": Check((_ACTION, _CHAIN, Slot("field", "field"), _POINTS)),
    "surjective": Check((_ACTION, _CHAIN, _FORM, _POINTS), ("certify", "surjective")),
    "integrability": Check((_ACTION, _CHAIN, _FIELDS, _POINTS)),
    "rescale": Check((_ACTION, _CHAIN, _FORM, _FIELDS, _POINTS)),
    "report": Check((_ACTION, Slot("points", "point", "+"),
                     Slot("components", "subgroup", "?")), ("report",)),
}


def resolve_check(ws, kind, values, fail, read=True):
    """The declarations named by the arguments of check `kind`, by slot name:
    None for an absent single slot, a list for a list slot, and (kind,
    value) for an `object` slot.

    `values` maps slot names to what was written: a name, an integer or a
    sequence of names.  Every point must lie on the action's chart, and
    every subgroup be of the action's or the named algebra.  A bad name is
    reported by `fail(cls, message, slot name, index in the slot)`, which
    raises the caller's error.  Only the declarations returned are built;
    with `read=False` the names are checked and nothing is built.
    """
    out, home = {}, {}   # home: the action's chart and the algebra, once known
    for slot in CHECKS[kind].slots:
        given = values.get(slot.name)
        if slot.many:
            out[slot.name] = [_resolve(ws, slot, name, i, home, fail, read)
                              for i, name in enumerate(given or ())]
        else:
            out[slot.name] = (None if given is None
                              else _resolve(ws, slot, given, 0, home, fail, read))
        if slot.ref == "action" and given is not None:
            decl = ws.actions[given]
            home = {"chart": ws.charts[decl.chart], "algebra": decl.algebra}
        elif slot.ref == "lie_algebra" and given is not None:
            home = {"algebra": given}
    return out


def _resolve(ws, slot, name, index, home, fail, read):
    if slot.ref == "int":
        return name
    kinds = OBJECT_KINDS if slot.ref == "object" else (slot.ref,)
    try:
        kind, entry = ws.find_object(name, kinds)
    except KeyError:
        fail(UnknownReference, f"unknown {'/'.join(kinds)} {name!r}", slot.name, index)
    if "chart" in home and kind in ("point", *OBJECT_KINDS):
        if (ws.charts[entry[0]] if kind == "point" else entry.chart) != home["chart"]:
            fail(ArityMismatch, f"{kind} {name!r} is not on the action's chart",
                 slot.name, index)
    if slot.ref == "subgroup" and "algebra" in home and entry.algebra != home["algebra"]:
        fail(ArityMismatch, f"subgroup {name!r} is not a subgroup of {home['algebra']!r}",
             slot.name, index)
    if not read:
        return None
    if slot.ref == "point":
        return entry[1]
    value = ws.store(kind)[name]
    return (kind, value) if slot.ref == "object" else value


# ---------------------------------------------------------------------------
# parser


# declaration keyword -> (its noun, the tensor class, the Workspace store)
_TENSOR_DECLS = {
    "vectorfield": ("a vector field", cc.MultiVectorField, "vector_fields"),
    "form": ("a form", cc.DiffForm, "forms"),
    "chain": ("a chain", cc.MultiVectorField, "chains"),
}
MAX_NESTING = 100   # atoms open at once in an expression: (, unary -, D(..., x), wedge


class _Parser:
    """The walk over one text.  A token is its text in `tokens`, found by
    its index; "" is the end of the text."""

    def __init__(self, text, file):
        self.tokens = _tokenize(text, file)
        self.i = self.depth = 0   # depth: the atoms being read
        self.source = _Source(text, file)
        self.ws = Workspace(file)
        self.names = {}  # declared name or chart coordinate -> its kind
        self.symbols = {}   # function name -> its FunctionSymbol
        self.chart = self.rhs_start = None   # of the tensor being declared

    # -- token plumbing --------------------------------------------------

    def peek(self, offset=0):
        return self.tokens[self.i + offset]

    def error(self, message, at=None, cls=ParseError):
        raise cls(message, self.source.span(self.i if at is None else at))

    def expect(self, *texts, what=None, test=None):
        """Step past tokens that must be the texts in turn, or one that must
        pass `test`, else an error naming `what` was expected; the index of
        the last."""
        for text in texts or (None,):
            i, tok = self.i, self.tokens[self.i]
            if not (test(tok) if test else tok == text):
                self.error(f"expected {what or repr(text)}, found {tok!r}")
            self.i = i + 1
        return i

    def expect_int(self, what="an integer"):
        return int(self.tokens[self.expect(what=what, test=str.isdigit)])

    def expect_name(self, what="a name"):
        return self.expect(what=what, test=str.isidentifier)

    def declare(self, store, name_at, value, kind):
        name = self.tokens[name_at]
        if name in _RESERVED:
            self.error(f"{name!r} is reserved and cannot name a {kind}", name_at)
        held = self.names.get(name)
        if held == kind:
            self.error(f"duplicate {kind} name {name!r}", name_at, DuplicateName)
        if held:
            self.error(f"{name!r} already names a {held}", name_at, DuplicateName)
        self.names[name] = kind
        store[name] = value
        self.ws.order.append((kind, name))

    def lookup(self, store, name_at, kind):
        """The declaration named by token `name_at`, as stored: not built."""
        name = self.tokens[name_at]
        if name not in store:
            self.error(f"unknown {kind} {name!r}", name_at, UnknownReference)
        return dict.__getitem__(store, name)

    def comma_list(self, open_text, item, close_text, empty=False):
        """`item()` for each entry of a comma-separated list between the
        tokens `open_text` and `close_text`; an empty list only if `empty`."""
        self.expect(open_text)
        items = []
        if not (empty and self.peek() == close_text):
            items.append(item())
            while self.peek() == ",":
                self.i += 1
                items.append(item())
        self.expect(close_text)
        return items

    def rational(self):
        neg = self.peek() == "-"
        self.i += neg
        num, den = self.expect_int("a rational number"), 1
        if self.peek() == "/":
            den_at = self.i = self.i + 1
            den = self.expect_int("a denominator")
            if den == 0:
                self.error("zero denominator", den_at)
        return Fraction(-num if neg else num, den)

    # -- entry -------------------------------------------------------------

    def parse_file(self):
        handlers = {"lie_algebra": self.parse_lie_algebra, "subgroup": self.parse_subgroup,
                    "chart": self.parse_chart, "function": self.parse_function,
                    "action": self.parse_action, "point": self.parse_point,
                    "check": self.parse_check, **dict.fromkeys(_TENSOR_DECLS, self.parse_tensor)}
        while self.peek():
            handler = handlers.get(self.peek())
            if handler is None:
                self.error(f"expected a declaration keyword, found {self.peek()!r}")
            handler()
        return self.ws

    # -- declarations -------------------------------------------------------

    def parse_lie_algebra(self):
        self.expect("lie_algebra")
        name_at = self.expect_name("an algebra name")
        self.expect("{", "dim")
        dim_at, dim = self.i, self.expect_int("the dimension")
        if dim < 1:
            self.error("dimension must be positive", dim_at)
        brackets = {}
        while self.peek() == "bracket":
            self.expect("bracket", "[")
            i_at, i = self.i, self.expect_int("a basis index")
            self.expect(",")
            j_at, j = self.i, self.expect_int("a basis index")
            self.expect("]")
            if not 1 <= i <= dim or not 1 <= j <= dim:
                self.error("basis index out of range", i_at if not 1 <= i <= dim else j_at)
            if i >= j:
                self.error("bracket indices must satisfy i < j (antisymmetry fixes the rest)",
                           i_at)
            if (i - 1, j - 1) in brackets:
                self.error(f"duplicate bracket [{i},{j}]", i_at, DuplicateName)
            self.expect("=")
            brackets[(i - 1, j - 1)] = self.parse_lincomb(dim)
        self.expect("}")
        self.declare(self.ws.lie_algebras, name_at, LieAlgebra(dim, brackets), "lie_algebra")

    def parse_lincomb(self, dim):
        """Linear combination of basis symbols e1..ep with rational coefficients."""
        out, first = {}, True
        while True:
            sign = self.peek()
            if sign == "+" and first:
                self.error("a linear combination cannot start with '+'")
            self.i += sign in ("+", "-")
            coeff = Fraction(1)
            if self.peek().isdigit():
                coeff = self.rational()
                self.expect("*", what="'*' before the basis symbol")
            at = self.expect_name("a basis symbol e1..e%d" % dim)
            # an index with more digits than dim is out of range and never read
            m = re.fullmatch(r"e0*([1-9][0-9]*)", self.tokens[at])
            if not m or len(m.group(1)) > len(str(dim)) or int(m.group(1)) > dim:
                self.error(f"expected a basis symbol e1..e{dim}", at)
            k = int(m.group(1)) - 1
            out[k] = out.get(k, Fraction(0)) + (-coeff if sign == "-" else coeff)
            first = False
            if self.peek() not in {"+", "-"}:
                break
        return {k: c for k, c in out.items() if c != 0}

    def parse_subgroup(self):
        self.expect("subgroup")
        name_at = self.expect_name("a subgroup name")
        self.expect("of")
        alg_at = self.expect_name("an algebra name")
        algebra = self.lookup(self.ws.lie_algebras, alg_at, "lie_algebra")
        if algebra.dim > MAX_COCHAINS:   # one of C(dim, r - 1..r + 1) is at least dim
            self.error(f"{self.tokens[alg_at]!r} takes no subgroup: at dimension {algebra.dim} "
                       f"each degree of cohomology needs over {MAX_COCHAINS} cochains", alg_at)
        self.expect("{", "span", "=")
        indices = []

        def index():
            at, idx = self.i, self.expect_int("a basis index")
            if not 1 <= idx <= algebra.dim:
                self.error("basis index out of range", at)
            if idx in indices:
                self.error(f"repeated index {idx} in span", at, DuplicateName)
            indices.append(idx)
        self.comma_list("[", index, "]", empty=True)
        components = []
        while self.peek() == "component":
            self.i += 1
            components.append(self.parse_matrix(algebra.dim))
        self.expect("}")
        # unit vectors of ints: a Fraction per entry would cost span * dim of them
        basis = tuple(tuple(int(k == idx) for k in range(1, algebra.dim + 1)) for idx in indices)
        spec = SubgroupSpec(basis, tuple(tuple(map(tuple, m)) for m in components))
        self.declare(self.ws.subgroups, name_at, SubgroupDecl(self.tokens[alg_at], spec),
                     "subgroup")

    def parse_matrix(self, dim):
        open_at = self.i
        rows = self.comma_list("[", lambda: self.comma_list("[", self.rational, "]"), "]")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            self.error(f"component matrix must be {dim}x{dim}", open_at, ArityMismatch)
        return rows

    def parse_chart(self):
        self.expect("chart")
        name_at = self.expect_name("a chart name")
        self.expect("{", "coords", "=")
        coords = []

        def coordinate():
            at = self.expect_name("a coordinate name")
            name = self.tokens[at]
            if name in _RESERVED:
                self.error(f"{name!r} is reserved and cannot be a coordinate", at)
            if name in coords:
                self.error(f"repeated coordinate {name!r}", at, DuplicateName)
            held = self.names.get(name)
            if held not in (None, "coordinate"):
                self.error(f"{name!r} already names a {held}", at, DuplicateName)
            coords.append(name)
        self.comma_list("[", coordinate, "]")
        self.expect("}")
        for c in coords:
            self.names[c] = "coordinate"
        self.declare(self.ws.charts, name_at, cc.Chart(tuple(coords)), "chart")

    def parse_function(self):
        self.expect("function")
        name_at = self.expect_name("a function name")
        args = self._arguments()
        known = {c for chart in self.ws.charts.values() for c in chart.coordinates}
        for a in args:
            if a not in known:
                self.error(f"unknown coordinate {a!r} in function declaration",
                           name_at, UnknownReference)
        if len(set(args)) != len(args):
            self.error("function arguments must be distinct", name_at, DuplicateName)
        self.declare(self.ws.functions, name_at, args, "function")
        name = self.tokens[name_at]
        self.symbols[name] = sf.FunctionSymbol(name, args, (0,) * len(args))

    def _arguments(self):
        """The coordinate names in parentheses after a function's name."""
        return tuple(self.comma_list(
            "(", lambda: self.tokens[self.expect_name("a coordinate name")], ")"))

    def parse_tensor(self):
        keyword = self.tokens[self.expect_name()]
        noun, cls, store = _TENSOR_DECLS[keyword]
        name_at = self.expect_name(f"{noun} name")
        self.expect("on")
        chart_at = self.expect_name("a chart name")
        chart = self.lookup(self.ws.charts, chart_at, "chart")
        self.expect("=")
        self.chart, self.rhs_start, self.tape = chart, self.i, []
        self.coords = {c: k for k, c in enumerate(chart.coordinates)}
        kind, degree, value, self.i = self._expr(self.i)
        if keyword == "vectorfield":
            if kind != "chain" or degree != 1:
                self.error("a vector field needs D(coordinate) terms" if kind == "scalar"
                           else "a vector field must be a degree-1 chain expression",
                           name_at, ArityMismatch)
        elif kind != "scalar" and kind != cls.kind:
            self.error(f"{noun} cannot contain {kind} atoms", name_at, ArityMismatch)
        self.declare(getattr(self.ws, store), name_at,
                     _Pending(cls, degree, chart, self.tape, value, self.source), keyword)
        self.ws.tensor_charts[self.tokens[name_at]] = self.tokens[chart_at]

    def parse_action(self):
        self.expect("action")
        name_at = self.expect_name("an action name")
        self.expect("{", "algebra")
        alg_at = self.expect_name("an algebra name")
        algebra = self.lookup(self.ws.lie_algebras, alg_at, "lie_algebra")
        self.expect("chart")
        chart_at = self.expect_name("a chart name")
        chart = self.lookup(self.ws.charts, chart_at, "chart")
        self.expect("generators", "=")

        def generator():
            at = self.expect_name("a vector field name")
            if self.lookup(self.ws.vector_fields, at, "vectorfield").chart != chart:
                self.error(f"generator {self.tokens[at]!r} lives on a different chart",
                           at, ArityMismatch)
            return self.tokens[at]
        names = tuple(self.comma_list("[", generator, "]"))
        self.expect("orbit_dim")
        q_at, q = self.i, self.expect_int("the orbit dimension")
        self.expect("}")
        if len(names) != algebra.dim:
            self.error(f"need {algebra.dim} generators for {self.tokens[alg_at]!r}, "
                       f"got {len(names)}", name_at, ArityMismatch)
        if not 1 <= q <= min(algebra.dim, chart.dim):
            self.error("orbit dimension out of range", q_at, ArityMismatch)
        fields = self.ws.vector_fields
        decl = ActionDecl(self.tokens[alg_at], self.tokens[chart_at], names, q,
                          lambda: ActionSpec(chart, algebra, tuple(fields[g] for g in names), q))
        self.declare(self.ws.actions, name_at, decl, "action")

    def parse_point(self):
        self.expect("point")
        name_at = self.expect_name("a point name")
        self.expect("on")
        chart_at = self.expect_name("a chart name")
        chart = self.lookup(self.ws.charts, chart_at, "chart")
        self.expect("=")
        open_at = self.i
        values = self.comma_list("(", self.rational, ")")
        if len(values) != chart.dim:
            self.error(f"point needs {chart.dim} coordinates, got {len(values)}",
                       open_at, ArityMismatch)
        self.declare(self.ws.points, name_at, (self.tokens[chart_at], tuple(values)), "point")

    # -- tensor/scalar expressions -----------------------------------------
    #
    # An expression is read by precedence level, the token index local, into
    # (kind "scalar", "form" or "chain", degree, operand of `_Pending`, index
    # after it).  Polynomials stay terms where combining them cannot fail: a
    # sum, a product with a one-term factor, a unit monomial's power within
    # budget, a nonzero constant divisor.  d(x), D(x) and their wedges stay
    # maps; every other operation goes on the tape.

    def _here(self, i):
        """Token i, or at the end of the text the start of the right-hand side."""
        return i if self.tokens[i] else self.rhs_start

    def _put(self, fn, at, a, b=None):
        self.tape.append((fn, at, a, b))
        return len(self.tape) - 1

    def _need(self, i, text):
        if self.tokens[i] != text:
            self.error(f"expected {text!r}, found {self.tokens[i]!r}", i)
        return i + 1

    def _expr(self, i):
        """Sums of products of factors."""
        toks, left = self.tokens, None
        while True:
            kind, degree, value, i = self._factor(i)
            while (tok := toks[i]) == "*" or tok == "/":
                at = i
                k, d, v, i = self._factor(i + 1, at if tok == "/" else None)
                kind, degree, value = self._product(kind, degree, value, at, k, d, v, i)
            if left:
                kind, degree, value = self._sum(*left, kind, degree, value, i)
            if (tok := toks[i]) != "+" and tok != "-":
                return kind, degree, value, i
            left, i = (kind, degree, value, i), i + 1

    def _sum(self, ka, da, a, op_at, kb, db, b, i):
        """a + b, or a - b; a scalar joins a tensor of degree 0."""
        fns = (operator.add, operator.sub) if ka == kb == "scalar" else (_add, _subtract)
        negate = self.tokens[op_at] == "-"
        if ka == kb == "scalar":
            if a.__class__ is list and b.__class__ is list:
                return ka, 0, a + (_negate(b, None) if negate else b)
        elif "scalar" in (ka, kb):
            ka, da = (kb, db) if ka == "scalar" else (ka, da)
            if da:
                self.error(f"cannot add a scalar and a {ka} of degree {da}", op_at,
                           ArityMismatch)
        elif ka != kb:
            self.error("cannot add a form and a chain", op_at, ArityMismatch)
        elif da != db:
            self.error(f"cannot add degrees {da} and {db}", op_at, ArityMismatch)
        return ka, da, self._put(fns[negate], self._here(i), a, b)

    def _product(self, ka, da, a, op_at, kb, db, b, i):
        if ka == kb == "scalar":
            if a.__class__ is list and b.__class__ is list and (len(a) == 1 or len(b) == 1):
                return ka, 0, [(x * y, m + n) for x, m in a for y, n in b]
            return ka, 0, self._put(operator.mul, self._here(i), a, b)
        if ka == "scalar":
            return kb, db, self._put(_scale, self._here(i), a, b)
        if kb == "scalar":
            return ka, da, self._put(_scale, self._here(i), b, a)
        self.error("use '^' to wedge tensors, '*' is for scalar factors", op_at, ArityMismatch)

    def _factor(self, i, divide_at=None):
        """An atom with postfix ^: integer power on scalars, wedge on tensors.

        After '/' at `divide_at` the atom must be a scalar and is inverted
        before its powers, so that a / b^e reads as a * b^-e and a factored
        denominator parses back factor by factor.
        """
        toks = self.tokens
        kind, degree, value, i = self._atom(i)
        if divide_at is not None:
            if kind != "scalar":
                self.error("can only divide by a scalar", divide_at, ArityMismatch)
            if value.__class__ is list and not any(m for _, m in value) \
                    and (c := sum(x for x, _ in value)):
                value = [(Fraction(1) / c, ())]
            else:
                value = self._put(_invert, divide_at, value)
        while toks[i] == "^":
            op_at, i = i, i + 1
            if kind != "scalar":
                k, d, v, i = self._atom(i)
                if k == "scalar":
                    self.error("cannot wedge with a scalar", op_at, ArityMismatch)
                if k != kind:
                    self.error("cannot wedge a form with a chain", op_at, ArityMismatch)
                degree, value = self._wedge(degree + d, value, v, i)
                continue
            sign = -1 if toks[i] == "-" else 1
            i += sign < 0
            if not toks[i].isdigit():
                self.error("power of a scalar needs an integer exponent", i)
            e, i = sign * int(toks[i]), i + 1
            if value.__class__ is list and len(value) == 1 and value[0][0] in (1, -1) \
                    and 0 <= e <= sf.MAX_EXPONENT:   # the bound of `**` on a monomial
                (c, m), = value
                value = [(c ** e, tuple((v, k * e) for v, k in m) if e else ())]
            else:
                value = self._put(lambda f, _, e=e: f ** e, self._here(i), value)
        return kind, degree, value, i

    def _wedge(self, degree, a, b, i):
        if degree > self.chart.dim:   # the error AltTensor.wedge raises
            self.error("wedge degree exceeds chart dimension", self._here(i))
        if a.__class__ is dict and b.__class__ is dict:   # basis atoms: one term, no sum
            return degree, _wedge(a, b)
        return degree, self._put(_wedge, self._here(i), a, b)

    def _atom(self, i):
        """Every nested expression is read through here; past `MAX_NESTING`
        open atoms, an error at the token that opens one more."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels deep", i)
        toks, tok, coords = self.tokens, self.tokens[i], self.coords
        if tok in coords and toks[i + 1] != "(":
            kind, degree, value, i = "scalar", 0, [(1, ((tok, 1),))], i + 1
        elif tok == "(":
            kind, degree, value, i = self._expr(i + 1)
            i = self._need(i, ")")
        elif tok == "-":
            kind, degree, value, i = self._factor(i + 1)
            value = (_negate(value, None) if value.__class__ in (list, dict)
                     else self._put(_negate, self._here(i), value))
        elif tok.isdigit():
            kind, degree, value, i = "scalar", 0, [(int(tok), ())], i + 1
        elif tok == "d" or tok == "D" and toks[i + 2] in coords and toks[i + 3] == ")":
            if toks[i + 1] == "(" and toks[i + 2] in coords and toks[i + 3] == ")":
                k, i = coords[toks[i + 2]], i + 4
            else:
                k, i = self._coordinate(self._need(i + 1, "("))
                i = self._need(i, ")")
            kind, degree, value = "form" if tok == "d" else "chain", 1, {(k,): sf.ONE}
        elif tok == "D":   # D(expr, coordinate), a formal derivative
            kind, degree, value, j = self._expr(self._need(i + 1, "("))
            if kind != "scalar":
                self.error("formal derivative applies to scalars", i, ArityMismatch)
            k, j = self._coordinate(self._need(j, ","))
            i = self._need(j, ")")
            value = self._put(sf.partial, self._here(i), value, self.chart.coordinates[k])
        elif tok == "wedge":
            kind, degree, a, i = self._expr(self._need(i + 1, "("))
            k, d, b, i = self._expr(self._need(i, ","))
            close_at, i = i, self._need(i, ")")
            if kind == "scalar" or kind != k:
                self.error("wedge needs two forms or two chains", close_at, ArityMismatch)
            degree, value = self._wedge(degree + d, a, b, i)
        elif tok.isidentifier():
            kind, degree, value, i = self._name_atom(i)
        else:
            self.error(f"unexpected token {tok!r} in expression", i)
        self.depth -= 1
        return kind, degree, value, i

    def _coordinate(self, i):
        """(index in the chart, index after it) of the coordinate at token i."""
        name = self.tokens[i]
        if not name.isidentifier():
            self.error(f"expected a coordinate name, found {name!r}", i)
        if name not in self.coords:
            self.error(f"unknown coordinate {name!r}", i, UnknownReference)
        return self.coords[name], i + 1

    def _name_atom(self, i):
        """A function symbol, or a field, form or chain read by name, which
        goes on the tape."""
        toks, at, name = self.tokens, i, self.tokens[i]
        if toks[i + 1] == "(":
            args = self.lookup(self.ws.functions, at, "function")
            self.i = i + 1
            got, i = self._arguments(), self.i
            if got != args:
                self.error(f"{name} is declared with arguments ({', '.join(args)})",
                           at, ArityMismatch)
            missing = [a for a in args if a not in self.coords]
            if missing:
                self.error(f"{name} depends on {missing[0]!r}, which is not a "
                           f"coordinate of this chart", at, ArityMismatch)
            return "scalar", 0, [(1, ((self.symbols[name], 1),))], i
        try:
            _, entry = self.ws.find_object(name)
        except KeyError:
            self.error(f"unknown name {name!r}", at, UnknownReference)
        if entry.chart != self.chart:
            self.error(f"{name!r} lives on a different chart", at, ArityMismatch)
        return entry.kind, entry.degree, self._put(None, at, entry), i + 1

    # -- check directives ----------------------------------------------------

    def parse_check(self):
        self.expect("check")
        kind_at = self.expect_name("a check kind")
        kind = self.tokens[kind_at]
        if kind not in CHECKS:
            self.error(f"unknown check kind {kind!r}", kind_at, UnknownReference)
        check = CHECKS[kind]
        items = self.comma_list("(", self._check_argument, ")", empty=True)
        positional = [at for kw_at, at in items if kw_at is None]
        keywords = [(kw_at, ats) for kw_at, ats in items if kw_at is not None]
        where = self._check_positional(kind_at, check, positional)
        self._check_keywords(kind_at, check, keywords, where)
        values = {}
        for slot in check.slots:
            if slot.name in where:
                texts = [self.tokens[at] for at in where[slot.name]]
                values[slot.name] = (tuple(texts) if slot.many
                                     else int(texts[0]) if slot.ref == "int" else texts[0])
        resolve_check(self.ws, kind, values,
                      lambda cls, message, slot, i: self.error(message, where[slot][i], cls),
                      read=False)
        self.ws.checks.append(CheckDecl(kind, values, functools.partial(self.source.span, kind_at)))
        self.ws.order.append(("check", len(self.ws.checks) - 1))

    def _check_argument(self):
        """(None, token) for a positional argument, (keyword token, name
        tokens) for a keyword list."""
        tok = self.peek()
        if tok.isidentifier() and self.peek(1) == "=":
            return self.expect(tok, "=") - 1, self.comma_list("[", self.expect_name, "]", empty=True)
        if not (tok.isdigit() or tok.isidentifier()):
            self.error(f"unexpected token {tok!r} in check arguments")
        return None, self.expect(tok)

    def _check_positional(self, kind_at, check, ats):
        """Slot name -> [token] for the positional arguments; optional slots
        are left out from the left when arguments are missing."""
        slots = list(check.slots[:check.positional])
        required = [s for s in slots if s.count == "1"]
        if not len(required) <= len(ats) <= len(slots):
            self.error(f"check {self.tokens[kind_at]} takes {len(required)}..{len(slots)} "
                       f"positional arguments, got {len(ats)}", kind_at, ArityMismatch)
        optional = [i for i, s in enumerate(slots) if s.count == "?"]
        for i in reversed(optional[:len(slots) - len(ats)]):
            del slots[i]
        for slot, at in zip(slots, ats):
            if slot.ref == "int" and not self.tokens[at].isdigit():
                self.error("expected an integer here", at, ArityMismatch)
            if slot.ref != "int" and not self.tokens[at].isidentifier():
                self.error(f"expected a {slot.ref} name here", at, ArityMismatch)
        return {slot.name: [at] for slot, at in zip(slots, ats)}

    def _check_keywords(self, kind_at, check, keywords, where):
        """Add slot name -> name tokens for the keyword lists to `where`."""
        slots = {s.name: s for s in check.slots[check.positional:]}
        for kw_at, ats in keywords:
            kw = self.tokens[kw_at]
            if kw not in slots:
                self.error(f"check {self.tokens[kind_at]} does not take keyword {kw!r}",
                           kw_at, ArityMismatch)
            if kw in where:
                self.error(f"duplicate keyword {kw!r}", kw_at, DuplicateName)
            slot = slots[kw]
            if not slot.many and len(ats) != 1:
                self.error(f"{kw} takes exactly one name", kw_at, ArityMismatch)
            if slot.count == "+" and not ats:
                self.error(f"{kw} takes at least one name", kw_at, ArityMismatch)
            where[kw] = ats
        for slot in slots.values():
            if slot.count in "1+" and slot.name not in where:
                self.error(f"check {self.tokens[kind_at]} needs {slot.name}=[...]",
                           kind_at, ArityMismatch)


def load(text, filename="<input>"):
    """The workspace of `text`, raising ParseError subclasses with source
    spans: the walk's errors at once, and those that depend on values when
    the field, form, chain or action is first read (see `_Store` and
    `ActionDecl.spec`)."""
    return _Parser(text, filename).parse_file()


def parse(text, filename="<input>"):
    """`load`, then a read of every field, form, chain and action in text
    order: every error is raised now, the walk's before any of value."""
    ws = load(text, filename)
    for kind, name in ws.order:
        if kind in _TENSOR_DECLS:
            getattr(ws, _TENSOR_DECLS[kind][2])[name]
        elif kind == "action":
            ws.actions[name].spec
    return ws


# ---------------------------------------------------------------------------
# rendering


def _coeff_prefix(expr, style):
    """(negative, text) for a scalar coefficient in front of a tensor atom,
    a ScalarExpr or, on an algebra, a Fraction; the text is None for a unit."""
    if isinstance(expr, Fraction):
        negative, s = sf._scaled(expr, "", style)
        return negative, None if s == "1" else s
    s = sf.render(expr, style)
    if s in ("1", "-1"):
        return s == "-1", None
    if s.startswith("-") and " " not in s:
        return True, s[1:]
    if " " in s and not (s.startswith("(") and s.endswith(")")):
        return False, f"({s})"
    return False, s


def render_tensor(obj, style):
    """A form, chain or vector field on a chart, or a form on an algebra, in
    a style (see `scalar_field`): y*d(x)^d(z) or a1^a2 in workspace syntax,
    y·dx∧dz or α¹∧α² in display notation."""
    if obj.degree == 0:
        return sf.render(obj.coefficient(()), style)
    if isinstance(obj, AltForm):
        atom, names = style.covector, range(1, obj.dim + 1)
    else:
        atom = style.form if isinstance(obj, cc.DiffForm) else style.chain
        names = obj.chart.coordinates
    terms = []
    for idx, coeff in obj.coeffs.items():
        negative, text = _coeff_prefix(coeff, style)
        body = style.wedge.join(atom(names[i]) for i in idx)
        terms.append((negative, body if text is None else f"{text}{style.times}{body}"))
    return sf._signed_sum(terms)


def tensor_dsl(obj):
    """Canonical surface syntax for a form, chain or vector field on a
    chart, or a form on an algebra."""
    return render_tensor(obj, sf.PLAIN)


altform_dsl = tensor_dsl   # the name `bench/ce_spectrum.py` calls


def vector_dsl(v):
    """Linear combination rendering of an algebra vector: e1 - 1/2*e2."""
    return sf._signed_sum(sf._scaled(c, f"e{i+1}", sf.PLAIN) for i, c in enumerate(v) if c != 0)


def _render_lie_algebra(name, algebra):
    lines = [f"lie_algebra {name} {{", f"  dim {algebra.dim}"]
    for (i, j), rhs in sorted(algebra.brackets.items()):
        vec = [Fraction(0)] * algebra.dim
        for k, c in rhs.items():
            vec[k] = c
        lines.append(f"  bracket [{i+1},{j+1}] = {vector_dsl(vec)}")
    lines.append("}")
    return "\n".join(lines)


def _render_subgroup(name, decl):
    span = ", ".join(str(v.index(1) + 1) for v in decl.spec.basis)
    lines = [f"subgroup {name} of {decl.algebra} {{", f"  span = [{span}]"]
    for m in decl.spec.component_reps:
        rows = ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m)
        lines.append(f"  component [{rows}]")
    lines.append("}")
    return "\n".join(lines)


def _render_check(decl):
    check = CHECKS[decl.kind]
    parts = []
    for i, slot in enumerate(check.slots):
        if slot.name not in decl.values:
            continue
        value = decl.values[slot.name]
        if i < check.positional:
            parts.append(str(value))
        else:
            parts.append(f"{slot.name}=[{', '.join(value if slot.many else [value])}]")
    return f"check {decl.kind}({', '.join(parts)})"


def render(ws):
    """Canonical text for a workspace; parse(render(ws)) == ws."""
    lines = []
    for kind, key in ws.order:
        if kind == "chart":
            chart = ws.charts[key]
            lines.append(f"chart {key} {{ coords = [{', '.join(chart.coordinates)}] }}")
        elif kind == "function":
            lines.append(f"function {key}({', '.join(ws.functions[key])})")
        elif kind == "lie_algebra":
            lines.append(_render_lie_algebra(key, ws.lie_algebras[key]))
        elif kind == "subgroup":
            lines.append(_render_subgroup(key, ws.subgroups[key]))
        elif kind in _TENSOR_DECLS:
            obj = getattr(ws, _TENSOR_DECLS[kind][2])[key]
            lines.append(f"{kind} {key} on {ws.tensor_charts[key]} = {_declared_tensor(obj)}")
        elif kind == "action":
            decl = ws.actions[key]
            lines.append(
                f"action {key} {{ algebra {decl.algebra} chart {decl.chart} "
                f"generators = [{', '.join(decl.generators)}] orbit_dim {decl.orbit_dim} }}")
        elif kind == "point":
            chart_name, values = ws.points[key]
            vals = ", ".join(str(v) for v in values)
            lines.append(f"point {key} on {chart_name} = ({vals})")
        elif kind == "check":
            lines.append(_render_check(ws.checks[key]))
    return "\n".join(lines) + "\n"


def _declared_tensor(obj):
    """`tensor_dsl`, but a zero tensor of positive degree as 0 times its
    first basis atoms, so that its kind and degree parse back."""
    if obj.is_zero() and obj.degree:
        unit = type(obj)(obj.chart, obj.degree, {tuple(range(obj.degree)): sf.ONE})
        return "0*" + tensor_dsl(unit)
    return tensor_dsl(obj)
