"""Workspace description language: declarations of charts, function symbols,
Lie algebras, subgroups, fields, forms, chains, actions, points and check
directives, with source-span error reporting and a canonical renderer.

Declarations must appear before use (no forward references).  Scalar
subexpressions share one surface syntax (`K(z)`, `D(K(z),z)`, `p/q`, `^`);
`d(x)` is a form atom, `D(x)` a chain atom, and `^` between tensor atoms is
the wedge.

One recursive-descent walk, `load`, reports every error of syntax, names,
kinds, degrees, charts, duplicates, check directives and nesting at once,
and records how to build each field, form, chain and action: each is built
on first read, by a loop, and an error of value (a zero divisor, a power,
sum or derivative over its work budget) is reported then.  `parse` is
`load` and a read of every declaration in text order.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from . import chart_calculus as cc
from . import scalar_field as sf
from .action_analysis import ActionSpec
from .lie_cohomology import AltForm, LieAlgebra, SubgroupSpec


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int      # 1-based
    column: int    # 1-based
    length: int

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
    `str.isidentifier` accepts, an integer one that `str.isdigit` does."""
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    if _BAD_RE.search("".join(tokens)):
        i = next(i for i, t in enumerate(tokens) if _BAD_RE.match(t))
        raise ParseError(f"unexpected character {tokens[i]!r}", _Source(text, file).span(i))
    return tokens


class _Source:
    """A workspace text and its file name: where each token is, found only
    when an error needs a span."""

    __slots__ = ("text", "file")

    def __init__(self, text, file):
        self.text, self.file = text, file

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
    """A field, form or chain, or a part of one, not built yet: its kind
    ("scalar", "form" or "chain"), degree and chart are known from the
    walk.  Its value is `fn` of its operands' values (an operand is a
    `_Pending` or a constant); a ScalarError or ChartError is reported at
    token `at` of `source`.  Every name that reads a declaration shares
    its node, which keeps its value once built."""

    __slots__ = ("kind", "degree", "chart", "fn", "operands", "source", "at", "declared", "value")

    def __init__(self, kind, degree, chart, fn, operands, source, at):
        self.kind, self.degree, self.chart, self.fn = kind, degree, chart, fn
        self.operands, self.source, self.at = operands, source, at
        self.declared, self.value = False, None

    def build(self):
        """The value, from an explicit stack, operands left to right: nothing
        recurses, however long the expression or the chain of names, and a
        part of an expression is held only until what reads it is built."""
        values, stack = [], [self, False]
        while stack:
            ready, node = stack.pop(), stack.pop()
            if node.__class__ is not _Pending:
                values.append(node)
            elif ready:   # its operands' values are on top, even if another thread built it
                k = len(values) - len(node.operands)
                try:
                    value = node.fn(*values[k:])
                except (sf.ScalarError, cc.ChartError) as exc:
                    raise ParseError(str(exc), node.source.span(node.at)) from None
                del values[k:]
                if node.declared:
                    node.value = value
                values.append(value)
            elif node.value is not None:
                values.append(node.value)
            else:
                stack += (node, True)
                for operand in reversed(node.operands):
                    stack += (operand, False)
        return values[0]


class _Store(dict):
    """The fields, forms or chains of a loaded workspace: each is built when
    `store[name]` first reads it, and kept."""

    def __getitem__(self, name):
        value = dict.__getitem__(self, name)
        if value.__class__ is _Pending:
            value = value.build()
            dict.__setitem__(self, name, value)
        return value


@dataclass
class SubgroupDecl:
    algebra: str
    spec: SubgroupSpec           # its basis holds the span's unit vectors as written


@dataclass
class ActionDecl:
    algebra: str
    chart: str
    generators: tuple            # vector field names
    orbit_dim: int
    build: object = dfield(repr=False, compare=False)   # () -> `spec`

    @functools.cached_property
    def spec(self):
        """The ActionSpec, built when first read."""
        return self.build()


@dataclass
class CheckDecl:
    kind: str
    values: dict                 # slot name -> name, integer or tuple of names
    where: object = dfield(compare=False, repr=False)   # () -> the span of the kind

    @property
    def span(self):
        return self.where()


OBJECT_KINDS = ("form", "field", "chain")   # what an `object` reference names


@dataclass
class Workspace:
    source_name: str = dfield(compare=False, default="<input>")
    charts: dict = dfield(default_factory=dict)
    functions: dict = dfield(default_factory=dict)  # name -> argument names
    lie_algebras: dict = dfield(default_factory=dict)
    subgroups: dict = dfield(default_factory=dict)
    vector_fields: dict = dfield(default_factory=dict)
    forms: dict = dfield(default_factory=dict)
    chains: dict = dfield(default_factory=dict)
    actions: dict = dfield(default_factory=dict)
    points: dict = dfield(default_factory=dict)    # name -> (chart name, tuple)
    tensor_charts: dict = dfield(default_factory=dict)  # field, form or chain -> chart name
    checks: list = dfield(default_factory=list)
    order: list = dfield(default_factory=list)     # (kind, name-or-index)

    def store(self, kind):
        """The declarations of a reference kind of `CHECKS`, by name."""
        return {"lie_algebra": self.lie_algebras, "subgroup": self.subgroups,
                "action": self.actions, "point": self.points, "form": self.forms,
                "field": self.vector_fields, "chain": self.chains}[kind]

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


@dataclass(frozen=True)
class Slot:
    """One argument of a check: the command line's `--name` flag, and in a
    `check` directive a positional argument or the keyword list `name=[...]`."""
    name: str
    ref: str          # lie_algebra, subgroup, int, action, point, object, chain, form or field
    count: str = "1"  # "1" exactly one, "?" at most one, "*" any number, "+" at least one

    @property
    def many(self):
        return self.count in "*+"


@dataclass(frozen=True)
class Check:
    slots: tuple
    command: tuple = ()   # the command-line words; () for a check with no command

    @property
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


def _invert(f):
    if f.is_zero():
        raise sf.DivisionByZeroExpr("division by zero")
    return sf.ONE / f


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
        self.ws = Workspace(source_name=file, vector_fields=_Store(), forms=_Store(),
                            chains=_Store())
        self.names = {}  # declared name or chart coordinate -> its kind
        self.chart = self.rhs_start = None   # of the tensor being declared

    # -- token plumbing --------------------------------------------------

    def peek(self, offset=0):
        return self.tokens[self.i + offset]

    def advance(self):
        """The index of the current token, then step past it."""
        i = self.i
        if self.tokens[i]:
            self.i += 1
        return i

    def error(self, message, at=None, cls=ParseError):
        raise cls(message, self.source.span(self.i if at is None else at))

    def expect(self, text, what=None):
        if self.peek() != text:
            self.error(f"expected {what or repr(text)}, found {self.peek()!r}")
        return self.advance()

    def expect_int(self, what="an integer"):
        if not self.peek().isdigit():
            self.error(f"expected {what}, found {self.peek()!r}")
        return int(self.tokens[self.advance()])

    def expect_name(self, what="a name"):
        if not self.peek().isidentifier():
            self.error(f"expected {what}, found {self.peek()!r}")
        return self.advance()

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
                self.advance()
                items.append(item())
        self.expect(close_text)
        return items

    def rational(self):
        neg = False
        if self.peek() == "-":
            self.advance()
            neg = True
        num = self.expect_int("a rational number")
        den = 1
        if self.peek() == "/":
            self.advance()
            den_at = self.i
            den = self.expect_int("a denominator")
            if den == 0:
                self.error("zero denominator", den_at)
        value = Fraction(num, den)
        return -value if neg else value

    # -- entry -------------------------------------------------------------

    def parse_file(self):
        handlers = {
            "lie_algebra": self.parse_lie_algebra,
            "subgroup": self.parse_subgroup,
            "chart": self.parse_chart,
            "function": self.parse_function,
            **dict.fromkeys(_TENSOR_DECLS, self.parse_tensor),
            "action": self.parse_action,
            "point": self.parse_point,
            "check": self.parse_check,
        }
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
        self.expect("{")
        self.expect("dim")
        dim_at = self.i
        dim = self.expect_int("the dimension")
        if dim < 1:
            self.error("dimension must be positive", dim_at)
        brackets = {}
        while self.peek() == "bracket":
            self.advance()
            self.expect("[")
            i_at = self.i
            i = self.expect_int("a basis index")
            self.expect(",")
            j_at = self.i
            j = self.expect_int("a basis index")
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
        out = {}
        first = True
        while True:
            sign = Fraction(1)
            if self.peek() == "-":
                self.advance()
                sign = Fraction(-1)
            elif self.peek() == "+":
                if first:
                    self.error("a linear combination cannot start with '+'")
                self.advance()
            coeff = Fraction(1)
            if self.peek().isdigit():
                coeff = self.rational()
                self.expect("*", what="'*' before the basis symbol")
            at = self.expect_name("a basis symbol e1..e%d" % dim)
            m = re.fullmatch(r"e([0-9]+)", self.tokens[at])
            if not m or not 1 <= int(m.group(1)) <= dim:
                self.error(f"expected a basis symbol e1..e{dim}", at)
            k = int(m.group(1)) - 1
            out[k] = out.get(k, Fraction(0)) + sign * coeff
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
        self.expect("{")
        self.expect("span")
        self.expect("=")
        indices = []

        def index():
            at = self.i
            idx = self.expect_int("a basis index")
            if not 1 <= idx <= algebra.dim:
                self.error("basis index out of range", at)
            if idx in indices:
                self.error(f"repeated index {idx} in span", at, DuplicateName)
            indices.append(idx)
        self.comma_list("[", index, "]", empty=True)
        components = []
        while self.peek() == "component":
            self.advance()
            components.append(self.parse_matrix(algebra.dim))
        self.expect("}")
        basis = [[int(k == idx) for k in range(1, algebra.dim + 1)] for idx in indices]
        spec = SubgroupSpec.from_vectors(basis, components)
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
        self.expect("{")
        self.expect("coords")
        self.expect("=")
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
        args = self.comma_list("(", self._coordinate_name, ")")
        known = {c for chart in self.ws.charts.values() for c in chart.coordinates}
        for a in args:
            if a not in known:
                self.error(f"unknown coordinate {a!r} in function declaration",
                           name_at, UnknownReference)
        if len(set(args)) != len(args):
            self.error("function arguments must be distinct", name_at, DuplicateName)
        self.declare(self.ws.functions, name_at, tuple(args), "function")

    def _coordinate_name(self):
        return self.tokens[self.expect_name("a coordinate name")]

    def parse_tensor(self):
        keyword = self.tokens[self.advance()]
        noun, cls, store = _TENSOR_DECLS[keyword]
        name_at = self.expect_name(f"{noun} name")
        self.expect("on")
        chart_at = self.expect_name("a chart name")
        chart = self.lookup(self.ws.charts, chart_at, "chart")
        self.expect("=")
        self.chart, self.rhs_start = chart, self.i
        value = self.parse_tensor_expr()
        kind = value.kind
        if keyword == "vectorfield":
            if kind != "chain" or value.degree != 1:
                self.error("a vector field needs D(coordinate) terms" if kind == "scalar"
                           else "a vector field must be a degree-1 chain expression",
                           name_at, ArityMismatch)
        elif kind == "scalar":
            value = self._apply(cls.kind, 0, lambda f: cls(chart, 0, {(): f}), value)
        elif kind != cls.kind:
            self.error(f"{noun} cannot contain {kind} atoms", name_at, ArityMismatch)
        value.declared = True
        self.declare(getattr(self.ws, store), name_at, value, keyword)
        self.ws.tensor_charts[self.tokens[name_at]] = self.tokens[chart_at]

    def parse_action(self):
        self.expect("action")
        name_at = self.expect_name("an action name")
        self.expect("{")
        self.expect("algebra")
        alg_at = self.expect_name("an algebra name")
        algebra = self.lookup(self.ws.lie_algebras, alg_at, "lie_algebra")
        self.expect("chart")
        chart_at = self.expect_name("a chart name")
        chart = self.lookup(self.ws.charts, chart_at, "chart")
        self.expect("generators")
        self.expect("=")

        def generator():
            at = self.expect_name("a vector field name")
            if self.lookup(self.ws.vector_fields, at, "vectorfield").chart != chart:
                self.error(f"generator {self.tokens[at]!r} lives on a different chart",
                           at, ArityMismatch)
            return self.tokens[at]
        names = tuple(self.comma_list("[", generator, "]"))
        self.expect("orbit_dim")
        q_at = self.i
        q = self.expect_int("the orbit dimension")
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
    # An expression's value is a `_Pending` ScalarExpr, form or chain; its
    # kind and degree are known at once.

    def _here(self):
        """Where an arithmetic failure is reported: the current token, or the
        start of the right-hand side at the end of the text."""
        return self.i if self.peek() else self.rhs_start

    def _apply(self, kind, degree, fn, *operands, at=None):
        """fn(*operands), of the given kind and degree, computed when read.  A
        ScalarError or ChartError is reported at token `at`, by default
        `_here()`."""
        return _Pending(kind, degree, self.chart, fn, operands, self.source,
                        self._here() if at is None else at)

    def parse_tensor_expr(self):
        """Sum level."""
        value = self.parse_tensor_term()
        while self.peek() in {"+", "-"}:
            op_at = self.advance()
            other = self.parse_tensor_term()
            value = self._sum(value, other, op_at, self.tokens[op_at] == "-")
        return value

    def _sum(self, a, b, op_at, negate):
        """a + b, or a + (-b) if `negate`; a scalar joins a tensor of degree 0."""
        ka, kb = a.kind, b.kind
        add = operator.add
        if ka == kb == "scalar":
            kind, degree = "scalar", 0
        elif "scalar" in (ka, kb):
            t = b if ka == "scalar" else a
            if t.degree != 0:
                self.error(f"cannot add a scalar and a {t.kind} of degree {t.degree}", op_at,
                           ArityMismatch)
            kind, degree, cls, chart = t.kind, 0, _TENSOR_DECLS[t.kind][1], self.chart
            if ka == "scalar":
                add = lambda f, u: cls(chart, 0, {(): f}) + u   # noqa: E731
            else:
                add = lambda u, f: cls(chart, 0, {(): f}) + u   # noqa: E731
        elif ka != kb:
            self.error("cannot add a form and a chain", op_at, ArityMismatch)
        elif a.degree != b.degree:
            self.error(f"cannot add degrees {a.degree} and {b.degree}", op_at, ArityMismatch)
        else:
            kind, degree = ka, a.degree
        fn = (lambda x, y: add(x, -y)) if negate else add
        return self._apply(kind, degree, fn, a, b)

    def parse_tensor_term(self):
        """Product level: factors joined by * and /."""
        value = self.parse_tensor_factor()
        while self.peek() in {"*", "/"}:
            op_at = self.advance()
            divide_at = op_at if self.tokens[op_at] == "/" else None
            value = self._product(value, self.parse_tensor_factor(divide_at), op_at)
        return value

    def _product(self, a, b, op_at):
        ka, kb = a.kind, b.kind
        if ka == "scalar":
            if kb == "scalar":
                return self._apply("scalar", 0, operator.mul, a, b)
            return self._apply(kb, b.degree, lambda f, t: t.scaled(f), a, b)
        if kb == "scalar":
            return self._apply(ka, a.degree, lambda t, f: t.scaled(f), a, b)
        self.error("use '^' to wedge tensors, '*' is for scalar factors", op_at, ArityMismatch)

    def parse_tensor_factor(self, divide_at=None):
        """Atom with postfix ^: integer power on scalars, wedge on tensors.

        After `divide_at` ('/') the atom must be a scalar and is inverted
        before its powers, so that a / b^e reads as a * b^-e and a factored
        denominator parses back factor by factor.
        """
        value = self.parse_tensor_atom()
        kind = value.kind
        if divide_at is not None:
            if kind != "scalar":
                self.error("can only divide by a scalar", divide_at, ArityMismatch)
            value = self._apply("scalar", 0, _invert, value, at=divide_at)
        while self.peek() == "^":
            op_at = self.advance()
            if kind == "scalar":
                neg = self.peek() == "-"
                if neg:
                    self.advance()
                if not self.peek().isdigit():
                    self.error("power of a scalar needs an integer exponent")
                e = self.expect_int()
                value = self._apply("scalar", 0, operator.pow, value, -e if neg else e)
            else:
                other = self.parse_tensor_atom()
                if other.kind == "scalar":
                    self.error("cannot wedge with a scalar", op_at, ArityMismatch)
                if other.kind != kind:
                    self.error("cannot wedge a form with a chain", op_at, ArityMismatch)
                value = self._wedge(value, other)
        return value

    def _wedge(self, a, b):
        degree = a.degree + b.degree
        if degree > self.chart.dim:   # the error AltTensor.wedge raises
            self.error("wedge degree exceeds chart dimension", self._here())
        return self._apply(a.kind, degree, lambda s, t: s.wedge(t), a, b)

    def parse_tensor_atom(self):
        """Every nested expression is read through here; past `MAX_NESTING`
        open atoms, an error at the token that opens one more."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"expression nested more than {MAX_NESTING} levels deep")
        value = self._tensor_atom()
        self.depth -= 1
        return value

    def _tensor_atom(self):
        tok = self.peek()
        if tok == "(":
            self.advance()
            value = self.parse_tensor_expr()
            self.expect(")")
            return value
        if tok == "-":
            self.advance()
            value = self.parse_tensor_factor()
            return self._apply(value.kind, value.degree, operator.neg, value)
        if tok.isdigit():
            self.advance()
            return self._apply("scalar", 0, sf.rational, int(tok))
        if tok == "d":
            return self._basis_form()
        if tok == "D":
            return self._derivative_or_basis()
        if tok == "wedge":
            self.advance()
            self.expect("(")
            v1 = self.parse_tensor_expr()
            self.expect(",")
            v2 = self.parse_tensor_expr()
            close_at = self.expect(")")
            if v1.kind == "scalar" or v1.kind != v2.kind:
                self.error("wedge needs two forms or two chains", close_at, ArityMismatch)
            return self._wedge(v1, v2)
        if tok.isidentifier():
            return self._name_atom()
        self.error(f"unexpected token {tok!r} in expression")

    def _basis_form(self):
        self.advance()  # 'd'
        self.expect("(")
        coord = self._chart_coordinate()
        self.expect(")")
        i = self.chart.index(coord)
        return self._apply("form", 1, cc.DiffForm, self.chart, 1, {(i,): sf.ONE})

    def _chart_coordinate(self):
        at = self.expect_name("a coordinate name")
        if self.tokens[at] not in self.chart.coordinates:
            self.error(f"unknown coordinate {self.tokens[at]!r}", at, UnknownReference)
        return self.tokens[at]

    def _derivative_or_basis(self):
        """D(coord) is a chain atom; D(expr, coord) a formal derivative."""
        d_at = self.advance()
        self.expect("(")
        if self.peek() in self.chart.coordinates and self.peek(1) == ")":
            i = self.chart.index(self.tokens[self.advance()])
            self.advance()  # ')'
            return self._apply("chain", 1, cc.MultiVectorField, self.chart, 1, {(i,): sf.ONE})
        inner = self.parse_tensor_expr()
        if inner.kind != "scalar":
            self.error("formal derivative applies to scalars", d_at, ArityMismatch)
        self.expect(",")
        coord = self._chart_coordinate()
        self.expect(")")
        return self._apply("scalar", 0, sf.partial, inner, coord)

    def _name_atom(self):
        at = self.advance()
        name = self.tokens[at]
        if self.peek() == "(":
            args = self.lookup(self.ws.functions, at, "function")
            if tuple(self.comma_list("(", self._coordinate_name, ")")) != args:
                self.error(f"{name} is declared with arguments ({', '.join(args)})",
                           at, ArityMismatch)
            missing = [a for a in args if a not in self.chart.coordinates]
            if missing:
                self.error(f"{name} depends on {missing[0]!r}, which is not a "
                           f"coordinate of this chart", at, ArityMismatch)
            return self._apply("scalar", 0, sf.function, name, args)
        if name in self.chart.coordinates:
            return self._apply("scalar", 0, sf.coordinate, name)
        try:
            _, entry = self.ws.find_object(name)
        except KeyError:
            self.error(f"unknown name {name!r}", at, UnknownReference)
        if entry.chart != self.chart:
            self.error(f"{name!r} lives on a different chart", at, ArityMismatch)
        return entry

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
            kw_at = self.advance()
            self.advance()
            return kw_at, self.comma_list("[", self.expect_name, "]", empty=True)
        if not (tok.isdigit() or tok.isidentifier()):
            self.error(f"unexpected token {tok!r} in check arguments")
        return None, self.advance()

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
    s = str(expr) if isinstance(expr, Fraction) else sf.render(expr, style)
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
