"""Workspace description language: declarations of charts, function symbols,
Lie algebras, subgroups, fields, forms, chains, actions, points and check
directives, with source-span error reporting and a canonical renderer.

Declarations must appear before use (no forward references).  Scalar
subexpressions share one surface syntax (`K(z)`, `D(K(z),z)`, `p/q`, `^`);
`d(x)` is a form atom, `D(x)` a chain atom, and `^` between tensor atoms is
the wedge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from . import chart_calculus as cc
from . import scalar_field as sf
from .action_analysis import ActionSpec
from .lie_cohomology import LieAlgebra, SubgroupSpec


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

# One pass over the whole text: a token (the group names are the token
# kinds), a run of blanks, a comment up to the end of its line, a newline,
# or any other character, which is an error.
_SCAN_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>[0-9]+)"
                      r"|(?P<op>[{}\[\]()=,+\-*/^])|[ \t\r]+|#[^\n]*"
                      r"|(?P<newline>\n)|(?P<bad>.)")


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind      # name | int | op | eof
        self.text = text
        self.line = line
        self.column = column

    def span(self, file):
        return SourceSpan(file, self.line, self.column, max(len(self.text), 1))


def _tokenize(text, file):
    """Tokens of `text`, then two EOF tokens, so that `peek(1)` stays in range."""
    tokens = []
    line, line_start = 1, 0
    for m in _SCAN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             SourceSpan(file, line, m.start() - line_start + 1, 1))
        else:
            tokens.append(Token(kind, m.group(), line, m.start() - line_start + 1))
    last = tokens[-1] if tokens else None
    eof = Token("eof", "", last.line if last else 1,
                (last.column + len(last.text)) if last else 1)
    tokens += (eof, eof)
    return tokens


# ---------------------------------------------------------------------------
# workspace model


@dataclass
class SubgroupDecl:
    algebra: str
    spec: SubgroupSpec           # its basis holds the span's unit vectors as written


@dataclass
class ActionDecl:
    algebra: str
    chart: str
    generators: tuple            # vector field names
    spec: ActionSpec


@dataclass
class CheckDecl:
    kind: str
    values: dict                 # slot name -> name, integer or tuple of names
    span: SourceSpan = dfield(compare=False, default=None)


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
    checks: list = dfield(default_factory=list)
    order: list = dfield(default_factory=list)     # (kind, name-or-index)

    def find_object(self, name, kinds=OBJECT_KINDS):
        """(kind, value) for the declaration of `name` among `kinds`, which
        are reference kinds of `CHECKS`: KeyError if none declares it."""
        stores = {"lie_algebra": self.lie_algebras, "subgroup": self.subgroups,
                  "action": self.actions, "point": self.points, "form": self.forms,
                  "field": self.vector_fields, "chain": self.chains}
        for kind in kinds:
            if name in stores[kind]:
                return kind, stores[kind][name]
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


def resolve_check(ws, kind, values, fail):
    """The declarations named by the arguments of check `kind`, by slot name:
    None for an absent single slot, a list for a list slot, and (kind,
    value) for an `object` slot.

    `values` maps slot names to what was written: a name, an integer or a
    sequence of names.  Every point must lie on the action's chart, and
    every subgroup be of the action's or the named algebra.  A bad name is
    reported by `fail(cls, message, slot name, index in the slot)`, which
    raises the caller's error.
    """
    out, home = {}, {}   # home: the action's chart and the algebra, once known
    for slot in CHECKS[kind].slots:
        given = values.get(slot.name)
        if slot.many:
            out[slot.name] = [_resolve(ws, slot, name, i, home, fail)
                              for i, name in enumerate(given or ())]
        else:
            out[slot.name] = None if given is None else _resolve(ws, slot, given, 0, home, fail)
        if slot.ref == "action" and given is not None:
            home = {"chart": out[slot.name].spec.chart, "algebra": out[slot.name].algebra}
        elif slot.ref == "lie_algebra" and given is not None:
            home = {"algebra": given}
    return out


def _resolve(ws, slot, name, index, home, fail):
    if slot.ref == "int":
        return name
    kinds = OBJECT_KINDS if slot.ref == "object" else (slot.ref,)
    try:
        kind, value = ws.find_object(name, kinds)
    except KeyError:
        fail(UnknownReference, f"unknown {'/'.join(kinds)} {name!r}", slot.name, index)
    if "chart" in home and kind in ("point", *OBJECT_KINDS):
        if (ws.charts[value[0]] if kind == "point" else value.chart) != home["chart"]:
            fail(ArityMismatch, f"{kind} {name!r} is not on the action's chart",
                 slot.name, index)
    if slot.ref == "object":
        return kind, value
    if slot.ref == "point":
        return value[1]
    if slot.ref == "subgroup" and "algebra" in home and value.algebra != home["algebra"]:
        fail(ArityMismatch, f"subgroup {name!r} is not a subgroup of {home['algebra']!r}",
             slot.name, index)
    return value


# ---------------------------------------------------------------------------
# parser


def _kind(value):
    """"scalar" for a ScalarExpr, else the tensor's kind: "form" or "chain"."""
    return "scalar" if isinstance(value, sf.ScalarExpr) else value.kind


def _degree_zero(cls, chart, f):
    """The scalar `f` as a tensor of degree 0 of class `cls`."""
    return cls(chart, 0, {(): f})


# declaration keyword -> (its noun, the tensor class, the Workspace store)
_TENSOR_DECLS = {
    "vectorfield": ("a vector field", cc.MultiVectorField, "vector_fields"),
    "form": ("a form", cc.DiffForm, "forms"),
    "chain": ("a chain", cc.MultiVectorField, "chains"),
}


class _Parser:
    def __init__(self, text, file):
        self.tokens = _tokenize(text, file)
        self.i = 0
        self.file = file
        self.ws = Workspace(source_name=file)
        self.names = {}  # declared name or chart coordinate -> its kind

    # -- token plumbing --------------------------------------------------

    def peek(self, offset=0):
        return self.tokens[self.i + offset]

    def advance(self):
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message, tok=None, cls=ParseError):
        tok = tok or self.peek()
        raise cls(message, tok.span(self.file))

    def expect(self, text=None, kind=None, what=None):
        tok = self.peek()
        if text is not None and tok.text != text:
            self.error(f"expected {what or repr(text)}, found {tok.text!r}")
        if kind is not None and tok.kind != kind:
            self.error(f"expected {what or kind}, found {tok.text!r}")
        return self.advance()

    def expect_int(self, what="an integer"):
        tok = self.expect(kind="int", what=what)
        return int(tok.text)

    def expect_name(self, what="a name"):
        tok = self.peek()
        if tok.kind != "name":
            self.error(f"expected {what}, found {tok.text!r}")
        return self.advance()

    def declare(self, store, name_tok, value, kind):
        name = name_tok.text
        if name in _RESERVED:
            self.error(f"{name!r} is reserved and cannot name a {kind}", name_tok)
        held = self.names.get(name)
        if held == kind:
            self.error(f"duplicate {kind} name {name!r}", name_tok, DuplicateName)
        if held:
            self.error(f"{name!r} already names a {held}", name_tok, DuplicateName)
        self.names[name] = kind
        store[name] = value
        self.ws.order.append((kind, name))

    def lookup(self, store, name_tok, kind):
        name = name_tok.text
        if name not in store:
            self.error(f"unknown {kind} {name!r}", name_tok, UnknownReference)
        return store[name]

    def comma_list(self, open_text, item, close_text, empty=False):
        """`item()` for each entry of a comma-separated list between the
        tokens `open_text` and `close_text`; an empty list only if `empty`."""
        self.expect(open_text)
        items = []
        if not (empty and self.peek().text == close_text):
            items.append(item())
            while self.peek().text == ",":
                self.advance()
                items.append(item())
        self.expect(close_text)
        return items

    def rational(self):
        neg = False
        if self.peek().text == "-":
            self.advance()
            neg = True
        num = self.expect_int("a rational number")
        den = 1
        if self.peek().text == "/":
            self.advance()
            den_tok = self.peek()
            den = self.expect_int("a denominator")
            if den == 0:
                self.error("zero denominator", den_tok)
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
        while self.peek().kind != "eof":
            tok = self.peek()
            handler = handlers.get(tok.text)
            if handler is None:
                self.error(f"expected a declaration keyword, found {tok.text!r}")
            handler()
        return self.ws

    # -- declarations -------------------------------------------------------

    def parse_lie_algebra(self):
        self.expect("lie_algebra")
        name_tok = self.expect_name("an algebra name")
        self.expect("{")
        self.expect("dim")
        dim_tok = self.peek()
        dim = self.expect_int("the dimension")
        if dim < 1:
            self.error("dimension must be positive", dim_tok)
        brackets = {}
        while self.peek().text == "bracket":
            self.advance()
            self.expect("[")
            i_tok = self.peek()
            i = self.expect_int("a basis index")
            self.expect(",")
            j_tok = self.peek()
            j = self.expect_int("a basis index")
            self.expect("]")
            if not 1 <= i <= dim or not 1 <= j <= dim:
                self.error("basis index out of range", i_tok if not 1 <= i <= dim else j_tok)
            if i >= j:
                self.error("bracket indices must satisfy i < j (antisymmetry fixes the rest)",
                           i_tok)
            if (i - 1, j - 1) in brackets:
                self.error(f"duplicate bracket [{i},{j}]", i_tok, DuplicateName)
            self.expect("=")
            brackets[(i - 1, j - 1)] = self.parse_lincomb(dim)
        self.expect("}")
        self.declare(self.ws.lie_algebras, name_tok, LieAlgebra(dim, brackets), "lie_algebra")

    def parse_lincomb(self, dim):
        """Linear combination of basis symbols e1..ep with rational coefficients."""
        out = {}
        first = True
        while True:
            sign = Fraction(1)
            if self.peek().text == "-":
                self.advance()
                sign = Fraction(-1)
            elif self.peek().text == "+":
                if first:
                    self.error("a linear combination cannot start with '+'")
                self.advance()
            elif not first:
                break
            coeff = Fraction(1)
            if self.peek().kind == "int":
                coeff = self.rational()
                self.expect("*", what="'*' before the basis symbol")
            tok = self.expect_name("a basis symbol e1..e%d" % dim)
            m = re.fullmatch(r"e([0-9]+)", tok.text)
            if not m or not 1 <= int(m.group(1)) <= dim:
                self.error(f"expected a basis symbol e1..e{dim}", tok)
            k = int(m.group(1)) - 1
            out[k] = out.get(k, Fraction(0)) + sign * coeff
            first = False
            if self.peek().text not in {"+", "-"}:
                break
        return {k: c for k, c in out.items() if c != 0}

    def parse_subgroup(self):
        self.expect("subgroup")
        name_tok = self.expect_name("a subgroup name")
        self.expect("of")
        alg_tok = self.expect_name("an algebra name")
        algebra = self.lookup(self.ws.lie_algebras, alg_tok, "lie_algebra")
        self.expect("{")
        self.expect("span")
        self.expect("=")
        indices = []

        def index():
            tok = self.peek()
            idx = self.expect_int("a basis index")
            if not 1 <= idx <= algebra.dim:
                self.error("basis index out of range", tok)
            if idx in indices:
                self.error(f"repeated index {idx} in span", tok, DuplicateName)
            indices.append(idx)
        self.comma_list("[", index, "]", empty=True)
        components = []
        while self.peek().text == "component":
            self.advance()
            components.append(self.parse_matrix(algebra.dim))
        self.expect("}")
        basis = [[int(k == idx) for k in range(1, algebra.dim + 1)] for idx in indices]
        spec = SubgroupSpec.from_vectors(basis, components)
        self.declare(self.ws.subgroups, name_tok, SubgroupDecl(alg_tok.text, spec), "subgroup")

    def parse_matrix(self, dim):
        open_tok = self.peek()
        rows = self.comma_list("[", lambda: self.comma_list("[", self.rational, "]"), "]")
        if len(rows) != dim or any(len(r) != dim for r in rows):
            self.error(f"component matrix must be {dim}x{dim}", open_tok, ArityMismatch)
        return rows

    def parse_chart(self):
        self.expect("chart")
        name_tok = self.expect_name("a chart name")
        self.expect("{")
        self.expect("coords")
        self.expect("=")
        coords = []

        def coordinate():
            tok = self.expect_name("a coordinate name")
            if tok.text in _RESERVED:
                self.error(f"{tok.text!r} is reserved and cannot be a coordinate", tok)
            if tok.text in coords:
                self.error(f"repeated coordinate {tok.text!r}", tok, DuplicateName)
            held = self.names.get(tok.text)
            if held not in (None, "coordinate"):
                self.error(f"{tok.text!r} already names a {held}", tok, DuplicateName)
            coords.append(tok.text)
        self.comma_list("[", coordinate, "]")
        self.expect("}")
        for c in coords:
            self.names[c] = "coordinate"
        self.declare(self.ws.charts, name_tok, cc.Chart(tuple(coords)), "chart")

    def parse_function(self):
        self.expect("function")
        name_tok = self.expect_name("a function name")
        args = self.comma_list("(", self._coordinate_name, ")")
        known = {c for chart in self.ws.charts.values() for c in chart.coordinates}
        for a in args:
            if a not in known:
                self.error(f"unknown coordinate {a!r} in function declaration",
                           name_tok, UnknownReference)
        if len(set(args)) != len(args):
            self.error("function arguments must be distinct", name_tok, DuplicateName)
        self.declare(self.ws.functions, name_tok, tuple(args), "function")

    def _coordinate_name(self):
        return self.expect_name("a coordinate name").text

    def parse_tensor(self):
        keyword = self.advance().text
        noun, cls, store = _TENSOR_DECLS[keyword]
        name_tok = self.expect_name(f"{noun} name")
        self.expect("on")
        chart = self.lookup(self.ws.charts, self.expect_name("a chart name"), "chart")
        self.expect("=")
        value = self.parse_tensor_rhs(chart)
        kind = _kind(value)
        if keyword == "vectorfield":
            if kind != "chain" or value.degree != 1:
                self.error("a vector field needs D(coordinate) terms" if kind == "scalar"
                           else "a vector field must be a degree-1 chain expression",
                           name_tok, ArityMismatch)
        elif kind == "scalar":
            value = _degree_zero(cls, chart, value)
        elif kind != cls.kind:
            self.error(f"{noun} cannot contain {kind} atoms", name_tok, ArityMismatch)
        self.declare(getattr(self.ws, store), name_tok, value, keyword)

    def parse_action(self):
        self.expect("action")
        name_tok = self.expect_name("an action name")
        self.expect("{")
        self.expect("algebra")
        alg_tok = self.expect_name("an algebra name")
        algebra = self.lookup(self.ws.lie_algebras, alg_tok, "lie_algebra")
        self.expect("chart")
        chart_tok = self.expect_name("a chart name")
        chart = self.lookup(self.ws.charts, chart_tok, "chart")
        self.expect("generators")
        self.expect("=")
        gen_names, gens = [], []

        def generator():
            tok = self.expect_name("a vector field name")
            vf = self.lookup(self.ws.vector_fields, tok, "vectorfield")
            if vf.chart != chart:
                self.error(f"generator {tok.text!r} lives on a different chart",
                           tok, ArityMismatch)
            gen_names.append(tok.text)
            gens.append(vf)
        self.comma_list("[", generator, "]")
        self.expect("orbit_dim")
        q_tok = self.peek()
        q = self.expect_int("the orbit dimension")
        self.expect("}")
        if len(gens) != algebra.dim:
            self.error(f"need {algebra.dim} generators for {alg_tok.text!r}, got {len(gens)}",
                       name_tok, ArityMismatch)
        if not 1 <= q <= min(algebra.dim, chart.dim):
            self.error("orbit dimension out of range", q_tok, ArityMismatch)
        spec = ActionSpec(chart, algebra, tuple(gens), q)
        self.declare(self.ws.actions, name_tok,
                     ActionDecl(alg_tok.text, chart_tok.text, tuple(gen_names), spec), "action")

    def parse_point(self):
        self.expect("point")
        name_tok = self.expect_name("a point name")
        self.expect("on")
        chart_tok = self.expect_name("a chart name")
        chart = self.lookup(self.ws.charts, chart_tok, "chart")
        self.expect("=")
        open_tok = self.peek()
        values = self.comma_list("(", self.rational, ")")
        if len(values) != chart.dim:
            self.error(f"point needs {chart.dim} coordinates, got {len(values)}",
                       open_tok, ArityMismatch)
        self.declare(self.ws.points, name_tok, (chart_tok.text, tuple(values)), "point")

    # -- tensor/scalar expressions -----------------------------------------

    def parse_tensor_rhs(self, chart):
        """Top-level expression entry; arithmetic failures (zero divisors,
        degree overflow) surface as parse errors at the current token."""
        start = self.peek()
        try:
            return self.parse_tensor_expr(chart)
        except (sf.ScalarError, cc.ChartError) as exc:
            tok = self.peek() if self.peek().kind != "eof" else start
            self.error(str(exc), tok)

    def parse_tensor_expr(self, chart):
        """Sum level: a ScalarExpr, or a form or chain (see `_kind`)."""
        value = self.parse_tensor_term(chart)
        while self.peek().text in {"+", "-"}:
            op_tok = self.advance()
            other = self.parse_tensor_term(chart)
            value = self._sum(value, -other if op_tok.text == "-" else other, op_tok)
        return value

    def _sum(self, a, b, op_tok):
        """a + b; a scalar joins a tensor of degree 0."""
        ka, kb = _kind(a), _kind(b)
        if ka == kb == "scalar":
            return a + b
        if "scalar" in (ka, kb):
            f, t = (a, b) if ka == "scalar" else (b, a)
            if t.degree == 0:
                return _degree_zero(type(t), t.chart, f) + t
            self.error(f"cannot add a scalar and a {t.kind} of degree {t.degree}", op_tok,
                       ArityMismatch)
        if ka != kb:
            self.error("cannot add a form and a chain", op_tok, ArityMismatch)
        if a.degree != b.degree:
            self.error(f"cannot add degrees {a.degree} and {b.degree}", op_tok, ArityMismatch)
        return a + b

    def parse_tensor_term(self, chart):
        """Product level: factors joined by * and /."""
        value = self.parse_tensor_factor(chart)
        while self.peek().text in {"*", "/"}:
            op_tok = self.advance()
            divide_tok = op_tok if op_tok.text == "/" else None
            value = self._product(value, self.parse_tensor_factor(chart, divide_tok), op_tok)
        return value

    def _product(self, a, b, op_tok):
        if _kind(a) == "scalar":
            return a * b if _kind(b) == "scalar" else b.scaled(a)
        if _kind(b) == "scalar":
            return a.scaled(b)
        self.error("use '^' to wedge tensors, '*' is for scalar factors", op_tok, ArityMismatch)

    def parse_tensor_factor(self, chart, divide_tok=None):
        """Atom with postfix ^: integer power on scalars, wedge on tensors.

        After `divide_tok` ('/') the atom must be a scalar and is inverted
        before its powers, so that a / b^e reads as a * b^-e and a factored
        denominator parses back factor by factor.
        """
        value = self.parse_tensor_atom(chart)
        kind = _kind(value)
        if divide_tok is not None:
            if kind != "scalar":
                self.error("can only divide by a scalar", divide_tok, ArityMismatch)
            if value.is_zero():
                self.error("division by zero", divide_tok)
            value = sf.ONE / value
        while self.peek().text == "^":
            op_tok = self.advance()
            if kind == "scalar":
                neg = self.peek().text == "-"
                if neg:
                    self.advance()
                exp_tok = self.peek()
                if exp_tok.kind != "int":
                    self.error("power of a scalar needs an integer exponent", exp_tok)
                e = self.expect_int()
                value = value ** (-e if neg else e)
            else:
                other = self.parse_tensor_atom(chart)
                if _kind(other) == "scalar":
                    self.error("cannot wedge with a scalar", op_tok, ArityMismatch)
                if _kind(other) != kind:
                    self.error("cannot wedge a form with a chain", op_tok, ArityMismatch)
                value = value.wedge(other)
        return value

    def parse_tensor_atom(self, chart):
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            value = self.parse_tensor_expr(chart)
            self.expect(")")
            return value
        if tok.text == "-":
            self.advance()
            return -self.parse_tensor_factor(chart)
        if tok.kind == "int":
            self.advance()
            return sf.rational(int(tok.text))
        if tok.text == "d":
            return self._basis_form(chart)
        if tok.text == "D":
            return self._derivative_or_basis(chart)
        if tok.text == "wedge":
            self.advance()
            self.expect("(")
            v1 = self.parse_tensor_expr(chart)
            self.expect(",")
            v2 = self.parse_tensor_expr(chart)
            close = self.expect(")")
            if _kind(v1) == "scalar" or _kind(v1) != _kind(v2):
                self.error("wedge needs two forms or two chains", close, ArityMismatch)
            return v1.wedge(v2)
        if tok.kind == "name":
            return self._name_atom(chart)
        self.error(f"unexpected token {tok.text!r} in expression")

    def _basis_form(self, chart):
        self.advance()  # 'd'
        self.expect("(")
        coord_tok = self.expect_name("a coordinate name")
        if coord_tok.text not in chart.coordinates:
            self.error(f"unknown coordinate {coord_tok.text!r}", coord_tok, UnknownReference)
        self.expect(")")
        i = chart.index(coord_tok.text)
        return cc.DiffForm(chart, 1, {(i,): sf.ONE})

    def _derivative_or_basis(self, chart):
        """D(coord) is a chain atom; D(expr, coord) a formal derivative."""
        d_tok = self.advance()
        self.expect("(")
        if (self.peek().kind == "name" and self.peek().text in chart.coordinates
                and self.peek(1).text == ")"):
            coord_tok = self.advance()
            self.advance()  # ')'
            i = chart.index(coord_tok.text)
            return cc.MultiVectorField(chart, 1, {(i,): sf.ONE})
        inner = self.parse_tensor_expr(chart)
        if _kind(inner) != "scalar":
            self.error("formal derivative applies to scalars", d_tok, ArityMismatch)
        self.expect(",")
        coord_tok = self.expect_name("a coordinate name")
        if coord_tok.text not in chart.coordinates:
            self.error(f"unknown coordinate {coord_tok.text!r}", coord_tok, UnknownReference)
        self.expect(")")
        return sf.partial(inner, coord_tok.text)

    def _name_atom(self, chart):
        tok = self.advance()
        name = tok.text
        if self.peek().text == "(":
            args = self.lookup(self.ws.functions, tok, "function")
            if tuple(self.comma_list("(", self._coordinate_name, ")")) != args:
                self.error(f"{name} is declared with arguments ({', '.join(args)})",
                           tok, ArityMismatch)
            missing = [a for a in args if a not in chart.coordinates]
            if missing:
                self.error(f"{name} depends on {missing[0]!r}, which is not a "
                           f"coordinate of this chart", tok, ArityMismatch)
            return sf.function(name, args)
        if name in chart.coordinates:
            return sf.coordinate(name)
        try:
            _, value = self.ws.find_object(name)
        except KeyError:
            self.error(f"unknown name {name!r}", tok, UnknownReference)
        if value.chart != chart:
            self.error(f"{name!r} lives on a different chart", tok, ArityMismatch)
        return value

    # -- check directives ----------------------------------------------------

    def parse_check(self):
        self.expect("check")
        kind_tok = self.expect_name("a check kind")
        kind = kind_tok.text
        if kind not in CHECKS:
            self.error(f"unknown check kind {kind!r}", kind_tok, UnknownReference)
        check = CHECKS[kind]
        items = self.comma_list("(", self._check_argument, ")", empty=True)
        positional = [tok for kw_tok, tok in items if kw_tok is None]
        keywords = [(kw_tok, toks) for kw_tok, toks in items if kw_tok is not None]
        where = self._check_positional(kind_tok, check, positional)
        self._check_keywords(kind_tok, check, keywords, where)
        values = {}
        for slot in check.slots:
            if slot.name in where:
                toks = where[slot.name]
                values[slot.name] = (tuple(t.text for t in toks) if slot.many
                                     else int(toks[0].text) if slot.ref == "int"
                                     else toks[0].text)
        resolve_check(self.ws, kind, values,
                      lambda cls, message, slot, i: self.error(message, where[slot][i], cls))
        self.ws.checks.append(CheckDecl(kind, values, kind_tok.span(self.file)))
        self.ws.order.append(("check", len(self.ws.checks) - 1))

    def _check_argument(self):
        """(None, token) for a positional argument, (keyword token, name
        tokens) for a keyword list."""
        tok = self.peek()
        if tok.kind == "name" and self.peek(1).text == "=":
            self.advance()
            self.advance()
            return tok, self.comma_list("[", lambda: self.expect_name("a name"), "]",
                                        empty=True)
        if tok.kind not in ("int", "name"):
            self.error(f"unexpected token {tok.text!r} in check arguments")
        return None, self.advance()

    def _check_positional(self, kind_tok, check, tokens):
        """Slot name -> [token] for the positional arguments; optional slots
        are left out from the left when arguments are missing."""
        slots = list(check.slots[:check.positional])
        required = [s for s in slots if s.count == "1"]
        if not len(required) <= len(tokens) <= len(slots):
            self.error(f"check {kind_tok.text} takes {len(required)}..{len(slots)} "
                       f"positional arguments, got {len(tokens)}", kind_tok, ArityMismatch)
        optional = [i for i, s in enumerate(slots) if s.count == "?"]
        for i in reversed(optional[:len(slots) - len(tokens)]):
            del slots[i]
        for slot, tok in zip(slots, tokens):
            if slot.ref == "int" and tok.kind != "int":
                self.error("expected an integer here", tok, ArityMismatch)
            if slot.ref != "int" and tok.kind != "name":
                self.error(f"expected a {slot.ref} name here", tok, ArityMismatch)
        return {slot.name: [tok] for slot, tok in zip(slots, tokens)}

    def _check_keywords(self, kind_tok, check, keywords, where):
        """Add slot name -> name tokens for the keyword lists to `where`."""
        slots = {s.name: s for s in check.slots[check.positional:]}
        for kw_tok, toks in keywords:
            kw = kw_tok.text
            if kw not in slots:
                self.error(f"check {kind_tok.text} does not take keyword {kw!r}",
                           kw_tok, ArityMismatch)
            if kw in where:
                self.error(f"duplicate keyword {kw!r}", kw_tok, DuplicateName)
            slot = slots[kw]
            if not slot.many and len(toks) != 1:
                self.error(f"{kw} takes exactly one name", kw_tok, ArityMismatch)
            if slot.count == "+" and not toks:
                self.error(f"{kw} takes at least one name", kw_tok, ArityMismatch)
            where[kw] = toks
        for slot in slots.values():
            if slot.count in "1+" and slot.name not in where:
                self.error(f"check {kind_tok.text} needs {slot.name}=[...]",
                           kind_tok, ArityMismatch)


def parse(text, filename="<input>"):
    """Parse workspace text, raising ParseError subclasses with source spans."""
    return _Parser(text, filename).parse_file()


# ---------------------------------------------------------------------------
# rendering


def _coeff_prefix(expr, style):
    """(negative, text) for a scalar coefficient in front of a tensor atom;
    the text is None for a unit."""
    s = sf.render(expr, style)
    if s in ("1", "-1"):
        return s == "-1", None
    if s.startswith("-") and " " not in s:
        return True, s[1:]
    if " " in s and not (s.startswith("(") and s.endswith(")")):
        return False, f"({s})"
    return False, s


def render_tensor(obj, style):
    """A form, chain or vector field in a style (see `scalar_field`):
    y*d(x)^d(z) in workspace syntax, y·dx∧dz in display notation."""
    if obj.degree == 0:
        return sf.render(obj.coefficient(()), style)
    atom = style.form if isinstance(obj, cc.DiffForm) else style.chain
    names = obj.chart.coordinates
    terms = []
    for idx, coeff in obj.coeffs.items():
        negative, text = _coeff_prefix(coeff, style)
        body = style.wedge.join(atom(names[i]) for i in idx)
        terms.append((negative, body if text is None else f"{text}{style.times}{body}"))
    return sf._signed_sum(terms)


def tensor_dsl(obj):
    """Canonical surface syntax for a form, chain or vector field."""
    return render_tensor(obj, sf.PLAIN)


def render_altform(alpha, style):
    """A form on an algebra in a style: a1^a2, or α¹∧α² for display."""
    if alpha.degree == 0:
        return str(alpha.coefficient(()))
    return sf._signed_sum(
        sf._scaled(c, style.wedge.join(style.covector(k + 1) for k in idx), style)
        for idx, c in alpha.coeffs.items())


def altform_dsl(alpha):
    """Surface syntax for an alternating form on the algebra: a1^a2 style."""
    return render_altform(alpha, sf.PLAIN)


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
            lines.append(f"{kind} {key} on {_chart_name(ws, obj.chart)} = {_declared_tensor(obj)}")
        elif kind == "action":
            decl = ws.actions[key]
            lines.append(
                f"action {key} {{ algebra {decl.algebra} chart {decl.chart} "
                f"generators = [{', '.join(decl.generators)}] orbit_dim {decl.spec.orbit_dim} }}")
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


def _chart_name(ws, chart):
    for name, c in ws.charts.items():
        if c == chart:
            return name
    raise KeyError("chart is not declared in this workspace")
