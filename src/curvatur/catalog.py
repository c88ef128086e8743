"""Built-in geometries, a small geometry-definition language, and
closed-form hyperbolic operations.

The text format is line-oriented UTF-8 with ``#`` comments:

    param R = 2.0
    surface torus (u,v in [0,6.28]x[0,6.28]) =
        ((R + cos(v))*cos(u), (R + cos(v))*sin(u), sin(v))

    metric hyp (x,y in [-5,5]x[0.1,10]) = [[1/y^2, 0], [0, 1/y^2]]

    curve helix (t in [0,10]) = (cos(t), sin(t), 0.5*t)

A curve takes one coordinate and a surface two; a metric takes two or
three and an n-by-n matrix.

Expressions support + - * / ^ (right-associative power), unary minus, the
functions sin, cos, tan, exp, log, sqrt, sinh, cosh, the constant pi, and
names bound by ``param`` lines.  The grammar is deliberately minimal: no
conditionals and no user functions, so jet evaluation is total on the
declared domain.

Every builtin is source text in this same language and goes through the
parser; the function-shaped builtins fill their defining expressions, which
arrive as parameters, into a template first.

``GeometrySpec.build`` compiles all component expressions of a geometry
once into one straight-line :class:`Program`: parameters and constant
subtrees fold to floats, and a subtree shared by several components is
evaluated once per call.  A built curve, surface or metric writes all its
components into one stacked jet, the form in which curve, patch and
chart evaluators return them.  :func:`eval_expr` walks the tree instead; it is the
reference the programs are tested against, and it evaluates domain bounds
and the constants the compiler folds.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import numkit as nk
from .numkit import Jet, PreconditionError
from .curves import ParamCurve
from .surface_patch import SurfacePatch
from .intrinsic import MetricChart


# ---------------------------------------------------------------------------
# expression AST
# ---------------------------------------------------------------------------


def _node(cls):
    """A frozen expression-node dataclass, equal by structure, whose hash is
    cached when a node is built, from its children's cached hashes.
    Equality walks both trees with an explicit stack, so deep trees compare
    without recursion."""
    def cache_hash(self):
        object.__setattr__(self, "_hash", hash((cls.__name__, *(
            getattr(self, f.name) for f in fields(self) if f.compare))))

    def equal(self, other):
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash or any(
                    getattr(a, k) != getattr(b, k) for k in a._leaves):
                return False
            stack.extend(zip(_children(a), _children(b)))
        return True

    cls.__post_init__ = cache_hash
    cls = dataclass(frozen=True, eq=False)(cls)
    cls._leaves = tuple(f.name for f in fields(cls) if f.compare
                        and f.name not in ("arg", "lhs", "rhs"))
    cls.__eq__ = equal
    cls.__hash__ = lambda self: self._hash
    return cls


@_node
class Num:
    value: float
    pos: tuple = field(default=(0, 0), compare=False)


@_node
class Name:
    ident: str
    pos: tuple = field(default=(0, 0), compare=False)


@_node
class Unary:
    op: str                       # "-"
    arg: object
    pos: tuple = field(default=(0, 0), compare=False)


@_node
class Binary:
    op: str                       # + - * / ^
    lhs: object
    rhs: object
    pos: tuple = field(default=(0, 0), compare=False)


@_node
class Call:
    fn: str
    arg: object
    pos: tuple = field(default=(0, 0), compare=False)


FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")

_FN_TABLE = {name: getattr(nk, name) for name in FUNCTIONS}
_SINCOS = {"sin": operator.itemgetter(0), "cos": operator.itemgetter(1)}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


def _children(e):
    """The operands of an expression node, left to right."""
    if isinstance(e, (Unary, Call)):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.lhs, e.rhs)
    if isinstance(e, (Num, Name)):
        return ()
    raise PreconditionError(f"not an expression node: {e!r}")


def _subtrees(e):
    """Every node of an expression, the root first, then each child's
    subtree in turn, walked with an explicit stack."""
    stack = [e]
    while stack:
        e = stack.pop()
        stack.extend(reversed(_children(e)))
        yield e


def free_names(e):
    """All identifiers appearing in an expression."""
    return {s.ident for s in _subtrees(e) if isinstance(s, Name)}


def _fold(e, apply, operands=_children, known=None):
    """``apply(node, *results of its operands)`` for every node of ``e``,
    operands first and left to right, on an explicit stack, so that deep
    trees need no recursion.  A node that ``known`` maps to a result is not
    walked.  Returns the root's result."""
    results, stack = [], [(e, None)]
    while stack:
        e, arity = stack.pop()
        if arity is not None:
            k = len(results) - arity
            r = apply(e, *results[k:])
            del results[k:]
        elif known is None or (r := known(e)) is None:
            ops = operands(e)
            stack.append((e, len(ops)))
            stack.extend((c, None) for c in reversed(ops))
            continue
        results.append(r)
    return results[0]


def eval_expr(e, env):
    """Evaluate an expression over floats or jets."""
    def apply(e, *args):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Name):
            if e.ident == "pi" and "pi" not in env:
                return math.pi
            return env[e.ident]
        if isinstance(e, Unary):
            return -args[0]
        if isinstance(e, Call):
            return _FN_TABLE[e.fn](*args)
        a, b = args
        if e.op == "^":
            return a ** _exponent(b)
        if e.op not in _OPERATORS:
            raise PreconditionError(f"unknown operator {e.op}")
        return _OPERATORS[e.op](a, b)

    return _fold(e, apply)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _wrap(text_prec, prec):
    """A rendered operand, in parentheses where it binds looser than
    ``prec``."""
    text, own = text_prec
    return f"({text})" if prec > own else text


def print_expr(e):
    """Render an expression; parse(print(e)) reproduces e exactly."""
    def apply(e, *args):            # (text, how tightly the text binds)
        if isinstance(e, Num):
            s = repr(float(e.value))
            if s.endswith(".0"):
                s = s[:-2]
            # negative literals re-enter the parser through unary minus, so
            # they need parens anywhere an operator could grab the sign
            return s, 0 if e.value < 0 else math.inf
        if isinstance(e, Name):
            return e.ident, math.inf
        if isinstance(e, Call):
            return f"{e.fn}({args[0][0]})", math.inf
        if isinstance(e, Unary):
            return f"-{_wrap(args[0], _PREC['neg'])}", _PREC["neg"]
        p = _PREC[e.op]
        if e.op == "^":
            ls, rs = _wrap(args[0], p + 1), _wrap(args[1], p)  # right-assoc.
        else:
            ls, rs = _wrap(args[0], p), _wrap(args[1], p + 1)  # left-assoc.
        return (f"{ls} {e.op} {rs}" if e.op in ("+", "-")
                else f"{ls}{e.op}{rs}"), p

    return _fold(e, apply)[0]


# ---------------------------------------------------------------------------
# compiled programs
# ---------------------------------------------------------------------------


def _exponent(b):
    """An integral float exponent as an int, so that a jet power is a
    product chain."""
    return int(b) if isinstance(b, float) and float(b).is_integer() else b


def _power(a, b):
    return a ** _exponent(b)


def _reciprocal(b):
    return b.reciprocal() if isinstance(b, Jet) else 1.0 / b


def _sincos(a):
    return a.sincos() if isinstance(a, Jet) else (nk.sin(a), nk.cos(a))


def _divide(a, b, rb):
    """``a / b`` given ``rb = _reciprocal(b)``.  A jet quotient is
    ``a * b.reciprocal()``, as ``Jet.__truediv__`` computes it, so every
    quotient by one jet shares its reciprocal."""
    return a * rb if isinstance(b, Jet) else a / b


class Program:
    """Expressions compiled once into a straight-line program over one
    register list (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
    ch. 2).

    Registers hold the inputs, then the constants, then one value per
    instruction.  Every subtree free of input names (numbers, parameters,
    ``pi``) folds to a constant through :func:`eval_expr`, the reference
    evaluator, and constant exponents are resolved as it resolves them.
    Structurally equal subtrees share one register across all the
    expressions, quotients by one divisor share its reciprocal (which is
    the quotient of 1 by it, bit for bit), and sin and cos of one argument
    share one :meth:`numkit.Jet.sincos`, so each is evaluated once per
    call.  An instruction is an operator or a
    :mod:`numkit` function applied at run time, the operation
    :func:`eval_expr` applies, so on floats, arrays and jets alike a
    program's outputs are bit-identical to it.

    Calling a program with one value per input returns the list of the
    expressions' values; ``outputs`` holds their registers.
    """

    def __init__(self, exprs, inputs, params):
        self.inputs = tuple(inputs)
        self.consts = []
        self._params = dict(params)
        # compile to (kind, index) references, numbered at the end
        self._memo = {Name(v): ("in", k) for k, v in enumerate(self.inputs)}
        self._tape = []
        # one walk, children before parents: which subtrees hold an input
        # name (keyed by id, as hashing a node walks its whole subtree),
        # and the arguments of sin and cos calls
        self._varies, calls = {}, set()
        for s in reversed([s for e in exprs for s in _subtrees(e)]):
            self._varies[id(s)] = s.ident in self.inputs if isinstance(
                s, Name) else any(self._varies[id(c)] for c in _children(s))
            if isinstance(s, Call):
                calls.add((s.fn, s.arg))
        self._paired = {a for f, a in calls if f == "sin"
                        and ("cos", a) in calls}
        refs = [self._emit(e) for e in exprs]
        base = {"in": 0, "c": len(self.inputs),
                "t": len(self.inputs) + len(self.consts)}

        def reg(ref):
            return base[ref[0]] + ref[1]

        self.tape = [(fn, tuple(map(reg, args))) for fn, args in self._tape]
        self.outputs = [reg(r) for r in refs]
        # each instruction's operand fetch, bound once
        self._steps = [(fn, operator.itemgetter(*args), len(args) > 1)
                       for fn, args in self.tape]
        del self._memo, self._tape, self._params, self._paired, \
            self._varies

    def constant(self, reg):
        """The value of a register folded at compile time, else None."""
        k = reg - len(self.inputs)
        return self.consts[k] if 0 <= k < len(self.consts) else None

    def run(self, inputs):
        """All registers for one value per input."""
        if len(inputs) != len(self.inputs):
            raise PreconditionError(f"program takes {len(self.inputs)} "
                                    f"inputs, got {len(inputs)}")
        regs = [*inputs, *self.consts]
        for fn, fetch, many in self._steps:
            regs.append(fn(*fetch(regs)) if many else fn(fetch(regs)))
        return regs

    def __call__(self, *inputs):
        regs = self.run(inputs)
        return [regs[k] for k in self.outputs]

    # -- compilation ----------------------------------------------------

    def _constant(self, value):
        self.consts.append(value)
        return ("c", len(self.consts) - 1)

    def _op(self, fn, *args):
        self._tape.append((fn, args))
        return ("t", len(self._tape) - 1)

    def _memoized(self, key, make, *args):
        ref = self._memo.get(key)
        if ref is None:
            ref = self._memo[key] = make(*args)
        return ref

    def _emit(self, e):
        """The reference of ``e``, compiling every subtree not compiled
        yet after its operands."""
        return _fold(e, lambda s, *args: self._memo.setdefault(
            s, self._compile(s, *args)), self._operands, self._memo.get)

    def _operands(self, e):
        """The subtrees whose references :meth:`_compile` takes: none for a
        constant, which folds whole, and no constant exponent."""
        if not self._varies[id(e)]:
            return ()
        if isinstance(e, Binary) and e.op == "^" \
                and not self._varies[id(e.rhs)]:
            return (e.lhs,)
        return _children(e)

    def _compile(self, e, *args):
        """The reference of node ``e``, given those of its operands."""
        if not self._varies[id(e)]:
            try:
                return self._constant(eval_expr(e, self._params))
            except KeyError as k:
                raise PreconditionError(f"unbound name {k.args[0]!r}") \
                    from None
        if isinstance(e, Unary):
            return self._op(operator.neg, *args)
        if isinstance(e, Call) and e.fn in _SINCOS and e.arg in self._paired:
            pair = self._memoized(("sincos", e.arg),
                                  lambda: self._op(_sincos, *args))
            return self._op(_SINCOS[e.fn], pair)
        if isinstance(e, Call):
            return self._op(_FN_TABLE[e.fn], *args)
        if e.op == "^":
            if len(args) == 1:
                b = self._memoized(("^", e.rhs), lambda: self._constant(
                    _exponent(eval_expr(e.rhs, self._params))))
                return self._op(operator.pow, *args, b)
            return self._op(_power, *args)
        lhs, rhs = args
        if e.op != "/":
            return self._op(_OPERATORS[e.op], lhs, rhs)
        if rhs[0] == "c":
            return self._op(operator.truediv, lhs, rhs)
        rb = self._memoized(("1/", rhs), lambda: self._op(_reciprocal, rhs))
        if lhs[0] == "c" and self.consts[lhs[1]] == 1:
            return rb
        return self._op(_divide, lhs, rhs, rb)


# ---------------------------------------------------------------------------
# tokenizer and parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error with location and the token set that was expected."""

    def __init__(self, message, line, col, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(sorted(expected))
        hint = f" (expected one of: {', '.join(self.expected)})" \
            if self.expected else ""
        super().__init__(f"line {line}, column {col}: {message}{hint}")


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?
      |\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>\*|\+|-|/|\^|\(|\)|\[|\]|,|=)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str          # number | ident | sym | eof
    text: str
    line: int
    col: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(s)
        else:
            tokens.append(Token(kind, s, line, col))
            col += len(s)
        i = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# nesting levels an expression may open (parentheses, function calls,
# unary minus, exponents): the parser recurses through up to six frames per
# level, and this keeps it well inside the interpreter's recursion limit
MAX_NESTING = 128


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, message, expected=()):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    def expect_sym(self, sym):
        t = self.peek()
        if t.kind == "sym" and t.text == sym:
            return self.advance()
        self.fail(f"found {t.text!r}" if t.text else "unexpected end of "
                  "input", expected=(sym,))

    def expect_ident(self, what="identifier"):
        t = self.peek()
        if t.kind == "ident":
            return self.advance()
        self.fail(f"found {t.text!r} where {what} was expected",
                  expected=("identifier",))

    def expect_keyword(self, kw):
        t = self.peek()
        if t.kind == "ident" and t.text == kw:
            return self.advance()
        self.fail(f"found {t.text!r}", expected=(kw,))

    # expressions ------------------------------------------------------

    def parse_expr(self):
        return self.parse_sum()

    def parse_sum(self):
        e = self.parse_term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.advance()
            rhs = self.parse_term()
            e = Binary(op.text, e, rhs, (op.line, op.col))
        return e

    def parse_term(self):
        e = self.parse_unary()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.advance()
            rhs = self.parse_unary()
            e = Binary(op.text, e, rhs, (op.line, op.col))
        return e

    def parse_unary(self):
        # every nesting level passes here
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        t = self.peek()
        if t.kind == "sym" and t.text == "-":
            self.advance()
            e = Unary("-", self.parse_unary(), (t.line, t.col))
        else:
            e = self.parse_power()
        self.depth -= 1
        return e

    def parse_power(self):
        base = self.parse_atom()
        t = self.peek()
        if t.kind == "sym" and t.text == "^":
            self.advance()
            exp = self.parse_unary()      # right-associative
            return Binary("^", base, exp, (t.line, t.col))
        return base

    def parse_atom(self):
        t = self.peek()
        if t.kind == "number":
            self.advance()
            return Num(float(t.text), (t.line, t.col))
        if t.kind == "ident":
            self.advance()
            if t.text in FUNCTIONS:
                self.expect_sym("(")
                arg = self.parse_expr()
                self.expect_sym(")")
                return Call(t.text, arg, (t.line, t.col))
            return Name(t.text, (t.line, t.col))
        if t.kind == "sym" and t.text == "(":
            self.advance()
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        self.fail(f"found {t.text!r}" if t.text else "unexpected end of "
                  "input", expected=("number", "identifier", "("))

    # headers and declarations ----------------------------------------

    def parse_number_literal(self):
        neg = False
        t = self.peek()
        if t.kind == "sym" and t.text in "+-":
            neg = t.text == "-"
            self.advance()
            t = self.peek()
        if t.kind != "number":
            self.fail(f"found {t.text!r}", expected=("number",))
        self.advance()
        v = float(t.text)
        return -v if neg else v

    def parse_bound(self, coords, params):
        """A domain bound: a constant expression (no coordinates)."""
        e = self.parse_expr()
        bad = free_names(e) & set(coords)
        if bad:
            self.fail(f"domain bound uses coordinate {sorted(bad)[0]!r}")
        env = dict(params)
        try:
            return float(eval_expr(e, env))
        except KeyError as k:
            self.fail(f"unbound name {k.args[0]!r} in domain bound")

    def parse_range(self, coords, params):
        self.expect_sym("[")
        lo = self.parse_bound(coords, params)
        self.expect_sym(",")
        hi = self.parse_bound(coords, params)
        self.expect_sym("]")
        if not hi > lo:
            self.fail("empty domain interval")
        return (lo, hi)


def _check_bound(e, names):
    """``e``, or a ParseError at the first occurrence of its first name
    outside ``names`` and pi."""
    unbound = sorted(free_names(e) - set(names) - {"pi"})
    if unbound:
        raise ParseError(f"unbound name {unbound[0]!r}", *next(
            s.pos for s in _subtrees(e)
            if isinstance(s, Name) and s.ident == unbound[0]))
    return e


# ---------------------------------------------------------------------------
# geometry specs
# ---------------------------------------------------------------------------


@dataclass
class GeometrySpec:
    """A parsed or built-in geometry: curve, surface, or metric.

    ``exprs`` is a tuple of component expressions (curve, surface) or a
    nested tuple matrix (metric).  ``params`` are the bound constants;
    ``warnings`` collects non-fatal diagnostics such as a metric that fails
    positive definiteness at domain samples.
    """

    kind: str
    name: str
    coords: tuple
    domain: tuple
    exprs: object = None
    params: dict = field(default_factory=dict)
    periods: tuple = None
    provenance: str = "parsed"
    warnings: list = field(default_factory=list)

    def with_params(self, **params):
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=merged)

    @property
    def dim(self):
        return len(self.coords)

    def build(self):
        """Compile to a ParamCurve, SurfacePatch, or MetricChart.

        All component expressions compile into one :class:`Program`, whose
        evaluator writes them into one stacked jet (:func:`_stacked_fn`)."""
        periods = self.periods or (None,) * self.dim

        if self.kind == "curve":
            return ParamCurve(_stacked_fn(Program(self.exprs, self.coords,
                                                  self.params),
                                          (len(self.exprs),)),
                              self.domain[0], dim=len(self.exprs))

        if self.kind == "surface":
            return SurfacePatch(_stacked_fn(Program(self.exprs, self.coords,
                                                    self.params), (3,)),
                                self.domain, periods=periods, name=self.name)

        if self.kind == "metric":
            program = Program([e for row in self.exprs for e in row],
                              self.coords, self.params)
            write = _stacked_fn(program, (self.dim, self.dim))
            chart = MetricChart(self.dim, self.domain, lambda xj: write(*xj),
                                periods=periods, name=self.name)
            self._spd_check(chart)
            return chart

        raise PreconditionError(f"unknown geometry kind {self.kind}")

    def _spd_check(self, chart):
        axes = [np.linspace(lo, hi, 8) for lo, hi in self.domain]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh])
        g = chart.g_at(pts)
        gm = np.moveaxis(g, (0, 1), (-2, -1))
        try:
            eig = np.linalg.eigvalsh(gm)
        except np.linalg.LinAlgError:
            self.warnings.append("metric eigenvalue check failed to run")
            return
        if eig.min() <= 0:
            self.warnings.append(
                "metric is not positive definite at some domain samples "
                f"(min eigenvalue {eig.min():.3g})")


def _stacked_fn(program, shape):
    """An evaluator that runs ``program`` (the components of a tensor of
    ``shape``, row by row) on its input jets and writes them into one jet
    with coefficients (K, *shape, ...batch): equal components share one
    register, copied to each slot, and constant ones other than +0 are
    written as constants.  A basic-index copy per slot costs a quarter of
    one advanced-index write of several slots."""
    consts, writes = [], []
    for k, r in enumerate(program.outputs):
        at = np.unravel_index(k, shape)
        c = program.constant(r)
        if c is None:
            writes.append(((slice(None), *at), r))
        elif c != 0 or np.signbit(c):
            consts.append(((0, *at), c))

    def fn(*xj):
        regs = program.run(xj)
        like = xj[0]
        coef = np.zeros(like.coef.shape[:1] + shape + like.coef.shape[1:])
        for at, c in consts:
            coef[at] = c
        for at, r in writes:
            coef[at] = regs[r].coef
        return Jet(like.nvars, like.order, coef)

    return fn


def parse_geometry(text) -> GeometrySpec:
    """Parse one geometry declaration plus any ``param`` lines."""
    p = _Parser(tokenize(text))
    params = {}
    spec = None
    while p.peek().kind != "eof":
        t = p.peek()
        if t.kind != "ident":
            p.fail(f"found {t.text!r}",
                   expected=("surface", "metric", "curve", "param"))
        if t.text == "param":
            p.advance()
            pname = p.expect_ident("parameter name").text
            p.expect_sym("=")
            params[pname] = p.parse_number_literal()
            continue
        if t.text in ("surface", "metric", "curve"):
            if spec is not None:
                p.fail("only one geometry declaration per document")
            spec = _parse_declaration(p, t.text, params)
            continue
        p.fail(f"found {t.text!r}",
               expected=("surface", "metric", "curve", "param"))
    if spec is None:
        last = p.peek()
        raise ParseError("no geometry declaration found", last.line,
                         last.col, ("surface", "metric", "curve"))
    spec.params.update(params)
    return spec


def _parse_alone(text):
    """The expression that makes up all of ``text``."""
    p = _Parser(tokenize(text))
    expr = p.parse_expr()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.col)
    return expr


def parse_expression(text, variables=("s",), params=None):
    """Compile a single expression into a callable of ``variables``.

    The expression uses the same grammar as geometry component
    expressions and compiles to a :class:`Program`.  ``params`` supplies
    extra bound constants.
    """
    expr = _parse_alone(text)
    bound = dict(params or {})
    unknown = free_names(expr) - set(bound) - set(variables) - {"pi"}
    if unknown:
        raise PreconditionError(
            f"expression uses unbound names: {', '.join(sorted(unknown))}")
    program = Program([expr], variables, bound)
    return lambda *vals: program(*vals)[0]


def _parse_declaration(p: _Parser, kind, params):
    p.advance()
    name = p.expect_ident("geometry name").text
    p.expect_sym("(")
    coords = [p.expect_ident("coordinate name").text]
    while p.peek().kind == "sym" and p.peek().text == ",":
        p.advance()
        coords.append(p.expect_ident("coordinate name").text)
    if kind == "curve" and len(coords) != 1:
        p.fail("curves take exactly one coordinate")
    if kind == "surface" and len(coords) != 2:
        p.fail("surface declarations take exactly two coordinates")
    if kind == "metric" and len(coords) not in (2, 3):
        p.fail("metric declarations take two or three coordinates")
    p.expect_keyword("in")
    ranges = [p.parse_range(coords, params)]
    for _ in coords[1:]:
        p.expect_keyword("x")
        ranges.append(p.parse_range(coords, params))
    p.expect_sym(")")
    p.expect_sym("=")
    names = set(coords) | set(params)

    if kind in ("curve", "surface"):
        p.expect_sym("(")
        comps = [_check_bound(p.parse_expr(), names)]
        while p.peek().kind == "sym" and p.peek().text == ",":
            p.advance()
            comps.append(_check_bound(p.parse_expr(), names))
        p.expect_sym(")")
        want = (2, 3) if kind == "curve" else (3,)
        if len(comps) not in want:
            p.fail(f"{kind} needs {' or '.join(map(str, want))} components, "
                   f"got {len(comps)}")
        return GeometrySpec(kind, name, tuple(coords), tuple(ranges),
                            tuple(comps), dict(params))

    # metric: n rows of n entries, [[e, e], [e, e]] for n = 2
    rows = []
    p.expect_sym("[")
    for i in range(len(coords)):
        if i:
            p.expect_sym(",")
        p.expect_sym("[")
        row = []
        for j in range(len(coords)):
            if j:
                p.expect_sym(",")
            row.append(_check_bound(p.parse_expr(), names))
        p.expect_sym("]")
        rows.append(tuple(row))
    p.expect_sym("]")
    return GeometrySpec("metric", name, tuple(coords), tuple(ranges),
                        tuple(rows), dict(params))


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------


_TWO_PI = repr(2 * math.pi)
_POLAR_HI = repr(math.pi - 0.1)

_BUILTIN_SOURCES = {
    "plane": """
        surface plane (u,v in [-2,2]x[-2,2]) = (u, v, 0)
    """,
    "sphere": f"""
        param R = 1
        surface sphere (u,v in [0,{_TWO_PI}]x[0.1,{_POLAR_HI}]) =
            (R*cos(u)*sin(v), R*sin(u)*sin(v), R*cos(v))
    """,
    "cylinder": f"""
        param R = 1
        surface cylinder (u,v in [0,{_TWO_PI}]x[-2,2]) =
            (R*cos(u), R*sin(u), v)
    """,
    "cone": f"""
        surface cone (u,v in [0,{_TWO_PI}]x[0.2,2]) =
            (v*cos(u), v*sin(u), v)
    """,
    "torus": f"""
        param R = 2
        param r = 1
        surface torus (u,v in [0,{_TWO_PI}]x[0,{_TWO_PI}]) =
            ((R + r*cos(v))*cos(u), (R + r*cos(v))*sin(u), r*sin(v))
    """,
    "saddle": """
        surface saddle (u,v in [-1,1]x[-1,1]) = (u, v, u*v)
    """,
    "helix": f"""
        param r = 1
        param omega = 1
        param v = 0.5
        curve helix (t in [0,{repr(4 * math.pi)}]) =
            (r*cos(omega*t), r*sin(omega*t), v*t)
    """,
    "parabola": """
        curve parabola (t in [-2,2]) = (t, t*t)
    """,
    "cycloid": """
        param R = 1
        curve cycloid (t in [0.3,6]) = (R*(t - sin(t)), R*(1 - cos(t)))
    """,
    "viviani": f"""
        param R = 1
        curve viviani (t in [0,{_TWO_PI}]) =
            (R*(1 + cos(t)), R*sin(t), 2*R*sin(t/2))
    """,
    "lobachevsky_halfplane": """
        metric lobachevsky_halfplane (x,y in [-6,6]x[0.05,20]) =
            [[1/y^2, 0], [0, 1/y^2]]
    """,
    "hyperboloid_pullback": """
        metric hyperboloid_pullback (x,y in [-2,2]x[-2,2]) =
            [[1 - x^2/(1 + x^2 + y^2), -(x*y)/(1 + x^2 + y^2)],
             [-(x*y)/(1 + x^2 + y^2), 1 - y^2/(1 + x^2 + y^2)]]
    """,
    # the unit 3-sphere in stereographic coordinates scaled by 2: the
    # conformal factor f = 1/(1 + |x|^2/4)^2 times the identity
    "s3_round": """
        metric s3_round (x,y,z in [-2.5,2.5]x[-2.5,2.5]x[-2.5,2.5]) =
            [[{f}, 0, 0], [0, {f}, 0], [0, 0, {f}]]
    """.format(f="1/(1 + 0.25*(x*x + y*y + z*z))^2"),
}

_BUILTIN_PERIODS = {
    "sphere": (2 * math.pi, None),
    "cylinder": (2 * math.pi, None),
    "cone": (2 * math.pi, None),
    "torus": (2 * math.pi, 2 * math.pi),
    "revolution": (2 * math.pi, None),
}

_EXPR_PARAM_BUILTINS = {
    # name: (template, its coordinates, expression parameter defaults)
    "graph": ("surface graph (u,v in [-1,1]x[-1,1]) = (u, v, {f})",
              ("u", "v"), {"f": "u^2 + v^2"}),
    "revolution": (f"surface revolution (u,v in [0,{_TWO_PI}]x[-1.2,1.2]) = "
                   "(({f})*cos(u), ({f})*sin(u), {h})",
                   ("u", "v"), {"f": "2 + cos(v)", "h": "v"}),
    "conformal": ("metric conformal (x,y in [-1.5,1.5]x[-1.5,1.5]) = "
                  "[[{lam}, 0], [0, {lam}]]", ("x", "y"),
                  {"lam": "1 + x^2 + y^2"}),
}

BUILTIN_NAMES = tuple(sorted(list(_BUILTIN_SOURCES) +
                             list(_EXPR_PARAM_BUILTINS)))


def _expression_parameter(key, text, names):
    """An expression-valued builtin parameter, parsed on its own so that a
    ParseError names the parameter and points into the caller's string;
    ``names`` are the names it may use besides ``pi``."""
    try:
        return _check_bound(_parse_alone(text), names)
    except ParseError as exc:
        raise ParseError(f"parameter {key!r}: {exc.message}", exc.line,
                         exc.col, exc.expected) from None


def _number(name, k, v):
    try:
        return float(v)
    except ValueError:
        raise PreconditionError(f"{name}: parameter {k} must be a number, "
                                f"got {v!r}") from None


def builtin(name, params=None) -> GeometrySpec:
    """A ready-made geometry spec by name.

    Numeric parameters (R, r, omega, v) override the defaults; the
    function-shaped builtins graph(f), revolution(f, h), and
    conformal(lam) accept expression strings for those parameters.
    """
    params = dict(params or {})

    if name in _EXPR_PARAM_BUILTINS:
        template, coords, defaults = _EXPR_PARAM_BUILTINS[name]
        texts = dict(defaults)
        numeric = {}
        for k, v in params.items():
            if k in texts:
                texts[k] = str(v)
            else:
                numeric[k] = v
        exprs = {k: _expression_parameter(k, text, set(coords) | set(numeric))
                 for k, text in texts.items()}
        used = set().union(*map(free_names, exprs.values())) - set(coords)
        for k in numeric:
            if k not in used:
                raise PreconditionError(f"{name} has no parameter {k!r}")
        numeric = {k: _number(name, k, v) for k, v in numeric.items()}
        # the printed expressions parse back to the same trees
        spec = parse_geometry("".join(f"param {k} = {v!r}\n"
                                      for k, v in numeric.items())
                              + template.format(**{k: print_expr(e) for k, e
                                                   in exprs.items()}))
        spec.provenance = "builtin"
        if name in _BUILTIN_PERIODS:
            spec.periods = _BUILTIN_PERIODS[name]
        return spec

    if name not in _BUILTIN_SOURCES:
        raise PreconditionError(f"unknown builtin {name!r}; known: "
                                f"{', '.join(BUILTIN_NAMES)}")
    spec = parse_geometry(_BUILTIN_SOURCES[name])
    for k, v in params.items():
        if k not in spec.params:
            raise PreconditionError(f"{name} has no parameter {k!r}")
        spec.params[k] = _number(name, k, v)
    for k in ("R", "r"):
        if k in spec.params and spec.params[k] <= 0:
            raise PreconditionError(f"{name}: parameter {k} must be "
                                    "positive")
    if name == "torus" and spec.params["r"] >= spec.params["R"]:
        raise PreconditionError("torus needs r < R for an embedded surface")
    if name in _BUILTIN_PERIODS:
        spec.periods = _BUILTIN_PERIODS[name]
    spec.provenance = "builtin"
    return spec


# ---------------------------------------------------------------------------
# hyperbolic closed forms
# ---------------------------------------------------------------------------


def _as_complex(z):
    if isinstance(z, complex):
        return z
    z = np.asarray(z, dtype=float).ravel()
    if z.size != 2:
        raise PreconditionError("half-plane points are complex numbers or "
                                "(x, y) pairs")
    return complex(z[0], z[1])


def hyperbolic_distance(z1, z2) -> float:
    """Distance in the upper half-plane: arcosh(1 + |z1-z2|^2 / (2 y1 y2))."""
    z1 = _as_complex(z1)
    z2 = _as_complex(z2)
    if z1.imag <= 0 or z2.imag <= 0:
        raise PreconditionError("points must have positive imaginary part")
    q = 1.0 + abs(z1 - z2) ** 2 / (2.0 * z1.imag * z2.imag)
    return math.acosh(max(q, 1.0))


def hyperbolic_circle_length(R) -> float:
    """Circumference of a hyperbolic circle of geodesic radius R."""
    if R < 0:
        raise PreconditionError("radius must be nonnegative")
    return 2.0 * math.pi * math.sinh(R)


def hyperbolic_right_triangle(P, leg_a, leg_b):
    """Vertices of a right triangle in the half-plane, legs along
    perpendicular geodesics through P; returns (A, B) endpoints.

    The right angle sits at P; leg_a runs along the vertical geodesic,
    leg_b along the geodesic whose tangent at P is horizontal.
    Closed forms: the vertical geodesic scales y by e^t; the horizontal
    one is the semicircle through P centered where the normal hits the
    real axis.
    """
    P = _as_complex(P)
    A = complex(P.real, P.imag * math.exp(leg_a))
    # semicircle centered at (P.real, 0) with radius P.imag, arc-length
    # parameter t from the top: z(t) = c + r (sin(phi), cos(phi)) with
    # phi the Gudermannian of t
    phi = 2.0 * math.atan(math.tanh(leg_b / 2.0))
    B = complex(P.real + P.imag * math.sin(phi), P.imag * math.cos(phi))
    return A, B
