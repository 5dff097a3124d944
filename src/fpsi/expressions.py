"""Symbolic expressions for space- and time-dependent data fields.

Implements the small closed grammar used by config files and manufactured
solutions: floating literals, the variables ``x``, ``y``, ``t``, the constant
``pi``, the operators ``+ - * /``, integer powers ``^``, the functions
``sin``, ``cos``, ``exp``, and parentheses.  Every expression evaluates
vectorized over numpy arrays and differentiates symbolically with respect to
any of the three variables, so time derivatives of data fields are exact
rather than finite-differenced.

All expressions are nodes of one interned graph (hash-consing): a
structurally equal subexpression is always the same :class:`Expr`, so a
call computes each distinct subexpression once, and evaluation,
differentiation and ``repr`` are tables over the node's operator.
:func:`separate` splits an expression once into time factors times space
fields, so a consumer can evaluate the space fields once per mesh.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import weakref

import numpy as np

VARIABLES = ("x", "y", "t")


class ExpressionError(ValueError):
    """Raised for syntax or evaluation errors in the expression grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "position %d: %s" % (position, message)
        super().__init__(message)
        self.position = position


def _wrap(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Const(float(value))
    raise TypeError("cannot use %r in an expression" % (value,))


# live nodes by structure; a constant is keyed by its bits
_INTERNED = weakref.WeakValueDictionary()

# the function each operator applies to its operands' values; ``const`` and
# ``var`` nodes are not applied (their value is the constant or an argument)
_EVAL = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": operator.truediv, "pow": operator.pow, "neg": operator.neg,
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
}

# the derivative of a node with respect to ``v``, from the node's args
_DIFF = {
    "const": lambda v, value: ZERO,
    "var": lambda v, name: ONE if name == v else ZERO,
    "add": lambda v, a, b: a.diff(v) + b.diff(v),
    "sub": lambda v, a, b: a.diff(v) - b.diff(v),
    "mul": lambda v, a, b: a.diff(v) * b + a * b.diff(v),
    "div": lambda v, a, b: (a.diff(v) * b - a * b.diff(v)) / b ** 2,
    "pow": lambda v, a, n: Const(n) * a ** (n - 1) * a.diff(v),
    "neg": lambda v, a: -a.diff(v),
    "sin": lambda v, a: Cos(a) * a.diff(v),
    "cos": lambda v, a: -(Sin(a) * a.diff(v)),
    "exp": lambda v, a: Exp(a) * a.diff(v),
}

_REPR = {
    "const": "%r", "var": "%s", "add": "(%r + %r)", "sub": "(%r - %r)",
    "mul": "(%r * %r)", "div": "(%r / %r)", "pow": "(%r^%d)", "neg": "(-%r)",
    "sin": "sin(%r)", "cos": "cos(%r)", "exp": "exp(%r)",
}


class Expr:
    """One node ``(op, args)`` of the interned expression graph.

    ``args`` holds the operand nodes, except that a ``const`` node holds
    its float value, a ``var`` node its variable name, and a ``pow`` node
    its integer exponent after the base.  ``Expr(op, args)`` returns the
    live node of that structure if there is one, so equal subexpressions
    are one object.  Nodes are immutable; arithmetic operators build new
    (lightly constant-folded) nodes.  Calling a node evaluates it with
    numpy broadcasting over the given ``x``, ``y``, ``t`` arrays, computing
    each distinct node below it once.  ``variables`` is the set of variable
    names the node depends on.
    """

    __slots__ = ("op", "args", "variables", "_program", "_derivatives",
                 "__weakref__")

    def __new__(cls, op, args):
        key = (op, struct.pack("<d", args[0])) if op == "const" \
            else (op,) + args
        node = _INTERNED.get(key)
        if node is None:
            node = super().__new__(cls)
            node.op, node.args = op, args
            node.variables = frozenset(args) if op == "var" else frozenset(
                v for a in args if isinstance(a, Expr) for v in a.variables)
            node._program, node._derivatives = None, {}
            _INTERNED[key] = node
        return node

    def __repr__(self):
        return _REPR[self.op] % self.args

    def __call__(self, x=0.0, y=0.0, t=0.0):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        args = [np.asarray(v, dtype=float) for v in (x, y, t)]
        if self._program is None:
            self._program = _compile(self)
        initial, steps, root = self._program
        values = args + initial
        for slot, op, operands, exponent, dead in steps:
            values[slot] = _EVAL[op](*[values[k] for k in operands],
                                     *exponent)
            for k in dead:
                values[k] = None
        value = values[root]
        if shape == ():
            return float(value)
        # a fresh ufunc result is the caller's; a broadcast constant or an
        # argument passed through is not
        if (isinstance(value, np.ndarray) and value.shape == shape
                and value.base is None and value.flags.writeable
                and not any(value is a for a in args)):
            return value
        return np.array(np.broadcast_to(value, shape), dtype=float)

    def diff(self, var):
        """Partial derivative with respect to ``var`` in {'x','y','t'}."""
        if var not in VARIABLES:
            raise ExpressionError("unknown differentiation variable %r" % (var,))
        if var not in self._derivatives:
            self._derivatives[var] = _DIFF[self.op](var, *self.args)
        return self._derivatives[var]

    # -- operator sugar (with light constant folding) -----------------------
    def __add__(self, other):
        other = _wrap(other)
        if _is_const(self, 0.0):
            return other
        if _is_const(other, 0.0):
            return self
        if self.op == other.op == "const":
            return Const(self.args[0] + other.args[0])
        return Expr("add", (self, other))

    def __radd__(self, other):
        return _wrap(other) + self

    def __sub__(self, other):
        other = _wrap(other)
        if _is_const(other, 0.0):
            return self
        if self.op == other.op == "const":
            return Const(self.args[0] - other.args[0])
        if _is_const(self, 0.0):
            return Expr("neg", (other,))
        return Expr("sub", (self, other))

    def __rsub__(self, other):
        return _wrap(other) - self

    def __mul__(self, other):
        other = _wrap(other)
        if _is_const(self, 0.0) or _is_const(other, 0.0):
            return ZERO
        if _is_const(self, 1.0):
            return other
        if _is_const(other, 1.0):
            return self
        if self.op == other.op == "const":
            return Const(self.args[0] * other.args[0])
        return Expr("mul", (self, other))

    def __rmul__(self, other):
        return _wrap(other) * self

    def __truediv__(self, other):
        other = _wrap(other)
        if _is_const(other, 0.0):
            raise ExpressionError("division by zero")
        if _is_const(other, 1.0):
            return self
        if _is_const(self, 0.0):
            return ZERO
        if self.op == other.op == "const":
            return Const(self.args[0] / other.args[0])
        return Expr("div", (self, other))

    def __rtruediv__(self, other):
        return _wrap(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            raise ExpressionError("exponents must be integers, got %r" % (exponent,))
        exponent = int(exponent)
        if exponent == 0:
            return ONE
        if exponent == 1:
            return self
        if self.op == "const":
            if exponent < 0 and self.args[0] == 0.0:
                raise ExpressionError("zero raised to a negative power")
            try:
                return Const(self.args[0] ** exponent)
            except OverflowError:
                raise ExpressionError("%r^%d is not finite"
                                      % (self.args[0], exponent)) from None
        return Expr("pow", (self, exponent))

    def __neg__(self):
        if self.op == "const":
            return Const(-self.args[0])
        if self.op == "neg":
            return self.args[0]
        return Expr("neg", (self,))

    def __pos__(self):
        return self


def _is_const(node, value):
    return node.op == "const" and node.args[0] == value


def _compile(root):
    """The distinct nodes under ``root`` in post order, as evaluation steps.

    Slots 0-2 hold the ``x``, ``y``, ``t`` arrays and a ``var`` node reads
    its slot; every other node has a slot of its own, preset to the value
    of a ``const`` node.  Each remaining node is one step ``(slot, op,
    operand slots, exponent, dead)``, where ``dead`` lists the slots it
    reads for the last time.  Returns (preset slots, steps, root slot).
    """
    slots, initial, steps = {}, [], []

    def visit(node):
        if node in slots:
            return
        operands = [a for a in node.args if isinstance(a, Expr)]
        for a in operands:
            visit(a)
        if node.op == "var":
            slots[node] = VARIABLES.index(node.args[0])
            return
        slots[node] = len(VARIABLES) + len(initial)
        if node.op == "const":
            initial.append(node.args[0])
        else:
            initial.append(None)
            steps.append((slots[node], node.op,
                          tuple(slots[a] for a in operands),
                          node.args[len(operands):], []))

    visit(root)
    last_read = {k: step for step in steps for k in step[2]}
    for k, step in last_read.items():
        step[4].append(k)
    return initial, steps, slots[root]


def Const(value):
    """The constant node of ``value``, which must be finite."""
    if not math.isfinite(value):
        raise ExpressionError("the constant %r is not finite" % value)
    return Expr("const", (float(value),))


def Sin(arg):
    return Expr("sin", (_wrap(arg),))


def Cos(arg):
    return Expr("cos", (_wrap(arg),))


def Exp(arg):
    return Expr("exp", (_wrap(arg),))


X = Expr("var", ("x",))
Y = Expr("var", ("y",))
T = Expr("var", ("t",))
ZERO = Const(0.0)
ONE = Const(1.0)
PI = Const(math.pi)

_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}
_NAMES = {"x": X, "y": Y, "t": T, "pi": PI}

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    )
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExpressionError("unexpected character %r" % text[bad], bad)
        if match.lastgroup is not None:
            tokens.append((match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _at(pos, build, operand):
    """``build(operand)``, with a folding error reported at ``pos``."""
    try:
        return build(operand)
    except ExpressionError as exc:
        raise ExpressionError(str(exc), pos) from None


class _Parser:
    """Recursive-descent parser for the data-field grammar."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError("expected %r, found %r" % (op, value or "end of input"), pos)
        return self.advance()

    def parse(self):
        node = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError("unexpected trailing %r" % (value,), pos)
        return node

    def expression(self):
        node = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                build = node.__add__ if value == "+" else node.__sub__
                node = _at(pos, build, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                build = node.__mul__ if value == "*" else node.__truediv__
                node = _at(pos, build, rhs)
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.factor()
            return inner if value == "+" else -inner

        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = _at(pos, node.__pow__, self.integer_exponent())
        return node

    def integer_exponent(self):
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, pos = self.peek()
        if kind != "number":
            raise ExpressionError("expected an integer exponent, found %r"
                                  % (value or "end of input"), pos)
        self.advance()
        number = float(value)
        if number != int(number):
            raise ExpressionError("exponents must be integers, got %s" % value, pos)
        return sign * int(number)

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return _at(pos, Const, float(value))
        if kind == "name":
            if value in _NAMES:
                return _NAMES[value]
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return _FUNCTIONS[value](arg)
            raise ExpressionError("unknown name %r" % (value,), pos)
        if kind == "op" and value == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExpressionError("expected a value, found %r" % (value or "end of input"), pos)


def parse_expression(text):
    """Parse ``text`` in the data-field grammar and return an :class:`Expr`.

    Parameters
    ----------
    text : str
        Expression over ``x``, ``y``, ``t`` with ``pi`` predefined, e.g.
        ``"sin(pi*x) * t"``.

    Raises
    ------
    ExpressionError
        On any syntax error, with the offending position in the message.
    """
    if not isinstance(text, str):
        raise ExpressionError("expected a string, got %r" % (text,))
    if not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# separation into time factors times space fields
# ---------------------------------------------------------------------------

_SPACE = frozenset("xy")


def separate(expr):
    """``expr`` as ``sum_j tau_j(t) * s_j(x, y)``: the pairs ``(tau_j, s_j)``.

    A node free of ``t`` is a space field.  ``add``, ``sub`` and ``neg``
    concatenate their operands' terms, ``mul`` and a positive integer
    ``pow`` distribute, and ``div`` keeps its terms when the denominator is
    free of ``t`` (or of ``x`` and ``y``), so constants and signs end on the
    space side.  Any other node of ``t`` alone is a time factor, and
    anything else one space-time term with time factor 1: a space field
    that still depends on ``t`` marks a term that does not separate.  Terms
    are grouped by time factor, one per distinct factor in order of first
    appearance, none with a zero space field.
    """
    memo = {}

    def terms(node):
        if node not in memo:
            memo[node] = _grouped(split(node))
        return memo[node]

    def split(node):
        op, args = node.op, node.args
        if "t" not in node.variables:
            return [(ONE, node)]
        if op == "add":
            return terms(args[0]) + terms(args[1])
        if op == "sub":
            return terms(args[0]) + [(tau, -s) for tau, s in terms(args[1])]
        if op == "neg":
            return [(tau, -s) for tau, s in terms(args[0])]
        if op == "mul":
            return _products(terms(args[0]), terms(args[1]))
        if op == "pow" and args[1] > 0:
            out = terms(args[0])
            for _ in range(args[1] - 1):
                out = _grouped(_products(out, terms(args[0])))
            return out
        if op == "div" and "t" not in args[1].variables:
            return [(tau, s / args[1]) for tau, s in terms(args[0])]
        if op == "div" and not args[1].variables & _SPACE:
            return [(tau / args[1], s) for tau, s in terms(args[0])]
        if not node.variables & _SPACE:
            return [(node, ONE)]
        return [(ONE, node)]

    return tuple(terms(_wrap(expr)))


def _products(left, right):
    return [(ta * tb, sa * sb) for ta, sa in left for tb, sb in right]


def _grouped(pairs):
    """One pair per time factor, its space fields summed; zero ones dropped."""
    space = {}
    for tau, s in pairs:
        space[tau] = space[tau] + s if tau in space else s
    return [(tau, s) for tau, s in space.items() if s is not ZERO]


# ---------------------------------------------------------------------------
# small vector-calculus helpers over expression pairs
# ---------------------------------------------------------------------------

def grad(e):
    """Spatial gradient (d/dx, d/dy) of a scalar expression."""
    return (e.diff("x"), e.diff("y"))


def div(v):
    """Divergence of a 2-component expression field."""
    return v[0].diff("x") + v[1].diff("y")


def dt(e):
    """Time derivative; accepts a scalar expression or a tuple of them."""
    if isinstance(e, tuple):
        return tuple(c.diff("t") for c in e)
    return e.diff("t")


def sym_grad(v):
    """Symmetric gradient D(v) of a 2-component field, as a 2x2 nest."""
    vxx, vxy = v[0].diff("x"), v[0].diff("y")
    vyx, vyy = v[1].diff("x"), v[1].diff("y")
    half = Const(0.5)
    off = half * (vxy + vyx)
    return ((vxx, off), (off, vyy))
