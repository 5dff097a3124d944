"""Symbolic expression trees for space- and time-dependent data fields.

Implements the small closed grammar used by config files and manufactured
solutions: floating literals, the variables ``x``, ``y``, ``t``, the constant
``pi``, the operators ``+ - * /``, integer powers ``^``, the functions
``sin``, ``cos``, ``exp``, and parentheses.  Every expression evaluates
vectorized over numpy arrays and differentiates symbolically with respect to
any of the three variables, so time derivatives of data fields are exact
rather than finite-differenced.
"""

from __future__ import annotations

import math
import re

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


class Expr:
    """Base class for expression-tree nodes.

    Nodes are immutable; arithmetic operators build new (lightly
    constant-folded) trees.  Calling a node evaluates it with numpy
    broadcasting over the given ``x``, ``y``, ``t`` arrays.
    """

    def __call__(self, x=0.0, y=0.0, t=0.0):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        args = [np.asarray(v, dtype=float) for v in (x, y, t)]
        value = self._ev(*args)
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
        return self._diff(var)

    # -- operator sugar (with light constant folding) -----------------------
    def __add__(self, other):
        other = _wrap(other)
        if _is_const(self, 0.0):
            return other
        if _is_const(other, 0.0):
            return self
        if isinstance(self, Const) and isinstance(other, Const):
            return Const(self.value + other.value)
        return Add(self, other)

    def __radd__(self, other):
        return _wrap(other) + self

    def __sub__(self, other):
        other = _wrap(other)
        if _is_const(other, 0.0):
            return self
        if isinstance(self, Const) and isinstance(other, Const):
            return Const(self.value - other.value)
        if _is_const(self, 0.0):
            return Neg(other)
        return Sub(self, other)

    def __rsub__(self, other):
        return _wrap(other) - self

    def __mul__(self, other):
        other = _wrap(other)
        if _is_const(self, 0.0) or _is_const(other, 0.0):
            return Const(0.0)
        if _is_const(self, 1.0):
            return other
        if _is_const(other, 1.0):
            return self
        if isinstance(self, Const) and isinstance(other, Const):
            return Const(self.value * other.value)
        return Mul(self, other)

    def __rmul__(self, other):
        return _wrap(other) * self

    def __truediv__(self, other):
        other = _wrap(other)
        if _is_const(other, 1.0):
            return self
        if _is_const(self, 0.0) and not _is_const(other, 0.0):
            return Const(0.0)
        if isinstance(self, Const) and isinstance(other, Const) and other.value != 0.0:
            return Const(self.value / other.value)
        return Div(self, other)

    def __rtruediv__(self, other):
        return _wrap(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            raise ExpressionError("exponents must be integers, got %r" % (exponent,))
        return Pow.make(self, int(exponent))

    def __neg__(self):
        if isinstance(self, Const):
            return Const(-self.value)
        if isinstance(self, Neg):
            return self.arg
        return Neg(self)

    def __pos__(self):
        return self


def _is_const(node, value):
    return isinstance(node, Const) and node.value == value


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def _ev(self, x, y, t):
        return self.value

    def _diff(self, var):
        return Const(0.0)

    def __repr__(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        if name not in VARIABLES:
            raise ExpressionError("unknown variable %r" % (name,))
        self.name = name

    def _ev(self, x, y, t):
        return {"x": x, "y": y, "t": t}[self.name]

    def _diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def __repr__(self):
        return self.name


class Add(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _ev(self, x, y, t):
        return self.a._ev(x, y, t) + self.b._ev(x, y, t)

    def _diff(self, var):
        return self.a._diff(var) + self.b._diff(var)

    def __repr__(self):
        return "(%r + %r)" % (self.a, self.b)


class Sub(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _ev(self, x, y, t):
        return self.a._ev(x, y, t) - self.b._ev(x, y, t)

    def _diff(self, var):
        return self.a._diff(var) - self.b._diff(var)

    def __repr__(self):
        return "(%r - %r)" % (self.a, self.b)


class Mul(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _ev(self, x, y, t):
        return self.a._ev(x, y, t) * self.b._ev(x, y, t)

    def _diff(self, var):
        return self.a._diff(var) * self.b + self.a * self.b._diff(var)

    def __repr__(self):
        return "(%r * %r)" % (self.a, self.b)


class Div(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _ev(self, x, y, t):
        return self.a._ev(x, y, t) / self.b._ev(x, y, t)

    def _diff(self, var):
        da, db = self.a._diff(var), self.b._diff(var)
        return (da * self.b - self.a * db) / Pow.make(self.b, 2)

    def __repr__(self):
        return "(%r / %r)" % (self.a, self.b)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base, self.exponent = base, int(exponent)

    @staticmethod
    def make(base, exponent):
        if exponent == 0:
            return Const(1.0)
        if exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value ** exponent)
        return Pow(base, exponent)

    def _ev(self, x, y, t):
        return self.base._ev(x, y, t) ** self.exponent

    def _diff(self, var):
        return Const(self.exponent) * Pow.make(self.base, self.exponent - 1) \
            * self.base._diff(var)

    def __repr__(self):
        return "(%r^%d)" % (self.base, self.exponent)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def _ev(self, x, y, t):
        return -self.arg._ev(x, y, t)

    def _diff(self, var):
        return -self.arg._diff(var)

    def __repr__(self):
        return "(-%r)" % (self.arg,)


class Sin(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = _wrap(arg)

    def _ev(self, x, y, t):
        return np.sin(self.arg._ev(x, y, t))

    def _diff(self, var):
        return Cos(self.arg) * self.arg._diff(var)

    def __repr__(self):
        return "sin(%r)" % (self.arg,)


class Cos(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = _wrap(arg)

    def _ev(self, x, y, t):
        return np.cos(self.arg._ev(x, y, t))

    def _diff(self, var):
        return -(Sin(self.arg) * self.arg._diff(var))

    def __repr__(self):
        return "cos(%r)" % (self.arg,)


class Exp(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = _wrap(arg)

    def _ev(self, x, y, t):
        return np.exp(self.arg._ev(x, y, t))

    def _diff(self, var):
        return Exp(self.arg) * self.arg._diff(var)

    def __repr__(self):
        return "exp(%r)" % (self.arg,)


X = Var("x")
Y = Var("y")
T = Var("t")
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
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                node = node + rhs if value == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = node * rhs if value == "*" else node / rhs
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.factor()
            return inner if value == "+" else -inner

        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            node = Pow.make(node, self.integer_exponent())
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
            return Const(float(value))
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
