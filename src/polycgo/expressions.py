"""Closed-form coefficient expressions evaluated on grids.

Grammar (documented for config authors):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' ['-'] INTEGER)?
    atom    := NUMBER | 'z' | 'zbar' | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

NUMBER is a float literal; an immediately trailing 'i' makes it imaginary, so
complex constants are written like 1+2i or 0.5i.  Functions: exp(f), re(f),
im(f), conj(f), and bump(cx, cy, radius, amp) - the smooth compactly supported
profile amp * exp(1 - 1/(1 - r^2/radius^2)) for r = |z - (cx + i*cy)| < radius
and identically zero outside.  Powers take integer exponents only.

The grammar is a subset of Python's expression grammar with the same
precedences, so each token is spelled as Python, Python's parser builds the
tree, and one pass over the tree admits only the nodes the grammar allows.
"""

from __future__ import annotations

import ast
import operator
import re as _re
from math import isfinite

import numpy as np

from .grid import ComplexGrid, ScalarField


class ExpressionError(ValueError):
    """Parse or evaluation failure; the message quotes the expression."""


_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?i?|\.\d+(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)
# what Python's tree no longer shows, so it is refused in the spelled source:
# a '**' (a '^') not followed by [-] NUMBER, as in z^(2), and a trailing ',' in a call
_NOT_IN_GRAMMAR = _re.compile(r"\*\*(?! (?:- )?\d)|, \)")

_UNARY_FUNCTIONS = {
    "exp": np.exp,
    "re": lambda v: np.real(v) + 0j,
    "im": lambda v: np.imag(v) + 0j,
    "conj": np.conj,
}
_ARITY = dict.fromkeys(_UNARY_FUNCTIONS, 1) | {"bump": 4}
_VARIABLES = ("z", "zbar")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _as_python(text: str) -> str:
    """text with each token spelled as Python, space-separated: '^' is '**',
    a number is the repr of its double and a trailing 'i' is 'j'."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionError(
                f"unexpected character {stripped[0]!r} at position {pos} in {text!r}"
            )
        num, name, op = m.group("num", "name", "op")
        if num is not None:
            value = float(num.removesuffix("i"))
            if not isfinite(value):
                raise ExpressionError(f"number {num!r} is beyond double range in {text!r}")
            out.append(repr(value) + ("j" if num.endswith("i") else ""))
        else:
            out.append(name or ("**" if op == "^" else op))
        pos = m.end()
    source = " ".join(out)
    if _NOT_IN_GRAMMAR.search(source):
        raise ExpressionError(f"a '^' without [-] NUMBER or a ',' before ')' in {text!r}")
    return source


def _exponent(node) -> int | None:
    """The integer of a '^' exponent node, [-] NUMBER; None unless it is a real integer."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node, sign = node.operand, -1
    if isinstance(node, ast.Constant) and type(node.value) is float and node.value.is_integer():
        return sign * int(node.value)
    return None


def _admitted(node, callees) -> bool:
    """Whether node belongs to the grammar; each call's function name joins callees."""
    if isinstance(node, ast.BinOp):
        return type(node.op) in _BINARY and (
            not isinstance(node.op, ast.Pow) or _exponent(node.right) is not None
        )
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub)
    if isinstance(node, ast.Constant):
        return type(node.value) in (float, complex)
    if isinstance(node, ast.Name):
        return node.id in _VARIABLES or node in callees
    if isinstance(node, ast.Call):
        callees.add(node.func)
        return (
            isinstance(node.func, ast.Name)
            and len(node.args) == _ARITY.get(node.func.id)
            and not node.keywords
        )
    return isinstance(node, (ast.operator, ast.unaryop, ast.Load))


def bump_profile(z: np.ndarray, cx: float, cy: float, radius: float, amp: complex):
    """amp * exp(1 - 1/(1 - r^2/radius^2)) inside |z - c| < radius, else 0."""
    if radius <= 0:
        raise ExpressionError(f"bump radius must be positive, got {radius}")
    t = np.abs(z - (cx + 1j * cy)) ** 2 / radius**2
    inside = t < 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        body = np.exp(1.0 - 1.0 / np.where(inside, 1.0 - t, 1.0))
    return amp * np.where(inside, body, 0.0)


class Expression:
    """Parsed expression; evaluate on a grid or as a variable-free constant."""

    def __init__(self, text: str):
        self.text = text
        source = _as_python(text)
        try:
            self._ast = ast.parse(source, mode="eval").body
        except (SyntaxError, RecursionError) as exc:
            raise ExpressionError(f"cannot parse {text!r}: {getattr(exc, 'msg', exc)}") from None
        callees = set()
        for node in ast.walk(self._ast):
            if not _admitted(node, callees):
                found = ast.get_source_segment(source, node)
                raise ExpressionError(f"{found!r} is not in the grammar, in {text!r}")

    def _eval(self, node, z):
        if isinstance(node, ast.Constant):
            return complex(node.value)
        if isinstance(node, ast.Name):
            if z is None:
                raise ExpressionError(f"{node.id!r} is not allowed in a constant expression")
            return z if node.id == "z" else np.conj(z)
        if isinstance(node, ast.UnaryOp):
            return -self._eval(node.operand, z)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                return self._eval(node.left, z) ** _exponent(node.right)
            return _BINARY[type(node.op)](self._eval(node.left, z), self._eval(node.right, z))
        name = node.func.id
        if name == "bump":
            cx, cy, radius, amp = (complex(self._eval(a, None)) for a in node.args)
            if z is None:
                raise ExpressionError("bump is not allowed in a constant expression")
            return bump_profile(z, cx.real, cy.real, radius.real, amp)
        return _UNARY_FUNCTIONS[name](self._eval(node.args[0], z))

    def _finite(self, z):
        """The expression's value at z (None for a constant), refused unless finite."""
        with np.errstate(all="ignore"):
            try:
                vals = self._eval(self._ast, z)
            except ZeroDivisionError:
                raise ExpressionError(f"division by zero in {self.text!r}") from None
            except (OverflowError, RecursionError) as exc:
                raise ExpressionError(f"cannot evaluate {self.text!r}: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ExpressionError(f"{self.text!r} is not finite everywhere it is evaluated")
        return vals

    def evaluate(self, grid: ComplexGrid) -> ScalarField:
        vals = self._finite(grid.nodes)
        if np.isscalar(vals) or getattr(vals, "shape", ()) == ():
            return grid.constant(complex(vals))
        return ScalarField(grid, vals)

    def evaluate_constant(self) -> complex:
        return complex(self._finite(None))


def parse_expression(text: str) -> Expression:
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a nonempty string")
    return Expression(text)


def field_from_expression(grid: ComplexGrid, text: str) -> ScalarField:
    return parse_expression(text).evaluate(grid)


def constant_from_expression(text: str) -> complex:
    return parse_expression(text).evaluate_constant()
