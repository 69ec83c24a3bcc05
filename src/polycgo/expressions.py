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
and identically zero outside, where cx, cy and radius are finite and real.
Powers take integer exponents only.  A tree nested deeper than MAX_DEPTH (a
sum of more than MAX_DEPTH terms, say) is refused.

The grammar is a subset of Python's expression grammar with the same
precedences, so each token is spelled as Python and Python's parser builds the
tree.  One walk over the tree, at construction, admits only the nodes the
grammar allows, bounds its depth and compiles it to a postfix program; each
evaluation is one pass over that program.
"""

from __future__ import annotations

import ast
import cmath
import operator
import re as _re
import sys
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
# the most expression nodes on one root-to-leaf path: a bound of its own, so what
# parses does not hang on the interpreter's recursion limit or the caller's stack
MAX_DEPTH = 2500
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}


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


def _parse(source: str):
    """ast.parse of source, with the recursion headroom its tree conversion
    needs for MAX_DEPTH nodes whatever the caller's stack depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + MAX_DEPTH)
    try:
        return ast.parse(source, mode="eval").body
    finally:
        sys.setrecursionlimit(limit)


def _step(node, constant: bool):
    """(node's program step, its operands left to right), or None outside the grammar.

    constant marks a node inside bump's arguments: a variable or bump there is
    refused when evaluated.  A '^' exponent is read from the tree, not compiled.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return ("const", complex(node.value)), []
    if isinstance(node, ast.Name) and node.id in _VARIABLES:
        return (node.id, constant), []
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ("neg", None), [node.operand]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        exponent = _exponent(node.right)
        return None if exponent is None else (("pow", exponent), [node.left])
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return ("binary", _BINARY[type(node.op)]), [node.left, node.right]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        name = node.func.id
        if len(node.args) == _ARITY.get(name):
            step = ("bump", constant) if name == "bump" else ("call", _UNARY_FUNCTIONS[name])
            return step, node.args
    return None


def bump_profile(z: np.ndarray, cx: complex, cy: complex, radius: complex, amp: complex):
    """amp * exp(1 - 1/(1 - r^2/radius^2)) inside |z - c| < radius, else 0.

    cx, cy and radius must be finite and real; exp is evaluated on the nodes
    inside only, and the rest stay +0.0.
    """
    for name, arg in (("cx", cx), ("cy", cy), ("radius", radius)):
        if arg.imag or not cmath.isfinite(arg):
            raise ExpressionError(f"bump {name} must be a finite real number, got {arg}")
    cx, cy, radius = cx.real, cy.real, radius.real
    if radius <= 0:
        raise ExpressionError(f"bump radius must be positive, got {radius}")
    if not cmath.isfinite(amp):
        raise ExpressionError(f"bump amplitude must be finite, got {amp}")
    t = np.abs(z - (cx + 1j * cy)) ** 2 / radius**2
    inside = t < 1.0
    out = np.zeros(t.shape, dtype=np.complex128)
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    return out


class Expression:
    """Parsed expression, held as its postfix program; evaluate on a grid or as
    a variable-free constant."""

    def __init__(self, text: str):
        """Parse text and compile its tree to the postfix program in one walk.

        The walk, with an explicit stack, admits each node to the grammar and
        bounds its depth by MAX_DEPTH when it reaches it.  A node's step follows
        its operands' steps, left to right, so a sum of thousands of terms runs
        the operations, in the order, of a recursive walk.
        """
        self.text = text
        source = _as_python(text)
        try:
            root = _parse(source)
        except (SyntaxError, RecursionError) as exc:
            raise ExpressionError(f"cannot parse {text!r}: {getattr(exc, 'msg', exc)}") from None
        self._program = []
        todo = [(root, 1, False)]
        while todo:
            entry = todo.pop()
            if not isinstance(entry[0], ast.AST):  # a step whose operands are compiled
                self._program.append(entry)
                continue
            node, depth, constant = entry
            if depth > MAX_DEPTH:
                raise ExpressionError(f"{text!r} is nested deeper than {MAX_DEPTH}")
            found = _step(node, constant)
            if found is None:
                segment = ast.get_source_segment(source, node)
                raise ExpressionError(f"{segment!r} is not in the grammar, in {text!r}")
            step, operands = found
            todo.append(step)
            constant = constant or step[0] == "bump"
            todo.extend((child, depth + 1, constant) for child in reversed(operands))

    def _eval(self, z):
        """The program's value at z (None for a constant): each step takes its
        operands from the top of the value stack and leaves its value there."""
        values = []
        for kind, arg in self._program:
            if kind == "const":
                values.append(arg)
            elif kind in _VARIABLES:
                if arg or z is None:
                    raise ExpressionError(f"{kind!r} is not allowed in a constant expression")
                values.append(z if kind == "z" else np.conj(z))
            elif kind == "neg":
                values.append(-values.pop())
            elif kind == "pow":
                values.append(values.pop() ** arg)
            elif kind == "binary":
                right = values.pop()
                values.append(arg(values.pop(), right))
            elif kind == "call":
                values.append(arg(values.pop()))
            else:
                cx, cy, radius, amp = (complex(a) for a in values[-4:])
                del values[-4:]
                if arg or z is None:
                    raise ExpressionError("bump is not allowed in a constant expression")
                values.append(bump_profile(z, cx, cy, radius, amp))
        return values.pop()

    def _value(self, z):
        """The expression's value at z (None for a constant), not yet checked finite."""
        with np.errstate(all="ignore"):
            try:
                return self._eval(z)
            except ZeroDivisionError:
                raise ExpressionError(f"division by zero in {self.text!r}") from None
            except OverflowError as exc:
                raise ExpressionError(f"cannot evaluate {self.text!r}: {exc}") from None

    def evaluate(self, grid: ComplexGrid) -> ScalarField:
        vals = self._value(grid.nodes)
        try:  # the field's one finiteness scan; a field keeps the evaluation's own array
            return grid.constant(complex(vals)) if np.ndim(vals) == 0 else ScalarField(grid, vals)
        except ValueError:
            raise ExpressionError(f"{self.text!r} is not finite everywhere it is evaluated") from None

    def evaluate_constant(self) -> complex:
        value = complex(self._value(None))
        if not cmath.isfinite(value):
            raise ExpressionError(f"{self.text!r} is not finite")
        return value


def parse_expression(text: str) -> Expression:
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a nonempty string")
    return Expression(text)


def field_from_expression(grid: ComplexGrid, text: str) -> ScalarField:
    return parse_expression(text).evaluate(grid)


def constant_from_expression(text: str) -> complex:
    return parse_expression(text).evaluate_constant()
