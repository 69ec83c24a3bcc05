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
"""

from __future__ import annotations

import re as _re

import numpy as np

from .grid import ComplexGrid, ScalarField


class ExpressionError(ValueError):
    """Parse or evaluation failure; message carries the source position."""


_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?i?|\.\d+(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

_FUNCTIONS = ("exp", "re", "im", "conj", "bump")
_VARIABLES = ("z", "zbar")


def _tokenize(text: str):
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
        if m.group("num") is not None:
            lit = m.group("num")
            if lit.endswith("i"):
                out.append(("num", complex(0.0, float(lit[:-1]))))
            else:
                out.append(("num", complex(float(lit), 0.0)))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


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
        self._tokens = _tokenize(text)
        self._pos = 0
        self._ast = self._parse_expr()
        kind, _ = self._peek()
        if kind != "end":
            raise ExpressionError(
                f"unexpected trailing input near token {self._pos} in {text!r}"
            )

    # --- recursive descent ---
    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_op(self, symbol):
        kind, val = self._next()
        if kind != "op" or val != symbol:
            raise ExpressionError(f"expected {symbol!r} near token {self._pos} in {self.text!r}")

    def _parse_expr(self):
        node = self._parse_term()
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, sym = self._next()
            rhs = self._parse_term()
            node = (sym, node, rhs)
        return node

    def _parse_term(self):
        node = self._parse_unary()
        while self._peek() == ("op", "*") or self._peek() == ("op", "/"):
            _, sym = self._next()
            rhs = self._parse_unary()
            node = (sym, node, rhs)
        return node

    def _parse_unary(self):
        if self._peek() == ("op", "-"):
            self._next()
            return ("neg", self._parse_unary())
        return self._parse_power()

    def _parse_power(self):
        base = self._parse_atom()
        if self._peek() == ("op", "^"):
            self._next()
            negative = False
            if self._peek() == ("op", "-"):
                self._next()
                negative = True
            kind, val = self._next()
            if kind != "num" or val.imag != 0 or val.real != int(val.real):
                raise ExpressionError(
                    f"power needs an integer exponent near token {self._pos} in {self.text!r}"
                )
            exponent = int(val.real) * (-1 if negative else 1)
            return ("pow", base, exponent)
        return base

    def _parse_atom(self):
        kind, val = self._next()
        if kind == "num":
            return ("const", val)
        if kind == "name":
            if val in _VARIABLES:
                return ("var", val)
            if val in _FUNCTIONS:
                self._expect_op("(")
                args = [self._parse_expr()]
                while self._peek() == ("op", ","):
                    self._next()
                    args.append(self._parse_expr())
                self._expect_op(")")
                return ("call", val, args)
            raise ExpressionError(f"unknown name {val!r} in {self.text!r}")
        if kind == "op" and val == "(":
            node = self._parse_expr()
            self._expect_op(")")
            return node
        raise ExpressionError(f"unexpected token near position {self._pos} in {self.text!r}")

    # --- evaluation ---
    def _eval(self, node, z):
        op = node[0]
        if op == "const":
            return node[1]
        if op == "var":
            if z is None:
                raise ExpressionError(f"{node[1]!r} is not allowed in a constant expression")
            return z if node[1] == "z" else np.conj(z)
        if op == "neg":
            return -self._eval(node[1], z)
        if op == "pow":
            return self._eval(node[1], z) ** node[2]
        if op in "+-*/":
            a = self._eval(node[1], z)
            b = self._eval(node[2], z)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            return a / b
        if op == "call":
            name, args = node[1], node[2]
            if name == "bump":
                if len(args) != 4:
                    raise ExpressionError("bump takes exactly (cx, cy, radius, amp)")
                cx, cy, radius, amp = (self._const_arg(a) for a in args)
                if z is None:
                    raise ExpressionError("bump is not allowed in a constant expression")
                return bump_profile(z, cx.real, cy.real, radius.real, amp)
            if len(args) != 1:
                raise ExpressionError(f"{name} takes exactly one argument")
            v = self._eval(args[0], z)
            if name == "exp":
                return np.exp(v)
            if name == "re":
                return np.real(v) + 0j
            if name == "im":
                return np.imag(v) + 0j
            return np.conj(v)
        raise ExpressionError(f"malformed expression node {op!r}")  # pragma: no cover

    def _const_arg(self, node) -> complex:
        v = self._eval(node, None)
        return complex(v)

    def _finite(self, z):
        """The expression's value at z (None for a constant), refused unless finite."""
        with np.errstate(all="ignore"):
            try:
                vals = self._eval(self._ast, z)
            except ZeroDivisionError:
                raise ExpressionError(f"division by zero in {self.text!r}") from None
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
