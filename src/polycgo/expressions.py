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
sum of more than MAX_DEPTH terms, say) is refused; a group's parentheses add
no node to it.

The grammar's own tokens are read in one left-to-right pass, an iterative
operator-precedence parse that emits the postfix program directly: no tree is
built, nothing recurses, and no interpreter state is touched, so MAX_DEPTH is
the only bound on what parses.  Each evaluation is one pass over that program.
"""

from __future__ import annotations

import cmath
import operator
import re as _re
from math import isfinite

import numpy as np

from .grid import ComplexGrid, ScalarField, _span


class ExpressionError(ValueError):
    """Parse or evaluation failure; the message quotes the expression."""


_NUMBER = r"\d+\.?\d*(?:[eE][+-]?\d+)?i?|\.\d+(?:[eE][+-]?\d+)?i?"
# a call is a name before '(' and a power a '^' before [-] NUMBER: the token decides
# each of the grammar's two context rules, and a bare '^' is an op token it refuses
_TOKEN = _re.compile(
    rf"\s*(?:(?P<num>{_NUMBER})"
    r"|(?P<call>[A-Za-z_][A-Za-z_0-9]*)\s*\("
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    rf"|\^\s*(?P<power>-?\s*(?:{_NUMBER}))"
    r"|(?P<op>[-+*/^(),]))"
)

_UNARY_FUNCTIONS = {
    "exp": np.exp,
    "re": lambda v: np.real(v) + 0j,
    "im": lambda v: np.imag(v) + 0j,
    "conj": np.conj,
}
_ARITY = dict.fromkeys(_UNARY_FUNCTIONS, 1) | {"bump": 4}
_VARIABLES = ("z", "zbar")
# the most expression nodes on one root-to-leaf path, and the one bound on what parses
MAX_DEPTH = 2500
# a waiting operator is (binding strength, program step, operand count); an open
# group or call waits as [0, its function's name or None, its arguments so far]
_BINARY = {"+": (1, ("binary", operator.add), 2), "-": (1, ("binary", operator.sub), 2),
           "*": (2, ("binary", operator.mul), 2), "/": (2, ("binary", operator.truediv), 2)}
_NEG = (3, ("neg", None), 1)


def _constant(token: str, text: str) -> complex:
    value = float(token.removesuffix("i"))
    if not isfinite(value):
        raise ExpressionError(f"number {token!r} is beyond double range in {text!r}")
    return complex(0.0, value) if token.endswith("i") else complex(value)


def bump_profile(grid: ComplexGrid, cx: complex, cy: complex, radius: complex, amp: complex):
    """amp * exp(1 - 1/(1 - r^2/radius^2)) at the grid's nodes inside |z - c| < radius, else 0.

    cx, cy and radius must be finite and real.  r^2/radius^2 is the sum of the
    1-D factors ((x - cx)/radius)^2 and ((y - cy)/radius)^2, each formed along
    one axis from the nodes' own real and imaginary parts.  Each factor is
    below 1 on one contiguous run of its axis, so the nodes inside lie in one
    box: the profile is formed in place on that box alone, exp only where
    inside, and every other node stays +0.0.
    """
    for name, arg in (("cx", cx), ("cy", cy), ("radius", radius)):
        if arg.imag or not cmath.isfinite(arg):
            raise ExpressionError(f"bump {name} must be a finite real number, got {arg}")
    cx, cy, radius = cx.real, cy.real, radius.real
    if radius <= 0:
        raise ExpressionError(f"bump radius must be positive, got {radius}")
    if not cmath.isfinite(amp):
        raise ExpressionError(f"bump amplitude must be finite, got {amp}")
    amp = complex(amp)  # a complex product, so the masked write casts nothing
    t = grid.axis_offsets
    tx = ((grid.center.real + t - cx) / radius) ** 2
    ty = ((grid.center.imag + t - cy) / radius) ** 2
    rows, cols = _span(tx < 1.0), _span(ty < 1.0)
    s = tx[rows, None] + ty[None, cols]
    inside = s < 1.0
    np.subtract(1.0, s, out=s)
    np.divide(1.0, s, out=s, where=inside)
    np.subtract(1.0, s, out=s)
    np.exp(s, out=s, where=inside)
    out = np.zeros((grid.n, grid.n), dtype=np.complex128)
    np.multiply(s, amp, out=out[rows, cols], where=inside)
    return out


class Expression:
    """Parsed expression, held as its postfix program; evaluate on a grid or as
    a variable-free constant."""

    def __init__(self, text: str):
        """Compile text to the postfix program in one pass over its tokens.

        An operand is due at the start and after an operator, a ',' or an open
        bracket.  A waiting operator is emitted once one of no greater binding
        strength follows it, and ',' and ')' emit those waiting down to their
        bracket; a power applies at once to the value just emitted.  So each
        step follows its operands' steps, as in a post-order walk of the tree.
        """
        self.text = text
        self._program = []
        depths = []  # each value's depth, beside it on the evaluation's value stack
        waiting = []
        bumps = 0  # open bump calls: a variable or bump inside one is refused when evaluated
        operand_due, after_power = True, False

        def emit(step, arity):
            depth = 1 + max(depths[len(depths) - arity:], default=0)
            if depth > MAX_DEPTH:
                raise ExpressionError(f"{text!r} is nested deeper than {MAX_DEPTH}")
            del depths[len(depths) - arity:]
            depths.append(depth)
            self._program.append(step)

        def emit_waiting(strength):  # down to the nearest bracket at strength 1
            while waiting and waiting[-1][0] >= strength:
                emit(*waiting.pop()[1:])

        pos = 0
        while m := _TOKEN.match(text, pos):
            kind, op = m.lastgroup, m["op"]
            token, pos = m[kind], m.end()
            if operand_due:
                if kind == "num":
                    emit(("const", _constant(token, text)), 0)
                elif kind == "name" and token in _VARIABLES:
                    emit((token, bumps > 0), 0)
                elif kind == "call" and token in _ARITY:
                    waiting.append([0, token, 1])
                    bumps += token == "bump"
                elif op in ("(", "-"):
                    waiting.append([0, None, 1] if op == "(" else _NEG)
                else:
                    break
            elif kind == "power" and not after_power:
                number = token.lstrip("-").lstrip()
                value = _constant(number, text).real
                if number.endswith("i") or not value.is_integer():
                    raise ExpressionError(f"exponent {number!r} is not an integer in {text!r}")
                emit(("pow", -int(value) if token[0] == "-" else int(value)), 1)
            elif op in _BINARY:
                emit_waiting(_BINARY[op][0])
                waiting.append(_BINARY[op])
            elif op in (",", ")"):
                emit_waiting(1)
                if not waiting or op == "," and waiting[-1][1] is None:
                    break
                if op == ",":
                    waiting[-1][2] += 1
                elif waiting[-1][1] is None:  # a group's ')' adds no step
                    waiting.pop()
                else:
                    _, name, args = waiting.pop()
                    if args != _ARITY[name]:
                        raise ExpressionError(
                            f"{name} takes {_ARITY[name]} arguments, not {args}, in {text!r}"
                        )
                    bumps -= name == "bump"
                    emit(("bump", bumps > 0) if name == "bump"
                         else ("call", _UNARY_FUNCTIONS[name]), args)
            else:
                break
            operand_due = kind == "call" or op not in (None, ")")
            after_power = kind == "power"
        if m:  # a token that no state of the parse admits
            token = m[0].lstrip()
            raise ExpressionError(
                f"{token!r} at position {m.end() - len(token)} is not in the grammar, in {text!r}"
            )
        rest = text[pos:].lstrip()
        if rest:
            raise ExpressionError(
                f"unexpected character {rest[0]!r} at position {pos} in {text!r}"
            )
        if not operand_due:
            emit_waiting(1)
        if operand_due or waiting:
            raise ExpressionError(f"{text!r} ends early or leaves a bracket open")

    def _eval(self, grid):
        """The program's value on grid (None for a constant): each step takes its
        operands from the top of the value stack and leaves its value there.
        A z or zbar step reads grid.nodes and a bump its axes, so an expression
        of bumps alone never builds the node array."""
        values = []
        for kind, arg in self._program:
            if kind == "const":
                values.append(arg)
            elif kind in _VARIABLES:
                if arg or grid is None:
                    raise ExpressionError(f"{kind!r} is not allowed in a constant expression")
                values.append(grid.nodes if kind == "z" else np.conj(grid.nodes))
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
                if arg or grid is None:
                    raise ExpressionError("bump is not allowed in a constant expression")
                values.append(bump_profile(grid, cx, cy, radius, amp))
        return values.pop()

    def _value(self, grid):
        """The expression's value on grid (None for a constant), not yet checked finite."""
        with np.errstate(all="ignore"):
            try:
                return self._eval(grid)
            except ZeroDivisionError:
                raise ExpressionError(f"division by zero in {self.text!r}") from None
            except OverflowError as exc:
                raise ExpressionError(f"cannot evaluate {self.text!r}: {exc}") from None

    def evaluate(self, grid: ComplexGrid) -> ScalarField:
        vals = self._value(grid)
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
