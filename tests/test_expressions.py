import ast
import operator
import re as _re
import sys
import tracemalloc
from math import isfinite

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import DEEP_EXPRESSIONS, smooth_bump_profile

from polycgo import (
    ComplexGrid,
    ExpressionError,
    constant_from_expression,
    field_from_expression,
    parse_expression,
)
from polycgo.expressions import (
    _ARITY,
    _UNARY_FUNCTIONS,
    _VARIABLES,
    MAX_DEPTH,
    Expression,
    bump_profile,
)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("3", 3 + 0j),
            ("2.5", 2.5 + 0j),
            ("1i", 1j),
            ("0.5i", 0.5j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("-3.5+0.25i", -3.5 + 0.25j),
            ("2e-3", 0.002 + 0j),
            ("1.5e2i", 150j),
            ("007", 7 + 0j),
            (".25", 0.25 + 0j),
        ],
    )
    def test_complex_literals(self, text, expect):
        assert constant_from_expression(text) == pytest.approx(expect)

    def test_variables_forbidden_in_constants(self):
        with pytest.raises(ExpressionError):
            constant_from_expression("z + 1")


class TestGrammar:
    def test_precedence(self):
        assert constant_from_expression("2 + 3 * 4") == 14
        assert constant_from_expression("2 * 3 ^ 2") == 18
        assert constant_from_expression("-2 ^ 2") == -4
        assert constant_from_expression("(2 + 3) * 4") == 20
        assert constant_from_expression("8 / 2 / 2") == 2

    def test_power_requires_integer(self):
        with pytest.raises(ExpressionError):
            parse_expression("z ^ 1.5")

    def test_negative_power(self):
        assert constant_from_expression("2 ^ -2") == pytest.approx(0.25)

    def test_integral_float_exponent(self, grid64):
        assert np.array_equal(field_from_expression(grid64, "z^2.0").values, grid64.nodes**2)

    @pytest.mark.parametrize("bad", [
        "bump(", "z +", "(1 + 2", "1 2", "foo(3)", "z ^ z", "",
        # Python spellings and forms outside the grammar
        "z^(2)", "z^1.5", "2^-2^2", "z**2", "1j", "+z", "(1,2)", "z(1)", "exp(z,)",
        "exp()", "exp(z,z)", "exp(z, ^2)", "bump(0, 0, 1)", "1e999", "None", "z if z else z",
        "z^0i", "z^2^2", "(exp)(z)", "((bump)) (0, 0, 1, 1)",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)

    def test_grouped_power_and_spaced_call(self):
        # a second '^' is refused only where it follows a power directly, and a
        # call's name may stand apart from its '('
        assert Expression("(z^2)^2")._program == [("z", False), ("pow", 2), ("pow", 2)]
        assert Expression("exp (z)")._program == Expression("exp(z)")._program

    def test_nesting_at_the_bound_parses_and_evaluates(self):
        # 2499 calls and z: MAX_DEPTH nodes on one path, and far past the 200
        # brackets Python's tokenizer admits
        grid = ComplexGrid(0j, 1.0, 16)
        text = "conj(" * (MAX_DEPTH - 1) + "z" + ")" * (MAX_DEPTH - 1)
        assert np.array_equal(field_from_expression(grid, text).values, np.conj(grid.nodes))

    def test_nesting_past_the_bound_is_refused(self):
        with pytest.raises(ExpressionError, match="nested deeper"):
            parse_expression("conj(" * MAX_DEPTH + "z" + ")" * MAX_DEPTH)

    @pytest.mark.parametrize("count", (201, 10000))
    def test_redundant_parentheses_add_no_node(self, count):
        assert Expression("(" * count + "z" + ")" * count)._program == Expression("z")._program

    @pytest.mark.parametrize("text", DEEP_EXPRESSIONS.values(), ids=DEEP_EXPRESSIONS)
    def test_deep_input_is_a_parse_error(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    @pytest.mark.parametrize("extra", (0, 2000, 10000))
    def test_depth_bound_ignores_recursion_limit(self, extra):
        # Hypothesis raises the interpreter's limit while a test runs; under a
        # raised limit ast.parse once took 5000 minus signs, which then evaluated
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + extra)
        try:
            for text in DEEP_EXPRESSIONS.values():
                with pytest.raises(ExpressionError):
                    parse_expression(text)
            sum_at_bound = "+".join(["z"] * MAX_DEPTH)
            minus_at_bound = "-" * (MAX_DEPTH - 1) + "z"
            parse_expression(sum_at_bound)
            parse_expression(minus_at_bound)
            for deeper in (sum_at_bound + "+z", "-" + minus_at_bound):
                with pytest.raises(ExpressionError, match="nested deeper"):
                    parse_expression(deeper)
        finally:
            sys.setrecursionlimit(limit)

    def test_parse_keeps_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sum_at_bound = "+".join(["z"] * MAX_DEPTH)
        parse_expression(sum_at_bound)
        assert sys.getrecursionlimit() == limit
        with pytest.raises(ExpressionError, match="nested deeper"):
            parse_expression(sum_at_bound + "+z")
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("terms", (1500, 2500))
    def test_long_sum_evaluates_left_to_right(self, terms):
        # deeper than the interpreter's recursion limit
        grid = ComplexGrid(0j, 1.0, 16)
        values = {"z": grid.nodes, "0.3": 0.3 + 0j, "zbar": np.conj(grid.nodes), "1.7i": 1.7j}
        parts = list(values) * (terms // 4)
        expect = values[parts[0]]
        for part in parts[1:]:
            expect = expect + values[part]
        got = field_from_expression(grid, "+".join(parts)).values
        assert np.array_equal(got, expect)

    def test_unknown_character(self):
        with pytest.raises(ExpressionError):
            parse_expression("z & 2")


class TestFieldEvaluation:
    def test_z_and_zbar(self, grid64):
        f = field_from_expression(grid64, "z * zbar")
        assert np.allclose(f.values, np.abs(grid64.nodes) ** 2)

    def test_exp_re_im_conj(self, grid64):
        f = field_from_expression(grid64, "exp(re(z)) + 1i * im(z) - conj(z)")
        z = grid64.nodes
        expect = np.exp(z.real) + 1j * z.imag - np.conj(z)
        assert np.allclose(f.values, expect)

    def test_constant_expression_broadcasts(self, grid64):
        f = field_from_expression(grid64, "2 + 1i")
        assert np.all(f.values == 2 + 1j)

    def test_bump_profile_matches_reference(self, grid64):
        f = field_from_expression(grid64, "bump(0.1, -0.2, 0.5, 2)")
        expect = smooth_bump_profile(grid64.nodes, 0.1, -0.2, 0.5, 2.0)
        assert np.allclose(f.values, expect)

    def test_bump_peak_and_support(self, grid256):
        f = field_from_expression(grid256, "bump(0, 0, 0.5, 3)")
        center = grid256.n // 2
        # peak value is the amplitude at the center (up to off-node shift)
        assert abs(f.values[center, center]) == pytest.approx(3.0, rel=1e-3)
        outside = np.abs(grid256.nodes) >= 0.5
        assert np.all(f.values[outside] == 0)

    @pytest.mark.parametrize("amp", ["1e308*10", "-1e308*10", "1e308*10i", "1e308*10 - 1e308*10"])
    def test_bump_non_finite_amplitude_refused(self, amp):
        # also where no node lies inside the support, so no node's value is non-finite
        grid = ComplexGrid(0j, 1.0, 16)
        with pytest.raises(ExpressionError, match="amplitude must be finite"):
            field_from_expression(grid, f"bump(0.01, 0.01, 1e-3, {amp})")

    def test_bump_is_positive_zero_outside(self, grid64):
        f = field_from_expression(grid64, "bump(0, 0, 0.5, -2 + 0.5i)")
        outside = np.abs(grid64.nodes) >= 0.5
        parts = np.stack((f.values.real, f.values.imag))[:, outside]
        assert np.all(parts == 0) and not np.any(np.signbit(parts))

    @pytest.mark.parametrize("amp", ["-1 - 3i", "0.5i", "-4"])
    def test_bump_box_corners_are_positive_zero(self, grid64, amp):
        # the profile is formed on the whole box of the disc and only the write
        # is masked: the box's corners, outside the disc, stay +0.0 as well
        f = bump_profile(grid64, 0.1, -0.2, 0.45, complex(constant_from_expression(amp)))
        rows, cols = np.flatnonzero(np.any(f, axis=1)), np.flatnonzero(np.any(f, axis=0))
        box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        corners = (np.abs(grid64.nodes - (0.1 - 0.2j)) >= 0.45)[box]
        assert corners[0, 0] and corners[-1, -1]
        parts = np.stack((f[box].real, f[box].imag))[:, corners]
        assert np.all(parts == 0) and not np.any(np.signbit(parts))

    def test_bump_clipped_by_the_grid_edge(self, grid64):
        # the disc's box reaches the last row and the first column
        got = bump_profile(grid64, 0.9, -0.95, 0.5, 2.0)
        expect = smooth_bump_profile(grid64.nodes, 0.9, -0.95, 0.5, 2.0)
        assert np.all(np.abs(got - expect) <= BUMP_ROUNDOFF * 2.0)
        assert np.any(got[-1]) and np.any(got[:, 0])
        assert np.array_equal(got == 0, expect == 0)

    @pytest.mark.parametrize("cx,cy", [(3.0, 0.0), (0.0, -1.6), (2.0, 2.0)])
    def test_bump_wholly_outside_the_grid(self, grid64, cx, cy):
        # the disc misses the rows, the columns, or both: the zero field
        got = bump_profile(grid64, cx, cy, 0.5, -1 - 1j)
        assert got.shape == (64, 64) and not np.any(got)
        assert not np.any(np.signbit(got.view(float)))

    def test_bump_radius_below_the_spacing(self, grid64):
        # centred on a node, the disc holds that node alone, at the full amplitude;
        # centred between nodes, it holds none
        s, node = grid64.spacing, complex(grid64.nodes[20, 41])
        got = bump_profile(grid64, node.real, node.imag, 0.4 * s, 3 - 1j)
        assert np.flatnonzero(got).tolist() == [20 * 64 + 41] and got[20, 41] == 3 - 1j
        assert not np.any(bump_profile(grid64, node.real + s / 2, node.imag, 0.4 * s, 1))

    def test_bump_builds_no_node_array(self):
        # bumps read the grid's axes; only a z or zbar step builds the nodes
        grid = ComplexGrid(0.1 - 0.05j, 1.0, 64)
        field_from_expression(grid, "2 * bump(0.1, 0, 0.5, 1) - bump(-0.2, 0.3, 0.4, 1i) + 1")
        assert "nodes" not in grid.__dict__
        field_from_expression(grid, "bump(0.1, 0, 0.5, 1) * zbar")
        assert "nodes" in grid.__dict__

    def test_bump_peak_memory(self):
        # one n = 512 bump field holds the field, the box's real profile and its
        # mask, and the field's finiteness scan: 1.207 n x n complex arrays
        # measured for a radius-0.5 disc, where the complex hypot over every
        # node took 2.889 with the node array
        grid = ComplexGrid(0j, 1.0, 512)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            field_from_expression(grid, "bump(0, 0, 0.5, 3)")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * grid.n**2 * np.dtype(complex).itemsize

    @pytest.mark.parametrize("args,name", [
        ("0.5i, 0, 0.3, 1", "cx"), ("0, 0.1 - 2i, 0.3, 1", "cy"), ("0, 0, 0.3+5i, 1", "radius"),
        ("1e308*10, 0, 0.3, 1", "cx"), ("0, 1e308*10 - 1e308*10, 0.3, 1", "cy"),
        ("0, 0, 1e308*10, 2", "radius"),
    ])
    def test_bump_center_and_radius_must_be_finite_and_real(self, grid64, args, name):
        # bump once read the real parts alone, so bump(0.5i, 0, 0.3, 1) was bump(0, 0, 0.3, 1);
        # an infinite center gave a zero field, and an infinite radius the constant amp
        with pytest.raises(ExpressionError, match=f"bump {name} must be a finite real number"):
            field_from_expression(grid64, f"bump({args})")

    @pytest.mark.parametrize("text", ["exp(z)", "re(z)", "z"])
    def test_evaluated_array_is_not_copied(self, text):
        # a field made from the evaluator's own array keeps that array; the
        # nodes themselves ("z") are copied, never frozen into a field
        grid = ComplexGrid(0j, 1.0, 512)
        nodes, size = grid.nodes, grid.n * grid.n * 16
        tracemalloc.start()
        try:
            f = field_from_expression(grid, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size
        assert not f.values.flags.writeable and not np.shares_memory(f.values, nodes)

    def test_bump_argument_validation(self, grid64):
        with pytest.raises(ExpressionError):
            field_from_expression(grid64, "bump(0, 0, 1)")
        with pytest.raises(ExpressionError):
            field_from_expression(grid64, "bump(0, 0, -1, 1)")
        with pytest.raises(ExpressionError):
            field_from_expression(grid64, "bump(z, 0, 1, 1)")


# bump_profile forms r^2/radius^2 as ((x - cx)/radius)^2 + ((y - cy)/radius)^2,
# the reference as |z - c|^2/radius^2 by a complex hypot: each within a few
# rounding errors of r^2/radius^2 = 1 - u.  The profile e^(1 - 1/u) moves by at
# most max_u e^(1 - 1/u)/u^2 = 4 e^(-1) (about 1.47) times that, so the two agree to
# a few eps * |amp|; 8 eps * |amp| bounds it (measured at most 3.25 eps at n = 1024).
BUMP_ROUNDOFF = 8 * np.finfo(float).eps


@given(
    n=st.sampled_from([16, 32, 64]),
    center=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    half_width=st.floats(0.25, 4.0),
    cx=st.floats(-3.0, 3.0),
    cy=st.floats(-3.0, 3.0),
    radius=st.floats(1e-3, 5.0),
    amp=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_bump_profile_matches_the_hypot_formula(n, center, half_width, cx, cy, radius, amp):
    grid = ComplexGrid(center, half_width, n)
    got = bump_profile(grid, complex(cx), complex(cy), complex(radius), amp)
    expect = smooth_bump_profile(grid.nodes, cx, cy, radius, amp)
    assert np.all(np.abs(got - expect) <= BUMP_ROUNDOFF * abs(amp))


@given(
    a=st.integers(-5, 5),
    b=st.integers(-5, 5),
    c=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_polynomial_expressions_match_numpy(a, b, c, ):
    import polycgo

    g = polycgo.ComplexGrid(0j, 1.0, 16)
    text = f"({a}) * z ^ {c} + ({b}) * zbar - 0.5i"
    f = field_from_expression(g, text)
    z = g.nodes
    assert np.allclose(f.values, a * z**c + b * np.conj(z) - 0.5j)


# A tree-walking reference for the compiled program: the depth bounded by one
# walk, the grammar admitted by ast.walk, and the value computed by a post-order
# walk of the tree on each evaluation.
_REF_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv, ast.Pow: operator.pow}
_REF_ARITY = dict.fromkeys(_UNARY_FUNCTIONS, 1) | {"bump": 4}


def _ref_exponent(node):
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node, sign = node.operand, -1
    if isinstance(node, ast.Constant) and type(node.value) is float and node.value.is_integer():
        return sign * int(node.value)
    return None


def _ref_operands(node):
    if isinstance(node, ast.BinOp):
        return [node.left] if isinstance(node.op, ast.Pow) else [node.left, node.right]
    if isinstance(node, ast.UnaryOp):
        return [node.operand]
    if isinstance(node, ast.Call):
        return node.args
    return []


def _ref_admitted(node, callees):
    if isinstance(node, ast.BinOp):
        return type(node.op) in _REF_BINARY and (
            not isinstance(node.op, ast.Pow) or _ref_exponent(node.right) is not None
        )
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub)
    if isinstance(node, ast.Constant):
        return type(node.value) in (float, complex)
    if isinstance(node, ast.Name):
        return node.id in ("z", "zbar") or node in callees
    if isinstance(node, ast.Call):
        callees.add(node.func)
        return (
            isinstance(node.func, ast.Name)
            and len(node.args) == _REF_ARITY.get(node.func.id)
            and not node.keywords
        )
    return isinstance(node, (ast.operator, ast.unaryop, ast.Load))


def _ref_walk(root, grid):
    values = []
    todo = [(root, grid, False)]
    while todo:
        node, grid, ready = todo.pop()
        if not ready:
            todo.append((node, grid, True))
            if isinstance(node, ast.Call) and node.func.id == "bump":
                grid = None
            todo.extend((child, grid, False) for child in reversed(_ref_operands(node)))
            continue
        if isinstance(node, ast.Constant):
            values.append(complex(node.value))
        elif isinstance(node, ast.Name):
            if grid is None:
                raise ExpressionError(f"{node.id!r} is not allowed in a constant expression")
            values.append(grid.nodes if node.id == "z" else np.conj(grid.nodes))
        elif isinstance(node, ast.UnaryOp):
            values.append(-values.pop())
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            values.append(values.pop() ** _ref_exponent(node.right))
        elif isinstance(node, ast.BinOp):
            right = values.pop()
            values.append(_REF_BINARY[type(node.op)](values.pop(), right))
        elif node.func.id == "bump":
            cx, cy, radius, amp = (complex(a) for a in values[-4:])
            del values[-4:]
            if grid is None:
                raise ExpressionError("bump is not allowed in a constant expression")
            values.append(bump_profile(grid, cx, cy, radius, amp))
        else:
            values.append(_UNARY_FUNCTIONS[node.func.id](values.pop()))
    return values.pop()


# The compiler the one-pass parse replaced, kept as the reference for its
# programs: each token spelled as Python, Python's parser builds the tree, and
# one walk admits the grammar's nodes, bounds the depth and compiles the tree.
_TOKEN = _re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?i?|\.\d+(?:[eE][+-]?\d+)?i?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)
# what Python's tree no longer shows, so it is refused in the spelled source:
# a '**' (a '^') not followed by [-] NUMBER, as in z^(2), and a trailing ',' in a call
_NOT_IN_GRAMMAR = _re.compile(r"\*\*(?! (?:- )?\d)|, \)")
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


def reference_program(text: str) -> list:
    """text's postfix program by the compile walk over Python's tree."""
    source = _as_python(text)
    try:
        root = _parse(source)
    except (SyntaxError, RecursionError) as exc:
        raise ExpressionError(f"cannot parse {text!r}: {getattr(exc, 'msg', exc)}") from None
    program = []
    todo = [(root, 1, False)]
    while todo:
        entry = todo.pop()
        if not isinstance(entry[0], ast.AST):  # a step whose operands are compiled
            program.append(entry)
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
    return program


def reference_value(text, grid):
    """text's finite value on grid (None for a constant) by the tree walks."""
    source = _as_python(text)
    try:
        root = _parse(source)
    except (SyntaxError, RecursionError):
        raise ExpressionError("cannot parse") from None
    deepest, todo = 0, [(root, 1)]
    while todo:
        node, depth = todo.pop()
        deepest = max(deepest, depth)
        todo.extend((child, depth + 1) for child in _ref_operands(node))
    callees = set()
    if deepest > MAX_DEPTH or not all(_ref_admitted(n, callees) for n in ast.walk(root)):
        raise ExpressionError("refused")
    with np.errstate(all="ignore"):
        try:
            vals = _ref_walk(root, grid)
        except (ZeroDivisionError, OverflowError):
            raise ExpressionError("refused") from None
    if not np.all(np.isfinite(vals)):
        raise ExpressionError("not finite")
    return vals


def _outcome(evaluate):
    try:
        return np.asarray(evaluate()).tobytes()
    except ExpressionError:
        return "refused"


_NUMBERS = st.sampled_from([
    "0", "0.0", "1", "2", "0.5", "2.5", "1e-3", "3e2", "1e308", "0.5i", "3i", "0.0i", ".25",
])
_CONSTANTS = st.recursive(
    _NUMBERS,
    lambda inner: st.one_of(
        st.builds("-{}".format, inner),
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
    ),
    max_leaves=3,
)


def _compound(inner):
    return st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("-{}".format, inner),
        st.builds("{}^{}".format, inner, st.sampled_from(
            ["0", "1", "2", "3", "-1", "-2", "2.0", "-0", "1.5", "z", "(2)"])),
        st.builds("{}({})".format, st.sampled_from(["exp", "re", "im", "conj", "foo", "z"]), inner),
        st.builds("bump({}, {}, {}, {})".format, _CONSTANTS, _CONSTANTS,
                  st.sampled_from(["0.3", "0.7", "-1", "0", "0.5+1i", "1e-3"]), inner),
        st.builds("bump({}, {}, {}, {})".format, inner, inner, inner, inner),
        st.builds("({}, {})".format, inner, inner),
    )


_EXPRESSIONS = st.recursive(
    st.one_of(_NUMBERS, st.sampled_from(["z", "zbar"])), _compound, max_leaves=12
)


@given(text=_EXPRESSIONS)
@settings(max_examples=400, deadline=None)
def test_program_matches_the_tree_walk(text):
    # the same inputs refused, and every value's bytes equal, signed zeros included
    grid = ComplexGrid(0.1 - 0.05j, 1.0, 16)

    def reference_field():
        vals = reference_value(text, grid)
        return grid.constant(complex(vals)).values if np.ndim(vals) == 0 else vals

    assert _outcome(lambda: field_from_expression(grid, text).values) == _outcome(
        reference_field
    )
    assert _outcome(lambda: constant_from_expression(text)) == _outcome(
        lambda: complex(reference_value(text, None))
    )


# the tokens a random edit inserts: brackets, separators and operators, Python
# spellings, powers the grammar admits and refuses, and whitespace
_INSERTIONS = st.sampled_from([
    "(", ")", ",", "^", "-", "+", "*", "/", "z", "zbar", "2", "0.5i", "0i", "1e3", ".25",
    "exp(", "exp", "bump(", "foo(", "z(", "^2", "^-1", "^ - 0", "^1.5", "^0i", "^2.0",
    " ", "\n", "i", "e", "**", "None", "if", "1j", "&", ".", "1e999", "1e-400", "(exp)",
])
# a number, a name and the whitespace after it, or one other character
_TOKEN_OF = _re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?i?\s*|\.\d+i?\s*|[A-Za-z_]\w*\s*|.", _re.S)


@st.composite
def _edited_expressions(draw):
    tokens = _TOKEN_OF.findall(draw(_EXPRESSIONS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        if at < len(tokens) and draw(st.booleans()):
            del tokens[at]
        else:
            tokens.insert(at, draw(_INSERTIONS))
    return "".join(tokens)


def _same_step(got, expect):
    """Equal steps: constants by their bits, signed zeros included, and
    functions by identity."""
    (kind, arg), (expect_kind, expect_arg) = got, expect
    if kind != expect_kind:
        return False
    if kind == "const":
        return np.complex128(arg).tobytes() == np.complex128(expect_arg).tobytes()
    if callable(arg):
        return arg is expect_arg
    return type(arg) is type(expect_arg) and arg == expect_arg


# Python's tree keeps no brackets around a callee, so the reference read (exp)(z)
# as exp(z); the grammar's call is FUNC '(' and a bracketed function name is refused
_BRACKETED_FUNCTION = _re.compile(r"\(\s*(?:exp|re|im|conj|bump)\s*\)")


@given(text=_edited_expressions())
@settings(max_examples=400, deadline=None)
def test_program_matches_the_python_parser_compiler(text):
    # every input the reference accepts compiles to its program step for step,
    # but for a bracketed callee, and every input it refuses is refused
    try:
        expect = reference_program(text)
    except ExpressionError:
        expect = None
    if expect is None or _BRACKETED_FUNCTION.search(text):
        with pytest.raises(ExpressionError):
            Expression(text)
        return
    got = Expression(text)._program
    assert len(got) == len(expect) and all(map(_same_step, got, expect))
