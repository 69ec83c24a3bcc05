import sys

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
from polycgo.expressions import MAX_DEPTH


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
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ExpressionError):
            parse_expression(bad)

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

    @pytest.mark.parametrize("terms", (1500, 2500))
    def test_long_sum_evaluates_left_to_right(self, terms):
        # deeper than the interpreter's recursion limit, yet within ast.parse's
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

    def test_bump_argument_validation(self, grid64):
        with pytest.raises(ExpressionError):
            field_from_expression(grid64, "bump(0, 0, 1)")
        with pytest.raises(ExpressionError):
            field_from_expression(grid64, "bump(0, 0, -1, 1)")
        with pytest.raises(ExpressionError):
            field_from_expression(grid64, "bump(z, 0, 1, 1)")


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
