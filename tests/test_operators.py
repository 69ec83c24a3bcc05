import numpy as np
import pytest

from support import smooth_bump_profile, symbolic_wirtinger

import sympy as sp

from polycgo import (
    ComplexGrid,
    PerturbedOperator,
    adjoint,
    apply,
    field_from_expression,
    integrate,
    masked_l2,
    norm_lp,
    to_divergence_form,
    to_standard_form,
    wirtinger_d,
    wirtinger_dbar,
)


class TestPerturbedOperator:
    def test_table_is_total(self, grid64):
        op = PerturbedOperator(grid64, 3)
        assert set(op.coeffs) == {(j, k) for j in range(3) for k in range(3)}
        assert op.is_unperturbed()

    def test_rejects_small_m(self, grid64):
        with pytest.raises(ValueError):
            PerturbedOperator(grid64, 1)

    def test_rejects_out_of_range_indices(self, grid64):
        with pytest.raises(ValueError):
            PerturbedOperator(grid64, 2, {(2, 0): grid64.constant(1.0)})

    def test_rejects_mismatched_grid(self, grid64, grid128):
        with pytest.raises(ValueError):
            PerturbedOperator(grid64, 2, {(0, 0): grid128.constant(1.0)})


class TestApply:
    def test_principal_part_biharmonic_monomial(self, grid128):
        # d^2 dbar^2 (z^2 zbar^2) = 4
        u = grid128.sample(lambda z: (z * np.conj(z)) ** 2)
        out = apply(PerturbedOperator(grid128, 2), u)
        assert np.max(np.abs(out.values - 4.0)) <= 1e-5

    def test_potential_term_added(self, grid128):
        u = grid128.sample(lambda z: (z * np.conj(z)) ** 2)
        op = PerturbedOperator(grid128, 2, {(0, 0): grid128.constant(1.0)})
        out = apply(op, u)
        expect = 4.0 + u.values
        assert np.max(np.abs(out.values - expect)) <= 1e-5

    def test_oscillatory_product_rule_oracle(self):
        # A(1,1) = bump, u = exp(phase/h): dbar u vanishes identically, so the
        # full application is pure stencil truncation; refinement shrinks it
        residuals = []
        for n in (128, 256):
            g = ComplexGrid(0j, 1.0, n)
            bump = field_from_expression(g, "bump(0, 0, 0.6, 1)")
            op = PerturbedOperator(g, 2, {(1, 1): bump})
            h = 0.4
            u = g.sample(lambda z: np.exp(1j * (z - 0.1) ** 2 / h))
            residuals.append(masked_l2(apply(op, u)))
        assert residuals[0] / residuals[1] >= 8.0

    def test_grid_mismatch(self, grid64, grid128):
        with pytest.raises(ValueError):
            apply(PerturbedOperator(grid64, 2), grid128.constant(1.0))


class TestFormTransforms:
    def test_hand_solved_two_by_two(self, grid64):
        # standard c(1,0) = z, c(0,0) = 0 maps to divergence (z, -1)
        op = PerturbedOperator(grid64, 2, {(1, 0): grid64.sample(lambda z: z)})
        div = to_divergence_form(op)
        assert np.allclose(div.coeff(1, 0).values, grid64.nodes, atol=1e-12)
        assert np.allclose(div.coeff(0, 0).values, -1.0, atol=1e-10)

    def test_zero_operator_roundtrip(self, grid64):
        op = PerturbedOperator(grid64, 2)
        back = to_standard_form(to_divergence_form(op))
        for key, c in back.coeffs.items():
            assert c.is_zero(), key

    def test_antiholomorphic_coefficient_passes_through(self, grid64):
        # divergence c(1,0) = zbar: d kills nothing new since d(zbar) = 0
        div = PerturbedOperator(
            grid64, 2, {(1, 0): grid64.sample(np.conj)}, form="divergence"
        )
        std = to_standard_form(div)
        assert np.allclose(std.coeff(1, 0).values, np.conj(grid64.nodes), atol=1e-12)
        assert norm_lp(std.coeff(0, 0), np.inf) <= 1e-10

    def test_m3_binomial_sum_oracle(self, grid64):
        # divergence c(2,0) = z^2 spreads down with binomial-derivative weights;
        # oracle by symbolic differentiation
        div = PerturbedOperator(
            grid64, 3, {(2, 0): grid64.sample(lambda z: z**2)}, form="divergence"
        )
        std = to_standard_form(div)
        for j, n_d in ((2, 0), (1, 1), (0, 2)):
            weight = {2: 1, 1: 2, 0: 1}[j]  # binom(2, j)
            oracle = symbolic_wirtinger(lambda z: z**2, n_d=n_d)
            expect = weight * oracle(grid64.nodes)
            assert np.allclose(std.coeff(j, 0).values, expect, atol=1e-9), j

    def test_roundtrip_from_divergence_side(self, grid128):
        coeffs = {
            (j, k): field_from_expression(grid128, f"bump({0.1 * j}, {0.1 * k}, 0.6, 1)")
            for j in range(2)
            for k in range(2)
        }
        div = PerturbedOperator(grid128, 2, coeffs, form="divergence")
        back = to_divergence_form(to_standard_form(div))
        for key in coeffs:
            err = norm_lp(back.coeff(*key) - div.coeff(*key), np.inf)
            assert err <= 1e-6, key

    @pytest.mark.parametrize("m", [2, 3])
    def test_roundtrip_bump_table(self, grid128, m):
        coeffs = {
            (j, k): field_from_expression(
                grid128, f"bump({0.1 * j - 0.05}, {0.1 * k - 0.08}, 0.6, {1 + j + k})"
            )
            for j in range(m)
            for k in range(m)
        }
        op = PerturbedOperator(grid128, m, coeffs)
        back = to_standard_form(to_divergence_form(op))
        for key in coeffs:
            scale = norm_lp(op.coeff(*key), np.inf)
            err = norm_lp(back.coeff(*key) - op.coeff(*key), np.inf)
            assert err <= 1e-5 * max(scale, 1.0), key

    def test_form_equivalence_of_apply(self):
        # the two forms agree up to stencil truncation; the gap must shrink at
        # the stencil order under refinement
        rels = []
        for n in (128, 256):
            g = ComplexGrid(0j, 1.0, n)
            coeffs = {
                (0, 0): field_from_expression(g, "bump(0.1, 0, 0.6, 1)"),
                (1, 1): field_from_expression(g, "bump(-0.1, 0.1, 0.5, 1)"),
                (1, 0): field_from_expression(g, "bump(0, -0.1, 0.55, 0.5)"),
            }
            op = PerturbedOperator(g, 2, coeffs)
            div = to_divergence_form(op)
            u = g.sample(lambda z: np.exp(-np.abs(z) ** 2 / 0.15) * z)
            lhs = apply(op, u)
            rhs = apply(div, u)
            rels.append(norm_lp(lhs - rhs, np.inf) / norm_lp(lhs, np.inf))
        assert rels[0] <= 1e-4
        assert rels[0] / rels[1] >= 8.0

    def test_double_transform_rejected(self, grid64):
        # an operator already in the target form is returned as it is
        bump = field_from_expression(grid64, "bump(0, 0, 0.6, 1)")
        div = PerturbedOperator(grid64, 2, {(1, 0): bump}, form="divergence")
        assert to_divergence_form(div) is div
        std = PerturbedOperator(grid64, 2, {(1, 0): bump})
        assert to_standard_form(std) is std


class TestAdjoint:
    def test_hand_leibniz_expansion(self, grid64):
        A = field_from_expression(grid64, "bump(0, 0, 0.6, 1) * z")
        op = PerturbedOperator(grid64, 2, {(1, 1): A})
        adj = adjoint(op)
        Abar = A.conj()
        assert np.array_equal(adj.coeff(1, 1).values, Abar.values)
        assert np.allclose(adj.coeff(1, 0).values, wirtinger_dbar(Abar).values)
        assert np.allclose(adj.coeff(0, 1).values, wirtinger_d(Abar).values)
        assert np.allclose(
            adj.coeff(0, 0).values, wirtinger_d(wirtinger_dbar(Abar)).values
        )

    def test_unperturbed_self_adjoint(self, grid64):
        op = PerturbedOperator(grid64, 2)
        assert adjoint(op).is_unperturbed()

    def test_real_potential_fixed(self, grid64):
        V = field_from_expression(grid64, "bump(0, 0, 0.5, 2)")
        op = PerturbedOperator(grid64, 3, {(0, 0): V})
        adj = adjoint(op)
        assert np.allclose(adj.coeff(0, 0).values, V.values)
        assert len(adj.nonzero_indices()) == 1

    def test_requires_standard_form(self, grid64):
        # a divergence-form operator is converted to standard form first
        coeffs = {
            (1, 0): field_from_expression(grid64, "bump(0.1, 0, 0.6, 1) * z"),
            (1, 1): field_from_expression(grid64, "bump(0, -0.1, 0.5, 2)"),
        }
        div = PerturbedOperator(grid64, 2, coeffs, form="divergence")
        got, expect = adjoint(div), adjoint(to_standard_form(div))
        assert got.form == expect.form == "standard"
        for jk, c in expect.coeffs.items():
            assert np.array_equal(got.coeff(*jk).values, c.values), jk

    @pytest.mark.parametrize("m", [2, 3])
    def test_bilinear_identity(self, m, rng):
        # integral((Lu) conj v) == integral(u conj(L* v)) for compactly
        # supported smooth fields; random low-degree polynomials times a bump
        g = ComplexGrid(0j, 1.0, 256)
        cut = field_from_expression(g, "bump(0, 0, 0.75, 1)")
        z = g.nodes

        def rand_poly_field():
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vals = c[0] + c[1] * z + c[2] * np.conj(z) + c[3] * z * np.conj(z)
            return g.field(vals) * cut

        coeffs = {
            (j, k): field_from_expression(
                g, f"bump({0.08 * (j - k)}, {0.06 * (j + k) - 0.1}, 0.55, {0.5 + 0.3 * j + 0.2 * k})"
            )
            for j in range(m)
            for k in range(m)
        }
        op = PerturbedOperator(g, m, coeffs)
        adj = adjoint(op)
        u, v = rand_poly_field(), rand_poly_field()
        lhs = integrate(apply(op, u) * v.conj())
        rhs = integrate(u * apply(adj, v).conj())
        scale = max(abs(lhs), abs(rhs), norm_lp(u, 2) * norm_lp(v, 2))
        assert abs(lhs - rhs) <= 2e-5 * scale, (lhs, rhs)
