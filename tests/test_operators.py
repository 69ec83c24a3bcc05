import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import bump_testbed
from support import (
    apply,
    masked_l2,
    oracle_d,
    oracle_dbar,
    sample,
    smooth_bump_profile,
    symbolic_wirtinger,
)

import sympy as sp

from polycgo import (
    ComplexGrid,
    PerturbedOperator,
    ScalarField,
    adjoint,
    field_from_expression,
    integrate,
    mixed_wirtinger,
    norm_lp,
    residual_norm,
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
        u = sample(grid128, lambda z: (z * np.conj(z)) ** 2)
        out = apply(PerturbedOperator(grid128, 2), u)
        assert np.max(np.abs(out.values - 4.0)) <= 1e-5

    def test_potential_term_added(self, grid128):
        u = sample(grid128, lambda z: (z * np.conj(z)) ** 2)
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
            u = sample(g, lambda z: np.exp(1j * (z - 0.1) ** 2 / h))
            residuals.append(masked_l2(apply(op, u)))
        assert residuals[0] / residuals[1] >= 8.0

    def test_grid_mismatch(self, grid64, grid128):
        with pytest.raises(ValueError):
            apply(PerturbedOperator(grid64, 2), grid128.constant(1.0))


def reference_residual(op, u):
    """The 80-bit residual loop as cgo.residual_norm ran it before it shared
    operators.apply_values: a reference implementation, kept here verbatim
    but for its stencils, the complex ones grid ran before its real-view
    kernel (support.oracle_d, oracle_dbar), so it pins their bits."""
    grid = u.grid
    m = op.m
    s = np.longdouble(grid.spacing)
    nonzero_by_col = {
        k: [j for j in range(m) if not op.coeffs[(j, k)].is_zero()] for k in range(m)
    }
    out = None
    col = u.values.astype(np.clongdouble)
    for k in range(m + 1):
        if k > 0:
            col = oracle_dbar(col, s)
        if k == m:
            cur = col
            for _ in range(m):
                cur = oracle_d(cur, s)
            out = cur if out is None else out + cur
            break
        wanted = nonzero_by_col[k]
        if not wanted:
            continue
        cur = col
        for j in range(wanted[-1] + 1):
            if j > 0:
                cur = oracle_d(cur, s)
            if j in wanted:
                term = op.coeffs[(j, k)].values * cur
                out = term if out is None else out + term
    mask = grid.interior_mask(0.05)
    w = grid._trapezoid_1d.astype(np.longdouble)
    a = np.abs(out) ** 2 * mask
    total = w @ a @ w * s * s
    return float(np.sqrt(total))


def reference_apply(op, u):
    """The operator by d-first mixed_wirtinger compositions, principal part first."""
    m = op.m
    out = mixed_wirtinger(u, m, m)
    if op.form == "standard":
        for (j, k), c in sorted(op.coeffs.items()):
            if not c.is_zero():
                out = out + c * mixed_wirtinger(u, j, k)
        return out
    for j in range(m):
        terms = [op.coeffs[(j, k)] * mixed_wirtinger(u, 0, k) for k in range(m)
                 if not op.coeffs[(j, k)].is_zero()]
        if terms:
            out = out + mixed_wirtinger(sum(terms[1:], terms[0]), j, 0)
    return out


def chain_tables(grid):
    """The m = 2 testbed, a full m = 3 table and a gapped m = 3 table."""
    full = {
        (j, k): field_from_expression(
            grid, f"bump({0.05 * (j - k)}, {0.04 * (j + k) - 0.08}, 0.6, {0.3 + 0.1 * j + 0.05 * k})"
        )
        for j in range(3)
        for k in range(3)
    }
    gapped = {key: full[key] for key in ((0, 2), (2, 1))}
    return {
        "m2-testbed": bump_testbed(grid),
        "m3-full": PerturbedOperator(grid, 3, full),
        "m3-gapped": PerturbedOperator(grid, 3, gapped),
    }


def oscillatory_sample(grid):
    return sample(
        grid, lambda z: np.exp(1j * (z - 0.1 - 0.05j) ** 2 / 0.2) * (1 + 0.5 * np.conj(z))
    )


class TestApplyValues:
    """operators.apply_values is the one stencil chain of the operator: the
    80-bit residual and the double-precision apply both run it."""

    @pytest.mark.parametrize("n", [128, 256])
    def test_residual_bit_equal_to_reference_loop(self, n):
        g = ComplexGrid(0j, 1.0, n)
        u = oscillatory_sample(g)
        for name, op in chain_tables(g).items():
            assert residual_norm(op, u) == reference_residual(op, u), name

    @pytest.mark.parametrize("field", ["bump-polynomial", "oscillatory"])
    @pytest.mark.parametrize("form", ["standard", "divergence"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_apply_matches_d_first_composition(self, grid128, m, form, field):
        # the d and dbar stencils commute in exact arithmetic, so taking dbar
        # first moves the double result only by roundoff of the 2m-fold chain:
        # ~1e-13 relative where L u is resolved, ~1e-10 on the oscillatory field
        op = chain_tables(grid128)["m2-testbed" if m == 2 else "m3-full"]
        if form == "divergence":
            op = to_divergence_form(op)
        if field == "oscillatory":
            u = oscillatory_sample(grid128)
        else:
            u = field_from_expression(grid128, "bump(0, 0, 0.8, 1) * zbar^2 * z")
        got, expect = apply(op, u), reference_apply(op, u)
        rel = norm_lp(got - expect, np.inf) / norm_lp(expect, np.inf)
        assert rel <= 1e-9

    def test_residual_memory_stays_flat(self, grid256):
        # one dbar column, one running d-derivative, the sum and the stencil
        # temporaries: 5.61 clongdouble n^2 arrays at the peak, 8.09 before
        # the stencils ran on real views in row blocks
        op = chain_tables(grid256)["m3-full"]
        u = oscillatory_sample(grid256)
        op.nonzero_indices()  # the zero flags are cached before tracing
        tracemalloc.start()
        try:
            residual_norm(op, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 32 * grid256.n**2


class TestFormTransforms:
    def test_hand_solved_two_by_two(self, grid64):
        # standard c(1,0) = z, c(0,0) = 0 maps to divergence (z, -1)
        op = PerturbedOperator(grid64, 2, {(1, 0): sample(grid64, lambda z: z)})
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
            grid64, 2, {(1, 0): sample(grid64, np.conj)}, form="divergence"
        )
        std = to_standard_form(div)
        assert np.allclose(std.coeff(1, 0).values, np.conj(grid64.nodes), atol=1e-12)
        assert norm_lp(std.coeff(0, 0), np.inf) <= 1e-10

    def test_m3_binomial_sum_oracle(self, grid64):
        # divergence c(2,0) = z^2 spreads down with binomial-derivative weights;
        # oracle by symbolic differentiation
        div = PerturbedOperator(
            grid64, 3, {(2, 0): sample(grid64, lambda z: z**2)}, form="divergence"
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
            u = sample(g, lambda z: np.exp(-np.abs(z) ** 2 / 0.15) * z)
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


def leibniz_adjoint(op):
    """The standard table of the formal adjoint by the Leibniz rule, as
    operators.adjoint built it before it transposed the divergence table: a
    reference implementation, kept here verbatim."""
    op = to_standard_form(op)
    m = op.m
    new = {}
    for (j, k) in sorted(op.coeffs):
        c = op.coeffs[(j, k)]
        if c.is_zero():
            continue
        sign = -1.0 if (j + k) % 2 else 1.0
        cbar = c.conj()
        for alpha in range(j + 1):  # dbar falling on v (alpha times)
            for beta in range(k + 1):  # d falling on v (beta times)
                w = sign * comb(j, alpha) * comb(k, beta)
                contrib = w * mixed_wirtinger(cbar, k - beta, j - alpha)
                key = (beta, alpha)
                new[key] = contrib if key not in new else new[key] + contrib
    return PerturbedOperator(op.grid, m, new)


def complex_bump_table(grid, m):
    """A full m x m table of distinct complex bumps inside the outer frame."""
    return {
        (j, k): field_from_expression(
            grid, f"bump({0.08 * (j - k)}, {0.05 * (j + k) - 0.1}, 0.6, {0.5 + 0.3 * j}) "
                  f"* (1 + {0.2 * (k + 1)}i * z)"
        )
        for j in range(m)
        for k in range(m)
    }


class TestAdjoint:
    def test_hand_leibniz_expansion(self, grid64):
        A = field_from_expression(grid64, "bump(0, 0, 0.6, 1) * z")
        op = PerturbedOperator(grid64, 2, {(1, 1): A})
        adj = to_standard_form(adjoint(op))
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

    def test_either_form_in_same_adjoint_out(self, grid64):
        # a standard-form operator is converted to divergence form first
        coeffs = {
            (1, 0): field_from_expression(grid64, "bump(0.1, 0, 0.6, 1) * z"),
            (1, 1): field_from_expression(grid64, "bump(0, -0.1, 0.5, 2)"),
        }
        div = PerturbedOperator(grid64, 2, coeffs, form="divergence")
        got, expect = adjoint(div), adjoint(to_standard_form(div))
        assert got.form == expect.form == "divergence"
        for jk, c in expect.coeffs.items():
            assert np.allclose(got.coeff(*jk).values, c.values, rtol=0, atol=1e-12), jk

    @pytest.mark.parametrize("m", [2, 3])
    def test_adjoint_twice_is_bit_equal(self, grid64, m):
        div = PerturbedOperator(grid64, m, complex_bump_table(grid64, m), form="divergence")
        back = adjoint(adjoint(div))
        assert back.form == "divergence"
        for jk, c in div.coeffs.items():
            assert np.array_equal(back.coeff(*jk).values, c.values), jk

    def test_divergence_adjoint_takes_no_derivative(self, grid64, monkeypatch):
        import polycgo.grid as grid_mod
        import polycgo.operators as operators_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("stencil applied while transposing the table")

        for module in (grid_mod, operators_mod):
            for name in ("_d", "_dbar", "_wirtinger_pair"):
                monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(grid_mod, "_wirtinger", forbidden)
        table = complex_bump_table(grid64, 3)
        del table[(1, 2)]  # an absent entry stays the grid's shared zero
        adj = adjoint(PerturbedOperator(grid64, 3, table, form="divergence"))
        assert adj.coeff(2, 1) is grid64.zero()
        assert np.array_equal(adj.coeff(2, 0).values, table[(0, 2)].values.conj())
        assert np.array_equal(adj.coeff(1, 0).values, -table[(0, 1)].values.conj())

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_leibniz_reference(self, grid128, m):
        # in exact arithmetic both are the same table; they differ by the
        # roundoff of the stencil derivatives each takes, measured at
        # 1.5e-14 (m=2) and 1.2e-13 (m=3) of the table's largest entry, so
        # the bound 1e-11 leaves a margin of about 80 at m=3
        op = PerturbedOperator(grid128, m, complex_bump_table(grid128, m))
        got, ref = to_standard_form(adjoint(op)), leibniz_adjoint(op)
        scale = max(norm_lp(c, np.inf) for c in ref.coeffs.values())
        for jk, c in ref.coeffs.items():
            assert norm_lp(got.coeff(*jk) - c, np.inf) <= 1e-11 * scale, jk

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
            return ScalarField(g, vals) * cut

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
