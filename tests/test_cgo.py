import numpy as np
import pytest

from conftest import bump_testbed

from polycgo import (
    AmplitudeSpec,
    ComplexGrid,
    CouplingError,
    NonContractionError,
    OscillatoryTransport,
    PerturbedOperator,
    PhaseSpec,
    apply,
    build_adjoint_cgo,
    build_cgo,
    d_inv_pow,
    dbar_inv_pow,
    field_from_expression,
    masked_l2,
    mixed_wirtinger,
    norm_lp,
    smooth_random_field,
    solve_density,
    to_divergence_form,
    transport_norm_probe,
)

PHASE = PhaseSpec(0.1 + 0.1j, 0.3)


@pytest.fixture(scope="module")
def testbed128():
    return bump_testbed(ComplexGrid(0j, 1.0, 128))


@pytest.fixture(scope="module")
def testbed128_div(testbed128):
    return to_divergence_form(testbed128)


class TestAmplitudeSpec:
    def test_monomials_are_admissible(self, grid64):
        for k in range(3):
            AmplitudeSpec.monomial(grid64, k).check_admissible(3)

    def test_monomial_values(self, grid64):
        a = AmplitudeSpec.monomial(grid64, 2)
        assert np.allclose(a.field.values, np.conj(grid64.nodes) ** 2 / 2.0)

    def test_custom_admissibility_enforced(self, grid64):
        bad = AmplitudeSpec.custom(grid64.sample(lambda z: np.conj(z) ** 3))
        with pytest.raises(ValueError):
            bad.check_admissible(2)
        good = AmplitudeSpec.custom(grid64.sample(lambda z: np.conj(z) + 2.0))
        good.check_admissible(2)


class TestTransportMap:
    def test_zero_coefficients_give_zero(self, grid128):
        op = to_divergence_form(PerturbedOperator(grid128, 2))
        v = grid128.constant(1.0)
        assert OscillatoryTransport(op, PHASE).apply(v).is_zero()

    def test_zero_input_gives_zero(self, testbed128_div, grid128):
        assert OscillatoryTransport(testbed128_div, PHASE).apply(grid128.zero()).is_zero()

    def test_compositional_oracle_single_coefficient(self, grid128):
        # single divergence coefficient (0,0): the map must equal the direct
        # composition of cauchy primitives
        bump = field_from_expression(grid128, "bump(0.1, 0, 0.6, 1)")
        op = PerturbedOperator(grid128, 2, {(0, 0): bump}, form="divergence")
        v = smooth_random_field(grid128, seed=5)
        got = OscillatoryTransport(op, PHASE).apply(v)
        e_plus = PHASE.oscillation(grid128)
        e_minus = PHASE.oscillation(grid128, -1)
        expect = -1.0 * d_inv_pow(e_plus * bump * dbar_inv_pow(e_minus * v, 2), 2)
        assert norm_lp(got - expect, 2) <= 1e-12 * max(norm_lp(expect, 2), 1.0)

    def test_linearity(self, testbed128_div, grid128):
        T = OscillatoryTransport(testbed128_div, PHASE)
        v1 = smooth_random_field(grid128, seed=1)
        v2 = smooth_random_field(grid128, seed=2)
        lam = 0.7 - 0.3j
        lhs = T.apply(v1 + lam * v2)
        rhs = T.apply(v1) + lam * T.apply(v2)
        assert norm_lp(lhs - rhs, 2) <= 1e-12 * norm_lp(rhs, 2)

    def test_adjoint_pairing_exact(self, testbed128_div, grid128, rng):
        T = OscillatoryTransport(testbed128_div, PHASE)
        v = grid128.field(rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
        w = grid128.field(rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
        lhs = np.vdot(w.values, T.apply(v).values)
        rhs = np.vdot(T.apply_adjoint(w).values, v.values)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_coupling_enforced(self, testbed128_div):
        with pytest.raises(CouplingError):
            OscillatoryTransport(testbed128_div, PhaseSpec(0.1j, 0.05))


def full_table(grid, m):
    """Divergence-form operator with every one of the m*m coefficients nonzero."""
    coeffs = {
        (j, k): (1.0 + 0.3j * j - 0.2 * k)
        * field_from_expression(grid, f"bump({0.1 * j}, {-0.1 * k}, 0.6, 1)")
        for j in range(m)
        for k in range(m)
    }
    return PerturbedOperator(grid, m, coeffs, form="divergence")


class TestArrayPath:
    """The array-level map reproduces, bit for bit, the map composed from fields."""

    @pytest.fixture(params=[(2, +1), (2, -1), (3, +1), (3, -1)], ids=lambda p: f"m{p[0]}s{p[1]:+d}")
    def setup(self, request, grid64):
        m, sign = request.param
        op = full_table(grid64, m)
        e_plus, e_minus = PHASE.oscillation(grid64, sign), PHASE.oscillation(grid64, -sign)
        return op, OscillatoryTransport(op, PHASE, sign), e_plus, e_minus

    @staticmethod
    def outer_sum(op, e_plus, x):
        out = op.grid.zero()
        for j in range(op.m):
            combo = op.coeff(j, 0) * x[0]
            for k in range(1, op.m):
                combo = combo + op.coeff(j, k) * x[k]
            out = out - d_inv_pow(e_plus * combo, op.m - j)
        return out

    def test_apply(self, setup, grid64):
        op, T, e_plus, e_minus = setup
        v = smooth_random_field(grid64, seed=3)
        x = [dbar_inv_pow(e_minus * v, op.m - k) for k in range(op.m)]
        assert np.array_equal(T.apply(v).values, self.outer_sum(op, e_plus, x).values)

    def test_source(self, setup, grid64):
        op, T, e_plus, _ = setup
        a = AmplitudeSpec.monomial(grid64, 2)
        x = [mixed_wirtinger(a.field, 0, k) for k in range(op.m)]
        assert np.array_equal(T.source(a).values, self.outer_sum(op, e_plus, x).values)

    def test_apply_adjoint(self, setup, grid64):
        op, T, e_plus, _ = setup
        m = op.m
        v = smooth_random_field(grid64, seed=4)
        inner = [dbar_inv_pow(v, m - j) for j in range(m)]
        out = None
        for k in range(m):
            combo = None
            for j in range(m):
                parity = -1.0 if (j + k) % 2 else 1.0
                term = parity * (e_plus * op.coeff(j, k)).conj() * inner[j]
                combo = term if combo is None else combo + term
            piece = d_inv_pow(combo, m - k)
            out = piece if out is None else out + piece
        expect = -1.0 * (e_plus * out)
        assert np.array_equal(T.apply_adjoint(v).values, expect.values)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_caught_on_return(self, grid64):
        # c * dbar_inv^2(E- v) overflows inside the call; the returned field is checked
        op = PerturbedOperator(grid64, 2, {(0, 0): grid64.constant(1e300)}, form="divergence")
        T = OscillatoryTransport(op, PHASE)
        v = grid64.constant(1e30)
        with pytest.raises(ValueError, match="non-finite"):
            T.apply(v)
        with pytest.raises(ValueError, match="non-finite"):
            T.apply_adjoint(v)


class TestSource:
    def test_zero_coefficients(self, grid128):
        op = to_divergence_form(PerturbedOperator(grid128, 2))
        w = OscillatoryTransport(op, PHASE).source(AmplitudeSpec.monomial(grid128, 0))
        assert w.is_zero()

    def test_monomial_term_bookkeeping(self, grid128):
        # a = zbar with m=2: dbar^0 a = zbar and dbar^1 a = 1 both enter;
        # compose the expected sum from cauchy primitives per (j, k)
        coeffs = {
            (0, 0): field_from_expression(grid128, "bump(0.1, 0, 0.6, 1)"),
            (1, 1): field_from_expression(grid128, "bump(-0.1, 0.1, 0.55, 0.8)"),
        }
        op = PerturbedOperator(grid128, 2, coeffs, form="divergence")
        a = AmplitudeSpec.monomial(grid128, 1)
        got = OscillatoryTransport(op, PHASE).source(a)
        e_plus = PHASE.oscillation(grid128)
        zbar = grid128.sample(np.conj)
        one = grid128.constant(1.0)
        expect = -1.0 * d_inv_pow(e_plus * coeffs[(0, 0)] * zbar, 2) - d_inv_pow(
            e_plus * coeffs[(1, 1)] * one, 1
        )
        assert norm_lp(got - expect, 2) <= 1e-12 * norm_lp(expect, 2)


class TestSolveDensity:
    def test_zero_coefficients_trivial(self, grid128):
        op = to_divergence_form(PerturbedOperator(grid128, 2))
        T = OscillatoryTransport(op, PHASE)
        g, terms = solve_density(T, AmplitudeSpec.monomial(grid128, 0))
        assert g.is_zero() and terms == 1

    def test_residual_contract(self, testbed128_div, grid128):
        tol = 1e-10
        a = AmplitudeSpec.monomial(grid128, 0)
        T = OscillatoryTransport(testbed128_div, PHASE)
        g, terms = solve_density(T, a, tol=tol)
        w = T.source(a)
        resid = norm_lp(g - T.apply(g) - w, 2)
        assert resid <= 2.0 * tol * norm_lp(w, 2)
        assert terms >= 3

    def test_max_terms_budget(self, testbed128_div, grid128):
        from polycgo import MaxTermsExceededError

        with pytest.raises(MaxTermsExceededError):
            solve_density(
                OscillatoryTransport(testbed128_div, PHASE), AmplitudeSpec.monomial(grid128, 0),
                tol=1e-14, max_terms=3,
            )

    def test_noncontraction_detected(self, grid64):
        # a huge coefficient makes the map expand at any resolvable h; the
        # degree-1 amplitude keeps the source nonzero against the (1,1) term
        op = PerturbedOperator(
            grid64, 2, {(1, 1): field_from_expression(grid64, "bump(0, 0, 0.7, 500)")},
            form="divergence",
        )
        T = OscillatoryTransport(op, PhaseSpec(0.05 + 0.05j, 0.4))
        with pytest.raises(NonContractionError) as info:
            solve_density(T, AmplitudeSpec.monomial(grid64, 1))
        assert info.value.h == 0.4


class TestBuildCGO:
    def test_unperturbed_exactness(self, grid128):
        op = PerturbedOperator(grid128, 2)
        sol = build_cgo(op, PHASE, AmplitudeSpec.monomial(grid128, 1))
        assert sol.g.is_zero() and sol.r.is_zero()
        # u is exactly the carrier times the amplitude
        expect = PHASE.carrier(grid128) * AmplitudeSpec.monomial(grid128, 1).field
        assert np.array_equal(sol.u.values, expect.values)

    def test_unperturbed_builds_no_oscillation(self, grid128, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("oscillation built for an operator with no coefficient")

        monkeypatch.setattr(PhaseSpec, "oscillation", forbidden)
        op = PerturbedOperator(grid128, 2)
        for sol in (
            build_cgo(op, PHASE, AmplitudeSpec.monomial(grid128, 1)),
            build_adjoint_cgo(op, PHASE, AmplitudeSpec.monomial(grid128, 0)),
        ):
            assert sol.g.is_zero() and sol.r.is_zero()

    def test_assembly_identity(self, testbed128, grid128):
        sol = build_cgo(testbed128, PHASE, AmplitudeSpec.monomial(grid128, 0))
        expect = PHASE.carrier(grid128) * (sol.amplitude.field + sol.r)
        assert np.array_equal(sol.u.values, expect.values)

    def test_diagnostics_recomputable(self, testbed128, grid128):
        from polycgo import norm_hm, residual_norm

        sol = build_cgo(testbed128, PHASE, AmplitudeSpec.monomial(grid128, 0))
        d = sol.diagnostics
        assert sol.diagnostics is d and d.neumann_terms == sol.neumann_terms
        assert d.g_l2 == pytest.approx(norm_lp(sol.g, 2))
        assert d.r_hm == pytest.approx(norm_hm(sol.r, 2))
        assert d.residual_l2 == pytest.approx(residual_norm(testbed128, sol.u))
        # the double-precision application agrees to its own roundoff floor
        assert d.residual_l2 == pytest.approx(masked_l2(apply(testbed128, sol.u)), rel=1e-3)

    def test_relative_residual_small(self, testbed128, grid128):
        sol = build_cgo(testbed128, PHASE, AmplitudeSpec.monomial(grid128, 0))
        rel = sol.diagnostics.residual_l2 / masked_l2(sol.u)
        assert rel <= 0.02

    def test_monotone_h_scaling_and_density_slope(self):
        from polycgo import fit_loglog_slope

        g = ComplexGrid(0j, 1.0, 256)
        op = bump_testbed(g)
        a = AmplitudeSpec.monomial(g, 0)
        hs = (0.2, 0.14, 0.1, 0.07)
        gs, rs = [], []
        for h in hs:
            sol = build_cgo(op, PhaseSpec(0.1 + 0.1j, h), a)
            gs.append(sol.diagnostics.g_l2)
            rs.append(sol.diagnostics.r_hm)
        assert all(a > b for a, b in zip(gs, gs[1:])), gs
        assert all(a > b for a, b in zip(rs, rs[1:])), rs
        # density norm carries at least the square-root-in-h decay
        assert fit_loglog_slope(hs, gs) >= 0.5

    def test_source_norm_slope(self):
        from polycgo import fit_loglog_slope, norm_lp as _norm

        g = ComplexGrid(0j, 1.0, 256)
        op = to_divergence_form(bump_testbed(g))
        a = AmplitudeSpec.monomial(g, 0)
        hs = (0.2, 0.14, 0.1, 0.07)
        norms = [_norm(OscillatoryTransport(op, PhaseSpec(0.1 + 0.1j, h)).source(a), 2) for h in hs]
        assert fit_loglog_slope(hs, norms) >= 0.5


class TestAdjointCGO:
    def test_unperturbed_exact(self, grid128):
        op = PerturbedOperator(grid128, 2)
        sol = build_adjoint_cgo(op, PHASE, AmplitudeSpec.monomial(grid128, 0))
        assert sol.r.is_zero()
        assert sol.carrier_sign == -1
        expect = PHASE.carrier(grid128, -1)
        assert np.array_equal(sol.u.values, expect.values)

    def test_adjoint_solution_solves_adjoint_equation(self, testbed128, grid128):
        from polycgo import adjoint as op_adjoint

        sol = build_adjoint_cgo(testbed128, PHASE, AmplitudeSpec.monomial(grid128, 0))
        res = masked_l2(apply(op_adjoint(testbed128), sol.u))
        rel = res / masked_l2(sol.u)
        assert rel <= 0.05  # truncation floor at n=128; refinement tested in acceptance

    def test_remainder_slope(self):
        from polycgo import fit_loglog_slope

        g = ComplexGrid(0j, 1.0, 256)
        op = bump_testbed(g)
        b = AmplitudeSpec.monomial(g, 0)
        hs = (0.2, 0.14, 0.1)
        rs = [build_adjoint_cgo(op, PhaseSpec(0.1 + 0.1j, h), b).diagnostics.r_hm for h in hs]
        assert all(a > b for a, b in zip(rs, rs[1:]))
        assert fit_loglog_slope(hs, rs) >= 0.45


class TestNormProbe:
    def test_zero_coefficients_zero_norm(self, grid128):
        op = PerturbedOperator(grid128, 2)
        probe = transport_norm_probe(op, [PHASE], iterations=3)
        assert probe.rows == ((PHASE.h, 0.0),)

    def test_contraction_and_slope(self):
        g = ComplexGrid(0j, 1.0, 256)
        op = bump_testbed(g)
        phases = [PhaseSpec(0.1 + 0.1j, h) for h in (0.2, 0.14, 0.1, 0.07)]
        probe = transport_norm_probe(op, phases, iterations=10, seed=0)
        assert all(est < 1.0 for _, est in probe.rows)
        assert probe.slope >= 0.4
        # consistency: the Neumann solver converges where the probe says < 1
        a = AmplitudeSpec.monomial(g, 0)
        _, terms = solve_density(OscillatoryTransport(to_divergence_form(op), phases[0]), a)
        assert terms >= 2

    def test_seed_reproducibility(self, testbed128):
        p1 = transport_norm_probe(testbed128, [PHASE], iterations=4, seed=9)
        p2 = transport_norm_probe(testbed128, [PHASE], iterations=4, seed=9)
        assert p1.rows == p2.rows
