import re
import tracemalloc
from collections import Counter
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bump_testbed, transport
from support import apply, masked_l2, sample

from polycgo import (
    AmplitudeSpec,
    CauchyKernel,
    ComplexGrid,
    CouplingError,
    MaxTermsExceededError,
    NonContractionError,
    OscillatoryTransport,
    PerturbedOperator,
    PhaseSpec,
    ScalarField,
    adjoint,
    build_cgo,
    d_inv,
    dbar_inv,
    field_from_expression,
    mixed_wirtinger,
    norm_lp,
    smooth_random_field,
    solve_density,
    to_divergence_form,
    transport_norm_probe,
)
from polycgo import cgo
from polycgo.cauchy import cauchy_chain
from polycgo.cgo import PROBE_RTOL
from polycgo.grid import _weighted_p_sum

PHASE = PhaseSpec(0.1 + 0.1j, 0.3)
# smallest h that n=64 on [-1, 1]^2 resolves under spacing <= h/8
H_MIN_64 = 8.0 * ComplexGrid(0j, 1.0, 64).spacing


@pytest.fixture(scope="module")
def testbed128():
    return bump_testbed(ComplexGrid(0j, 1.0, 128))


@pytest.fixture(scope="module")
def testbed128_div(testbed128):
    return to_divergence_form(testbed128)


@pytest.fixture(scope="module")
def bench_operator(grid256):
    """The operator of bench/configs/cgo_sweep.json, in divergence form."""
    return to_divergence_form(bump_testbed(grid256))


class TestAmplitudeSpec:
    def test_monomials_are_admissible(self, grid64):
        for k in range(3):
            AmplitudeSpec.monomial(grid64, k).check_admissible(3)

    def test_monomial_values(self, grid64):
        a = AmplitudeSpec.monomial(grid64, 2)
        assert np.allclose(a.field.values, np.conj(grid64.nodes) ** 2 / 2.0)

    @pytest.mark.parametrize("k", range(8))
    def test_monomial_matches_complex_power(self, k, grid64):
        # repeated products equal the complex power bit for bit up to k = 2 and
        # to roundoff beyond; |z| <= sqrt(2) on the grid, so |zbar^k/k!| <= 1
        got = AmplitudeSpec.monomial(grid64, k).field.values
        expect = np.conj(grid64.nodes) ** k / factorial(k)
        if k <= 2:
            assert np.array_equal(got, expect)
        assert np.max(np.abs(got - expect)) <= 1e-15

    def test_custom_admissibility_enforced(self, grid64):
        bad = AmplitudeSpec(sample(grid64, lambda z: np.conj(z) ** 3))
        with pytest.raises(ValueError):
            bad.check_admissible(2)
        good = AmplitudeSpec(sample(grid64, lambda z: np.conj(z) + 2.0))
        good.check_admissible(2)


class TestTransportMap:
    def test_zero_coefficients_give_zero(self, grid128):
        op = to_divergence_form(PerturbedOperator(grid128, 2))
        out = OscillatoryTransport(op, PHASE).apply(grid128.constant(1.0).values)
        assert not np.any(out) and not out.flags.writeable  # the grid's shared zero

    def test_zero_input_gives_zero(self, testbed128_div, grid128):
        out = OscillatoryTransport(testbed128_div, PHASE).apply(grid128.zero().values)
        assert not np.any(out) and not out.flags.writeable

    def test_compositional_oracle_single_coefficient(self, grid128):
        # single divergence coefficient (0,0): the map must equal the direct
        # composition of cauchy primitives
        bump = field_from_expression(grid128, "bump(0.1, 0, 0.6, 1)")
        op = PerturbedOperator(grid128, 2, {(0, 0): bump}, form="divergence")
        v = smooth_random_field(grid128, seed=5)
        got = ScalarField(grid128, OscillatoryTransport(op, PHASE).apply(v.values))
        e_plus = PHASE.oscillation(grid128)
        e_minus = PHASE.oscillation(grid128, -1)
        expect = -1.0 * d_inv(e_plus * bump * dbar_inv(e_minus * v, 2), 2)
        assert norm_lp(got - expect, 2) <= 1e-12 * max(norm_lp(expect, 2), 1.0)

    def test_linearity(self, testbed128_div, grid128):
        T = OscillatoryTransport(testbed128_div, PHASE)
        v1 = smooth_random_field(grid128, seed=1)
        v2 = smooth_random_field(grid128, seed=2)
        lam = 0.7 - 0.3j
        lhs = ScalarField(grid128, T.apply((v1 + lam * v2).values))
        rhs = ScalarField(grid128, T.apply(v1.values) + lam * T.apply(v2.values))
        assert norm_lp(lhs - rhs, 2) <= 1e-12 * norm_lp(rhs, 2)

    def test_adjoint_pairing_exact(self, testbed128_div, grid128, rng):
        T = OscillatoryTransport(testbed128_div, PHASE)
        v, w = (ScalarField(grid128, rng.standard_normal((128, 128))
                            + 1j * rng.standard_normal((128, 128))) for _ in range(2))
        lhs = np.vdot(w.values, T.apply(v.values))
        rhs = np.vdot(T.apply_adjoint(w.values), v.values)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @given(
        m=st.sampled_from([2, 3]),
        sign=st.sampled_from([+1, -1]),
        h=st.floats(H_MIN_64, 0.6),
        seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    )
    @settings(max_examples=20, deadline=None)
    def test_adjoint_identity_on_smooth_fields(self, grid64, m, sign, h, seeds):
        T = OscillatoryTransport(coeff_table(grid64, m), PhaseSpec(PHASE.z0, h), sign)
        v, w = (smooth_random_field(grid64, seed) for seed in seeds)
        lhs = np.vdot(w.values, T.apply(v.values))
        rhs = np.vdot(T.apply_adjoint(w.values), v.values)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_coupling_enforced(self, testbed128_div):
        with pytest.raises(CouplingError):
            OscillatoryTransport(testbed128_div, PhaseSpec(0.1j, 0.05))


def coeff_table(grid, m, indices=None):
    """Divergence-form operator with the coefficients at indices nonzero, all m*m by default."""
    if indices is None:
        indices = [(j, k) for j in range(m) for k in range(m)]
    coeffs = {
        (j, k): (1.0 + 0.3j * j - 0.2 * k)
        * field_from_expression(grid, f"bump({0.1 * j}, {-0.1 * k}, 0.6, 1)")
        for j, k in indices
    }
    return PerturbedOperator(grid, m, coeffs, form="divergence")


# m=3 tables with gaps in rows and columns: Horner's rule must still take a
# d_inv step at a level that has no coefficient
GAPPED_3 = [((0, 2), (2, 0)), ((0, 0), (2, 2)), ((2, 1),)]
ARRAY_PATH_CASES = [(m, sign, None) for m in (2, 3) for sign in (+1, -1)] + [
    (3, sign, table) for table in GAPPED_3 for sign in (+1, -1)
]
# Horner's rule adds in another order than the composed oracle; roundoff only
ORACLE_RTOL = 1e-13


def case_id(case):
    m, sign, table = case
    gaps = "" if table is None else "-" + "_".join(f"{j}{k}" for j, k in table)
    return f"m{m}s{sign:+d}{gaps}"


def assert_matches_oracle(got, expect):
    assert np.max(np.abs(got - expect)) <= ORACLE_RTOL * np.max(np.abs(expect))


class TestArrayPath:
    """The array-level map reproduces, to roundoff, the map composed from fields."""

    @pytest.fixture(params=ARRAY_PATH_CASES, ids=case_id)
    def setup(self, request, grid64):
        m, sign, table = request.param
        op = coeff_table(grid64, m, table)
        e_plus, e_minus = PHASE.oscillation(grid64, sign), PHASE.oscillation(grid64, -sign)
        return op, OscillatoryTransport(op, PHASE, sign), e_plus, e_minus

    @staticmethod
    def outer_sum(op, e_plus, x):
        out = op.grid.zero()
        for j in range(op.m):
            combo = op.coeff(j, 0) * x[0]
            for k in range(1, op.m):
                combo = combo + op.coeff(j, k) * x[k]
            out = out - d_inv(e_plus * combo, op.m - j)
        return out

    def test_apply(self, setup, grid64):
        op, T, e_plus, e_minus = setup
        v = smooth_random_field(grid64, seed=3)
        x = [dbar_inv(e_minus * v, op.m - k) for k in range(op.m)]
        assert_matches_oracle(T.apply(v.values), self.outer_sum(op, e_plus, x).values)

    def test_source(self, setup, grid64):
        op, T, e_plus, _ = setup
        a = AmplitudeSpec.monomial(grid64, 2)
        x = [mixed_wirtinger(a.field, 0, k) for k in range(op.m)]
        assert_matches_oracle(T.source(a), self.outer_sum(op, e_plus, x).values)

    def test_apply_adjoint(self, setup, grid64):
        op, T, e_plus, _ = setup
        m = op.m
        v = smooth_random_field(grid64, seed=4)
        inner = [dbar_inv(v, m - j) for j in range(m)]
        out = None
        for k in range(m):
            combo = None
            for j in range(m):
                parity = -1.0 if (j + k) % 2 else 1.0
                term = parity * (e_plus * op.coeff(j, k)).conj() * inner[j]
                combo = term if combo is None else combo + term
            piece = d_inv(combo, m - k)
            out = piece if out is None else out + piece
        expect = -1.0 * (e_plus * out)
        assert "_adjoint" not in vars(T)  # built on the first adjoint apply
        for _ in range(2):  # the first call builds T', the second reuses it
            assert_matches_oracle(T.apply_adjoint(v.values), expect.values)
        assert "_adjoint" in vars(T)

    def test_adjoint_is_the_map_of_the_adjoint_operator(self, setup, grid64):
        # T* = E+ . T'(E- .), T' the public transport of adjoint(op) with the sign
        # flipped; the two differ by roundoff, at most 5.6e-16 relative over these
        # cases, so ORACLE_RTOL (1e-13) leaves a margin of about 180
        op, T, e_plus, e_minus = setup
        T_adj = OscillatoryTransport(adjoint(op), PHASE, -T.sign)
        v = smooth_random_field(grid64, seed=6).values
        expect = e_plus.values * T_adj.apply(e_minus.values * v)
        assert_matches_oracle(T.apply_adjoint(v), expect)

    def test_fresh_transport_holds_no_oscillation(self, setup, grid64):
        # E+/- are kept as their 1-D factors: the coefficients are the only n x n arrays
        _, T, _, _ = setup
        held = [
            value
            for item in vars(T).values()
            for value in (item.values() if isinstance(item, dict) else
                          item if isinstance(item, (tuple, list)) else (item,))
            if isinstance(value, np.ndarray) and value.ndim == 2
        ]
        assert held and all(any(a is c for c in T.coeffs.values()) for a in held)

    def test_transforms_per_call(self, setup, grid64, monkeypatch):
        # one dbar_inv chain down to the lowest column (row for the adjoint) and
        # one Horner pass down to the lowest row (column): 2m for a full table
        op, T, _, _ = setup
        m = op.m
        active = op.nonzero_indices()
        lowest_row, lowest_col = min(j for j, _ in active), min(k for _, k in active)
        per_apply = (m - lowest_col) + (m - lowest_row)
        if len(active) == m * m:
            assert per_apply == 2 * m
        counts = Counter()
        transform = CauchyKernel.apply

        def counted(kernel, values):
            counts["transforms"] += 1
            counts[values.dtype] += 1
            return transform(kernel, values)

        monkeypatch.setattr(CauchyKernel, "apply", counted)
        v = smooth_random_field(grid64, seed=3).values
        # a constant amplitude has dbar a = 0: with no coefficient in column 0
        # every row combination vanishes, and source returns zero untransformed
        constant_source = m - lowest_row if lowest_col == 0 else 0
        double, single = np.dtype(np.complex128), np.dtype(np.complex64)
        for call, expect, dtype in (
            (lambda: T.apply(v), per_apply, double),
            (lambda: T.apply(v.astype(single)), per_apply, single),
            (lambda: T.apply_adjoint(v), per_apply, double),
            (lambda: T.source(AmplitudeSpec.monomial(grid64, 2)), m - lowest_row, double),
            (lambda: T.source(AmplitudeSpec.monomial(grid64, 0)), constant_source, double),
        ):
            counts.clear()
            out = call()
            assert counts["transforms"] == counts[dtype] == expect
            assert out.dtype == dtype or not np.any(out)
        assert (not np.any(out)) == (constant_source == 0)

        # build_cgo: the source and each Neumann apply; a nonzero density adds
        # the a-posteriori check's pass of the map, outside apply, and the
        # remainder finishes that pass's chain with lowest_col more transforms
        apply = OscillatoryTransport.apply

        def counted_apply(transport, v):
            counts["applies"] += 1
            return apply(transport, v)

        monkeypatch.setattr(OscillatoryTransport, "apply", counted_apply)
        counts.clear()
        sol = build_cgo(T, AmplitudeSpec.monomial(grid64, 0))
        check = 0 if sol.g.is_zero() else per_apply + lowest_col
        expect = per_apply * counts["applies"] + constant_source + check
        assert counts["transforms"] == expect

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_caught_on_return(self, grid64):
        # c * dbar_inv^2(E- v) overflows inside the call; the calls return arrays
        # unchecked, and the loops over them refuse the norms they take of the
        # returns: the probe its first alpha, the Neumann sum its first term's
        def transport_of(c):
            op = PerturbedOperator(grid64, 2, {(0, 0): grid64.constant(c)}, form="divergence")
            return OscillatoryTransport(op, PHASE)

        T = transport_of(1e300)
        v = grid64.constant(1e30).values
        assert not np.all(np.isfinite(T.apply(v)))
        assert not np.all(np.isfinite(T.apply_adjoint(v)))
        with pytest.raises(NonContractionError, match="alpha at step 1 is not finite"):
            transport_norm_probe(T)
        # at c = 1e150 the source's norm is finite and the first term's is not
        with pytest.raises(NonContractionError, match="Neumann term 1 is not finite") as info:
            solve_density(transport_of(1e150), AmplitudeSpec.monomial(grid64, 0))
        assert info.value.h == PHASE.h and len(info.value.ratios) == 1


class TestSource:
    def test_zero_coefficients(self, grid128):
        op = to_divergence_form(PerturbedOperator(grid128, 2))
        w = OscillatoryTransport(op, PHASE).source(AmplitudeSpec.monomial(grid128, 0))
        assert not np.any(w)

    def test_monomial_term_bookkeeping(self, grid128):
        # a = zbar with m=2: dbar^0 a = zbar and dbar^1 a = 1 both enter;
        # compose the expected sum from cauchy primitives per (j, k)
        coeffs = {
            (0, 0): field_from_expression(grid128, "bump(0.1, 0, 0.6, 1)"),
            (1, 1): field_from_expression(grid128, "bump(-0.1, 0.1, 0.55, 0.8)"),
        }
        op = PerturbedOperator(grid128, 2, coeffs, form="divergence")
        a = AmplitudeSpec.monomial(grid128, 1)
        got = ScalarField(grid128, OscillatoryTransport(op, PHASE).source(a))
        e_plus = PHASE.oscillation(grid128)
        zbar = sample(grid128, np.conj)
        one = grid128.constant(1.0)
        expect = -1.0 * d_inv(e_plus * coeffs[(0, 0)] * zbar, 2) - d_inv(
            e_plus * coeffs[(1, 1)] * one, 1
        )
        assert norm_lp(got - expect, 2) <= 1e-12 * norm_lp(expect, 2)


class TestSolveDensity:
    def test_zero_coefficients_trivial(self, grid128):
        op = to_divergence_form(PerturbedOperator(grid128, 2))
        T = OscillatoryTransport(op, PHASE)
        g, terms, r = solve_density(T, AmplitudeSpec.monomial(grid128, 0))
        assert g.is_zero() and terms == 1 and r.is_zero()

    def test_residual_contract(self, testbed128_div, grid128):
        tol = 1e-10
        a = AmplitudeSpec.monomial(grid128, 0)
        T = OscillatoryTransport(testbed128_div, PHASE)
        g, terms, _ = solve_density(T, a, tol=tol)
        w = ScalarField(grid128, T.source(a))
        resid = norm_lp(g - ScalarField(grid128, T.apply(g.values)) - w, 2)
        assert resid <= 2.0 * tol * norm_lp(w, 2)
        assert terms >= 3

    def test_max_terms_budget(self, testbed128_div, grid128):
        with pytest.raises(MaxTermsExceededError):
            solve_density(
                OscillatoryTransport(testbed128_div, PHASE), AmplitudeSpec.monomial(grid128, 0),
                tol=1e-14, max_terms=3,
            )

    def test_max_terms_message_carries_term_ratios(self, testbed128_div, grid128):
        T = OscillatoryTransport(testbed128_div, PHASE)
        a = AmplitudeSpec.monomial(grid128, 0)
        with pytest.raises(MaxTermsExceededError, match="did not converge in 3 terms") as info:
            solve_density(T, a, tol=1e-14, max_terms=3)
        # the solve's own term norm, the plain trapezoid sum (norm_lp scales
        # by max|f| first, which moves the last bits)
        term = T.source(a)
        norms = [_weighted_p_sum(grid128, term, 2) ** 0.5]
        for _ in range(2):
            term = T.apply(term)
            norms.append(_weighted_p_sum(grid128, term, 2) ** 0.5)
        ratios = tuple(n1 / n0 for n0, n1 in zip(norms, norms[1:]))
        assert info.value.ratios == ratios
        assert str(info.value) == (
            f"Neumann series at h={PHASE.h} did not converge in 3 terms; term-norm ratios "
            "||t_k||/||t_(k-1)||: " + ", ".join(f"{r:.4g}" for r in ratios)
        )

    def test_noncontraction_message_carries_term_ratios(self, grid64):
        # the testbed's coefficients scaled until the map stops contracting
        a = AmplitudeSpec.monomial(grid64, 0)
        testbed = to_divergence_form(bump_testbed(grid64))
        for scale in (1, 4, 16, 64):
            coeffs = {jk: scale * testbed.coeff(*jk) for jk in testbed.nonzero_indices()}
            op = PerturbedOperator(grid64, 2, coeffs, form="divergence")
            try:
                solve_density(OscillatoryTransport(op, PHASE), a)
            except NonContractionError as exc:
                err = exc
                break
        else:
            pytest.fail("no scale made the map expand")
        assert scale > 1
        assert len(err.ratios) >= 3 and min(err.ratios[-3:]) >= 1.0
        assert str(err) == (
            f"transport map is not a contraction at h={PHASE.h}; term-norm ratios "
            "||t_k||/||t_(k-1)||: " + ", ".join(f"{r:.4g}" for r in err.ratios)
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


    @pytest.mark.parametrize("m", [2, 3])
    def test_single_precision_tail_matches_double_loop(self, grid128, m, monkeypatch):
        # the tail past the crossover runs in complex64 transforms; the sum
        # agrees with an all-double Neumann loop to a small share of tol*||w||:
        # measured 0.0059 at m=2 and 0.0019 at m=3, 3x and 10x under the bound
        tol = 1e-10
        T = OscillatoryTransport(coeff_table(grid128, m), PHASE)
        a = AmplitudeSpec.monomial(grid128, 1)
        w = T.source(a)
        expect, expect_terms = double_neumann(T, w, tol)
        counts = Counter()
        transform = CauchyKernel.apply

        def counted(kernel, values):
            counts[values.dtype] += 1
            return transform(kernel, values)

        monkeypatch.setattr(CauchyKernel, "apply", counted)
        g, terms, _ = solve_density(T, a, tol=tol)
        assert terms == expect_terms
        assert counts[np.dtype(np.complex64)] > 0 and counts[np.dtype(np.complex128)] > 0
        assert set(counts) == {np.dtype(np.complex64), np.dtype(np.complex128)}
        gap = norm_lp(g - ScalarField(grid128, expect), 2)
        assert gap <= 0.02 * tol * norm_lp(ScalarField(grid128, w), 2)

    def test_gate_guards_single_precision_terms(self, testbed128_div, grid128, monkeypatch):
        # a complex64 transform that errs by 1e-3 relative puts an error far
        # above tol*||w|| into g; the terms still contract, so the loop stops,
        # and the double-precision a-posteriori check must refuse the sum
        transform = CauchyKernel.apply
        hits = Counter()

        def erring(kernel, values):
            out = transform(kernel, values)
            if values.dtype == np.complex64:
                hits["single"] += 1
                out *= np.complex64(1.0 + 1e-3)
            return out

        monkeypatch.setattr(CauchyKernel, "apply", erring)
        T = OscillatoryTransport(testbed128_div, PHASE)
        with pytest.raises(MaxTermsExceededError, match="a-posteriori residual"):
            solve_density(T, AmplitudeSpec.monomial(grid128, 0))
        assert hits["single"] > 0

    @pytest.mark.parametrize("half_width", [1e-12, 1e6])
    def test_extreme_grid_scale_stays_double(self, half_width, monkeypatch):
        # coefficients scaled by half_width^-(2m-j-k) keep the map contracting,
        # but its intermediates would leave float32's range: the tail overflowed
        # at 1e-12 and underflowed past the a-posteriori check at 1e6, so the
        # range rule keeps every term in double, bit for bit the double loop
        T = extreme_scale_transport(half_width)
        a = AmplitudeSpec.monomial(T.grid, 0)
        expect, expect_terms = double_neumann(T, T.source(a), cgo.DEFAULT_TOL)
        monkeypatch.setattr(CauchyKernel, "apply", double_only(CauchyKernel.apply))
        g, terms, _ = solve_density(T, a)
        assert terms == expect_terms and np.array_equal(g.values, expect)


def extreme_scale_transport(half_width):
    """A contracting m = 2 transport on the n = 64 grid of the given half width,
    its coefficients scaled by half_width^-(2m-j-k)."""
    grid = ComplexGrid(0j, half_width, 64)
    L = half_width
    coeffs = {
        (j, k): L ** -(4 - j - k) * (1.0 + 0.3j * j - 0.2 * k)
        * field_from_expression(grid, f"bump({0.1 * j * L}, {-0.1 * k * L}, {0.6 * L}, 1)")
        for j in range(2) for k in range(2)
    }
    op = PerturbedOperator(grid, 2, coeffs, form="divergence")
    return OscillatoryTransport(op, PhaseSpec((0.1 + 0.1j) * L, 0.4 * L))


def double_only(transform):
    """CauchyKernel.apply wrapped to fail on a complex64 input."""
    def wrapped(kernel, values):
        assert values.dtype != np.complex64
        return transform(kernel, values)

    return wrapped


def double_neumann(T, w, tol):
    """The Neumann sum of solve_density with every term formed in double, as (g, terms)."""
    w_norm = norm_lp(ScalarField(T.grid, w), 2)
    g, term, terms = w, w, 1
    while True:
        term = T.apply(term)
        t_norm = norm_lp(ScalarField(T.grid, term), 2)
        if t_norm > 0:
            g, terms = g + term, terms + 1
        if t_norm <= tol * w_norm:
            return g, terms


# an m = 2 table whose lowest column is 1: the remainder takes one transform
# past the a-posteriori check's chain
LOWEST_COLUMN_1 = ((0, 1), (1, 1))


class TestBuildCGO:
    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("table", [None, LOWEST_COLUMN_1], ids=["lowest0", "lowest1"])
    def test_remainder_is_formed_by_the_solve(self, grid64, monkeypatch, table, sign):
        # r is the m-fold chain of E- * g bit for bit, and build_cgo runs no
        # transform outside solve_density
        T = OscillatoryTransport(coeff_table(grid64, 2, table), PHASE, sign)
        assert T.cols[0] == (0 if table is None else 1)
        counts = Counter()
        transform, solve = CauchyKernel.apply, cgo.solve_density

        def counted(kernel, values):
            counts["transforms"] += 1
            return transform(kernel, values)

        def counted_solve(*args):
            before = counts["transforms"]
            out = solve(*args)
            counts["in_solve"] += counts["transforms"] - before
            return out

        monkeypatch.setattr(CauchyKernel, "apply", counted)
        monkeypatch.setattr(cgo, "solve_density", counted_solve)
        sol = build_cgo(T, AmplitudeSpec.monomial(grid64, 1))
        assert counts["transforms"] == counts["in_solve"] > 0
        assert not sol.g.is_zero()
        expect = cauchy_chain(grid64, cgo._oscillate(T.e_minus, sol.g.values), 2)
        assert np.array_equal(sol.r.values, expect)

    @pytest.mark.parametrize("table, sign, degree, fields", [
        (None, -1, 0, 14.04),  # the four bumps' adjoint transport
        (LOWEST_COLUMN_1, +1, 1, 13.04),
    ], ids=["adjoint", "lowest1"])
    def test_peak_memory(self, grid256, table, sign, degree, fields):
        # the peaks measured before the solve formed the remainder itself,
        # 14.034 and 13.034 n x n complex arrays, and the same since
        op = bump_testbed(grid256, "divergence")
        if table is not None:
            op = PerturbedOperator(grid256, 2, {jk: op.coeff(*jk) for jk in table},
                                   form="divergence")
        phase = PhaseSpec(0.08 + 0.08j, 0.1)
        T = OscillatoryTransport(adjoint(op) if sign < 0 else op, phase, sign)
        a = AmplitudeSpec.monomial(grid256, degree)
        build_cgo(T, a)  # the kernel and its complex64 copy, built outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sol = build_cgo(T, a)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sol.neumann_terms == 7 and not sol.r.is_zero()
        assert peak <= fields * grid256.n**2 * np.dtype(complex).itemsize

    def test_peak_memory_after_the_check(self, grid256, monkeypatch):
        # once the a-posteriori check has passed, the solve holds g and the
        # check's chain tail alone: 2.004 n x n complex arrays at the
        # remainder's one transform and a 7.036 peak through it.  With tg, the
        # last term (complex64) and w kept alive past the check, that peak read
        # 9.536, the same build's whole peak staying at 13.034
        op = bump_testbed(grid256, "divergence")
        op = PerturbedOperator(grid256, 2, {jk: op.coeff(*jk) for jk in LOWEST_COLUMN_1},
                               form="divergence")
        T = OscillatoryTransport(op, PhaseSpec(0.08 + 0.08j, 0.1))
        a = AmplitudeSpec.monomial(grid256, 1)
        build_cgo(T, a)  # the kernel and its complex64 copy, built outside the trace
        chain, calls = cgo.cauchy_chain, []

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            out = chain(*args, **kwargs)
            calls.append((args[2:], kwargs, tracemalloc.get_traced_memory()[1]))
            return out

        monkeypatch.setattr(cgo, "cauchy_chain", traced)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_cgo(T, a)
        finally:
            tracemalloc.stop()
        power, kwargs, peak = calls[-1]  # the remainder's: dbar_inv^1 of the tail
        assert power == (1,) and kwargs == {}
        assert peak - before <= 7.05 * grid256.n**2 * np.dtype(complex).itemsize

    def test_unperturbed_exactness(self, grid128):
        op = PerturbedOperator(grid128, 2)
        sol = build_cgo(transport(op, PHASE), AmplitudeSpec.monomial(grid128, 1))
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
            build_cgo(transport(op, PHASE), AmplitudeSpec.monomial(grid128, 1)),
            build_cgo(transport(adjoint(op), PHASE, -1), AmplitudeSpec.monomial(grid128, 0)),
        ):
            assert sol.g.is_zero() and sol.r.is_zero()

    def test_assembly_identity(self, testbed128_div, grid128):
        sol = build_cgo(transport(testbed128_div, PHASE), AmplitudeSpec.monomial(grid128, 0))
        expect = PHASE.carrier(grid128) * (sol.amplitude.field + sol.r)
        assert np.array_equal(sol.u.values, expect.values)

    def test_diagnostics_recomputable(self, testbed128, testbed128_div, grid128, tmp_path):
        # the numbers poly cgo reports for one (z0, h) step are the library's
        # own norms of a fresh build and probe of the same transport
        import csv
        import json

        from conftest import TESTBED_BUMPS

        from polycgo import norm_hm, residual_norm
        from polycgo.cli import main

        doc = {
            "grid": {"n": 128},
            "operator": {"m": 2, "coeffs": {f"{j},{k}": t for (j, k), t in TESTBED_BUMPS.items()}},
            "phase": {"z0": [[PHASE.z0.real, PHASE.z0.imag]], "h": [PHASE.h, 0.2]},
            "output": {"directory": str(tmp_path / "run")},
        }
        (tmp_path / "cgo.json").write_text(json.dumps(doc))
        assert main(["cgo", "--config", str(tmp_path / "cgo.json")]) in (0, 1)
        with open(tmp_path / "run" / "results.csv") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        cgo_row, norm_row = (r for r in rows if float(r["h"]) == PHASE.h)
        assert (cgo_row["kind"], norm_row["kind"]) == ("cgo", "transport_norm")

        T = transport(testbed128_div, PHASE)
        sol = build_cgo(T, AmplitudeSpec.monomial(grid128, 0))
        u = sol.u
        residual = float(cgo_row["residual_l2"])
        assert int(cgo_row["terms"]) == sol.neumann_terms
        assert float(cgo_row["g_l2"]) == pytest.approx(norm_lp(sol.g, 2))
        assert float(cgo_row["value"]) == pytest.approx(norm_hm(sol.r, 2))
        assert residual == pytest.approx(residual_norm(testbed128, u))
        assert float(norm_row["value"]) == pytest.approx(transport_norm_probe(T)[0])
        # the double-precision application agrees to its own roundoff floor
        assert residual == pytest.approx(masked_l2(apply(testbed128, u)), rel=1e-3)

    def test_relative_residual_small(self, testbed128, grid128):
        from polycgo import residual_norm

        sol = build_cgo(transport(testbed128, PHASE), AmplitudeSpec.monomial(grid128, 0))
        u = sol.u
        rel = residual_norm(testbed128, u) / masked_l2(u)
        assert rel <= 0.02

    def test_monotone_h_scaling_and_density_slope(self):
        from polycgo import fit_loglog_slope, norm_hm

        g = ComplexGrid(0j, 1.0, 256)
        op = to_divergence_form(bump_testbed(g))
        a = AmplitudeSpec.monomial(g, 0)
        hs = (0.2, 0.14, 0.1, 0.07)
        gs, rs = [], []
        for h in hs:
            sol = build_cgo(OscillatoryTransport(op, PhaseSpec(0.1 + 0.1j, h)), a)
            gs.append(norm_lp(sol.g, 2))
            rs.append(norm_hm(sol.r, 2))
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
        norms = [
            _norm(ScalarField(g, OscillatoryTransport(op, PhaseSpec(0.1 + 0.1j, h)).source(a)), 2)
            for h in hs
        ]
        assert fit_loglog_slope(hs, norms) >= 0.5


class TestFieldsAtTheEdges:
    """The loops run on arrays: a field is made where a result leaves them."""

    def test_field_count_independent_of_steps(self, testbed128_div, grid128, monkeypatch):
        made = Counter()
        init = ScalarField.__init__

        def counted(self, *args):
            made["fields"] += 1
            init(self, *args)

        T = OscillatoryTransport(testbed128_div, PHASE)
        a = AmplitudeSpec.monomial(grid128, 0)
        monkeypatch.setattr(cgo, "PROBE_MAX_STEPS", 2)
        transport_norm_probe(T)  # the adjoint transport's one-time build
        monkeypatch.setattr(ScalarField, "__init__", counted)
        builds = []
        for tol in (1e-4, 1e-10):
            made.clear()
            builds.append((build_cgo(T, a, tol=tol).neumann_terms, made["fields"]))
        # with the settle rule off, the cap alone sets the step count
        monkeypatch.setattr(cgo, "PROBE_RTOL", -1.0)
        probes = []
        for cap in (2, 8):
            made.clear()
            monkeypatch.setattr(cgo, "PROBE_MAX_STEPS", cap)
            probes.append((transport_norm_probe(T)[1], made["fields"]))
        assert builds[0][0] < builds[1][0]
        # g and r; the probe's start field is formed once per (grid, seed), by
        # the probe above, so no probe makes a field
        assert [fields for _, fields in builds] == [2, 2]
        assert probes == [(2, 0), (8, 0)]

    def test_start_field_formed_once_per_grid_and_seed(self, grid64, grid128):
        start = smooth_random_field(grid128, 11)
        assert smooth_random_field(grid128, 11) is start and not start.values.flags.writeable
        assert smooth_random_field(grid128, 12) is not start
        assert smooth_random_field(grid64, 11).grid == grid64


class TestAdjointCGO:
    def test_unperturbed_exact(self, grid128):
        op = PerturbedOperator(grid128, 2)
        sol = build_cgo(transport(adjoint(op), PHASE, -1), AmplitudeSpec.monomial(grid128, 0))
        assert sol.r.is_zero()
        assert sol.carrier_sign == -1
        expect = PHASE.carrier(grid128, -1)
        assert np.array_equal(sol.u.values, expect.values)

    def test_adjoint_solution_solves_adjoint_equation(self, testbed128, grid128):
        T = transport(adjoint(testbed128), PHASE, -1)
        sol = build_cgo(T, AmplitudeSpec.monomial(grid128, 0))
        res = masked_l2(apply(T.op, sol.u))
        rel = res / masked_l2(sol.u)
        assert rel <= 0.05  # truncation floor at n=128; refinement tested in acceptance

    def test_remainder_slope(self):
        from polycgo import fit_loglog_slope, norm_hm

        g = ComplexGrid(0j, 1.0, 256)
        op = adjoint(bump_testbed(g))
        b = AmplitudeSpec.monomial(g, 0)
        hs = (0.2, 0.14, 0.1)
        rs = [norm_hm(build_cgo(transport(op, PhaseSpec(0.1 + 0.1j, h), -1), b).r, 2) for h in hs]
        assert all(a > b for a, b in zip(rs, rs[1:]))
        assert fit_loglog_slope(hs, rs) >= 0.45


def power_estimates(T, v, sweeps):
    """The estimate after each of `sweeps` full T*T sweeps, with no stop."""
    ests = []
    for _ in range(sweeps):
        tv = ScalarField(v.grid, T.apply(v.values))
        ests.append(norm_lp(tv, 2) / norm_lp(v, 2))
        w = ScalarField(v.grid, T.apply_adjoint(tv.values))
        v = w * (1.0 / norm_lp(w, 2))
    return ests


# the probe's estimate against the explicit full-basis oracle: roundoff only
GKL_RTOL = 1e-13


def gkl_estimates(T, v, steps):
    """The Golub-Kahan-Lanczos estimate after each of `steps` steps, with no stop.

    Keeps every Lanczos vector, forms the top Ritz vector x = V y and applies T
    to it, where the probe keeps ring entries only and uses T x = U B y.
    """
    def apply(f):
        return ScalarField(f.grid, T.apply(f.values))

    vs, us, alphas, betas, ests = [], [], [], [], []
    v = v * (1.0 / np.linalg.norm(v.values))
    for k in range(steps):
        p = apply(v) if k == 0 else apply(v) - betas[-1] * us[-1]
        alphas.append(np.linalg.norm(p.values))
        vs.append(v)
        us.append(p * (1.0 / alphas[-1]))
        B = np.diag(alphas) + np.diag(betas, 1)
        y = np.linalg.svd(B)[2][0]
        x = vs[0] * complex(y[0])
        for yi, vi in zip(y[1:], vs[1:]):
            x = x + vi * complex(yi)
        ests.append(norm_lp(apply(x), 2) / norm_lp(x, 2))
        q = ScalarField(v.grid, T.apply_adjoint(us[-1].values)) - alphas[-1] * v
        betas.append(np.linalg.norm(q.values))
        v = q * (1.0 / betas[-1])
    return ests


def count_applies(monkeypatch):
    """Tally T.apply and T.apply_adjoint calls by h from here on."""
    calls = {"apply": Counter(), "apply_adjoint": Counter()}
    for name, tally in calls.items():
        orig = getattr(OscillatoryTransport, name)

        def counted(self, v, _orig=orig, _tally=tally):
            _tally[self.phase.h] += 1
            return _orig(self, v)

        monkeypatch.setattr(OscillatoryTransport, name, counted)
    return calls


class TestNormProbe:
    def test_zero_coefficients_zero_norm(self, grid128):
        op = PerturbedOperator(grid128, 2)
        assert transport_norm_probe(transport(op, PHASE)) == (0.0, 0)

    def test_contraction_and_slope(self, monkeypatch):
        from polycgo import fit_loglog_slope

        g = ComplexGrid(0j, 1.0, 256)
        op = to_divergence_form(bump_testbed(g))
        hs = (0.2, 0.14, 0.1, 0.07)
        transports = [OscillatoryTransport(op, PhaseSpec(0.1 + 0.1j, h)) for h in hs]
        monkeypatch.setattr(cgo, "PROBE_MAX_STEPS", 10)
        ests = [transport_norm_probe(T, seed=0)[0] for T in transports]
        assert all(est < 1.0 for est in ests)
        assert fit_loglog_slope(hs, ests) >= 0.4
        # consistency: the Neumann solver converges where the probe says < 1
        _, terms, _ = solve_density(transports[0], AmplitudeSpec.monomial(g, 0))
        assert terms >= 2

    def test_seed_reproducibility(self, testbed128_div, monkeypatch):
        monkeypatch.setattr(cgo, "PROBE_MAX_STEPS", 4)
        T = OscillatoryTransport(testbed128_div, PHASE)
        p1 = transport_norm_probe(T, seed=9)
        p2 = transport_norm_probe(OscillatoryTransport(testbed128_div, PHASE), seed=9)
        assert p1 == p2 == transport_norm_probe(T, seed=9)

    def test_cap_below_convergence(self, testbed128_div, grid128, monkeypatch):
        # GKL_RTOL pins roundoff, so every probe transform stays in double
        monkeypatch.setattr(cgo, "SINGLE_RANGE_BITS", -1.0)
        phases = [PHASE.with_h(h) for h in (0.3, 0.2)]
        start = smooth_random_field(grid128, 0)
        expect = [
            gkl_estimates(OscillatoryTransport(testbed128_div, p), start, 4)[-1]
            for p in phases
        ]
        calls = count_applies(monkeypatch)
        monkeypatch.setattr(cgo, "PROBE_MAX_STEPS", 4)
        probes = [
            transport_norm_probe(OscillatoryTransport(testbed128_div, p), seed=0)
            for p in phases
        ]
        assert [k for _, k in probes] == [4, 4]
        for (est, _), oracle in zip(probes, expect):
            assert abs(est - oracle) <= GKL_RTOL * oracle
        # the capping sweep skips its adjoint
        assert calls == {"apply": {0.3: 4, 0.2: 4}, "apply_adjoint": {0.3: 3, 0.2: 3}}

    def test_stops_once_settled(self, testbed128_div, grid128, monkeypatch):
        # the default rule stops within PROBE_RTOL of the settled value, the
        # bound transport_norm_probe states; a 1e-12 rule pins the GKL
        # convergence itself.  GKL_RTOL pins roundoff, so every probe
        # transform stays in double
        monkeypatch.setattr(cgo, "SINGLE_RANGE_BITS", -1.0)
        phases = [PHASE.with_h(h) for h in (0.3, 0.2, 0.14)]
        start = smooth_random_field(grid128, 0)
        full = {
            p.h: power_estimates(OscillatoryTransport(testbed128_div, p), start, 20)
            for p in phases
        }
        oracle = {
            p.h: gkl_estimates(OscillatoryTransport(testbed128_div, p), start, 20)
            for p in phases
        }
        calls = count_applies(monkeypatch)
        for rtol in (PROBE_RTOL, 1e-12):
            monkeypatch.setattr(cgo, "PROBE_RTOL", rtol)
            for tally in calls.values():
                tally.clear()
            for p in phases:
                est, k = transport_norm_probe(OscillatoryTransport(testbed128_div, p), seed=0)
                ests, gkl = full[p.h], oracle[p.h]
                settled = [
                    i + 1 for i in range(1, 20) if abs(gkl[i] - gkl[i - 1]) <= rtol * gkl[i]
                ]
                assert k < 20 and k == settled[0]  # the first step that meets the rule
                assert abs(est - gkl[k - 1]) <= GKL_RTOL * gkl[k - 1]
                if rtol == PROBE_RTOL:
                    assert abs(est - ests[-1]) <= PROBE_RTOL * ests[-1]
                else:
                    assert abs(est - ests[-1]) <= 1e-11 * ests[-1]
                assert calls["apply"][p.h] == k and calls["apply_adjoint"][p.h] == k - 1

    def test_step_count_on_testbed(self, testbed128_div, monkeypatch):
        # measured: the default rule settles in 5 steps at each h
        hs = (0.3, 0.2, 0.14)
        calls = count_applies(monkeypatch)
        steps = [
            transport_norm_probe(OscillatoryTransport(testbed128_div, PHASE.with_h(h)))[1]
            for h in hs
        ]
        assert steps == [5, 5, 5]
        assert calls == {"apply": {h: 5 for h in hs}, "apply_adjoint": {h: 4 for h in hs}}

    @pytest.mark.parametrize("n", (16, 32))
    @pytest.mark.parametrize("table", ("testbed", "m3_cols_1_2"))
    def test_matches_dense_oracle(self, n, table, monkeypatch):
        # T formed column by column; v1 is its top right singular vector in the
        # plain inner product, the vector the probe's estimate is taken at.
        # The default rule, with its complex64 transforms, stops within its
        # stated PROBE_RTOL of that value (measured at most 5.2e-7, on the
        # n = 32 testbed); under a 1e-12 rule, in double, the probe meets it
        # to roundoff
        grid = ComplexGrid(0j, 1.0, n)
        if table == "testbed":
            op = to_divergence_form(bump_testbed(grid))
        else:
            op = coeff_table(grid, 3, ((0, 1), (1, 2), (2, 1)))
        T = OscillatoryTransport(op, PhaseSpec(0.1 + 0.1j, 8.0 * grid.spacing))
        unit = np.zeros(n * n, dtype=complex)
        columns = []
        for i in range(n * n):
            unit[i] = 1.0
            columns.append(T.apply(unit.reshape(n, n)).ravel())
            unit[i] = 0.0
        M = np.column_stack(columns)
        v1 = np.linalg.svd(M)[2][0].conj()
        w = np.outer(grid._trapezoid_1d, grid._trapezoid_1d).ravel()
        at_v1 = np.sqrt(np.sum(w * np.abs(M @ v1) ** 2) / np.sum(w * np.abs(v1) ** 2))
        weighted_norm = np.linalg.norm(np.sqrt(w)[:, None] * M / np.sqrt(w)[None, :], 2)
        est, k = transport_norm_probe(T)
        assert k < 20
        assert abs(est - at_v1) <= PROBE_RTOL * at_v1
        assert est <= weighted_norm * (1.0 + 1e-13)
        monkeypatch.setattr(cgo, "PROBE_RTOL", 1e-12)
        monkeypatch.setattr(cgo, "SINGLE_RANGE_BITS", -1.0)
        est, k = transport_norm_probe(T)
        assert k < 20
        assert abs(est - at_v1) <= 1e-12 * at_v1
        assert est <= weighted_norm * (1.0 + 1e-13)

    def test_transforms_run_in_single_only_in_the_tail_and_the_probe(
        self, bench_operator, monkeypatch
    ):
        # poly cgo's order at one h: the solve's head, its complex64 tail, its
        # a-posteriori check and remainder, then the probe in complex64
        dtypes = []
        transform = CauchyKernel.apply

        def recorded(kernel, values):
            dtypes.append("S" if values.dtype == np.complex64 else "D")
            return transform(kernel, values)

        monkeypatch.setattr(CauchyKernel, "apply", recorded)
        T = OscillatoryTransport(bench_operator, PhaseSpec(0.1 + 0.1j, 0.07))
        build_cgo(T, AmplitudeSpec.monomial(T.grid, 0))
        solve, dtypes[:] = "".join(dtypes), []
        assert re.fullmatch("D+S+D+", solve), solve
        assert transport_norm_probe(T)[1] == 5
        assert dtypes and set(dtypes) == {"S"}

    @pytest.mark.parametrize("h", (0.2, 0.14, 0.1, 0.07))
    def test_single_estimate_near_double(self, bench_operator, h, monkeypatch):
        # measured -1.7e-7 to -1.9e-7 relative on poly cgo's operator, 5 steps
        # either way: within half of PROBE_RTOL, the rerun tolerance
        T = OscillatoryTransport(bench_operator, PhaseSpec(0.1 + 0.1j, h))
        single = transport_norm_probe(T)
        monkeypatch.setattr(cgo, "SINGLE_RANGE_BITS", -1.0)
        double = transport_norm_probe(T)
        assert single[1] == double[1] == 5
        assert abs(single[0] - double[0]) <= 0.5 * PROBE_RTOL * double[0]

    def test_extreme_grid_scale_keeps_the_probe_double(self, monkeypatch):
        # the solve's range rule holds for the probe: at half width 1e-12 the
        # map's intermediates would leave float32's range
        T = extreme_scale_transport(1e-12)
        with monkeypatch.context() as m:
            m.setattr(cgo, "SINGLE_RANGE_BITS", -1.0)
            expect = transport_norm_probe(T)
        monkeypatch.setattr(CauchyKernel, "apply", double_only(CauchyKernel.apply))
        assert transport_norm_probe(T) == expect

    def test_memory_flat_in_steps(self, testbed128_div, grid128, monkeypatch):
        # with the settle rule off, 15 more steps may keep ring entries only:
        # together less than one n x n field.  A negative tolerance, because at
        # 0 the rule still stops where the estimate repeats to the last bit
        monkeypatch.setattr(cgo, "PROBE_RTOL", -1.0)
        T = OscillatoryTransport(testbed128_div, PHASE)
        monkeypatch.setattr(cgo, "PROBE_MAX_STEPS", 2)
        transport_norm_probe(T)  # kernel and adjoint transport built
        peak = {}
        tracemalloc.start()
        try:
            for steps in (5, 20):
                monkeypatch.setattr(cgo, "PROBE_MAX_STEPS", steps)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert transport_norm_probe(T)[1] == steps
                peak[steps] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak[20] - peak[5] < grid128.n**2 * np.dtype(complex).itemsize
