import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import dblquad_complex, normalized_gaussian, symbolic_wirtinger

import polycgo.grid as grid_module
from polycgo import (
    ComplexGrid,
    PerturbedOperator,
    ScalarField,
    cauchy,
    dbar_inv,
    integrate,
    mixed_wirtinger,
    norm_hm,
    norm_lp,
    wirtinger_d,
    wirtinger_dbar,
)


class TestComplexGrid:
    def test_node_layout(self):
        g = ComplexGrid(0.5 + 0.25j, 2.0, 16)
        assert g.spacing == pytest.approx(4.0 / 15)
        assert g.nodes[0, 0] == pytest.approx(0.5 + 0.25j + (-2 - 2j))
        assert g.nodes[-1, -1] == pytest.approx(0.5 + 0.25j + (2 + 2j))
        # axis 0 moves along the real direction
        assert g.nodes[1, 0] - g.nodes[0, 0] == pytest.approx(g.spacing)
        assert g.nodes[0, 1] - g.nodes[0, 0] == pytest.approx(1j * g.spacing)

    @pytest.mark.parametrize("n", [15, 100, 24, 8])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            ComplexGrid(0j, 1.0, n)

    def test_rejects_bad_half_width(self):
        with pytest.raises(ValueError):
            ComplexGrid(0j, -1.0, 64)

    @pytest.mark.parametrize("direction", [1, -1, 1j, -1j])
    def test_center_bound(self, direction):
        # a center whose rounding passes 1e-6 of the spacing is refused, one within it kept
        spacing = 2.0 / 31
        limit = 1e-6 * spacing / np.finfo(float).eps
        assert ComplexGrid(0.9 * limit * direction, 1.0, 32).n == 32
        with pytest.raises(ValueError, match=r"^center "):
            ComplexGrid(1.1 * limit * direction, 1.0, 32)

    @pytest.mark.parametrize("center", [1e17, complex(0, np.nan), complex(np.inf, 0)])
    def test_rejects_center_that_moves_the_nodes(self, center):
        # at 1e17 all 32 node abscissae round to one value; a non-finite part has no bound
        with pytest.raises(ValueError, match=r"^center "):
            ComplexGrid(center, 1.0, 32)

    def test_rejects_nan_fields(self, grid64):
        vals = np.zeros((64, 64), dtype=complex)
        vals[3, 5] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid64, vals)
        assert vals.flags.writeable  # a refused array is not taken over

    def test_field_immutable(self, grid64):
        f = grid64.constant(1.0)
        with pytest.raises((ValueError, AttributeError)):
            f.values[0, 0] = 2.0

    def test_one_shared_zero_field(self):
        g = ComplexGrid(0j, 1.0, 32)
        z = g.zero()
        assert z is g.zero() and z.is_zero()
        assert not z.values.flags.writeable
        with pytest.raises(ValueError):
            z.values[0, 0] = 1.0
        # every absent coefficient of an operator is that same field
        op = PerturbedOperator(g, 2, {(0, 0): g.constant(1.0)})
        assert all(op.coeff(*jk) is z for jk in ((0, 1), (1, 0), (1, 1)))
        # the grid holds it weakly: no grid-field cycle outlives its last user
        ref = weakref.ref(z)
        del z, op
        assert ref() is None and g.zero().is_zero()

    def test_grid_mismatch_rejected(self, grid64, grid128):
        with pytest.raises(ValueError):
            grid64.constant(1.0) + grid128.constant(1.0)


# arrays a field must copy: (array, the caller's array whose flags must not change)
def _slice(grid):
    big = np.zeros((2 * grid.n, grid.n), dtype=complex)
    return big[: grid.n], big


def _broadcast(grid):
    row = np.ones(grid.n, dtype=complex)
    return np.broadcast_to(row, (grid.n, grid.n)), row


def _nodes(grid):
    return grid.nodes, grid.nodes


def _float(grid):
    vals = np.ones((grid.n, grid.n))
    return vals, vals


def _fortran(grid):
    vals = np.ones((grid.n, grid.n), dtype=complex, order="F")
    return vals, vals


class TestOwnership:
    def test_fresh_array_is_kept_and_frozen(self, grid64):
        vals = np.ones((64, 64), dtype=complex)
        f = ScalarField(grid64, vals)
        assert f.values is vals and not vals.flags.writeable

    @pytest.mark.parametrize("make", [_slice, _broadcast, _nodes, _float, _fortran])
    def test_other_arrays_are_copied(self, grid64, make):
        vals, owner = make(grid64)
        writeable = owner.flags.writeable
        f = ScalarField(grid64, vals)
        assert not np.shares_memory(f.values, owner) and not f.values.flags.writeable
        assert f.values.flags.c_contiguous and np.array_equal(f.values, vals)
        assert owner.flags.writeable == writeable

    @pytest.mark.parametrize("op", ["zero", "add"])
    def test_peak_is_the_result_alone(self, op):
        # the result and the finiteness scan's boolean mask; a copy would double it
        g = ComplexGrid(0j, 1.0, 512)
        a, b = g.constant(0.5), g.constant(0.25j)
        make = g.zero if op == "zero" else (lambda: a + b)
        tracemalloc.start()
        try:
            f = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values.shape == (512, 512)
        assert peak <= 1.1 * g.n * g.n * 16

    @pytest.mark.parametrize("module, name, fn", [
        (cauchy, "cauchy_chain", dbar_inv),
        (grid_module, "_dbar", wirtinger_dbar),
    ], ids=["dbar_inv", "wirtinger_dbar"])
    def test_result_array_is_kept(self, grid64, monkeypatch, module, name, fn):
        # both allocate scratch arrays, so the array their field keeps is traced instead
        made, inner = [], getattr(module, name)

        def recorded(*args, **kwargs):
            made.append(inner(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(module, name, recorded)
        f = fn(grid64.sample(lambda z: z * np.conj(z)))
        assert len(made) == 1 and np.shares_memory(f.values, made[0])


class TestWirtinger:
    def test_d_of_z_squared(self, grid64):
        f = grid64.sample(lambda z: z**2)
        out = wirtinger_d(f)
        assert np.allclose(out.values, 2 * grid64.nodes, atol=1e-12)

    def test_d_kills_zbar(self, grid64):
        f = grid64.sample(np.conj)
        assert np.allclose(wirtinger_d(f).values, 0, atol=1e-12)

    def test_dbar_of_zbar_squared(self, grid64):
        f = grid64.sample(lambda z: np.conj(z) ** 2)
        assert np.allclose(wirtinger_dbar(f).values, 2 * np.conj(grid64.nodes), atol=1e-12)

    def test_dbar_kills_z(self, grid64):
        f = grid64.sample(lambda z: z)
        assert np.allclose(wirtinger_dbar(f).values, 0, atol=1e-12)

    def test_d_of_abs_squared_symbolic_oracle(self, grid64):
        # |z|^2 = z*conj(z); the symbolic oracle confirms d -> conj(z)
        oracle = symbolic_wirtinger(lambda z: z * sp_conj(z), n_d=1)
        f = grid64.sample(lambda z: z * np.conj(z))
        assert np.allclose(wirtinger_d(f).values, oracle(grid64.nodes), atol=1e-12)

    def test_dbar_of_abs_squared_symbolic_oracle(self, grid64):
        oracle = symbolic_wirtinger(lambda z: z * sp_conj(z), n_dbar=1)
        f = grid64.sample(lambda z: z * np.conj(z))
        assert np.allclose(wirtinger_dbar(f).values, oracle(grid64.nodes), atol=1e-12)

    def test_mixed_derivatives_commute_on_gaussian(self, grid128):
        f = grid128.sample(lambda z: np.exp(-np.abs(z) ** 2 / 0.08))
        ab = wirtinger_d(wirtinger_dbar(f))
        ba = wirtinger_dbar(wirtinger_d(f))
        scale = norm_lp(ab, np.inf)
        assert norm_lp(ab - ba, np.inf) <= 1e-6 * scale

    def test_mixed_wirtinger_applies_d_first(self, grid64, rng):
        # the one order every derivative table uses: d^a, then dbar^b
        f = ScalarField(grid64, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        for a in range(3):
            for b in range(3):
                expect = f
                for _ in range(a):
                    expect = wirtinger_d(expect)
                for _ in range(b):
                    expect = wirtinger_dbar(expect)
                assert np.array_equal(mixed_wirtinger(f, a, b).values, expect.values), (a, b)

    def test_conjugation_duality_exact(self, grid64, rng):
        vals = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        f = ScalarField(grid64, vals)
        lhs = wirtinger_d(f.conj())
        rhs = wirtinger_dbar(f).conj()
        assert np.array_equal(lhs.values, rhs.values)

    def test_laplacian_consistency(self, grid128):
        # 4 d dbar f should match the coordinate Laplacian on smooth fields
        import sympy as sp

        f = grid128.sample(lambda z: np.exp(-np.abs(z - 0.1) ** 2 / 0.1))
        lap_w = 4.0 * wirtinger_d(wirtinger_dbar(f)).values
        x, y = sp.symbols("x y", real=True)
        expr = sp.exp(-((x - sp.Rational(1, 10)) ** 2 + y**2) / sp.Rational(1, 10))
        lap = sp.lambdify((x, y), sp.diff(expr, x, 2) + sp.diff(expr, y, 2), "numpy")
        expect = lap(np.real(grid128.nodes), np.imag(grid128.nodes))
        inner = np.s_[8:-8, 8:-8]
        err = np.max(np.abs(lap_w[inner] - expect[inner]))
        assert err <= 1e-4 * np.max(np.abs(expect))


class TestIntegrate:
    def test_constant_area(self, grid64):
        assert integrate(grid64.constant(1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_odd_symmetry(self, grid64):
        f = grid64.sample(lambda z: z)
        assert abs(integrate(f)) <= 1e-12

    def test_normalized_gaussian_quadrature_oracle(self):
        g = ComplexGrid(0j, 1.0, 512)
        fn = normalized_gaussian(sigma=0.12)
        # frozen from the adaptive product-quadrature oracle (dblquad of the
        # same profile over the square); the plane integral is 1 by design
        oracle = dblquad_complex(
            lambda x, y: fn(x + 1j * y), -1, 1, -1, 1, epsabs=1e-12, epsrel=1e-12
        )
        assert abs(oracle - 1.0) < 1e-12
        assert abs(integrate(g.sample(fn)) - oracle) < 1e-6

    @given(
        a=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_and_conjugation_equivariant(self, a, b):
        g = ComplexGrid(0j, 1.0, 16)
        rng = np.random.default_rng(7)
        f1 = ScalarField(g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        f2 = ScalarField(g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        lin = integrate(a * f1 + b * f2)
        assert lin == pytest.approx(a * integrate(f1) + b * integrate(f2), rel=1e-12, abs=1e-12)
        assert integrate(f1.conj()) == np.conj(integrate(f1))


class TestNorms:
    def test_l2_of_constant(self, grid64):
        assert norm_lp(grid64.constant(1.0), 2) == pytest.approx(2.0, abs=1e-12)

    def test_hm_of_constant(self, grid64):
        c = 2.0 - 1.5j
        for m in (0, 1, 3):
            assert norm_hm(grid64.constant(c), m) == pytest.approx(abs(c) * 2.0, abs=1e-9)

    def test_l2_of_z_closed_form(self, grid256):
        # integral of |z|^2 over [-1,1]^2 is 8/3
        f = grid256.sample(lambda z: z)
        assert norm_lp(f, 2) == pytest.approx((8.0 / 3.0) ** 0.5, rel=1e-4)

    def test_inf_norm(self, grid64):
        f = grid64.sample(lambda z: z)
        assert norm_lp(f, np.inf) == pytest.approx(abs(1 + 1j))

    def test_rejects_bad_p(self, grid64):
        with pytest.raises(ValueError):
            norm_lp(grid64.constant(1.0), 0.5)


# sympy conjugate, importable at module top for the oracle lambdas above
import sympy as _sp


def sp_conj(z):
    return _sp.conjugate(z)
