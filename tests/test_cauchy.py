import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from support import dblquad_complex, disc_cauchy_transform_oracle, gaussian_bump

from polycgo import (
    CauchyKernel,
    ComplexGrid,
    CouplingError,
    PhaseSpec,
    ScalarField,
    d_inv,
    dbar_inv,
    kernel_for,
    lp_bound_constant,
    norm_lp,
    oscillatory_decay_probe,
    smooth_random_field,
    wirtinger_d,
    wirtinger_dbar,
)
from polycgo import cauchy
from polycgo.cauchy import _cell_integral_table, _corner_antiderivative


class TestKernelTable:
    def test_cell_integrals_match_quadrature_oracle(self):
        # exact corner-formula cell integrals of 1/z vs adaptive quadrature,
        # including a cell in the branch-cut strip (rebuilt by reflection)
        n, s = 16, 0.125
        table = _cell_integral_table(n, s)
        for (p, q) in [(1, 0), (3, 2), (-2, 5), (-4, 0), (0, -3)]:
            cell = dblquad_complex(
                lambda x, y: 1.0 / (x + 1j * y),
                (p - 0.5) * s, (p + 0.5) * s,
                (q - 0.5) * s, (q + 0.5) * s,
                epsabs=1e-13, epsrel=1e-13,
            )
            got = table[p % (2 * n), q % (2 * n)]
            assert got == pytest.approx(cell, rel=1e-9, abs=1e-13), (p, q)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_strip_reflection_matches_whole_table_reflection(self, n):
        # reference: the four-corner formula on every cell, reflect every cell,
        # then keep the reflection on the strip; the spacings include those of
        # the half_width 1e-12 and 1e6 grids at n = 64
        idx = scipy.fft.fftfreq(2 * n, 1.0 / (2 * n))
        p, q = idx[:, None], idx[None, :]
        F = _corner_antiderivative
        for s in (2.0 / (n - 1), 1e-6, 3.7, 1e5, 2e-12 / 63, 2e6 / 63):
            x1, x2 = (p - 0.5) * s, (p + 0.5) * s
            y1, y2 = (q - 0.5) * s, (q + 0.5) * s
            direct = F(x2, y2) - F(x1, y2) - F(x2, y1) + F(x1, y1)
            reflected = F(-x1, -y1) - F(-x2, -y1) - F(-x1, -y2) + F(-x2, -y2)
            expect = np.where((np.abs(q) < 0.5) & (p < 0.5), -reflected, direct)
            expect[0, 0] = 0.0
            assert np.array_equal(_cell_integral_table(n, s), expect), s

    @pytest.mark.parametrize("n", [16, 64])
    def test_antiderivative_evaluated_once_per_corner(self, n, monkeypatch):
        # (2n+1)^2 lattice corners plus the strip's four reflected corner rows of
        # n+1 points; the four-corner formula on every cell evaluates 4(2n)^2
        points = []

        def counted(x, y):
            points.append(np.broadcast(x, y).size)
            return _corner_antiderivative(x, y)

        monkeypatch.setattr(cauchy, "_corner_antiderivative", counted)
        _cell_integral_table(n, 2.0 / (n - 1))
        assert sum(points) <= (2 * n + 1) ** 2 + 4 * (n + 1)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_no_corner_is_zero(self, n, monkeypatch):
        # the antiderivative has no guard for z = 0: every lattice and strip
        # corner is an odd multiple of spacing/2, so log z stays finite
        corners = []

        def recorded(x, y):
            corners.append(np.broadcast_arrays(x, y))
            return _corner_antiderivative(x, y)

        monkeypatch.setattr(cauchy, "_corner_antiderivative", recorded)
        for s in (2.0 / (n - 1), 2e-12 / 63, 2e6 / 63):
            corners.clear()
            table = _cell_integral_table(n, s)
            assert len(corners) == 5  # the lattice, then the strip's four rows
            assert all(np.all((x != 0) & (y != 0)) for x, y in corners), s
            assert np.all(np.isfinite(table)), s

    def test_singular_cell_weight_is_exact_zero(self, grid64):
        assert _cell_integral_table(grid64.n, grid64.spacing)[0, 0] == 0.0

    def test_odd_symmetry(self, grid64):
        n = grid64.n
        t = _cell_integral_table(n, grid64.spacing)
        for (p, q) in [(1, 0), (5, -3), (-7, 2), (n - 1, n - 1), (0, 4)]:
            if (p, q) == (0, 0):
                continue
            assert t[p % (2 * n), q % (2 * n)] == pytest.approx(
                -t[(-p) % (2 * n), (-q) % (2 * n)], rel=1e-14
            )


def padded_reference(kernel, values, dtype=np.complex128):
    """The convolution as one padded fft2, kernel product, ifft2 and crop."""
    n = kernel.grid.n
    khat = kernel._khat_single if dtype == np.complex64 else kernel._khat
    pad = np.zeros((2 * n, 2 * n), dtype=dtype)
    pad[:n, :n] = values
    return scipy.fft.ifft2(scipy.fft.fft2(pad) * khat)[:n, :n]


class TestPrunedTransform:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_padded_fft2(self, n):
        k = kernel_for(ComplexGrid(0j, 1.0, n))
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal((n, n))
        for values in (z, x, z.T, x.T):
            out = k.apply(values)
            assert np.array_equal(out, padded_reference(k, values))
            assert out.shape == (n, n) and out.flags.c_contiguous
            assert not np.shares_memory(out, values)
        assert np.array_equal(k.apply(k.apply(z)), padded_reference(k, padded_reference(k, z)))

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_single_precision_matches_padded_fft2(self, n):
        k = kernel_for(ComplexGrid(0j, 1.0, n))
        rng = np.random.default_rng(n)
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).astype(np.complex64)
        out = k.apply(z)
        assert out.dtype == np.complex64
        assert np.array_equal(out, padded_reference(k, z, np.complex64))

    def test_other_inputs_match_their_complex128_cast(self, grid64):
        # each is written into the work array with the cast; none is written to
        k = kernel_for(grid64)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        frozen = z.copy()
        frozen.flags.writeable = False
        wide = rng.standard_normal((80, 96)) + 1j * rng.standard_normal((80, 96))
        inputs = {
            "float32": rng.standard_normal((64, 64)).astype(np.float32),
            "int64": rng.integers(-1000, 1000, (64, 64)),
            "F-ordered": np.asfortranarray(z),
            "read-only": frozen,
            "view": wide[7:71, 20:84],
        }
        for name, values in inputs.items():
            before = values.copy()
            out = k.apply(values)
            assert out.dtype == np.complex128, name
            assert np.array_equal(out, padded_reference(k, values.astype(np.complex128))), name
            assert np.array_equal(values, before), name

    @pytest.mark.parametrize("shape", [(32, 33), (31, 32), (64, 64), (32,), ()])
    def test_refuses_a_wrongly_shaped_array(self, shape):
        # these once returned a cropped (32, 32) result, or raised IndexError
        # for a 1-D array; on the work array they would broadcast into its block
        values = np.ones(shape, dtype=np.complex128)
        with pytest.raises(ValueError, match=re.escape(f"shape (32, 32), got shape {shape}")):
            kernel_for(ComplexGrid(0j, 1.0, 32)).apply(values)

    def test_peak_is_the_work_array_and_the_result(self, grid256):
        # the 2n x 2n work array with cache-line-padded rows plus the n x n
        # result: 5.03 n^2 complex entries measured, where the padding copies
        # of the length-argument passes peaked at 6.0 n^2
        k = kernel_for(grid256)
        z = np.ones((256, 256), dtype=np.complex128)
        k.apply(z)
        tracemalloc.start()
        try:
            k.apply(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.1 * 256**2 * 16

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_kernel_transform_matches_fft2(self, n):
        k = CauchyKernel(ComplexGrid(0j, 1.0, n))
        cells = _cell_integral_table(n, k.grid.spacing)
        assert np.array_equal(k._khat, scipy.fft.fft2(cells / np.pi))

    def test_two_workers_give_the_same_bits(self, grid256):
        k = kernel_for(grid256)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        one = k.apply(k.apply(z))
        with scipy.fft.set_workers(2):
            two = k.apply(k.apply(z))
        assert np.array_equal(one, two)


    def test_single_precision_input_stays_single(self, grid128):
        # a fresh kernel, so the complex64 kernel transform is built here, on
        # the first complex64 apply, and leaves the double path's bits alone;
        # measured gap 1.2e-7 relative L2, about float32's eps: 8x under the bound
        k = CauchyKernel(grid128)
        v = smooth_random_field(grid128, seed=7).values
        double = k.apply(v)
        assert "_khat_single" not in vars(k)
        single = k.apply(v.astype(np.complex64))
        assert single.dtype == np.complex64 and k._khat_single.dtype == np.complex64
        assert np.linalg.norm(single - double) <= 1e-6 * np.linalg.norm(double)
        assert np.array_equal(k.apply(v), double)
        assert np.array_equal(double, padded_reference(k, v))


class TestCauchyTransforms:
    def test_zero_maps_to_zero(self, grid64):
        out = dbar_inv(grid64.zero())
        assert out.is_zero()

    def test_disc_indicator_inside(self):
        g = ComplexGrid(0j, 1.0, 256)
        R = 0.5
        f = g.sample(lambda z: (np.abs(z) < R).astype(complex))
        t = dbar_inv(f)
        inside = np.abs(g.nodes) < 0.9 * R
        err = np.max(np.abs(t.values - np.conj(g.nodes))[inside])
        assert err <= 5.0 * g.spacing

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_disc_indicator_against_polar_oracle(self):
        # the oracle quadrature warns near the indicator's jump; its accuracy
        # is asserted against the closed form below
        g = ComplexGrid(0j, 1.0, 128)
        R = 0.5
        f = g.sample(lambda z: (np.abs(z) < R).astype(complex))
        t = dbar_inv(f)
        for z in (0.1 + 0.2j, 0.7 - 0.3j):
            oracle = disc_cauchy_transform_oracle(z, R)
            i = round((z.real + 1) / g.spacing)
            j = round((z.imag + 1) / g.spacing)
            node = g.nodes[i, j]
            oracle_at_node = disc_cauchy_transform_oracle(complex(node), R)
            assert t.values[i, j] == pytest.approx(oracle_at_node, abs=4 * g.spacing)
            # and the classical closed form agrees with the oracle itself
            closed = np.conj(z) if abs(z) < R else R**2 / z
            assert oracle == pytest.approx(closed, abs=1e-8)

    def test_disc_indicator_outside_closed_form(self):
        g = ComplexGrid(0j, 1.0, 256)
        R = 0.4
        f = g.sample(lambda z: (np.abs(z) < R).astype(complex))
        t = dbar_inv(f)
        ring = (np.abs(g.nodes) > 1.5 * R) & (np.abs(g.nodes) < 0.95)
        err = np.max(np.abs(t.values - R**2 / g.nodes)[ring])
        assert err <= 5.0 * g.spacing

    def test_left_inverse_identity_refines(self):
        errs = []
        for n in (128, 256):
            g = ComplexGrid(0j, 1.0, n)
            f = g.sample(gaussian_bump(sigma=0.15))
            err = norm_lp(wirtinger_dbar(dbar_inv(f)) - f, 2) / norm_lp(f, 2)
            errs.append(err)
        assert errs[0] <= 1e-2
        assert errs[0] / errs[1] >= 3.0

    def test_d_inv_left_inverse(self, grid128):
        f = grid128.sample(gaussian_bump(sigma=0.15))
        err = norm_lp(wirtinger_d(d_inv(f)) - f, 2) / norm_lp(f, 2)
        assert err <= 1e-2

    def test_conjugation_duality_exact(self, grid64, rng):
        f = ScalarField(grid64, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        lhs = d_inv(f)
        rhs = dbar_inv(f.conj()).conj()
        assert np.array_equal(lhs.values, rhs.values)

    def test_direct_summation_oracle_matches_fft(self):
        g = ComplexGrid(0j, 1.0, 32)
        rng = np.random.default_rng(3)
        f = ScalarField(g, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        fast = dbar_inv(f)
        slow = kernel_for(g).apply_direct(f.values)
        assert np.max(np.abs(fast.values - slow)) <= 1e-12 * norm_lp(f, np.inf)

    def test_direct_refuses_large_grids(self):
        g = ComplexGrid(0j, 1.0, 256)
        with pytest.raises(ValueError):
            kernel_for(g).apply_direct(g.constant(1.0).values)

    def test_lp_boundedness_constant_stable(self):
        # measured constants stay within a factor 2 across refinement
        for p in (1.5, 2.0, 4.0):
            consts = []
            for n in (256, 512, 1024):
                g = ComplexGrid(0j, 1.0, n)
                consts.append(lp_bound_constant(g.sample(gaussian_bump(sigma=0.15)), p))
            assert max(consts) / min(consts) <= 2.0, (p, consts)


class TestIteratedInverses:
    def test_power_one_equals_single(self, grid64, rng):
        f = ScalarField(grid64, rng.standard_normal((64, 64)) + 0j)
        assert np.array_equal(dbar_inv(f, 1).values, dbar_inv(f).values)

    @pytest.mark.parametrize("transform", [dbar_inv, d_inv])
    def test_power_equals_successive_applications(self, grid64, rng, transform):
        f = ScalarField(grid64, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        for m in (2, 3):
            step = f
            for _ in range(m):
                step = transform(step)
            assert np.array_equal(transform(f, m).values, step.values)

    def test_power_zero_field(self, grid64):
        for m in (1, 2, 3):
            assert dbar_inv(grid64.zero(), m).is_zero()

    def test_power_rejects_bad_m(self, grid64):
        with pytest.raises(ValueError):
            dbar_inv(grid64.constant(1.0), 0)
        with pytest.raises(ValueError):
            d_inv(grid64.constant(1.0), -1)

    def test_double_inverse_identity(self):
        g = ComplexGrid(0j, 1.0, 256)
        f = g.sample(gaussian_bump(sigma=0.15))
        rec = wirtinger_dbar(wirtinger_dbar(dbar_inv(f, 2)))
        err = norm_lp(rec - f, 2) / norm_lp(f, 2)
        assert err <= 1e-2


class TestOscillatoryDecay:
    def test_zero_omega_gives_zero_norms(self, grid128):
        [probe] = oscillatory_decay_probe(
            grid128.zero(), PhaseSpec(0.1 + 0.1j, 0.3), [2.0], [0.3, 0.2]
        )
        assert all(v == 0.0 for _, v in probe.rows)
        assert np.isnan(probe.slope)

    def test_decay_slope_l2(self, grid256):
        omega = grid256.sample(gaussian_bump(sigma=0.25))
        [probe] = oscillatory_decay_probe(
            omega, PhaseSpec(0.05 + 0.05j, 0.2), [2.0], [0.2, 0.14, 0.1, 0.07]
        )
        assert probe.slope >= 0.5

    def test_decay_slope_below_two_reported(self, grid256):
        # the 1 < q < 2 regime carries exponent 2/3; sharpness is untested,
        # the slope only has to clear the predicted decay minus slack
        omega = grid256.sample(gaussian_bump(sigma=0.25))
        [probe] = oscillatory_decay_probe(
            omega, PhaseSpec(0.05 + 0.05j, 0.2), [1.5], [0.2, 0.14, 0.1, 0.07]
        )
        assert probe.slope >= 2.0 / 3.0 - 0.05

    def test_coupling_guard(self, grid64):
        with pytest.raises(CouplingError):
            oscillatory_decay_probe(
                grid64.constant(1.0), PhaseSpec(0j, 0.05), [2.0], [0.05]
            )

    def test_one_transform_per_h_for_every_q(self, grid64, monkeypatch):
        # each h's transform once, whatever the number of exponents, and each
        # probe the one a single-exponent call returns
        omega = grid64.sample(gaussian_bump(sigma=0.25))
        phase, h_list = PhaseSpec(0.05 + 0.05j, 0.5), [0.5, 0.4, 0.3]
        alone = [oscillatory_decay_probe(omega, phase, [q], h_list)[0] for q in (2.0, 4.0)]
        calls = []
        apply = CauchyKernel.apply
        monkeypatch.setattr(CauchyKernel, "apply", lambda k, v: calls.append(1) or apply(k, v))
        probes = oscillatory_decay_probe(omega, phase, [2.0, 4.0], h_list)
        assert len(calls) == len(h_list)
        assert probes == alone

    def test_unimodular_factor(self, grid64):
        ph = PhaseSpec(0.2 - 0.1j, 0.5)
        mags = np.abs(ph.oscillation(grid64).values)
        assert np.max(np.abs(mags - 1.0)) <= 1e-14

    def test_critical_point_must_be_inside(self, grid64):
        with pytest.raises(ValueError):
            PhaseSpec(1.5 + 0j, 0.5).check_grid(grid64)
        with pytest.raises(ValueError):
            PhaseSpec(0.1j, -0.5)
