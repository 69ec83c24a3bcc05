import numpy as np
import pytest

from support import oscillatory_integral, run_python

from polycgo import ComplexGrid, PhaseSpec, ScalarField, integrate


def old_oscillation(grid, phase, sign):
    # the n^2 formula the separable factors replace
    w = (2.0 * sign / phase.h) * np.real((grid.nodes - phase.z0) ** 2)
    return np.exp(1j * w)


CASES = [
    (ComplexGrid(0j, 1.0, 64), PhaseSpec(0.2 + 0.1j, 0.3)),
    (ComplexGrid(0.3 - 0.2j, 1.0, 64), PhaseSpec(0.1 - 0.45j, 0.2)),
    (ComplexGrid(0j, 1.0, 1024), PhaseSpec(0.08 + 0.08j, 0.05)),
    (ComplexGrid(0.3 - 0.2j, 1.0, 1024), PhaseSpec(-0.4 + 0.5j, 0.05)),
]


NON_FINITE_PROBE = """
import numpy as np
from polycgo import ComplexGrid, PhaseSpec
from support import oscillatory_integral
grid = ComplexGrid(0j, 1.0, 64)
for bad in (np.inf, -np.inf, complex(0, np.inf), np.nan):
    f = np.ones((64, 64), dtype=complex)
    f[17, 40] = bad
    try:
        oscillatory_integral(PhaseSpec(0.1 + 0.1j, 0.3), grid, f)
    except ValueError as err:
        print(type(err).__name__ if "non-finite" in str(err) else err)
"""


class TestSeparableOscillation:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("grid, phase", CASES, ids=["64", "64-off", "1024", "1024-off"])
    def test_matches_n2_formula(self, grid, phase, sign):
        # both round a phase of up to ~115 radians (n=1024, h=0.05); the worst
        # difference seen is 3.1e-14
        got = phase.oscillation(grid, sign).values
        assert np.max(np.abs(got - old_oscillation(grid, phase, sign))) <= 1e-13

    @pytest.mark.parametrize("grid, phase", CASES[:2] + CASES[3:], ids=["64", "64-off", "1024-off"])
    def test_quadrature_matches_integrate(self, grid, phase, rng):
        f = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
        expect = integrate(phase.oscillation(grid) * ScalarField(grid, f))
        got = oscillatory_integral(phase, grid, f)
        assert abs(got - expect) <= 1e-13 * abs(expect)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(0, np.inf), np.nan])
    def test_non_finite_entry_raises(self, grid64, bad):
        f = np.ones((64, 64), dtype=complex)
        f[17, 40] = bad
        with pytest.raises(ValueError, match="non-finite"):
            oscillatory_integral(PhaseSpec(0.1 + 0.1j, 0.3), grid64, f)

    def test_non_finite_entry_raises_without_warning_on_one_blas_thread(self):
        # single-threaded OpenBLAS, as the bench's child processes run, warned
        # "invalid value encountered in matmul" on an inf entry before the
        # ValueError; threaded BLAS did not, so the in-process run above missed it
        probe = run_python("-W", "error::RuntimeWarning", "-c", NON_FINITE_PROBE,
                           OPENBLAS_NUM_THREADS="1")
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.split() == ["ValueError"] * 4 and probe.stderr == ""

    @pytest.mark.parametrize("h", [np.inf, -np.inf, np.nan, 0.0, -0.1])
    def test_rejects_invalid_h(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            PhaseSpec(0j, h)
