"""Shared independent oracles and test-only helpers for the test suite.

The oracles here compute expected values by a route that does not touch the
code paths under test: sympy for Wirtinger calculus, adaptive quadrature for
integrals, closed forms where classical results exist, and the earlier
complex-arithmetic Wirtinger stencils (oracle_d, oracle_dbar) that
grid's real-view kernel must match bit for bit.  run_python starts a
fresh interpreter on the package's source, for checks that depend on how the
process starts.

The package keeps only what poly and its library example reach, so the
oracles and probes that only tests call live here too: cell_integral_table,
the wrapped table of cell integrals of 1/z whose transform the kernel holds;
apply_direct, the O(n^4) direct sum of the Cauchy quadrature over it; the
pi/2 calibration probe stationary_phase_calibration with its plateau_cutoff
and oscillatory_integral; extraction_noise_floor, the roundoff scale of an
extracted value; and the field-level wrappers sample, masked_l2 and apply.
"""

import cmath
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import sympy as sp
from scipy.integrate import dblquad, quad

from polycgo import ComplexGrid, PerturbedOperator, PhaseSpec, ScalarField
from polycgo.cauchy import CauchyKernel, _cell_quadrant
from polycgo.cgo import _monomial_part
from polycgo.grid import _masked_l2
from polycgo.operators import apply_values
from polycgo.recovery import STATIONARY_PHASE_CONSTANT

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

_X, _Y = sp.symbols("x y", real=True)
_Z = _X + sp.I * _Y


def symbolic_wirtinger(expr_fn, n_d=0, n_dbar=0):
    """Oracle for d^a dbar^b of an expression given as a function of sympy z.

    Returns a numpy-callable of a complex array.  The derivatives are taken in
    real coordinates: d = (d/dx - i d/dy)/2, dbar = (d/dx + i d/dy)/2.
    """
    f = sp.simplify(expr_fn(_Z))
    for _ in range(n_d):
        f = sp.simplify((sp.diff(f, _X) - sp.I * sp.diff(f, _Y)) / 2)
    for _ in range(n_dbar):
        f = sp.simplify((sp.diff(f, _X) + sp.I * sp.diff(f, _Y)) / 2)
    fn = sp.lambdify((_X, _Y), f, "numpy")

    def call(z):
        out = fn(np.real(z), np.imag(z))
        return np.broadcast_to(np.asarray(out, dtype=complex), np.shape(z)).copy()

    return call


def quad_complex(fn, a, b, **kw):
    """1D adaptive quadrature of a complex integrand."""
    re = quad(lambda t: fn(t).real, a, b, **kw)[0]
    im = quad(lambda t: fn(t).imag, a, b, **kw)[0]
    return complex(re, im)


def dblquad_complex(fn, x_lo, x_hi, y_lo, y_hi, **kw):
    """2D adaptive quadrature of a complex integrand fn(x, y)."""
    re = dblquad(lambda y, x: fn(x, y).real, x_lo, x_hi, y_lo, y_hi, **kw)[0]
    im = dblquad(lambda y, x: fn(x, y).imag, x_lo, x_hi, y_lo, y_hi, **kw)[0]
    return complex(re, im)


def gaussian_bump(sigma=0.12, center=0j, height=1.0):
    """Numerically supported Gaussian; below 1e-15 at distance >= 1 for sigma=0.12."""

    def fn(z):
        return height * np.exp(-np.abs(z - center) ** 2 / (2.0 * sigma**2))

    return fn


def normalized_gaussian(sigma=0.12, center=0j):
    """Gaussian scaled to unit plane integral: 1/(2 pi sigma^2) * exp(-r^2/2sigma^2)."""
    g = gaussian_bump(sigma, center, 1.0 / (2.0 * np.pi * sigma**2))
    return g


def disc_cauchy_transform_oracle(z, R, rtol=1e-10):
    """Polar-coordinate quadrature of (1/pi) * integral_{|xi|<R} 1/(z - xi).

    Independent route for the classical disc result (conj(z) inside, R^2/z
    outside): integrate the angular average analytically per radius via quad.
    """

    def radial(r):
        val = quad_complex(
            lambda t: r / (z - r * np.exp(1j * t)), 0.0, 2.0 * np.pi,
            epsabs=1e-12, epsrel=rtol, limit=200,
        )
        return val

    return quad_complex(lambda r: radial(r), 0.0, R, epsabs=1e-12, epsrel=rtol, limit=200) / np.pi


def smooth_bump_profile(z, cx, cy, radius, amp=1.0):
    """Reference implementation of the bump expression used across testbeds."""
    t = np.abs(z - (cx + 1j * cy)) ** 2 / radius**2
    t = np.asarray(t)
    out = np.zeros(t.shape, dtype=complex)
    inside = t < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    return out if out.shape else complex(out)


# expressions nested deeper than expressions.MAX_DEPTH: each must be a named error.
# A group's parentheses add no node, so each group holds a minus sign
DEEP_EXPRESSIONS = {
    "minus_signs": "-" * 5000 + "z",
    "parentheses": "(-" * 3000 + "z" + ")" * 3000,
    "sum": "+".join(["z"] * 3000),
}


# The Wirtinger stencils as grid computed them in complex arithmetic before its
# real-view kernel, kept verbatim: the kernel must reproduce their bits.
def oracle_deriv_axis0(v: np.ndarray, s: float) -> np.ndarray:
    out = np.empty_like(v)
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * s)
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * s)
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * s)
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * s)
    out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * s)
    return out


def oracle_d(values: np.ndarray, spacing) -> np.ndarray:
    return 0.5 * (oracle_deriv_axis0(values, spacing) - 1j * oracle_deriv_axis0(values.T, spacing).T)


def oracle_dbar(values: np.ndarray, spacing) -> np.ndarray:
    return 0.5 * (oracle_deriv_axis0(values, spacing) + 1j * oracle_deriv_axis0(values.T, spacing).T)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, values and signs of zero.  An 80-bit longdouble's padding
    bytes have no defined content, so tobytes() is no test of its bits."""
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def run_python(*args, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package's source and the tests directory
    first on its path, so a probe can import support.

    Keyword arguments are set as environment variables of the child.
    """
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def sample(grid: ComplexGrid, fn) -> ScalarField:
    """Evaluate fn on the node array (fn maps complex ndarray -> ndarray)."""
    return ScalarField(grid, fn(grid.nodes))


def masked_l2(f: ScalarField) -> float:
    """L^2 norm restricted to the central subgrid: 5% of the width is cut at each edge."""
    return _masked_l2(f.grid, f.values)


def apply(op: PerturbedOperator, u: ScalarField) -> ScalarField:
    """Evaluate the operator on u with repeated Wirtinger stencils (apply_values)."""
    if u.grid != op.grid:
        raise ValueError("u lives on a different grid than the coefficients")
    return ScalarField(op.grid, apply_values(op, u.values, op.grid.spacing))


def cell_integral_table(n: int, spacing: float) -> np.ndarray:
    """Exact integrals of 1/z over the cells of the doubled displacement grid,
    assembled from the package's quadrant.

    Index layout is FFT-wrapped: entry (a, b) holds the cell centred at
    displacement (p*spacing, q*spacing) with p = a for a < n else a - 2n.
    The quadrant p, q = 0..n is spacing*(A - i*A.T), A = _cell_quadrant(n);
    the other three quadrants are its reflections I(-p, q) = -conj I(p, q),
    I(p, -q) = conj I(p, q) and I(-p, -q) = -I(p, q), the p = -n and q = -n
    lines coming from the quadrant's p = n and q = n cells.
    """
    a = _cell_quadrant(n) * spacing
    quad = np.empty(a.shape, np.complex128)
    quad.real = a
    quad.imag = -a.T
    table = np.empty((2 * n, 2 * n), np.complex128)
    table[:n, :n] = quad[:n, :n]
    np.conj(quad[:n, n:0:-1], out=table[:n, n:])
    np.conj(quad[n:0:-1, :n], out=table[n:, :n])
    np.negative(table[n:, :n], out=table[n:, :n])
    np.negative(quad[n:0:-1, n:0:-1], out=table[n:, n:])
    return table


def apply_direct(kernel: CauchyKernel, values: np.ndarray) -> np.ndarray:
    """O(n^4) direct summation of kernel's quadrature; validation oracle, refuses n > 128."""
    from scipy.signal import convolve2d

    n, s = kernel.grid.n, kernel.grid.spacing
    if n > 128:
        raise ValueError("direct summation is limited to n <= 128")
    table = cell_integral_table(n, s) / (np.pi * s * s)
    # unwrapped displacement table covering d in [-(n-1), n-1] per axis
    full = np.empty((2 * n - 1, 2 * n - 1), dtype=np.complex128)
    for a in range(-(n - 1), n):
        for b in range(-(n - 1), n):
            full[a + n - 1, b + n - 1] = table[a % (2 * n), b % (2 * n)]
    out = convolve2d(values, full, mode="full")[n - 1 : 2 * n - 1, n - 1 : 2 * n - 1]
    return out * (s**2)


def oscillatory_integral(phase: PhaseSpec, grid: ComplexGrid, values) -> complex:
    """Trapezoid quadrature of phase.oscillation(grid) * values without the n^2 oscillation.

    The separable oscillation folds into the trapezoid weights:
    (w*ex) @ values @ (w*ey) * spacing^2.  No folded weight is zero, so a
    non-finite entry of values reaches the sum and raises ValueError.
    """
    ex, ey = phase.oscillation_factors(grid)
    w = grid._trapezoid_1d
    with np.errstate(over="ignore", invalid="ignore"):  # the value is checked below
        value = complex((w * ex) @ values @ (w * ey)) * grid.spacing**2
    if not cmath.isfinite(value):
        raise ValueError("field contains non-finite values")
    return value


def plateau_cutoff(
    grid: ComplexGrid, z0: complex, plateau: float, support: float
) -> ScalarField:
    """Smooth radial cutoff: identically 1 for |z-z0| <= plateau, 0 beyond support."""
    if not 0 < plateau < support:
        raise ValueError("need 0 < plateau < support")

    def smoothstep(t):
        # C^inf transition built from exp(-1/t)
        t = np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
            b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
        return a / (a + b)

    r = np.abs(grid.nodes - z0)
    return ScalarField(grid, smoothstep((support - r) / (support - plateau)))


def stationary_phase_calibration(
    grid: ComplexGrid, phase: PhaseSpec, plateau: float = 0.3, support: float = 0.6
) -> complex:
    """Measured (1/h) * integral(E+ * cutoff); approaches pi/2 as h shrinks.

    The transition annulus contributes an oscillatory boundary term whose size
    depends on how the cutoff bands align with the Fresnel zones; the default
    radii sit well away from the bad alignments at desk-scale h.
    """
    phase.check_grid(grid)
    chi = plateau_cutoff(grid, phase.z0, plateau, support)
    return oscillatory_integral(phase, grid, chi.values) / phase.h


def extraction_noise_floor(
    grid: ComplexGrid, j0: int, k0: int, h: float, z0: complex
) -> float:
    """Roundoff scale of the extracted value: eps times the quadrature mass."""
    z = grid.nodes
    mass = 0.0
    for j in range(j0 + 1):
        for k in range(k0 + 1):
            prod = np.abs(_monomial_part(np.conj(z), k0 - k) * _monomial_part(z, j0 - j))
            mass += float(np.mean(prod)) * (2 * grid.half_width) ** 2
    return float(np.finfo(float).eps) * mass / (STATIONARY_PHASE_CONSTANT * h)
