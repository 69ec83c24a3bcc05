"""Shared independent oracles for the test suite.

Everything here computes expected values by a route that does not touch the
code paths under test: sympy for Wirtinger calculus, adaptive quadrature for
integrals, closed forms where classical results exist, and the earlier
complex-arithmetic Wirtinger stencils (oracle_d, oracle_dbar) that
grid's real-view kernel must match bit for bit.  run_python starts a
fresh interpreter on the package's source, for checks that depend on how the
process starts.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import sympy as sp
from scipy.integrate import dblquad, quad

SRC = Path(__file__).resolve().parent.parent / "src"

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
    """A fresh interpreter with the package's source directory first on its path.

    Keyword arguments are set as environment variables of the child.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)
