"""Solid Cauchy transforms on the grid square and their oscillatory-decay probes.

dbar_inv is convolution with 1/(pi*z); d_inv is its conjugate twin with kernel
1/(pi*conj(z)).  Discretization is product integration: the kernel enters the
quadrature through its exact integral over each grid cell, computed from the
corner antiderivative of 1/z.  That makes the scheme second-order accurate for
smooth data and gives the singular cell its exact (zero, by odd symmetry)
weight.  Application is fast convolution on the zero-padded doubled grid; a
direct-summation path is kept behind a flag as a validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import nan

import numpy as np
import scipy.fft as _fft

from .grid import ComplexGrid, ScalarField, norm_lp
from .phase import PhaseSpec
from .sweeps import fit_loglog_slope

_FFT_WORKERS = 1


def set_fft_workers(n: int) -> None:
    """Worker count passed to scipy.fft (results are bitwise worker-independent)."""
    global _FFT_WORKERS
    _FFT_WORKERS = max(1, int(n))


def _corner_antiderivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F with d^2 F/(dx dy) = 1/(x + iy), F = -i*z*(log z - 1), principal log."""
    z = x + 1j * y
    with np.errstate(divide="ignore", invalid="ignore"):
        f = -1j * z * (np.log(z) - 1.0)
    return np.where(z == 0, 0.0 + 0.0j, f)


def _cell_integral_table(n: int, spacing: float) -> np.ndarray:
    """Exact integrals of 1/z over the cells of the doubled displacement grid.

    Index layout is FFT-wrapped: entry (a, b) holds the cell centered at
    displacement (p*spacing, q*spacing) with p = a for a < n else a - 2n.
    The corner-difference formula is invalid where a cell meets the branch
    cut of the principal log (the strip q = 0, p <= 0); those entries are
    rebuilt from the reflected cell using the odd symmetry of 1/z, and the
    singular cell itself integrates to exactly zero by the same symmetry.
    """
    idx = _fft.fftfreq(2 * n, 1.0 / (2 * n))
    p = idx[:, None]
    q = idx[None, :]
    x1, x2 = (p - 0.5) * spacing, (p + 0.5) * spacing
    y1, y2 = (q - 0.5) * spacing, (q + 0.5) * spacing
    table = (
        _corner_antiderivative(x2, y2)
        - _corner_antiderivative(x1, y2)
        - _corner_antiderivative(x2, y1)
        + _corner_antiderivative(x1, y1)
    )
    bad = (np.abs(q) < 0.5) & (p < 0.5)
    reflected = (
        _corner_antiderivative(-x1, -y1)
        - _corner_antiderivative(-x2, -y1)
        - _corner_antiderivative(-x1, -y2)
        + _corner_antiderivative(-x2, -y2)
    )
    table = np.where(bad, -reflected, table)
    table[0, 0] = 0.0
    return table


class CauchyKernel:
    """Cell-averaged 1/(pi*z) kernel on the doubled grid plus its FFT cache."""

    def __init__(self, grid: ComplexGrid):
        self.grid = grid
        s = grid.spacing
        cells = _cell_integral_table(grid.n, s)
        self.kernel_table = cells / (np.pi * s * s)
        self.kernel_table.setflags(write=False)
        # convolution with the exact cell integrals of 1/(pi*z); the area and
        # 1/pi factors are folded into the cached transform
        self._khat = _fft.fft2(cells / np.pi, workers=_FFT_WORKERS)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Fast circular convolution on the padded doubled grid, cropped back."""
        n = self.grid.n
        pad = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        pad[:n, :n] = values
        out = _fft.ifft2(
            _fft.fft2(pad, workers=_FFT_WORKERS) * self._khat, workers=_FFT_WORKERS
        )
        return np.ascontiguousarray(out[:n, :n])

    def apply_direct(self, values: np.ndarray) -> np.ndarray:
        """O(n^4) direct summation; validation oracle, refuses n > 128."""
        from scipy.signal import convolve2d

        n = self.grid.n
        if n > 128:
            raise ValueError("direct summation is limited to n <= 128")
        # unwrapped displacement table covering d in [-(n-1), n-1] per axis
        full = np.empty((2 * n - 1, 2 * n - 1), dtype=np.complex128)
        for a in range(-(n - 1), n):
            for b in range(-(n - 1), n):
                full[a + n - 1, b + n - 1] = self.kernel_table[a % (2 * n), b % (2 * n)]
        out = convolve2d(values, full, mode="full")[n - 1 : 2 * n - 1, n - 1 : 2 * n - 1]
        return out * (self.grid.spacing**2)


@lru_cache(maxsize=4)
def kernel_for(grid: ComplexGrid) -> CauchyKernel:
    return CauchyKernel(grid)


def cauchy_chain(
    grid: ComplexGrid, values: np.ndarray, m: int = 1, conj: bool = False, direct: bool = False
) -> np.ndarray:
    """dbar_inv^m on arrays, or d_inv^m with conj=True: every transform's one path."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    k = kernel_for(grid)
    out = np.conj(values) if conj else values
    for _ in range(m):
        out = k.apply_direct(out) if direct else k.apply(out)
    return np.conj(out) if conj else out


def dbar_inv(f: ScalarField, direct: bool = False) -> ScalarField:
    """Right inverse of wirtinger_dbar: (1/pi) * integral of f(xi)/(z - xi)."""
    return ScalarField(f.grid, cauchy_chain(f.grid, f.values, direct=direct))


def d_inv(f: ScalarField, direct: bool = False) -> ScalarField:
    """Right inverse of wirtinger_d; conjugate twin of dbar_inv."""
    return ScalarField(f.grid, cauchy_chain(f.grid, f.values, conj=True, direct=direct))


def dbar_inv_pow(f: ScalarField, m: int) -> ScalarField:
    """m-fold composition of dbar_inv."""
    return ScalarField(f.grid, cauchy_chain(f.grid, f.values, m))


def d_inv_pow(f: ScalarField, m: int) -> ScalarField:
    """m-fold composition of d_inv."""
    return ScalarField(f.grid, cauchy_chain(f.grid, f.values, m, conj=True))


@dataclass(frozen=True)
class DecayProbe:
    """Norm-versus-h table for one exponent q, with the fitted log-log slope."""

    q: float
    rows: tuple
    slope: float


def oscillatory_decay_probe(
    omega: ScalarField, phase: PhaseSpec, q: float, h_list
) -> DecayProbe:
    """Measure h -> ||d_inv(exp((phase-conj phase)/h) * omega)||_{L^q}.

    The fitted slope is the empirical decay exponent; the bound being probed
    predicts 1/q for q >= 2, 1/2 + eps at q = 2, and 2/3 for 1 < q < 2.
    """
    grid = omega.grid
    rows = []
    for h in sorted(h_list, reverse=True):
        ph = phase.with_h(h)
        ph.check_grid(grid)
        transformed = d_inv(ph.oscillation(grid) * omega)
        rows.append((h, norm_lp(transformed, q)))
    hs = [r[0] for r in rows]
    ns = [r[1] for r in rows]
    slope = fit_loglog_slope(hs, ns) if all(v > 0 for v in ns) else nan
    return DecayProbe(q=q, rows=tuple(rows), slope=slope)


def lp_bound_constant(f: ScalarField, p: float) -> float:
    """Measured ||dbar_inv f||_p / ||f||_p, the empirical boundedness constant."""
    nf = norm_lp(f, p)
    if nf == 0:
        return 0.0
    return norm_lp(dbar_inv(f), p) / nf
