"""Solid Cauchy transforms on the grid square and their oscillatory-decay probes.

dbar_inv is convolution with 1/(pi*z); d_inv is its conjugate twin with kernel
1/(pi*conj(z)).  Discretization is product integration: the kernel enters the
quadrature through its exact integral over each grid cell, computed from the
corner antiderivative of 1/z.  That makes the scheme second-order accurate for
smooth data and gives the singular cell its exact (zero, by odd symmetry)
weight.  Application is fast convolution on the zero-padded doubled grid in
pruned 1-D passes that transform no all-zero column and compute no cropped
row; axis 0 goes first both ways, fft2's order, so the bits are those of the
full padded fft2/ifft2.  The transform follows its input's precision: a
complex64 array runs the same passes against a complex64 copy of the kernel
transform, built on first single-precision use, and any other array is cast
to complex128.  Both transforms take a power, dbar_inv(f, m) and d_inv(f, m),
and run through one array-level chain, cauchy_chain.
CauchyKernel.apply_direct sums the same quadrature directly, as a validation
oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import nan

import numpy as np
import scipy.fft as _fft

from .grid import ComplexGrid, ScalarField, norm_lp
from .phase import PhaseSpec
from .sweeps import fit_loglog_slope

_FFT_WORKERS = 1


def set_fft_workers(n: int) -> None:
    """Worker count passed to scipy.fft (results are bitwise worker-independent).

    Raises ValueError for a count outside 1..os.cpu_count().
    """
    global _FFT_WORKERS
    cpus = os.cpu_count() or 1
    if not 1 <= n <= cpus:
        raise ValueError(f"FFT worker count {n} is outside 1..{cpus}, the CPU count")
    _FFT_WORKERS = int(n)


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
    # the branch-cut strip: column q = 0, rows p <= 0
    rows = idx < 0.5
    sx1, sx2 = -x1[rows, 0], -x2[rows, 0]
    sy1, sy2 = -y1[0, 0], -y2[0, 0]
    table[rows, 0] = -(
        _corner_antiderivative(sx1, sy1)
        - _corner_antiderivative(sx2, sy1)
        - _corner_antiderivative(sx1, sy2)
        + _corner_antiderivative(sx2, sy2)
    )
    table[0, 0] = 0.0
    return table


class CauchyKernel:
    """Cell-averaged 1/(pi*z) kernel on the doubled grid plus its FFT cache."""

    def __init__(self, grid: ComplexGrid):
        self.grid = grid
        # convolution with the exact cell integrals of 1/(pi*z); the area and
        # 1/pi factors are folded into the cached transform
        cells = _cell_integral_table(grid.n, grid.spacing)
        self._khat = _fft.fft2(cells / np.pi, workers=_FFT_WORKERS)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Circular convolution on the zero-padded doubled grid, cropped to a new n x n array.

        Length-2n passes: forward along axis 0 over the n input columns (the
        length argument pads them), then axis 1; after the kernel product,
        inverse along axis 0, then axis 1 over the n kept rows.  That is 6n
        transforms where padded fft2/ifft2 do 8n.  Axis 0 goes first both
        ways, as in fft2/ifft2, so the bits equal the padded path's.  A
        complex64 array stays in single precision throughout and returns
        complex64; any other input is cast to complex128, so real input runs
        the same transform.
        """
        n = self.grid.n
        w = _FFT_WORKERS
        values = np.asarray(values)
        if values.dtype == np.complex64:
            khat = self._khat_single
        else:
            values, khat = values.astype(np.complex128, copy=False), self._khat
        a = _fft.fft(values, 2 * n, axis=0, workers=w)
        a = _fft.fft(a, 2 * n, axis=1, overwrite_x=True, workers=w)
        a *= khat
        a = _fft.ifft(a, axis=0, overwrite_x=True, workers=w)
        a = _fft.ifft(a[:n], axis=1, overwrite_x=True, workers=w)
        return np.ascontiguousarray(a[:, :n])

    @cached_property
    def _khat_single(self) -> np.ndarray:
        """complex64 copy of the kernel transform, built on the first complex64 apply."""
        return self._khat.astype(np.complex64)

    def apply_direct(self, values: np.ndarray) -> np.ndarray:
        """O(n^4) direct summation; validation oracle, refuses n > 128."""
        from scipy.signal import convolve2d

        n, s = self.grid.n, self.grid.spacing
        if n > 128:
            raise ValueError("direct summation is limited to n <= 128")
        table = _cell_integral_table(n, s) / (np.pi * s * s)
        # unwrapped displacement table covering d in [-(n-1), n-1] per axis
        full = np.empty((2 * n - 1, 2 * n - 1), dtype=np.complex128)
        for a in range(-(n - 1), n):
            for b in range(-(n - 1), n):
                full[a + n - 1, b + n - 1] = table[a % (2 * n), b % (2 * n)]
        out = convolve2d(values, full, mode="full")[n - 1 : 2 * n - 1, n - 1 : 2 * n - 1]
        return out * (s**2)


@lru_cache(maxsize=4)
def kernel_for(grid: ComplexGrid) -> CauchyKernel:
    return CauchyKernel(grid)


def cauchy_chain(
    grid: ComplexGrid, values: np.ndarray, m: int = 1, conj: bool = False
) -> np.ndarray:
    """dbar_inv^m on arrays, or d_inv^m with conj=True: every transform's one path."""
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    k = kernel_for(grid)
    out = np.conj(values) if conj else values
    for _ in range(m):
        out = k.apply(out)
    return np.conj(out) if conj else out


def dbar_inv(f: ScalarField, m: int = 1) -> ScalarField:
    """Right inverse of wirtinger_dbar, (1/pi) * integral of f(xi)/(z - xi), applied m times."""
    return ScalarField(f.grid, cauchy_chain(f.grid, f.values, m))


def d_inv(f: ScalarField, m: int = 1) -> ScalarField:
    """Right inverse of wirtinger_d, the conjugate twin of dbar_inv, applied m times."""
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
