"""Solid Cauchy transforms on the grid square, their oscillatory-decay probes,
and the log-log slope fit of every h-sweep table.

dbar_inv is convolution with 1/(pi*z); d_inv is its conjugate twin with kernel
1/(pi*conj(z)).  Discretization is product integration: the kernel enters the
quadrature through its exact integral over each grid cell, computed from the
corner antiderivative of 1/z.  The antiderivative is evaluated once per corner
of one quadrant of cells, each interior corner being shared by four cells, and
the other three quadrants are that quadrant's reflections: 1/z is odd, and
conjugate-symmetric under y -> -y, so the table is exactly both and
dbar_inv's adjoint is -d_inv to the roundoff of the transforms alone.  The
singular cell gets its exact (zero) weight, and the scheme is second-order
accurate for smooth data that vanish near the boundary.  Data that reach the
boundary get first order, since each boundary node's cell overhangs the
square by half a spacing: for f = 1 the max error is 3.1e-2, 1.0e-2, 3.1e-3
and 1.7e-3 at n = 64, 256, 1024 and 2048.
Application is fast convolution on the zero-padded doubled grid in pruned
1-D passes that transform no all-zero column and compute no cropped row;
axis 0 goes first both ways, fft2's order, so the bits are those of the full
padded fft2/ifft2.
The passes run in place on one 2n x 2n work array whose rows are one 64-byte
cache line longer than 2n: with a power-of-two row stride every step of an
axis-0 pass lands in the same cache sets, which made those passes about twice
as slow as the axis-1 ones.  The stride changes no arithmetic, so no bit.
The kernel transform is built in the same layout, and the kernel product runs
over both arrays' contiguous padded bases, whose pad columns are zeroed: a
multiply over the row-strided 2n x 2n views took twice as long.
The passes take scipy.fft's worker count for the calling thread, whose default
is 1; poly's --threads sets it for one run with scipy.fft.set_workers.  The
bits do not depend on it.
The transform follows its input's precision: a complex64 array runs the same
passes against a complex64 copy of the kernel transform, built on first
single-precision use, and any other array is cast to complex128.  Both
transforms take a power, dbar_inv(f, m) and d_inv(f, m), and run through one
array-level chain, cauchy_chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import nan

import numpy as np
import scipy.fft as _fft

from .grid import ComplexGrid, ScalarField, norm_lp
from .phase import PhaseSpec

# padding of each work-array row: one cache line, so the row stride is no
# power of two
_ROW_PAD_BYTES = 64


def _corner_antiderivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F with d^2 F/(dx dy) = 1/(x + iy), F = -i*z*(log z - 1), principal log.

    z = 0 is never asked for: every corner the table reads is an odd multiple
    of spacing/2 in both coordinates.
    """
    z = x + 1j * y
    return -1j * z * (np.log(z) - 1.0)


def _cell_integral_table(n: int, spacing: float) -> np.ndarray:
    """Exact integrals of 1/z over the cells of the doubled displacement grid.

    Index layout is FFT-wrapped: entry (a, b) holds the cell centered at
    displacement (p*spacing, q*spacing) with p = a for a < n else a - 2n.
    Only the quadrant p, q = 0..n is computed: the corner antiderivative is
    evaluated once per corner (c - 1/2)*spacing, c = 0..n+1, and each cell
    takes the difference of its four corners.  No quadrant cell but the
    singular one meets the branch cut of the principal log.  The symmetries
    of 1/z, I(-p, q) = -conj I(p, q) and I(p, -q) = conj I(p, q), make the
    real part of the p = 0 cells and the imaginary part of the q = 0 cells
    exact zeros, which are set, the singular cell's two parts with them.
    They then fill the other three quadrants by sign and conjugation alone,
    so the table is exactly odd and exactly conjugate-symmetric in q; the
    p = -n and q = -n lines come from the quadrant's p = n and q = n cells.
    """
    corners = (np.arange(n + 2) - 0.5) * spacing
    f = _corner_antiderivative(corners[:, None], corners[None, :])
    quad = f[1:, 1:] - f[:-1, 1:] - f[1:, :-1] + f[:-1, :-1]
    del f  # the corners are not held while the table is filled
    quad[0].real = 0.0
    quad[:, 0].imag = 0.0
    table = np.empty((2 * n, 2 * n), np.complex128)
    table[:n, :n] = quad[:n, :n]
    np.conj(quad[:n, n:0:-1], out=table[:n, n:])
    np.conj(quad[n:0:-1, :n], out=table[n:, :n])
    np.negative(table[n:, :n], out=table[n:, :n])
    np.negative(quad[n:0:-1, n:0:-1], out=table[n:, n:])
    return table


def _work_array(n: int, dtype) -> np.ndarray:
    """An uninitialised 2n x 2n view of the contiguous array .base, whose rows
    are _ROW_PAD_BYTES longer."""
    pad = _ROW_PAD_BYTES // np.dtype(dtype).itemsize
    return np.empty((2 * n, 2 * n + pad), dtype)[:, : 2 * n]


def _kernel_layout(n: int, dtype) -> np.ndarray:
    """A _work_array with its pad columns zeroed, for a kernel transform: the
    product over .base then gives zero, never inf * 0, in those columns."""
    khat = _work_array(n, dtype)
    khat.base[:, 2 * n :] = 0
    return khat


class CauchyKernel:
    """Cell-averaged 1/(pi*z) kernel on the doubled grid plus its FFT cache."""

    def __init__(self, grid: ComplexGrid):
        self.grid = grid
        # convolution with the exact cell integrals of 1/(pi*z); the area and
        # 1/pi factors are folded into the cached transform
        khat = _kernel_layout(grid.n, np.complex128)
        np.divide(_cell_integral_table(grid.n, grid.spacing), np.pi, out=khat)
        for axis in (0, 1):  # fft2's order, so its bits
            _fft.fft(khat, axis=axis, overwrite_x=True)
        self._khat = khat

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Circular convolution on the zero-padded doubled grid, cropped to a new n x n array.

        Length-2n passes, each in place on one work array (see _work_array)
        holding values in its top-left block: forward along axis 0 over the
        n input columns, then along axis 1; after the kernel product, taken
        over the contiguous padded array with its pad columns zeroed, inverse
        along axis 0, then along axis 1 over the n kept rows.  That is 6n
        transforms where padded fft2/ifft2 do 8n.  Axis 0 goes first both
        ways, as in fft2/ifft2, so the bits equal the padded path's; the
        padded row stride changes none.  A complex64 array stays in single
        precision throughout and returns complex64; any other input is cast
        to complex128 as it is written in, so real input runs the same
        transform.  The input is never written to.

        Raises ValueError for an array whose shape is not (n, n).
        """
        n = self.grid.n
        values = np.asarray(values)
        if values.shape != (n, n):
            raise ValueError(f"expected an array of shape {(n, n)}, got shape {values.shape}")
        khat = self._khat_single if values.dtype == np.complex64 else self._khat
        a = _work_array(n, khat.dtype)
        a[:n, :n] = values
        a[n:, :n] = 0
        # scipy.fft writes an overwrite_x transform of a complex view into the view
        _fft.fft(a[:, :n], axis=0, overwrite_x=True)
        a.base[:, n:] = 0  # the zero columns and the row pad
        _fft.fft(a, axis=1, overwrite_x=True)
        # over the contiguous padded rows: the pads are zero on both sides
        np.multiply(a.base, khat.base, out=a.base)
        _fft.ifft(a, axis=0, overwrite_x=True)
        _fft.ifft(a[:n], axis=1, overwrite_x=True)
        return a[:n, :n].copy()

    @cached_property
    def _khat_single(self) -> np.ndarray:
        """complex64 copy of the kernel transform, built on the first complex64 apply."""
        khat = _kernel_layout(self.grid.n, np.complex64)
        khat[...] = self._khat
        return khat


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


def fit_loglog_slope(xs, ys) -> float:
    """Slope of log(y) against log(x); nan if fewer than 2 usable points with distinct x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = (xs > 0) & (ys > 0)
    if np.unique(xs[keep]).size < 2:
        return nan
    return float(np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0])


def oscillatory_decay_probe(
    omega: ScalarField, phase: PhaseSpec, q_values, h_list
) -> list[DecayProbe]:
    """Measure h -> ||d_inv(exp((phase-conj phase)/h) * omega)||_{L^q} for each q of
    q_values, forming each h's transform once: one DecayProbe per q, in order.

    The fitted slope is the empirical decay exponent; the bound being probed
    predicts 1/q for q >= 2, 1/2 + eps at q = 2, and 2/3 for 1 < q < 2.
    """
    grid = omega.grid
    hs = sorted(h_list, reverse=True)
    norms = [[] for _ in q_values]  # for each q, its norm at each h
    for h in hs:
        ph = phase.with_h(h)
        ph.check_grid(grid)
        transformed = d_inv(ph.oscillation(grid) * omega)
        for q, ns in zip(q_values, norms):
            ns.append(norm_lp(transformed, q))
    probes = []
    for q, ns in zip(q_values, norms):
        slope = fit_loglog_slope(hs, ns) if all(v > 0 for v in ns) else nan
        probes.append(DecayProbe(q=q, rows=tuple(zip(hs, ns)), slope=slope))
    return probes


def lp_bound_constant(f: ScalarField, p: float) -> float:
    """Measured ||dbar_inv f||_p / ||f||_p, the empirical boundedness constant."""
    nf = norm_lp(f, p)
    if nf == 0:
        return 0.0
    return norm_lp(dbar_inv(f), p) / nf
