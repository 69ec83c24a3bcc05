"""Solid Cauchy transforms on the grid square, their oscillatory-decay probes,
and the log-log slope fit of every h-sweep table.

dbar_inv is convolution with 1/(pi*z); d_inv is its conjugate twin with kernel
1/(pi*conj(z)).  Discretization is product integration: the kernel enters the
quadrature through its exact integral over each grid cell, computed from the
real part of the corner antiderivative of 1/z in real arithmetic, one log and
one arctan2 per corner of one quadrant of unit cells.  The other three
quadrants are that quadrant's reflections: 1/z is odd, and
conjugate-symmetric under y -> -y, so the wrapped table is exactly both and
dbar_inv's adjoint is -d_inv to the roundoff of the transforms alone.  No
table is formed: those symmetries make its transform a symmetric
convolution, two real type-1 transforms (DCT, then DST) of the quadrant's
real part, written straight into the transform's layout (CauchyKernel).  The
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
The kernel transform is written in the same layout, and the kernel product runs
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


def _cell_quadrant(n: int) -> np.ndarray:
    """Real parts A of the integrals of 1/z over the unit cells centred at
    p + iq, p, q = 0..n: a real (n+1) x (n+1) array.

    Each cell takes the mixed difference of the real part of the corner
    antiderivative F = -i*z*log z, Re F = x*theta + y*L with
    L = log(x^2 + y^2)/2 and theta = arctan2(y, x): one log and one arctan2
    per corner c - 1/2, c = 0..n+1, none of which is zero.  (The usual
    -i*z*(log z - 1) adds -y + ix, which no mixed difference sees.)  No cell
    but the singular one meets the branch cut of theta.  Re 1/z is odd in x,
    so the p = 0 cells are exact zeros, which are set.  The imaginary parts
    are B = -A.T: 1/z swaps its real part for minus its imaginary part under
    x <-> y.  On a grid of spacing s the integrals are s times these; the
    log of s would cancel in the difference only to roundoff.
    """
    c = np.arange(n + 2) - 0.5
    sq = c * c
    re_f = np.log(sq[:, None] + sq[None, :])
    re_f *= 0.5 * c[None, :]
    re_f += c[:, None] * np.arctan2(c[None, :], c[:, None])
    a = np.diff(np.diff(re_f, axis=0), axis=1)
    a[0] = 0.0
    return a


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
        """The transform K^ of the cell integrals I of 1/(pi*z) on the wrapped
        doubled grid, from their quadrant p, q = 0..n by real transforms.

        The wrapped table holds I(-p, q) = -conj I(p, q) and
        I(p, -q) = conj I(p, q), its p = -n and q = -n lines being the
        quadrant's p = n and q = n cells so reflected.  So its real part A is
        odd in p and even in q, and its imaginary part B = -A.T even in p and
        odd in q.  Symmetric convolution gives K^ on k1, k2 = 0..n from two
        type-1 transforms of the quadrant, C = DCT over q of A and
        SC = DST over p of C[1:n]:
            Re K^ = -SC[k2, k1] - (-1)^k1 C[n, k2],
            Im K^ = -SC[k1, k2] + (-1)^k2 C[n, k1],
        SC being zero at k = 0 and n; the rank-one terms are the p = -n and
        q = -n lines.  The other frequencies are their reflections, written
        straight into the padded layout: Re K^ is even in k1 and Im K^ even
        in k2, while SC changes sign under k -> 2n - k.  The area and 1/pi
        factors are folded into the quadrant.
        """
        self.grid = grid
        n = grid.n
        a = _cell_quadrant(n)
        a *= grid.spacing / np.pi
        c = _fft.dct(a, type=1, axis=1, overwrite_x=True)
        sc = _fft.dst(c[1:n], type=1, axis=0)
        sign = np.ones(n + 1)
        sign[1::2] = -1.0
        khat = _kernel_layout(n, np.complex128)
        re, im = khat.real, khat.imag
        np.multiply(sign[:, None], -c[n], out=re[: n + 1, : n + 1])
        np.add(re[: n + 1, n - 1 : 0 : -1], sc[::-1].T, out=re[: n + 1, n + 1 :])
        re[: n + 1, 1:n] -= sc.T
        re[n + 1 :] = re[n - 1 : 0 : -1]
        np.multiply(c[n, :, None], sign, out=im[: n + 1, : n + 1])
        np.add(im[n - 1 : 0 : -1, : n + 1], sc[::-1], out=im[n + 1 :, : n + 1])
        im[1:n, : n + 1] -= sc
        im[:, n + 1 :] = im[:, n - 1 : 0 : -1]
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
    """Slope of log(y) against log(x); nan unless every x and y is finite and
    positive and at least two x differ."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    usable = np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)
    if not usable.all() or np.unique(xs).size < 2:
        return nan
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


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
    return [
        DecayProbe(q=q, rows=tuple(zip(hs, ns)), slope=fit_loglog_slope(hs, ns))
        for q, ns in zip(q_values, norms)
    ]
