"""Square grids on the complex plane, sampled fields, Wirtinger calculus, and norms.

A grid covers the square [-w, w]^2 translated to a center, identified with
z = x1 + i*x2.  Axis 0 of every value array runs along the real direction,
axis 1 along the imaginary direction.  Differentiation uses 4th-order centered
stencils inside and 4th-order one-sided stencils on the two rows nearest each
edge, run on the real view of the complex samples (_wirtinger), which gives d
and dbar together from one pass along each axis; quadrature is the tensor
trapezoid rule.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from math import inf

import numpy as np

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ComplexGrid:
    """Uniform n-by-n discretization of a centered square in the complex plane.

    node(i, j) = center + (-half_width + i*spacing) + 1j*(-half_width + j*spacing)
    with spacing = 2*half_width/(n-1).  n must be a power of two (>= 16) so the
    Cauchy transforms can use zero-padded doubling.  The squared extent
    (2*half_width)^2 must be finite, since the phase squares node offsets.

    Rounding center + offset moves a node by up to about eps*|Re c| or eps*|Im c|,
    while the stencils, quadrature and Cauchy kernel use the exact spacing, so
    |Re c| and |Im c| must be at most 1e-6*spacing/eps: a sampled field then moves
    by at most a millionth of its change over one spacing.  Each ValueError opens
    with the name of the field it refuses.
    """

    center: complex = 0j
    half_width: float = 1.0
    n: int = 256

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 16 and (self.n & (self.n - 1)) == 0):
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        # quadrature and the Cauchy kernel scale by spacing^2: keep it a normal
        # double; the phase squares offsets up to the extent: keep that finite
        s, extent = self.spacing, 2.0 * self.half_width
        if not (self.half_width > 0 and _TINY <= s * s and extent * extent < inf):
            raise ValueError(
                f"half_width must be positive, with spacing^2 a normal double and "
                f"(2*half_width)^2 finite; got {self.half_width}"
            )
        c, bound = self.center, 1e-6 * s / np.finfo(float).eps
        if not (abs(c.real) <= bound and abs(c.imag) <= bound):
            raise ValueError(f"center must have |Re| and |Im| at most 1e-6*spacing/eps = "
                             f"{bound:.3g}, or rounding it moves the nodes; got {c}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @cached_property
    def axis_offsets(self) -> np.ndarray:
        """1D offsets -half_width .. half_width, shared by both axes."""
        return np.linspace(-self.half_width, self.half_width, self.n)

    @cached_property
    def nodes(self) -> np.ndarray:
        """(n, n) complex array of node coordinates; read-only."""
        t = self.axis_offsets
        z = self.center + t[:, None] + 1j * t[None, :]
        z.setflags(write=False)
        return z

    @cached_property
    def _trapezoid_1d(self) -> np.ndarray:
        w = np.ones(self.n)
        w[0] = w[-1] = 0.5
        w.setflags(write=False)
        return w

    def constant(self, c: complex) -> "ScalarField":
        return ScalarField(self, np.full((self.n, self.n), c, dtype=np.complex128))

    def zero(self) -> "ScalarField":
        """The grid's one read-only zero field, shared while anyone holds it.  The grid
        refers to it weakly: a grid-field cycle would outlive its users until gc runs."""
        ref = self.__dict__.get("_zero")
        z = ref() if ref is not None else None
        if z is None:
            z = ScalarField(self, np.zeros((self.n, self.n), dtype=np.complex128))
            self.__dict__["_zero"] = weakref.ref(z)
        return z

    def interior_axis(self, margin: float) -> np.ndarray:
        """Boolean mask of axis offsets farther than margin*(2*half_width) from both ends."""
        return np.abs(self.axis_offsets) <= self.half_width * (1.0 - 2.0 * margin)

    def interior_mask(self, margin: float) -> np.ndarray:
        """Boolean mask of nodes farther than margin*(2*half_width) from every edge."""
        t = self.interior_axis(margin)
        return t[:, None] & t[None, :]

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        w = self.half_width * (1.0 - 2.0 * margin)
        d = z - self.center
        return abs(d.real) <= w and abs(d.imag) <= w


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True of a 1-D mask; empty when no entry is True."""
    hits = np.flatnonzero(mask)
    return slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)


class ScalarField:
    """Complex samples of a function on a ComplexGrid; immutable after construction.

    An array that is complex128, C-contiguous, owns its memory and is writeable
    is handed over: the field keeps it and makes it read-only.  Any other array
    (a view, a read-only array such as grid.nodes, another dtype or layout) is
    copied.  Every field is scanned once for non-finite values.  Its support
    box is found on first use and kept.
    """

    __slots__ = ("grid", "values", "_box", "__weakref__")

    def __init__(self, grid: ComplexGrid, values):
        v = np.asarray(values)
        if v.shape != (grid.n, grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid n={grid.n}")
        owned = v.base is None and v.flags.writeable and v.flags.c_contiguous
        if not (owned and v.dtype == np.complex128):
            v = np.array(v, dtype=np.complex128, order="C")  # never alias what is not handed over
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_box", None)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @property
    def box(self) -> tuple:
        """(rows, cols): the slices of the smallest box holding every nonzero
        value; (slice(0, 0), slice(0, 0)) for a zero field."""
        if self._box is None:
            rows = _span(np.any(self.values, axis=1))
            object.__setattr__(self, "_box", (rows, _span(np.any(self.values[rows], axis=0))))
        return self._box

    def is_zero(self) -> bool:
        return self.box[0] == slice(0, 0)

    def conj(self) -> "ScalarField":
        return ScalarField(self.grid, np.conj(self.values))

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return other.values
        return complex(other)

    def __add__(self, other):
        return ScalarField(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return ScalarField(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ScalarField(self.grid, self.values / self._coerce(other))

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def __repr__(self):
        a = np.abs(self.values)
        return f"ScalarField(n={self.grid.n}, max|f|={a.max():.3e})"


# 4th-order stencils.  Interior: centered 5-point; edges: one-sided 5-point,
# exact on polynomials of degree <= 4.  They run on the real view (n, n, 2) of a
# complex array, a block of rows at a time, so the block buffers and the rows they
# read stay in a core's L2 cache between the passes.
_BLOCK_BYTES = 1 << 18


def _centered(v: np.ndarray, v8: np.ndarray, out: np.ndarray, c) -> None:
    """out = (-v[4:] + 8 v[3:-1] - 8 v[1:-3] + v[:-4]) * c along axis 0, in that
    order; v8 = 8 v over the same rows, whose shifted slices are both products."""
    np.subtract(v8[3:-1], v[4:], out=out)
    np.subtract(out, v8[1:-3], out=out)
    np.add(out, v[:-4], out=out)
    np.multiply(out, c, out=out)


def _one_sided(v: np.ndarray, c) -> np.ndarray:
    """The one-sided stencils times c at lines 0, 1, -2 and -1 of axis 0, stacked."""
    return c * np.stack([
        -25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4],
        -3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4],
        3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5],
        25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5],
    ])


def _wirtinger(values: np.ndarray, spacing, signs) -> list:
    """(dx + sign * i dy) / 2 for each sign (-1 gives d, +1 gives dbar), as new
    C-contiguous arrays, from one stencil pass along each axis.

    values is an n x n array, n a power of two >= 16.  complex128 and
    np.clongdouble keep their precision, and spacing is taken in it; any
    other dtype is cast to complex128 (real input is promoted as complex
    arithmetic would), and any other layout is copied once to C order.  The
    passes run on the real view (n, n, 2) with c = 0.5 / (12 * spacing), a
    block of rows at a time, the block's 8 v formed once for both, and d and
    dbar take one add and one subtract of the real parts.  The bits are
    those of the complex expression 0.5 * (Dx -+ 1j * Dy), Dx and Dy the
    stencil sums divided by 12 * spacing: numpy divides a complex array by a
    real scalar as a multiply by its reciprocal, and 0.5 scales exactly, so
    each real step rounds as the complex one did.
    """
    v = np.asarray(values)
    v = np.ascontiguousarray(v, np.clongdouble if v.dtype == np.clongdouble else np.complex128)
    n = v.shape[0]
    r = v.view(v.real.dtype).reshape(n, n, 2)
    c = 0.5 / r.dtype.type(12.0 * spacing)
    outs = [np.empty_like(v) for _ in signs]
    parts = [o.view(r.dtype).reshape(n, n, 2) for o in outs]
    rows = min(n, 1 << max(2, (_BLOCK_BYTES // r[0].nbytes).bit_length() - 1))
    ex, ey = _one_sided(r, c), _one_sided(r.transpose(1, 0, 2), c)
    dx, dy = (np.empty((rows, n, 2), r.dtype) for _ in range(2))
    v8 = np.empty((rows + 4, n, 2), r.dtype)
    for lo in range(0, n, rows):
        hi = lo + rows
        # 8 v over the block and the two rows beyond each side, for both passes
        e = max(lo - 2, 0)
        w8 = np.multiply(r[e : hi + 2], 8.0, out=v8[: min(hi + 2, n) - e])
        a, b = max(lo, 2), min(hi, n - 2)
        _centered(r[a - 2 : b + 2], w8[a - 2 - e : b + 2 - e], dx[a - lo : b - lo], c)
        if lo == 0:
            dx[:2] = ex[:2]
        if hi == n:
            dx[-2:] = ex[2:]
        _centered(r[lo:hi].transpose(1, 0, 2), w8[lo - e : hi - e].transpose(1, 0, 2),
                  dy.transpose(1, 0, 2)[2:-2], c)
        dy[:, :2] = ey[:2, lo:hi].transpose(1, 0, 2)
        dy[:, -2:] = ey[2:, lo:hi].transpose(1, 0, 2)
        for sign, part in zip(signs, parts):
            re, im = part[lo:hi, :, 0], part[lo:hi, :, 1]
            if sign < 0:
                np.add(dx[..., 0], dy[..., 1], out=re)
                np.subtract(dx[..., 1], dy[..., 0], out=im)
            else:
                np.subtract(dx[..., 0], dy[..., 1], out=re)
                np.add(dx[..., 1], dy[..., 0], out=im)
    return outs


def _d(values: np.ndarray, spacing) -> np.ndarray:
    """d of an array (see _wirtinger for the dtypes kept)."""
    return _wirtinger(values, spacing, (-1,))[0]


def _dbar(values: np.ndarray, spacing) -> np.ndarray:
    """dbar of an array (see _wirtinger for the dtypes kept)."""
    return _wirtinger(values, spacing, (1,))[0]


def _wirtinger_pair(values: np.ndarray, spacing) -> tuple:
    """(d, dbar) of an array from one pair of stencil passes."""
    return tuple(_wirtinger(values, spacing, (-1, 1)))


def wirtinger_d(f: ScalarField) -> ScalarField:
    """d = (d/dx1 - i d/dx2)/2; annihilates antiholomorphic fields."""
    return ScalarField(f.grid, _d(f.values, f.grid.spacing))


def wirtinger_dbar(f: ScalarField) -> ScalarField:
    """dbar = (d/dx1 + i d/dx2)/2; annihilates holomorphic fields."""
    return ScalarField(f.grid, _dbar(f.values, f.grid.spacing))


def mixed_wirtinger(f: ScalarField, n_d: int, n_dbar: int) -> ScalarField:
    """Apply wirtinger_d n_d times, then wirtinger_dbar n_dbar times."""
    if n_d < 0 or n_dbar < 0:
        raise ValueError("derivative orders must be nonnegative")
    out = f
    for _ in range(n_d):
        out = wirtinger_d(out)
    for _ in range(n_dbar):
        out = wirtinger_dbar(out)
    return out


def integrate(f: ScalarField) -> complex:
    """Trapezoid quadrature of f over the grid square."""
    g = f.grid
    w = g._trapezoid_1d
    return complex(w @ f.values @ w) * g.spacing**2


def _weighted_p_sum(grid: ComplexGrid, values: np.ndarray, p: float) -> float:
    """Trapezoid sum of |values|^p over the grid: the p-th power of the L^p norm."""
    w = grid._trapezoid_1d
    a = np.abs(values) ** p
    return float(w @ a @ w) * grid.spacing**2


def norm_lp(f: ScalarField, p) -> float:
    """Discrete L^p norm; p = inf gives the max-norm.

    A finite p sums (|f|/max|f|)^p, so the p-th power neither underflows nor
    overflows where the norm itself is a normal double.
    """
    if p == np.inf or p == float("inf"):
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    a = np.abs(f.values)
    top = float(np.max(a))
    if not 0.0 < top < inf:  # 0, or a modulus past the double range
        return top
    a /= top
    return top * _weighted_p_sum(f.grid, a, p) ** (1.0 / p)


def norm_hm(f: ScalarField, m: int) -> float:
    """Sobolev H^m norm: L^2 norms of all d^a dbar^b f with a + b <= m, each
    dbar^b taken after d^a.  Row a's first dbar comes with row a + 1 from
    one pair of stencil passes."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    g, row, total = f.grid, f.values, 0.0
    for a in range(m + 1):
        total += _weighted_p_sum(g, row, 2)
        if a == m:
            break
        row, cur = _wirtinger_pair(row, g.spacing)
        total += _weighted_p_sum(g, cur, 2)
        for _ in range(2, m + 1 - a):
            cur = _dbar(cur, g.spacing)
            total += _weighted_p_sum(g, cur, 2)
    return total**0.5


def _masked_l2(grid: ComplexGrid, values: np.ndarray) -> float:
    """L^2 norm over the central subgrid, 5% of the width cut at each edge,
    summed in the array's precision."""
    a = np.abs(values) ** 2 * grid.interior_mask(0.05)
    w = grid._trapezoid_1d.astype(a.dtype)
    s = a.dtype.type(grid.spacing)
    return float(np.sqrt(w @ a @ w * s * s))

