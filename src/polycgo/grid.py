"""Square grids on the complex plane, sampled fields, Wirtinger calculus, and norms.

A grid covers the square [-w, w]^2 translated to a center, identified with
z = x1 + i*x2.  Axis 0 of every value array runs along the real direction,
axis 1 along the imaginary direction.  Differentiation uses 4th-order centered
stencils inside and 4th-order one-sided stencils on the two rows nearest each
edge; quadrature is the tensor trapezoid rule.
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

    def sample(self, fn) -> "ScalarField":
        """Evaluate fn on the node array (fn maps complex ndarray -> ndarray)."""
        return ScalarField(self, fn(self.nodes))

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
# exact on polynomials of degree <= 4.
def _deriv_axis0(v: np.ndarray, s: float) -> np.ndarray:
    out = np.empty_like(v)
    out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * s)
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * s)
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * s)
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * s)
    out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * s)
    return out


def _d(values: np.ndarray, spacing) -> np.ndarray:
    return 0.5 * (_deriv_axis0(values, spacing) - 1j * _deriv_axis0(values.T, spacing).T)


def _dbar(values: np.ndarray, spacing) -> np.ndarray:
    return 0.5 * (_deriv_axis0(values, spacing) + 1j * _deriv_axis0(values.T, spacing).T)


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
    """Discrete L^p norm; p = inf gives the max-norm."""
    if p == np.inf or p == float("inf"):
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return _weighted_p_sum(f.grid, f.values, p) ** (1.0 / p)


def norm_hm(f: ScalarField, m: int) -> float:
    """Sobolev H^m norm: L^2 norms of all d^a dbar^b f with a + b <= m."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    # build the derivative table by extending holomorphic order first
    rows = {(0, 0): f}
    total = 0.0
    for a in range(m + 1):
        if a > 0:
            rows[(a, 0)] = wirtinger_d(rows[(a - 1, 0)])
        cur = rows[(a, 0)]
        total += _weighted_p_sum(cur.grid, cur.values, 2)
        for b in range(1, m + 1 - a):
            cur = wirtinger_dbar(cur)
            total += _weighted_p_sum(cur.grid, cur.values, 2)
    return total**0.5


def _masked_l2(grid: ComplexGrid, values: np.ndarray) -> float:
    """masked_l2 of an array, summed in the array's precision."""
    a = np.abs(values) ** 2 * grid.interior_mask(0.05)
    w = grid._trapezoid_1d.astype(a.dtype)
    s = a.dtype.type(grid.spacing)
    return float(np.sqrt(w @ a @ w * s * s))


def masked_l2(f: ScalarField) -> float:
    """L^2 norm restricted to the central subgrid: 5% of the width is cut at each edge."""
    return _masked_l2(f.grid, f.values)
