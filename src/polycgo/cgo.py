"""Oscillatory solutions u = exp(phase/h) * (amplitude + remainder).

Construction follows the transport system: substituting the carrier ansatz
into the divergence-form operator couples the amplitude equation to a density
g through a fixed-point map

    T(v) = - sum_{j,k} d_inv^(m-j) ( E+ * c[j,k] * dbar_inv^(m-k) ( E- * v ) )

with unimodular oscillations E+/- and divergence coefficients c.  The density
solves (I - T) g = w by Neumann series (T contracts for small h), then the
remainder is r = dbar_inv^m(E- * g) and u = exp(phase/h) * (a + r).  Adjoint
solutions reuse the same machinery with the carrier sign flipped.  A solution
keeps only g and r; u and the diagnostics are assembled on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from math import factorial, nan
from operator import add, itemgetter

import numpy as np
import scipy.ndimage

from .cauchy import cauchy_chain
from .errors import MaxTermsExceededError, NonContractionError
from .grid import (
    ComplexGrid,
    ScalarField,
    _d,
    _dbar,
    mixed_wirtinger,
    norm_hm,
    norm_lp,
)
from .operators import (
    DIVERGENCE,
    STANDARD,
    PerturbedOperator,
    adjoint,
    to_divergence_form,
    to_standard_form,
)
from .phase import PhaseSpec
from .sweeps import fit_loglog_slope

DEFAULT_TOL = 1e-10
DEFAULT_MAX_TERMS = 50
RESIDUAL_MARGIN = 0.05  # residuals measured on the central 90% subgrid


@dataclass(frozen=True)
class AmplitudeSpec:
    """Amplitude field with a kind tag; admissible when dbar^m kills it."""

    kind: str
    field: ScalarField
    degree: int | None = None

    @classmethod
    def monomial(cls, grid: ComplexGrid, k: int) -> "AmplitudeSpec":
        """conj(z)^k / k! in the global coordinate."""
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        fac = factorial(k)
        return cls("monomial", grid.sample(lambda z: np.conj(z) ** k / fac), degree=k)

    @classmethod
    def custom(cls, field: ScalarField) -> "AmplitudeSpec":
        return cls("custom", field)

    def check_admissible(self, m: int, rtol: float = 1e-6) -> None:
        """Require dbar^m(field) ~ 0 within stencil truncation tolerance."""
        if self.kind == "monomial" and self.degree is not None and self.degree < m:
            return  # annihilated identically; the stencil check is redundant
        resid = norm_lp(mixed_wirtinger(self.field, 0, m), np.inf)
        scale = max(1.0, norm_lp(self.field, np.inf))
        if resid > rtol * scale:
            raise ValueError(
                f"amplitude is not admissible for m={m}: |dbar^m a| = {resid:.3e}"
            )


@dataclass(frozen=True)
class CGODiagnostics:
    g_l2: float
    r_hm: float
    residual_l2: float
    neumann_terms: int


@dataclass(frozen=True)
class CGOSolution:
    """Oscillatory solution in factored form: density g, remainder r, and the
    operator it was built for.  The assembled u and the diagnostics are
    computed on first access; recovery reads only r.
    """

    phase: PhaseSpec
    amplitude: AmplitudeSpec
    carrier_sign: int
    op: PerturbedOperator
    g: ScalarField
    r: ScalarField
    neumann_terms: int

    @cached_property
    def u(self) -> ScalarField:
        """exp(sign*phase/h) * (a + r); the carrier overflows for very small h."""
        carrier = self.phase.carrier(self.op.grid, self.carrier_sign)
        return carrier * (self.amplitude.field + self.r)

    @cached_property
    def diagnostics(self) -> CGODiagnostics:
        return CGODiagnostics(
            g_l2=norm_lp(self.g, 2),
            r_hm=norm_hm(self.r, self.op.m),
            residual_l2=residual_norm(_as_standard(self.op), self.u, RESIDUAL_MARGIN),
            neumann_terms=self.neumann_terms,
        )


class OscillatoryTransport:
    """The fixed-point map of the density equation, with its L2 adjoint.

    Built once per (operator, phase, sign); the oscillations E+/- and the
    nonzero coefficients are kept as arrays, so Neumann iterations only pay
    for transforms and each call wraps one field.  sign=+1 matches the carrier
    exp(+phase/h), sign=-1 the adjoint-family carrier exp(-phase/h).
    """

    def __init__(self, op: PerturbedOperator, phase: PhaseSpec, sign: int = +1):
        if op.form != DIVERGENCE:
            raise ValueError("transport map needs the divergence form")
        phase.check_grid(op.grid)
        self.op = op
        self.phase = phase
        self.sign = sign
        self.grid = op.grid
        self.active = op.nonzero_indices()
        self.coeffs = {jk: op.coeff(*jk).values for jk in self.active}
        self.rows = sorted({j for j, _ in self.active})
        self.cols = sorted({k for _, k in self.active})
        self.e_plus = self.e_minus = None
        if self.active:
            self.e_plus = phase.oscillation(op.grid, sign).values
            self.e_minus = phase.oscillation(op.grid, -sign).values

    def _outer_sum(self, x) -> ScalarField:
        """-sum_j d_inv^(m-j)(E+ * sum_k c[j,k] * x[k]) over the nonzero coefficients."""
        m = self.op.m
        out = np.zeros((self.grid.n, self.grid.n), dtype=np.complex128)
        for j, row in groupby(self.active, key=itemgetter(0)):
            combo = reduce(add, (self.coeffs[jk] * x[jk[1]] for jk in row))
            out = out - cauchy_chain(self.grid, self.e_plus * combo, m - j, conj=True)
        return ScalarField(self.grid, out)

    def apply(self, v: ScalarField) -> ScalarField:
        m = self.op.m
        if not self.active or v.is_zero():
            return self.grid.zero()
        ev = self.e_minus * v.values
        return self._outer_sum({k: cauchy_chain(self.grid, ev, m - k) for k in self.cols})

    def apply_adjoint(self, v: ScalarField) -> ScalarField:
        """Exact discrete L2 adjoint; uses d_inv* = -dbar_inv for the odd kernel."""
        m = self.op.m
        if not self.active or v.is_zero():
            return self.grid.zero()
        inner = {j: cauchy_chain(self.grid, v.values, m - j) for j in self.rows}
        out = None
        for k, col in groupby(sorted(self.active, key=itemgetter(1, 0)), key=itemgetter(1)):
            terms = (
                np.conj(self.e_plus * self.coeffs[(j, k)]) * (-1.0 if (j + k) % 2 else 1.0)
                * inner[j]
                for j, _ in col
            )
            piece = cauchy_chain(self.grid, reduce(add, terms), m - k, conj=True)
            out = piece if out is None else out + piece
        return ScalarField(self.grid, -1.0 * (self.e_plus * out))

    def source(self, amplitude: AmplitudeSpec) -> ScalarField:
        """Right-hand side built from the amplitude's dbar derivatives."""
        if not self.active:
            return self.grid.zero()
        dbar_a = [amplitude.field.values]
        for _ in range(1, self.op.m):
            dbar_a.append(_dbar(dbar_a[-1], self.grid.spacing))
        return self._outer_sum(dbar_a)


def _as_divergence(op: PerturbedOperator) -> PerturbedOperator:
    return op if op.form == DIVERGENCE else to_divergence_form(op)


def _as_standard(op: PerturbedOperator) -> PerturbedOperator:
    return op if op.form == STANDARD else to_standard_form(op)


def adjoint_divergence(op: PerturbedOperator) -> PerturbedOperator:
    """Divergence form of the formal adjoint, the operator of the sign -1 family."""
    return _as_divergence(adjoint(_as_standard(op)))


def residual_norm(op: PerturbedOperator, u: ScalarField, margin: float = RESIDUAL_MARGIN) -> float:
    """Masked L2 norm of the operator applied to u, in extended precision.

    The 2m-fold stencil chain amplifies double roundoff by 1/spacing per
    derivative; on fine grids that floor exceeds the truncation error this
    diagnostic exists to measure, so the chain runs in 80-bit arithmetic
    (the measuring instrument must sit below the signal).  Memory stays flat:
    one dbar column and one running d-derivative are alive at a time.
    """
    if op.form != STANDARD:
        raise ValueError("residual evaluation expects the standard form")
    grid = u.grid
    m = op.m
    s = np.longdouble(grid.spacing)
    nonzero_by_col = {
        k: [j for j in range(m) if not op.coeffs[(j, k)].is_zero()] for k in range(m)
    }
    out = None
    col = u.values.astype(np.clongdouble)
    for k in range(m + 1):
        if k > 0:
            col = _dbar(col, s)
        if k == m:
            cur = col
            for _ in range(m):
                cur = _d(cur, s)
            out = cur if out is None else out + cur
            break
        wanted = nonzero_by_col[k]
        if not wanted:
            continue
        cur = col
        for j in range(wanted[-1] + 1):
            if j > 0:
                cur = _d(cur, s)
            if j in wanted:
                term = op.coeffs[(j, k)].values * cur
                out = term if out is None else out + term
    mask = grid.interior_mask(margin)
    w = grid._trapezoid_1d.astype(np.longdouble)
    a = np.abs(out) ** 2 * mask
    total = w @ a @ w * s * s
    return float(np.sqrt(total))


def solve_density(
    T: OscillatoryTransport,
    amplitude: AmplitudeSpec,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
):
    """Sum the Neumann series for (I - T) g = w, w = T.source(amplitude).

    Stops when the latest term drops below tol * ||w||_2 and verifies the
    residual ||(I - T)g - w||_2 <= 2 * tol * ||w||_2 a posteriori with one
    extra application of the map.  Raises NonContractionError when the term
    norms fail to decrease three times in a row, MaxTermsExceededError when
    the budget runs out.
    """
    h = T.phase.h
    w = T.source(amplitude)
    w_norm = norm_lp(w, 2)
    if w_norm == 0.0:
        return T.grid.zero(), 1
    g = w
    term = w
    prev_norm = w_norm
    rises = 0
    terms_used = 1
    while True:
        term = T.apply(term)
        t_norm = norm_lp(term, 2)
        if t_norm <= tol * w_norm:
            if t_norm > 0:
                g = g + term
                terms_used += 1
            break
        if t_norm >= prev_norm:
            rises += 1
            if rises >= 3:
                raise NonContractionError(h)
        else:
            rises = 0
        g = g + term
        terms_used += 1
        prev_norm = t_norm
        if terms_used >= max_terms:
            raise MaxTermsExceededError(h, max_terms)
    residual = norm_lp(g - T.apply(g) - w, 2)
    if residual > 2.0 * tol * w_norm:
        raise MaxTermsExceededError(
            h, max_terms, f"a-posteriori residual {residual:.3e} exceeds 2*tol*||w|| at h={h}"
        )
    return g, terms_used


def build_cgo(
    op: PerturbedOperator,
    phase: PhaseSpec,
    amplitude: AmplitudeSpec,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    sign: int = +1,
) -> CGOSolution:
    """Divergence transform, density solve and remainder; u and diagnostics are lazy."""
    op_div = _as_divergence(op)
    amplitude.check_admissible(op.m)
    T = OscillatoryTransport(op_div, phase, sign)
    g, terms = solve_density(T, amplitude, tol, max_terms)
    r = op.grid.zero() if g.is_zero() else ScalarField(
        op.grid, cauchy_chain(op.grid, T.e_minus * g.values, op.m)
    )
    return CGOSolution(
        phase=phase,
        amplitude=amplitude,
        carrier_sign=sign,
        op=op,
        g=g,
        r=r,
        neumann_terms=terms,
    )


def build_adjoint_cgo(
    op: PerturbedOperator,
    phase: PhaseSpec,
    amplitude: AmplitudeSpec,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> CGOSolution:
    """Oscillatory solution of the formal adjoint with the carrier exp(-phase/h)."""
    return build_cgo(adjoint_divergence(op), phase, amplitude, tol, max_terms, sign=-1)


def smooth_random_field(grid: ComplexGrid, seed: int = 0) -> ScalarField:
    """Unit-L2 random start for power iteration: white noise smoothed and normalized."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    width = max(2.0, grid.n / 32.0)
    sm = scipy.ndimage.gaussian_filter(raw.real, width) + 1j * scipy.ndimage.gaussian_filter(
        raw.imag, width
    )
    f = ScalarField(grid, sm)
    return f * (1.0 / norm_lp(f, 2))


@dataclass(frozen=True)
class NormProbe:
    rows: tuple
    slope: float


def transport_norm_probe(
    op: PerturbedOperator,
    phase_list,
    iterations: int = 20,
    seed: int = 0,
) -> NormProbe:
    """Power-iteration estimates of the L2 operator norm of the density map.

    Iterates T*T from a random smooth start; the square root of the Rayleigh
    quotient after the final sweep estimates the largest singular value.
    """
    op_div = _as_divergence(op)
    rows = []
    for phase in sorted(phase_list, key=lambda p: -p.h):
        T = OscillatoryTransport(op_div, phase)
        if not T.active:
            rows.append((phase.h, 0.0))
            continue
        v = smooth_random_field(op_div.grid, seed)
        est = 0.0
        for _ in range(iterations):
            tv = T.apply(v)
            w = T.apply_adjoint(tv)
            nv = norm_lp(v, 2)
            est = (norm_lp(tv, 2) / nv) if nv > 0 else 0.0
            nw = norm_lp(w, 2)
            if nw == 0.0:
                break
            v = w * (1.0 / nw)
        rows.append((phase.h, est))
    hs = [r[0] for r in rows]
    ns = [r[1] for r in rows]
    slope = fit_loglog_slope(hs, ns) if all(v > 0 for v in ns) else nan
    return NormProbe(rows=tuple(rows), slope=slope)
