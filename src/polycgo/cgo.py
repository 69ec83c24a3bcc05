"""Oscillatory solutions u = exp(phase/h) * (amplitude + remainder).

Construction follows the transport system: substituting the carrier ansatz
into the divergence-form operator couples the amplitude equation to a density
g through a fixed-point map

    T(v) = - sum_{j,k} d_inv^(m-j) ( E+ * c[j,k] * dbar_inv^(m-k) ( E- * v ) )

with unimodular oscillations E+/- and divergence coefficients c.  The powers
dbar_inv^(m-k) are prefixes of one chain, and the outer sum is evaluated by
Horner's rule, d_inv(y[m-1] + d_inv(y[m-2] + ...)), so one application costs
at most 2m transforms instead of m(m+1).  The density solves (I - T) g = w by
Neumann series (T contracts for small h), then the remainder is
r = dbar_inv^m(E- * g) and u = exp(phase/h) * (a + r).  Adjoint solutions
reuse the same machinery with the carrier sign flipped.  The transport is the
one object per (operator, phase, sign): build_cgo and transport_norm_probe
both take it.  A solution keeps only g and r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from math import factorial
from operator import add, itemgetter

import numpy as np
import scipy.ndimage

from .cauchy import cauchy_chain
from .errors import MaxTermsExceededError, NonContractionError, PrecisionError
from .grid import ComplexGrid, ScalarField, _d, _dbar, mixed_wirtinger, norm_lp
from .operators import (
    DIVERGENCE,
    STANDARD,
    PerturbedOperator,
    adjoint,
    to_divergence_form,
    to_standard_form,
)
from .phase import PhaseSpec

DEFAULT_TOL = 1e-10
PROBE_RTOL = 1e-12  # the norm probe stops once its estimate moves less than this
DEFAULT_MAX_TERMS = 50
RESIDUAL_MARGIN = 0.05  # residuals measured on the central 90% subgrid
ADMISSIBLE_RTOL = 1e-6  # check_admissible's bound on |dbar^m a| / max(1, |a|)
# residual_norm runs in np.longdouble, which some platforms make a plain double
LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)


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

    def check_admissible(self, m: int) -> None:
        """Require dbar^m(field) ~ 0 within stencil truncation tolerance."""
        if self.kind == "monomial" and self.degree is not None and self.degree < m:
            return  # annihilated identically; the stencil check is redundant
        resid = norm_lp(mixed_wirtinger(self.field, 0, m), np.inf)
        scale = max(1.0, norm_lp(self.field, np.inf))
        if resid > ADMISSIBLE_RTOL * scale:
            raise ValueError(
                f"amplitude is not admissible for m={m}: |dbar^m a| = {resid:.3e}"
            )


@dataclass(frozen=True)
class CGOSolution:
    """Oscillatory solution in factored form: density g and remainder r; u is
    assembled on each access, and recovery reads only r."""

    phase: PhaseSpec
    amplitude: AmplitudeSpec
    carrier_sign: int
    g: ScalarField
    r: ScalarField
    neumann_terms: int

    @property
    def u(self) -> ScalarField:
        """exp(sign*phase/h) * (a + r); the carrier overflows for very small h."""
        carrier = self.phase.carrier(self.r.grid, self.carrier_sign)
        return carrier * (self.amplitude.field + self.r)


class OscillatoryTransport:
    """The fixed-point map of the density equation, with its L2 adjoint.

    Built once per (operator, phase, sign); the oscillations E+/- and the
    nonzero coefficients are kept as arrays, so Neumann iterations only pay
    for transforms and each call wraps one field.  sign=+1 matches the carrier
    exp(+phase/h), sign=-1 the adjoint-family carrier exp(-phase/h).

    Each call runs one dbar_inv chain for the inner powers and one Horner
    pass of d_inv for the outer sum: apply takes m - min(cols) + m - min(rows)
    transforms, at most 2m, and apply_adjoint mirrors it step for step.
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

    def _dbar_powers(self, values: np.ndarray, lowest: int) -> dict:
        """{i: dbar_inv^(m-i)(values)} for lowest <= i < m, each kept as the chain forms it."""
        powers, cur = {}, values
        for i in range(self.op.m - 1, lowest - 1, -1):
            cur = cauchy_chain(self.grid, cur)
            powers[i] = cur
        return powers

    def _horner(self, terms) -> np.ndarray:
        """sum_i d_inv^(m-i)(y_i) over (i, y_i) pairs in ascending i, by Horner's rule.

        d_inv(y[m-1] + d_inv(y[m-2] + ...)): one d_inv per level from the
        first i to m - 1, so a level with no term still takes its step.
        """
        acc = level = None
        for i, y in terms:
            acc = y if acc is None else cauchy_chain(self.grid, acc, i - level, conj=True) + y
            level = i
        return cauchy_chain(self.grid, acc, self.op.m - level, conj=True)

    def _outer_sum(self, x) -> ScalarField:
        """-sum_j d_inv^(m-j)(E+ * sum_k c[j,k] * x[k]) over the nonzero coefficients."""
        rows = (
            (j, self.e_plus * reduce(add, (self.coeffs[jk] * x[jk[1]] for jk in row)))
            for j, row in groupby(self.active, key=itemgetter(0))
        )
        return ScalarField(self.grid, -self._horner(rows))

    def apply(self, v: ScalarField) -> ScalarField:
        if not self.active or v.is_zero():
            return self.grid.zero()
        return self._outer_sum(self._dbar_powers(self.e_minus * v.values, self.cols[0]))

    def apply_adjoint(self, v: ScalarField) -> ScalarField:
        """Exact discrete L2 adjoint; uses d_inv* = -dbar_inv for the odd kernel."""
        if not self.active or v.is_zero():
            return self.grid.zero()
        inner = self._dbar_powers(v.values, self.rows[0])
        cols = (
            (k, reduce(add, (w * inner[j] for j, w in col)))
            for k, col in self._adjoint_weights.items()
        )
        return ScalarField(self.grid, -1.0 * (self.e_plus * self._horner(cols)))

    @cached_property
    def _adjoint_weights(self) -> dict:
        """conj(E+ * c[j,k]) * (-1)^(j+k) as [(j, weight)] per column k.

        Built on the first adjoint apply, so a transport that is only applied
        forward (recovery, the Neumann solve) holds no copy of them.
        """
        by_col = groupby(sorted(self.active, key=itemgetter(1, 0)), key=itemgetter(1))
        return {
            k: [
                (j, np.conj(self.e_plus * self.coeffs[(j, k)]) * (-1.0 if (j + k) % 2 else 1.0))
                for j, _ in col
            ]
            for k, col in by_col
        }

    def source(self, amplitude: AmplitudeSpec) -> ScalarField:
        """Right-hand side from the amplitude's dbar derivatives; zero, with no
        transform, when every derivative a coefficient multiplies vanishes."""
        if not self.active:
            return self.grid.zero()
        dbar_a = [amplitude.field.values]
        for _ in range(1, self.op.m):
            dbar_a.append(_dbar(dbar_a[-1], self.grid.spacing))
        if not any(np.any(dbar_a[k]) for k in self.cols):
            return self.grid.zero()
        return self._outer_sum(dbar_a)


def as_divergence(op: PerturbedOperator) -> PerturbedOperator:
    """op itself if it is in divergence form, else its conversion."""
    return op if op.form == DIVERGENCE else to_divergence_form(op)


def as_standard(op: PerturbedOperator) -> PerturbedOperator:
    """op itself if it is in standard form, else its conversion."""
    return op if op.form == STANDARD else to_standard_form(op)


def adjoint_divergence(op: PerturbedOperator) -> PerturbedOperator:
    """Divergence form of the formal adjoint, the operator of the sign -1 family."""
    return as_divergence(adjoint(as_standard(op)))


def residual_norm(op: PerturbedOperator, u: ScalarField) -> float:
    """Masked L2 norm of the operator applied to u, in extended precision.

    The 2m-fold stencil chain amplifies double roundoff by 1/spacing per
    derivative; on fine grids that floor exceeds the truncation error this
    diagnostic exists to measure, so the chain runs in 80-bit arithmetic
    (the measuring instrument must sit below the signal).  Memory stays flat:
    one dbar column and one running d-derivative are alive at a time.
    Raises PrecisionError where np.longdouble is only a double.
    """
    if op.form != STANDARD:
        raise ValueError("residual evaluation expects the standard form")
    if LONGDOUBLE_EPS >= np.finfo(np.float64).eps:
        raise PrecisionError(LONGDOUBLE_EPS)
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
    mask = grid.interior_mask(RESIDUAL_MARGIN)
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
    T: OscillatoryTransport,
    amplitude: AmplitudeSpec,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> CGOSolution:
    """Density solve and remainder on the transport T; the carrier sign is T's."""
    m, grid = T.op.m, T.grid
    amplitude.check_admissible(m)
    g, terms = solve_density(T, amplitude, tol, max_terms)
    r = grid.zero() if g.is_zero() else ScalarField(
        grid, cauchy_chain(grid, T.e_minus * g.values, m)
    )
    return CGOSolution(
        phase=T.phase,
        amplitude=amplitude,
        carrier_sign=T.sign,
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
    T = OscillatoryTransport(adjoint_divergence(op), phase, -1)
    return build_cgo(T, amplitude, tol, max_terms)


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


def transport_norm_probe(T: OscillatoryTransport, iterations: int = 20, seed: int = 0):
    """Power-iteration estimate of the L2 operator norm of T, as (estimate, sweeps).

    Iterates T*T from a random smooth start; the square root of the Rayleigh
    quotient estimates the largest singular value.  Each sweep applies T and
    takes the estimate ||T v|| / ||v|| before applying T*.  The iteration
    stops after sweep k >= 2 once |est_k - est_(k-1)| <= PROBE_RTOL * est_k,
    or after `iterations` sweeps (the cap); the sweep that stops does not
    apply T*.  The estimate converges geometrically, so a stopped estimate
    lies within a small multiple of PROBE_RTOL of what further sweeps give.
    A transport with no nonzero coefficient gives (0.0, 0).
    """
    est, sweep = 0.0, 0
    if T.active:
        v = smooth_random_field(T.grid, seed)
        for sweep in range(1, iterations + 1):
            tv = T.apply(v)
            nv = norm_lp(v, 2)
            prev, est = est, (norm_lp(tv, 2) / nv) if nv > 0 else 0.0
            if sweep == iterations or (sweep > 1 and abs(est - prev) <= PROBE_RTOL * est):
                break
            w = T.apply_adjoint(tv)
            nw = norm_lp(w, 2)
            if nw == 0.0:
                break
            v = w * (1.0 / nw)
    return est, sweep
