"""Pointwise recovery of coefficient-difference tables by stationary phase.

The bilinear pairing of two oscillatory families concentrates at the phase's
critical point: for a nondegenerate quadratic phase the leading term of

    sum_{j,k} (-1)^j integral( B[j,k] * dbar^k(u1-part) * d^j(conj v-part) * E+ )

is C * h * sum (-1)^j B[j,k](z0) * weights(z0), with the universal constant
C = pi/2 (the product of two quadratic-phase line integrals).  Pairing with
monomial amplitudes makes the weight matrix triangular, so the differences are
recovered one level of j+k at a time, subtracting what earlier levels already
determined.

The pairing never forms an n-by-n integrand.  E+ = ex(x) * ey(y) is separable
and every monomial factor conj(z)^a z^b / (a! b!) is a polynomial in x and y
(_monomial_table), so each term, an array G times such a monomial, pairs as
sum c[p,q] * (X^T G Y)[p,q] * spacing^2 with X[:, p] = w*ex*x^p and
Y[:, q] = w*ey*y^q.  G is a difference B[j,k], or in full_cgo B[j,k] times the
remainder derivatives dbar^k r and conj(dbar^j s).  RecoveryProblem.step forms
each G's moments once per (z0, h) step, and its levels pair from them.  The
point weights and the noise floor are cgo._monomial_part, the rule
AmplitudeSpec.monomial builds on.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb, factorial, pi

import numpy as np

from .cgo import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    AmplitudeSpec,
    OscillatoryTransport,
    _monomial_part,
    build_cgo,
)
from .errors import DegenerateProbeError, PairingOverflowError
from .grid import ComplexGrid, ScalarField, _dbar
from .operators import PerturbedOperator, adjoint, to_divergence_form
from .phase import PhaseSpec
from .sweeps import fit_loglog_slope

# leading coefficient of the quadratic-phase point pairing: the plane integral
# of exp(2i*Re(z^2)/h) equals (pi/2)*h
STATIONARY_PHASE_CONSTANT = pi / 2.0

SUPPORT_MARGIN = 0.05  # outer frame fraction that must be difference-free
SUPPORT_TOL = 1e-12  # largest |difference| allowed on that frame
CONDITIONING_BOUND = 100.0  # largest sum of a probe's subtraction weights
AMPLITUDE_ONLY = "amplitude_only"
FULL_CGO = "full_cgo"


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
    return phase.oscillatory_integral(grid, chi.values) / phase.h


def empirical_constants(
    grid: ComplexGrid, phase: PhaseSpec, m: int, plateau: float = 0.3, support: float = 0.6
) -> dict:
    """Measured leading constant of the point pairing, per coefficient index.

    Pairs a plateau cutoff at the critical point with the monomial amplitude
    factors each (j, k) term carries when targeting (m-1, m-1), and divides
    out the point values.  The constants are expected to sit near pi/2 for
    every index; deviations are reported, not corrected for.
    """
    phase.check_grid(grid)
    chi = plateau_cutoff(grid, phase.z0, plateau, support).values
    z = grid.nodes
    zbar = np.conj(z)
    z0 = phase.z0
    j0 = k0 = m - 1
    out = {}
    for j in range(m):
        for k in range(m):
            factor = _monomial_part(zbar, k0 - k) * _monomial_part(z, j0 - j)
            value = phase.oscillatory_integral(grid, chi * factor)
            weight = _monomial_weight(z0, j0, k0, j, k)
            if abs(weight) < 1e-12:
                raise ValueError(
                    f"monomial weight vanishes at z0={z0} for index ({j},{k}); "
                    "pick a critical point away from the origin"
                )
            out[(j, k)] = complex(value / (phase.h * weight))
    return out


def sample_bilinear(f: ScalarField, z: complex) -> complex:
    """Bilinear interpolation of a field at an interior point."""
    g = f.grid
    s = g.spacing
    x = (z.real - g.center.real + g.half_width) / s
    y = (z.imag - g.center.imag + g.half_width) / s
    i = int(np.clip(np.floor(x), 0, g.n - 2))
    j = int(np.clip(np.floor(y), 0, g.n - 2))
    tx, ty = x - i, y - j
    v = f.values
    return complex(
        (1 - tx) * (1 - ty) * v[i, j]
        + tx * (1 - ty) * v[i + 1, j]
        + (1 - tx) * ty * v[i, j + 1]
        + tx * ty * v[i + 1, j + 1]
    )


def _monomial_weight(z0: complex, j0: int, k0: int, j: int, k: int) -> complex:
    """Value at z0 of dbar^k(conj(z)^k0/k0!) * d^j(z^j0/j0!)."""
    return complex(_monomial_part(np.conj(z0), k0 - k) * _monomial_part(z0, j0 - j))


@cache
def _monomial_table(a: int, b: int) -> np.ndarray:
    """c with conj(z)^a z^b / (a! b!) = sum c[p,q] x^p y^q for z = x + iy.

    The table is (a+b+1)-square and nonzero only where p + q = a + b; it is the
    binomial expansion of (x - iy)^a (x + iy)^b, built in exact powers of i.
    """
    d = a + b
    c = np.zeros((d + 1, d + 1), dtype=np.complex128)
    for r in range(a + 1):
        for s in range(b + 1):
            c[d - r - s, r + s] += comb(a, r) * comb(b, s) * (1, 1j, -1, -1j)[(s - r) % 4]
    c /= factorial(a) * factorial(b)
    c.setflags(write=False)
    return c


class RecoveryProblem:
    """Two same-order operators, probe points, and an h sweep for recovery runs.

    The operators are converted to divergence form; their coefficient
    differences must be compactly supported away from the outer frame (the
    numerical stand-in for boundary-flat data).  The adjoint family's operator
    is built on the first full_cgo pairing.  Only one (z0, h) step is kept, as
    step(z0, h) returns it; its transports, remainder derivatives and arrays G
    live only while it is built.
    """

    def __init__(
        self,
        op: PerturbedOperator,
        op_tilde: PerturbedOperator,
        probes,
        h_list,
        mode: str = AMPLITUDE_ONLY,
        solver_tol: float = DEFAULT_TOL,
        max_terms: int = DEFAULT_MAX_TERMS,
    ):
        if op.grid != op_tilde.grid:
            raise ValueError("operators live on different grids")
        if op.m != op_tilde.m:
            raise ValueError("operators have different order m")
        if mode not in (AMPLITUDE_ONLY, FULL_CGO):
            raise ValueError(f"unknown mode {mode!r}")
        if len(h_list) < 1:
            raise ValueError("h_list must be nonempty")
        self.op = op
        self.op_tilde = op_tilde
        self.grid = op.grid
        self.m = op.m
        self.probes = tuple(complex(z) for z in probes)
        self.h_list = tuple(sorted((float(h) for h in h_list), reverse=True))
        self.mode = mode
        self.solver_tol = solver_tol
        self.max_terms = max_terms
        self._div = to_divergence_form(op)
        self._div_tilde = to_divergence_form(op_tilde)
        self.differences = {
            (j, k): self._div_tilde.coeff(j, k) - self._div.coeff(j, k)
            for j in range(self.m)
            for k in range(self.m)
        }
        frame = ~self.grid.interior_mask(SUPPORT_MARGIN)
        for (j, k), b in self.differences.items():
            worst = float(np.max(np.abs(b.values) * frame))
            if worst >= SUPPORT_TOL:
                raise ValueError(
                    f"difference ({j},{k}) is not supported away from the frame "
                    f"(max |B| = {worst:.3e} on the outer {SUPPORT_MARGIN:.0%})"
                )
        self._step = None

    def check_probe(self, z0: complex) -> None:
        if not self.grid.contains(z0, margin=SUPPORT_MARGIN):
            raise DegenerateProbeError(z0, "probe lies on or outside the support frame")
        cond = max(
            sum(
                abs(_monomial_weight(z0, j0, k0, j, k))
                for j in range(j0 + 1)
                for k in range(k0 + 1)
                if (j, k) != (j0, k0)
            )
            for j0 in range(self.m)
            for k0 in range(self.m)
        )
        if cond > CONDITIONING_BOUND:
            raise DegenerateProbeError(
                z0, f"subtraction weights sum to {cond:.3g} > bound {CONDITIONING_BOUND:g}"
            )

    def step(self, z0: complex, h: float):
        """(remainders, moments) of the (z0, h) step, built once after the last is dropped.

        remainders[(sign, degree)]: full_cgo's r per family and monomial degree.
        moments[(j, k)][(kr, js)]: X^T G Y per nonzero B[j,k], G being B, B * dbar^k r
        of degree kr, B * conj(dbar^j s) of degree js, or both; a zero r or s adds no key.
        """
        if self._step is None or self._step[0] != (z0, h):
            self._step = None
            remainders = self._remainders(z0, h) if self.mode == FULL_CGO else {}
            self._step = (z0, h), (remainders, self._moments(z0, h, remainders))
        return self._step[1]

    def _cgo_pair(self, z0: complex, h: float, k0: int, j0: int):
        """Remainders (r, s) of both families' oscillatory solutions at the (z0, h) step."""
        remainders, _ = self.step(z0, h)
        return remainders[(+1, k0)], remainders[(-1, j0)]

    def _remainders(self, z0: complex, h: float) -> dict:
        """r of both families' solutions for every degree < m, on one transport each."""
        phase, ops = PhaseSpec(z0, h), {+1: self._div, -1: self._adjoint_div}
        transports = {sign: OscillatoryTransport(op, phase, sign) for sign, op in ops.items()}
        remainders = {}
        for degree in range(self.m):
            amplitude = AmplitudeSpec.monomial(self.grid, degree)
            for sign, T in transports.items():
                sol = build_cgo(T, amplitude, tol=self.solver_tol, max_terms=self.max_terms)
                remainders[(sign, degree)] = sol.r
        return remainders

    @np.errstate(over="ignore", invalid="ignore")  # identity_lhs checks the pairing's value
    def _moments(self, z0: complex, h: float, remainders: dict) -> dict:
        """The step's moment table; each array G is formed once and dropped after its pass.

        G @ Y runs first: BLAS streams the n-by-n array far faster against a
        few columns than against a few rows.
        """
        grid, m = self.grid, self.m
        ex, ey = PhaseSpec(z0, h).oscillation_factors(grid)
        w, t = grid._trapezoid_1d[:, None], grid.axis_offsets[:, None]
        powers = np.arange(2 * m - 1)
        x, y = grid.center.real + t, grid.center.imag + t
        left, right = (w * ex[:, None] * x**powers).T, w * ey[:, None] * y**powers
        # {degree: [dbar^k r for k < m]} per family, conjugated for s: the form the pairing reads
        rs, ss = {}, {}
        for (sign, degree), r in remainders.items():
            if not r.is_zero():
                d, derivatives = r.values, []
                for k in range(m):
                    d = _dbar(d, grid.spacing) if k else d
                    derivatives.append(np.conj(d) if sign < 0 else d)
                (rs if sign > 0 else ss)[degree] = derivatives
        moments = {}
        for (j, k), b in sorted(self.differences.items()):
            if b.is_zero():
                continue
            table = moments[(j, k)] = {(None, None): left @ (b.values @ right)}
            for js, s in ss.items():
                table[(None, js)] = left @ ((b.values * s[j]) @ right)
            for kr, r in rs.items():
                g = b.values * r[k]
                table[(kr, None)] = left @ (g @ right)
                for js, s in ss.items():
                    table[(kr, js)] = left @ ((g * s[j]) @ right)
        return moments

    @cached_property
    def _adjoint_div(self) -> PerturbedOperator:
        return adjoint(self._div_tilde)


def identity_lhs(
    problem: RecoveryProblem, j0: int, k0: int, h: float, z0: complex
) -> complex:
    """Evaluate the bilinear pairing with monomial amplitudes of degrees (k0, j0).

    amplitude_only pairs the pure amplitudes; full_cgo pairs the assembled
    oscillatory solutions, picking up the small remainder cross terms.  Each
    term is an array G times conj(z)^a z^b / (a! b!), paired through the
    moments of G in the step's table.  Once the step exists no n-by-n array
    is formed.
    """
    grid = problem.grid
    PhaseSpec(z0, h).check_grid(grid)
    problem.check_probe(z0)

    if problem.mode == FULL_CGO:
        # reach the step through the CGO lookup, so a trace counts its builds there
        problem._cgo_pair(z0, h, k0, j0)
    _, moments = problem.step(z0, h)

    # dbar^k a of degree k0 - k pairs with d^j conj(b) of degree j0 - j; in
    # full_cgo, dbar^k r joins the first and conj(dbar^j s) the second
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):  # the value is checked below
        for (j, k), table in moments.items():
            for kr, a in ((None, k0 - k), (k0, 0)):
                for js, b in ((None, j0 - j), (j0, 0)):
                    if a < 0 or b < 0 or (kr, js) not in table:
                        continue
                    d = a + b + 1
                    term = np.sum(_monomial_table(a, b) * table[(kr, js)][:d, :d])
                    total = total - term if j % 2 else total + term
        value = complex(total) * grid.spacing**2
    if not cmath.isfinite(value):
        raise PairingOverflowError(j0, k0, z0, h)
    return value


def stationary_phase_extract(values, z0: complex):
    """Point value from a sweep of pairing values: value/(C*h) at the smallest h.

    The exponential prefactor of the leading term is 1 because the phase
    vanishes at its own critical point.  Returns (extracted, error_estimate)
    with a Richardson-style error bar from the two smallest h.
    """
    rows = sorted(((float(h), complex(v)) for h, v in values), key=lambda r: -r[0])
    if len(rows) < 2:
        raise ValueError("need at least two h samples to extract")
    ext = [v / (STATIONARY_PHASE_CONSTANT * h) for h, v in rows]
    return ext[-1], abs(ext[-1] - ext[-2])


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


@dataclass(frozen=True)
class RecoveryRow:
    m: int
    j: int
    k: int
    z0: complex
    h: float
    extracted: complex
    truth: complex
    abs_err: float
    rel_err: float


@dataclass
class RecoveryReport:
    """Per-(j,k,z0,h) extraction rows, per-(j,k) error slopes, degenerate probes."""

    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    degenerate: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def write_manifest(self, path, config_hash: str | None = None) -> None:
        doc = {
            "config": self.config,
            "config_sha256": config_hash,
            "slopes": {f"{j},{k}": s for (j, k), s in sorted(self.slopes.items())},
            "degenerate_probes": [
                {"z0": [z.real, z.imag], "reason": reason} for z, reason in self.degenerate
            ],
            "rows": len(self.rows),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def worst_rel_err_at_smallest_h(self) -> float:
        """Worst error at the smallest h, scaled by the coefficient magnitude.

        Rows whose true difference vanishes are measured against the problem's
        overall coefficient scale instead of their own (zero) truth, so a
        config with some zero coefficients is not gated on 0/0.
        """
        if not self.rows:
            return 0.0
        h_min = min(r.h for r in self.rows)
        at_min = [r for r in self.rows if r.h == h_min]
        scale = max(abs(r.truth) for r in at_min)
        if scale == 0.0:
            return max(r.abs_err for r in at_min)

        def scaled(r):
            if abs(r.truth) >= 0.05 * scale:
                return r.abs_err / abs(r.truth)
            return r.abs_err / scale

        return max(scaled(r) for r in at_min)


def recover_all(problem: RecoveryProblem) -> RecoveryReport:
    """Sequential recovery in increasing j+k, ties broken by j.

    Each level's extraction subtracts the point contributions of the already
    recovered lower levels (with the pairing's per-term parity) before dividing
    out the target's own parity.  All levels of one (z0, h) step run together;
    rows are listed by level, then z0, then h.  Degenerate probes are listed, not fatal.
    """
    m = problem.m
    C = STATIONARY_PHASE_CONSTANT
    report = RecoveryReport(config=_problem_config(problem))
    usable = []
    for z0 in problem.probes:
        try:
            problem.check_probe(z0)
            usable.append(z0)
        except DegenerateProbeError as exc:
            report.degenerate.append((z0, exc.reason))

    order = sorted(((j0 + k0, j0, k0) for j0 in range(m) for k0 in range(m)))
    level_rows = {(j0, k0): [] for _, j0, k0 in order}  # each in (z0, h) order
    for z0 in usable:
        for h in problem.h_list:
            recovered = {}  # (j, k) -> complex at this (z0, h)
            for _, j0, k0 in order:
                ext = identity_lhs(problem, j0, k0, h, z0) / (C * h)
                for j in range(j0 + 1):
                    for k in range(k0 + 1):
                        if (j, k) == (j0, k0):
                            continue
                        sign = -1.0 if j % 2 else 1.0
                        ext -= sign * recovered[(j, k)] * _monomial_weight(z0, j0, k0, j, k)
                value = recovered[(j0, k0)] = complex(ext / (-1.0 if j0 % 2 else 1.0))
                truth = sample_bilinear(problem.differences[(j0, k0)], z0)
                abs_err = float(abs(value - truth))
                rel_err = abs_err / abs(truth) if truth != 0 else float("inf")
                level_rows[(j0, k0)].append(
                    RecoveryRow(
                        m=m, j=j0, k=k0, z0=z0, h=h,
                        extracted=value, truth=truth,
                        abs_err=abs_err, rel_err=rel_err,
                    )
                )
    hs = list(problem.h_list) if usable else []
    for jk, rows in level_rows.items():
        report.rows += rows
        means = [float(np.mean([r.abs_err for r in rows if r.h == h])) for h in hs]
        report.slopes[jk] = fit_loglog_slope(hs, means)
    return report


def _problem_config(problem: RecoveryProblem) -> dict:
    return {
        "m": problem.m,
        "grid": {
            "n": problem.grid.n,
            "half_width": problem.grid.half_width,
            "center": [problem.grid.center.real, problem.grid.center.imag],
        },
        "mode": problem.mode,
        "probes": [[z.real, z.imag] for z in problem.probes],
        "h_list": list(problem.h_list),
        "solver_tol": problem.solver_tol,
        "max_terms": problem.max_terms,
        "conditioning_bound": CONDITIONING_BOUND,
    }
