"""Pointwise recovery of coefficient-difference tables by stationary phase.

The bilinear pairing of two oscillatory families concentrates at the phase's
critical point: for a nondegenerate quadratic phase the leading term of

    sum_{j,k} (-1)^j integral( B[j,k] * dbar^k(u1-part) * d^j(conj v-part) * E+ )

is C * h * sum (-1)^j B[j,k](z0) * weights(z0), with the universal constant
C = pi/2 (the product of two quadratic-phase line integrals).  Pairing with
monomial amplitudes makes the weight matrix triangular, so the differences are
recovered one level of j+k at a time, subtracting what earlier levels already
determined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import factorial, pi

import numpy as np

from .cgo import AmplitudeSpec, _as_divergence, adjoint_divergence, build_cgo
from .errors import DegenerateProbeError
from .grid import ComplexGrid, ScalarField, _dbar, integrate
from .operators import PerturbedOperator
from .phase import PhaseSpec
from .sweeps import fit_loglog_slope

# leading coefficient of the quadratic-phase point pairing: the plane integral
# of exp(2i*Re(z^2)/h) equals (pi/2)*h
STATIONARY_PHASE_CONSTANT = pi / 2.0

SUPPORT_MARGIN = 0.05  # outer frame fraction that must be difference-free
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
    return integrate(phase.oscillation(grid) * chi) / phase.h


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
    chi = plateau_cutoff(grid, phase.z0, plateau, support)
    osc = phase.oscillation(grid)
    z = grid.nodes
    z0 = phase.z0
    j0 = k0 = m - 1
    out = {}
    for j in range(m):
        for k in range(m):
            factor = ScalarField(
                grid,
                (np.conj(z) ** (k0 - k) / factorial(k0 - k))
                * (z ** (j0 - j) / factorial(j0 - j)),
            )
            value = integrate(chi * osc * factor)
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
    return complex(
        (np.conj(z0) ** (k0 - k) / factorial(k0 - k))
        * (z0 ** (j0 - j) / factorial(j0 - j))
    )


class RecoveryProblem:
    """Two same-order operators, probe points, and an h sweep for recovery runs.

    The operators are converted to divergence form; their coefficient
    differences must be compactly supported away from the outer frame (the
    numerical stand-in for boundary-flat data).  The adjoint family's operator
    is built on the first full_cgo pairing and reused for every (z0, h, degree).
    """

    def __init__(
        self,
        op: PerturbedOperator,
        op_tilde: PerturbedOperator,
        probes,
        h_list,
        mode: str = AMPLITUDE_ONLY,
        solver_tol: float = 1e-10,
        max_terms: int = 50,
        conditioning_bound: float = 100.0,
        support_tol: float = 1e-12,
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
        self.conditioning_bound = conditioning_bound
        self._div = _as_divergence(op)
        self._div_tilde = _as_divergence(op_tilde)
        self.differences = {
            (j, k): self._div_tilde.coeff(j, k) - self._div.coeff(j, k)
            for j in range(self.m)
            for k in range(self.m)
        }
        frame = ~self.grid.interior_mask(SUPPORT_MARGIN)
        for (j, k), b in self.differences.items():
            worst = float(np.max(np.abs(b.values) * frame))
            if worst >= support_tol:
                raise ValueError(
                    f"difference ({j},{k}) is not supported away from the frame "
                    f"(max |B| = {worst:.3e} on the outer {SUPPORT_MARGIN:.0%})"
                )
        self._cgo_cache = {}
        self._adjoint_div = None

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
        if cond > self.conditioning_bound:
            raise DegenerateProbeError(
                z0, f"subtraction weights sum to {cond:.3g} > bound {self.conditioning_bound:g}"
            )

    def _cgo_pair(self, z0: complex, h: float, k0: int, j0: int):
        """Oscillatory solutions for both operators, cached per (z0, h, degree)."""
        key_u = ("u", z0, h, k0)
        key_v = ("v", z0, h, j0)
        phase = PhaseSpec(z0, h)
        if key_u not in self._cgo_cache:
            self._cgo_cache[key_u] = build_cgo(
                self._div, phase, AmplitudeSpec.monomial(self.grid, k0),
                tol=self.solver_tol, max_terms=self.max_terms,
            )
        if key_v not in self._cgo_cache:
            if self._adjoint_div is None:
                self._adjoint_div = adjoint_divergence(self.op_tilde)
            self._cgo_cache[key_v] = build_cgo(
                self._adjoint_div, phase, AmplitudeSpec.monomial(self.grid, j0),
                tol=self.solver_tol, max_terms=self.max_terms, sign=-1,
            )
        return self._cgo_cache[key_u], self._cgo_cache[key_v]


def identity_lhs(
    problem: RecoveryProblem, j0: int, k0: int, h: float, z0: complex
) -> complex:
    """Evaluate the bilinear pairing with monomial amplitudes of degrees (k0, j0).

    amplitude_only pairs the pure amplitudes; full_cgo pairs the assembled
    oscillatory solutions, picking up the small remainder cross terms.
    """
    grid = problem.grid
    m = problem.m
    phase = PhaseSpec(z0, h)
    phase.check_grid(grid)
    problem.check_probe(z0)

    z = grid.nodes
    # exact monomial derivative arrays: dbar^k a and d^j conj(b)
    a_parts = {k: np.conj(z) ** (k0 - k) / factorial(k0 - k) for k in range(min(k0, m - 1) + 1)}
    b_parts = {j: z ** (j0 - j) / factorial(j0 - j) for j in range(min(j0, m - 1) + 1)}

    if problem.mode == FULL_CGO:
        u_sol, v_sol = problem._cgo_pair(z0, h, k0, j0)
        # dbar^k r joins dbar^k a, and conj(dbar^j s) joins d^j conj(b)
        for parts, rem, conj in ((a_parts, u_sol.r, False), (b_parts, v_sol.r, True)):
            d = rem.values
            for k in range(m):
                if rem.is_zero():
                    dk = np.zeros_like(d)
                else:
                    d = _dbar(d, grid.spacing) if k else d
                    dk = np.conj(d) if conj else d
                parts[k] = (parts[k] + dk) if k in parts else dk

    # the integrand accumulates in place: one n-by-n array besides the parts
    combined = None
    for (j, k), b_field in sorted(problem.differences.items()):
        if b_field.is_zero() or k not in a_parts or j not in b_parts:
            continue
        sign = -1.0 if j % 2 else 1.0
        term = b_field.values * sign * a_parts[k] * b_parts[j]
        combined = term if combined is None else np.add(combined, term, out=combined)
    if combined is None:
        return 0.0 + 0.0j
    osc = phase.oscillation(grid).values
    return integrate(ScalarField(grid, np.multiply(osc, combined, out=combined)))


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
            prod = np.abs(np.conj(z) ** (k0 - k)) * np.abs(z ** (j0 - j))
            mass += float(np.mean(prod)) * (2 * grid.half_width) ** 2 / (
                factorial(k0 - k) * factorial(j0 - j)
            )
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
    out the target's own parity.  Degenerate probes are listed, not fatal.
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
    recovered = {}  # (j, k, z0, h) -> complex
    for _, j0, k0 in order:
        level_errs = {h: [] for h in problem.h_list}
        truth_field = problem.differences[(j0, k0)]
        target_sign = -1.0 if j0 % 2 else 1.0
        for z0 in usable:
            truth = sample_bilinear(truth_field, z0)
            for h in problem.h_list:
                raw = identity_lhs(problem, j0, k0, h, z0)
                ext = raw / (C * h)
                for j in range(j0 + 1):
                    for k in range(k0 + 1):
                        if (j, k) == (j0, k0):
                            continue
                        sign = -1.0 if j % 2 else 1.0
                        ext -= sign * recovered[(j, k, z0, h)] * _monomial_weight(
                            z0, j0, k0, j, k
                        )
                value = complex(ext / target_sign)
                recovered[(j0, k0, z0, h)] = value
                abs_err = float(abs(value - truth))
                rel_err = abs_err / abs(truth) if truth != 0 else float("inf")
                level_errs[h].append(abs_err)
                report.rows.append(
                    RecoveryRow(
                        m=m, j=j0, k=k0, z0=z0, h=h,
                        extracted=value, truth=truth,
                        abs_err=abs_err, rel_err=rel_err,
                    )
                )
        hs = [h for h in problem.h_list if level_errs[h]]
        means = [float(np.mean(level_errs[h])) for h in hs]
        report.slopes[(j0, k0)] = fit_loglog_slope(hs, means)
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
        "conditioning_bound": problem.conditioning_bound,
    }
