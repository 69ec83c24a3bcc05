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
amplitude moments X_s^T B Y_s of every planned step come from one batch: the
first step stacks R = [Y_s for every step] and takes B @ R once per nonzero
difference and group of up to n / (8(2m - 1)) steps, so each n-by-n
difference is read once per group, not once per step.  Every moment is taken
over its difference's support box, the rows and columns where B is nonzero:
ScalarField.box, found on the first read of each difference and kept, so
each difference is scanned whole for its support once per problem.  Where G
vanishes off the box, X^T G Y is X[rows]^T G[box] Y[cols], up to the order
BLAS sums in, so each product and each G of full_cgo is formed on the box
alone.  The remainder derivatives stay full-grid, since their stencils
read neighbouring nodes.  The point weights are cgo._monomial_part, the
rule AmplitudeSpec.monomial builds on.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb, factorial, pi
from typing import NamedTuple

import numpy as np

from .cauchy import fit_loglog_slope
from .cgo import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    AmplitudeSpec,
    OscillatoryTransport,
    _monomial_part,
    build_cgo,
)
from .errors import DegenerateProbeError, PairingOverflowError
from .grid import ScalarField, _dbar
from .operators import PerturbedOperator, adjoint, to_divergence_form
from .phase import PhaseSpec

# leading coefficient of the quadratic-phase point pairing: the plane integral
# of exp(2i*Re(z^2)/h) equals (pi/2)*h
STATIONARY_PHASE_CONSTANT = pi / 2.0

SUPPORT_MARGIN = 0.05  # outer frame fraction that must be difference-free
SUPPORT_TOL = 1e-12  # largest |difference| allowed on that frame
CONDITIONING_BOUND = 100.0  # largest sum of a probe's subtraction weights
AMPLITUDE_ONLY = "amplitude_only"
FULL_CGO = "full_cgo"


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


class ProbePlan(NamedTuple):
    """The probes a recovery pairs at, and the degenerate ones with their reasons."""

    usable: tuple
    degenerate: tuple


class RecoveryProblem:
    """Two same-order operators, probe points, and an h sweep for recovery runs.

    The operators are converted to divergence form; their coefficient
    differences must be compactly supported away from the outer frame (the
    numerical stand-in for boundary-flat data).  The adjoint family's operator
    is built on the first full_cgo pairing.  Only one (z0, h) step is kept, as
    step(z0, h) returns it; its transports, remainder derivatives and arrays G
    live only while it is built.  The amplitude moments of every step of the
    plan (each usable probe at each h) are formed together on the first step,
    not at construction, and each step takes its own when it is built.
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
        self.grid = op.grid
        self.m = op.m
        self.probes = tuple(complex(z) for z in probes)
        self.h_list = tuple(sorted((float(h) for h in h_list), reverse=True))
        self.mode = mode
        self.solver_tol = solver_tol
        self.max_terms = max_terms
        self._div = to_divergence_form(op)
        self._div_tilde = to_divergence_form(op_tilde)
        self.differences = {}
        for j in range(self.m):
            for k in range(self.m):
                base, tilde = self._div.coeff(j, k), self._div_tilde.coeff(j, k)
                # a zero base leaves the tilde coefficient itself: x - 0.0 is x
                self.differences[(j, k)] = tilde if base.is_zero() else tilde - base
        outer = ~self.grid.interior_axis(SUPPORT_MARGIN)
        for (j, k), b in self.differences.items():
            # the frame is the outer rows and the outer columns
            worst = float(max(np.abs(b.values[outer]).max(), np.abs(b.values[:, outer]).max()))
            if worst >= SUPPORT_TOL:
                raise ValueError(
                    f"difference ({j},{k}) is not supported away from the frame "
                    f"(max |B| = {worst:.3e} on the outer {SUPPORT_MARGIN:.0%})"
                )
        self._step = None
        self._batch = None  # {(z0, h): amplitude moments} of the plan's steps not yet built

    @cached_property
    def plan(self) -> ProbePlan:
        """Each probe checked once: recover_all, identity_lhs and the moment batch read this."""
        usable, degenerate = [], []
        for z0 in self.probes:
            try:
                self.check_probe(z0)
                usable.append(z0)
            except DegenerateProbeError as exc:
                degenerate.append((z0, exc.reason))
        return ProbePlan(tuple(usable), tuple(degenerate))

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
            if self._batch is None:
                self._batch = self._amplitude_moments(
                    [(z, hh) for z in self.plan.usable for hh in self.h_list]
                )
            # a step outside the plan, or one built before, forms its own
            amplitude = self._batch.pop((z0, h), None)
            if amplitude is None:
                amplitude = self._amplitude_moments([(z0, h)])[(z0, h)]
            remainders = self._remainders(z0, h) if self.mode == FULL_CGO else {}
            self._step = (z0, h), (remainders, self._moments(z0, h, remainders, amplitude))
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

    def _factors(self, z0: complex, h: float):
        """(X^T, Y) of the (z0, h) step: X[:, p] = w*ex*x^p, Y[:, q] = w*ey*y^q, p, q < 2m - 1."""
        grid = self.grid
        ex, ey = PhaseSpec(z0, h).oscillation_factors(grid)
        w, t = grid._trapezoid_1d[:, None], grid.axis_offsets[:, None]
        powers = np.arange(2 * self.m - 1)
        x, y = grid.center.real + t, grid.center.imag + t
        return (w * ex[:, None] * x**powers).T, w * ey[:, None] * y**powers

    @np.errstate(over="ignore", invalid="ignore")  # identity_lhs checks the pairing's value
    def _amplitude_moments(self, steps) -> dict:
        """{step: {(j, k): X^T B Y}} over the nonzero B[j,k], for every (z0, h) step given.

        R = [Y_s for each step s] is stacked, B @ R is taken once per
        difference over B's support box, and each step's block of it meets
        the box rows of that step's X^T.  Steps go in groups of at most
        n / (8(2m - 1)), so R, B @ R and the stacked X^T each hold at most an
        eighth of an n-by-n array; a plan that fits one group reads each
        difference once.
        """
        n, width = self.grid.n, 2 * self.m - 1
        size = max(1, n // (8 * width))
        nonzero = [(jk, b) for jk, b in sorted(self.differences.items()) if not b.is_zero()]
        moments = {}
        for start in range(0, len(steps), size):
            group = steps[start:start + size]
            blocks = [slice(i * width, (i + 1) * width) for i in range(len(group))]
            right, lefts = np.empty((n, width * len(group)), dtype=np.complex128), []
            for (z0, h), block in zip(group, blocks):
                left, right[:, block] = self._factors(z0, h)
                lefts.append(left)
            tables = [moments.setdefault(step, {}) for step in group]
            for jk, b in nonzero:
                rows, cols = b.box
                by = b.values[rows, cols] @ right[cols]
                for left, block, table in zip(lefts, blocks, tables):
                    table[jk] = left[:, rows] @ by[:, block]
                del by  # freed before the next difference's product is allocated
        return moments

    @np.errstate(over="ignore", invalid="ignore")  # identity_lhs checks the pairing's value
    def _moments(self, z0: complex, h: float, remainders: dict, amplitude: dict) -> dict:
        """The step's moment table around its amplitude moments; each remainder
        array G is formed once and dropped after its pass, and X and Y only
        when a remainder is nonzero.

        G @ Y runs first: BLAS streams the n-by-n array far faster against a
        few columns than against a few rows.
        """
        grid, m = self.grid, self.m
        # {degree: [dbar^k r for k < m]} per family, conjugated for s: the form the pairing reads
        rs, ss = {}, {}
        for (sign, degree), r in remainders.items():
            if not r.is_zero():
                d, derivatives = r.values, []
                for k in range(m):
                    d = _dbar(d, grid.spacing) if k else d
                    derivatives.append(np.conj(d) if sign < 0 else d)
                (rs if sign > 0 else ss)[degree] = derivatives
        moments = {jk: {(None, None): a} for jk, a in amplitude.items()}
        if not (rs or ss):
            return moments
        left, right = self._factors(z0, h)
        for (j, k), table in moments.items():
            b = self.differences[(j, k)]
            rows, cols = b.box
            b, x, y = b.values[rows, cols], left[:, rows], right[cols]
            for js, s in ss.items():
                table[(None, js)] = x @ ((b * s[j][rows, cols]) @ y)
            for kr, r in rs.items():
                g = b * r[k][rows, cols]
                table[(kr, None)] = x @ (g @ y)
                for js, s in ss.items():
                    table[(kr, js)] = x @ ((g * s[j][rows, cols]) @ y)
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
    if z0 not in problem.plan.usable:
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
    usable, degenerate = problem.plan
    report = RecoveryReport(degenerate=list(degenerate), config=_problem_config(problem))

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
