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
r = dbar_inv^m(E- * g), which the solve finishes from the chain of its own
a-posteriori check, and u = exp(phase/h) * (a + r).  Adjoint solutions reuse
the same machinery on operators.adjoint with the carrier sign flipped, and so
does the adjoint map T* = E+ . T'(E- .), T' the map of operators.adjoint.  The
transport is the one object per (operator, phase, sign): build_cgo and
transport_norm_probe both take it, and it takes the divergence form, which
to_divergence_form gives from either form.
The map and its loops run on arrays, with fields only at their edges, and a
non-finite norm in a loop (the map overflowed) is a NonContractionError.
The maps follow the precision of their input: a complex64 v runs every
transform in complex64 (CauchyKernel.apply follows its input's dtype), while
E+/-, the coefficients and the sums between the transforms stay in double.
solve_density forms each Neumann term whose predecessor's norm is at most
tol * ||w|| / (10 * float32 eps) that way, since single-precision digits then
suffice for the sum to meet tol, unless the grid's scale would carry the
map's intermediates out of float32's range (_single_range_holds, one rule).
The source, the earlier terms, the sum g, the a-posteriori check and the
remainder stay in double.  The norm probe, which needs 6 digits, applies T
and T* to complex64 copies of its Lanczos vectors under the same range rule,
and keeps the vectors and its arithmetic in double.  A solution keeps only g
and r.  An amplitude is its degree k: conj(z)^k/k!, whose dbar^j the source
takes in closed form, with no stencil, and which is admissible (dbar^m a = 0)
for k < m.  It and recovery's point weights are built by one rule,
_monomial_part; recovery's pairing expands the same monomials in x and y
(recovery._monomial_table), which a test pins against this rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import groupby
from math import factorial, isfinite, log2
from numbers import Integral
from operator import add, itemgetter

import numpy as np
import scipy.ndimage

from .cauchy import cauchy_chain
from .errors import MaxTermsExceededError, NonContractionError, PrecisionError
from .grid import ComplexGrid, ScalarField, _masked_l2, _weighted_p_sum, norm_lp
from .operators import DIVERGENCE, STANDARD, PerturbedOperator, adjoint, apply_values
from .phase import PhaseSpec

DEFAULT_TOL = 1e-10
# the norm probe stops once its estimate moves less than this, relative: poly cgo
# logs the estimate to 6 significant digits, and a rerun's is compared at 1e-6
PROBE_RTOL = 1e-6
PROBE_MAX_STEPS = 20  # the norm probe's cap on Lanczos steps
DEFAULT_MAX_TERMS = 50
# residual_norm runs in np.longdouble, which some platforms make a plain double
LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
# solve_density forms the Neumann tail in complex64 transforms, while the map's
# intermediates stay within 2**+-SINGLE_RANGE_BITS, far inside float32's range
SINGLE_EPS = float(np.finfo(np.float32).eps)
SINGLE_RANGE_BITS = 64


def _monomial_part(base, p: int):
    """base**p / p! by repeated products: the scalar 1.0 for p = 0, base itself for p = 1."""
    if p == 0:
        return 1.0
    if p == 1:
        return base
    out = base * base
    for _ in range(p - 2):
        out *= base
    out /= factorial(p)
    return out


def _oscillate(factors, values: np.ndarray) -> np.ndarray:
    """The oscillation with 1-D factors (ex, ey) times values, complex64 for complex64 values."""
    ex, ey = factors
    out = (ex[:, None] * values) * ey
    return out.astype(np.complex64) if values.dtype == np.complex64 else out


@dataclass(frozen=True)
class AmplitudeSpec:
    """The amplitude conj(z)^degree / degree!; its field is formed only when read."""

    grid: ComplexGrid
    degree: int

    @classmethod
    def monomial(cls, grid: ComplexGrid, k: int) -> "AmplitudeSpec":
        """conj(z)^k / k! in the global coordinate; k a nonnegative integer, not a bool."""
        if isinstance(k, bool) or not isinstance(k, Integral) or k < 0:
            raise ValueError(f"monomial degree must be a nonnegative integer, got {k!r}")
        return cls(grid, int(k))

    def dbar(self, k: int):
        """dbar^k of the amplitude: the n x n monomial of degree - k by _monomial_part,
        the scalar 1.0 at k = degree and 0.0 past it."""
        p = self.degree - k
        if p < 0:
            return 0.0
        return 1.0 if p == 0 else _monomial_part(np.conj(self.grid.nodes), p)

    @property
    def field(self) -> ScalarField:
        return self.grid.constant(1.0) if self.degree == 0 else ScalarField(self.grid, self.dbar(0))

    def check_admissible(self, m: int) -> None:
        """The rule dbar^m a = 0, that is degree < m; a ValueError naming m otherwise."""
        if self.degree >= m:
            raise ValueError(f"degree {self.degree} is not admissible for m={m}: it must be < m")


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

    Built once per (operator, phase, sign); the nonzero coefficients are kept
    as arrays and E+/- as their 1-D factors, so Neumann iterations only pay
    for transforms, and calls take and return arrays.  sign=+1 matches the carrier
    exp(+phase/h), sign=-1 the adjoint-family carrier exp(-phase/h).

    Each call runs one dbar_inv chain for the inner powers and one Horner
    pass of d_inv for the outer sum: apply takes m - min(cols) + m - min(rows)
    transforms, at most 2m.  Since d_inv* = -dbar_inv and dbar_inv* = -d_inv
    for the odd kernel, T* = E+ . T'(E- .) for T' the transport of adjoint(op)
    with the sign flipped; T' opens with E+, which cancels E-, so apply_adjoint
    is E+ . T'._map.
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
        self.cols = sorted({k for _, k in self.active})
        self.e_plus = phase.oscillation_factors(op.grid, sign)
        self.e_minus = phase.oscillation_factors(op.grid, -sign)

    def _horner(self, terms, dtype=np.complex128) -> np.ndarray:
        """sum_i d_inv^(m-i)(y_i) over (i, y_i) pairs in ascending i, by Horner's rule.

        d_inv(y[m-1] + d_inv(y[m-2] + ...)): one d_inv per level from the
        first i to m - 1, so a level with no term still takes its step; each
        level's sum is cast to dtype for its transform.
        """

        def d_inv(acc, power):
            return cauchy_chain(self.grid, acc.astype(dtype, copy=False), power, conj=True)

        acc = level = None
        for i, y in terms:
            acc = y if acc is None else d_inv(acc, i - level) + y
            level = i
        return d_inv(acc, self.op.m - level)

    def _outer_sum(self, x, dtype=np.complex128) -> np.ndarray:
        """-sum_j d_inv^(m-j)(E+ * sum_k c[j,k] * x[k]) over the nonzero coefficients."""
        rows = (
            (j, _oscillate(self.e_plus, reduce(add, (self.coeffs[jk] * x[jk[1]] for jk in row))))
            for j, row in groupby(self.active, key=itemgetter(0))
        )
        return -self._horner(rows, dtype)

    def _chain_map(self, x: np.ndarray):
        """(T after its E- factor, dbar_inv^(m - min(cols))(x)), in x's precision, on a
        transport with a nonzero coefficient: the outer sum of the powers
        dbar_inv^(m-k)(x), each kept as one chain forms it, and that chain's last power."""
        powers, cur = {}, x
        for k in range(self.op.m - 1, self.cols[0] - 1, -1):
            powers[k] = cur = cauchy_chain(self.grid, cur)
        dtype = np.complex64 if x.dtype == np.complex64 else np.complex128
        return self._outer_sum(powers, dtype), cur

    def _map(self, x: np.ndarray) -> np.ndarray:
        """T after its E- factor, the grid's shared read-only zero for a zero x or map."""
        if not self.active or not np.any(x):
            return self.grid.zero().values
        return self._chain_map(x)[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """T(v) on n x n arrays, the grid's shared read-only zero for a zero v or map.

        A complex64 v runs every transform in single precision and gives a
        complex64 result; E+/-, the coefficients and the sums between the
        transforms stay in double, and any other v runs in double.
        """
        return self._map(_oscillate(self.e_minus, v))

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        """Exact discrete L2 adjoint E+ * T'(E- * v), in v's precision as apply is."""
        return _oscillate(self.e_plus, self._adjoint._map(v))

    @cached_property
    def _adjoint(self) -> "OscillatoryTransport":
        """T', built on the first adjoint apply: a transport that is only applied
        forward (recovery, the Neumann solve) holds no copy of the adjoint table."""
        return OscillatoryTransport(adjoint(self.op), self.phase, -self.sign)

    def source(self, amplitude: AmplitudeSpec) -> np.ndarray:
        """Right-hand side, the outer sum of the amplitude's closed-form dbar^k a; the
        grid's shared zero, with no transform, when no coefficient's column k is at
        most the degree (dbar^k a = 0 past it)."""
        if not self.active or self.cols[0] > amplitude.degree:
            return self.grid.zero().values
        return self._outer_sum({k: amplitude.dbar(k) for k in self.cols})


def residual_norm(op: PerturbedOperator, u: ScalarField) -> float:
    """Masked L2 norm of the operator applied to u, in extended precision.

    The 2m-fold stencil chain (operators.apply_values) amplifies double roundoff
    by 1/spacing per derivative, past the truncation error this diagnostic
    measures on fine grids, so it runs in 80-bit arithmetic.  Raises
    PrecisionError where np.longdouble is only a double.
    """
    if op.form != STANDARD:
        raise ValueError("residual evaluation expects the standard form")
    if LONGDOUBLE_EPS >= np.finfo(np.float64).eps:
        raise PrecisionError(LONGDOUBLE_EPS)
    values = apply_values(op, u.values.astype(np.clongdouble), np.longdouble(u.grid.spacing))
    return _masked_l2(u.grid, values)


def _overflow(h: float, what: str, ratios=()) -> NonContractionError:
    """The error for a transport whose arithmetic left the double range."""
    message = f"transport map overflows at h={h}: {what} is not finite"
    return NonContractionError(h, message, ratios)


def _single_range_holds(T: OscillatoryTransport, norm: float) -> bool:
    """Whether T may apply its transforms in complex64 to an input of L2 norm `norm`.

    An input of norm p has rms value p / D on the grid of side D, and each of
    the m transforms of a chain scales by about D, so the map's intermediates
    stay within 2**+-SINGLE_RANGE_BITS, far inside float32's exponent range,
    while |log2(p / D)| + m * |log2 D| <= SINGLE_RANGE_BITS.
    """
    log2_side = log2(2.0 * T.grid.half_width)
    return abs(log2(norm) - log2_side) <= SINGLE_RANGE_BITS - T.op.m * abs(log2_side)


@np.errstate(over="ignore", invalid="ignore")  # each norm is checked and named
def solve_density(
    T: OscillatoryTransport,
    amplitude: AmplitudeSpec,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
):
    """Sum the Neumann series for (I - T) g = w, w = T.source(amplitude), and form
    the remainder r = dbar_inv^m(E- * g), as (g, terms, r).

    Stops when the latest term drops below tol * ||w||_2 and verifies the
    residual ||(I - T)g - w||_2 <= 2 * tol * ||w||_2 a posteriori with one
    extra pass of the map.  That pass's chain reaches
    dbar_inv^(m - min(cols))(E- * g), so r takes only min(cols) more
    transforms; g and r are zero, with no transform, for a zero source.  A
    term formed from a predecessor of norm at most
    tol * ||w||_2 / (10 * SINGLE_EPS) is formed in complex64 transforms:
    single-precision error in it stays near a tenth of tol * ||w||_2.  That
    needs the map's intermediates inside float32's exponent range, so a term
    is formed in single only where _single_range_holds for its predecessor's
    norm.  The source, the earlier terms, the sum g and the a-posteriori
    check stay in double, so the check guards the single-precision terms.  Raises
    NonContractionError when the term norms fail to decrease three times in a
    row or a norm is not finite, MaxTermsExceededError when the budget runs
    out or the check fails; both carry the term-norm ratios
    ||t_k|| / ||t_(k-1)||.
    """
    h, grid = T.phase.h, T.grid
    w = T.source(amplitude)
    w_norm = _weighted_p_sum(grid, w, 2) ** 0.5
    if not isfinite(w_norm):
        raise _overflow(h, "the source")
    if w_norm == 0.0:
        return grid.zero(), 1, grid.zero()
    single_below = tol * w_norm / (10.0 * SINGLE_EPS)
    g = w
    term = w
    prev_norm = w_norm
    ratios = []
    rises = 0
    terms_used = 1
    while True:
        single = prev_norm <= single_below and _single_range_holds(T, prev_norm)
        dtype = np.complex64 if single else np.complex128
        term = T.apply(term.astype(dtype, copy=False))
        t_norm = _weighted_p_sum(grid, term, 2) ** 0.5
        ratios.append(t_norm / prev_norm)
        if not isfinite(t_norm):
            raise _overflow(h, f"Neumann term {terms_used}", ratios)
        if t_norm > 0:
            g = g + term
            terms_used += 1
        if t_norm <= tol * w_norm:
            break
        rises = rises + 1 if t_norm >= prev_norm else 0
        if rises >= 3:
            raise NonContractionError(h, ratios=ratios)
        prev_norm = t_norm
        if terms_used >= max_terms:
            raise MaxTermsExceededError(h, max_terms, ratios=ratios)
    tg, tail = T._chain_map(_oscillate(T.e_minus, g))
    residual = _weighted_p_sum(grid, g - tg - w, 2) ** 0.5
    if not isfinite(residual):
        raise _overflow(h, "the a-posteriori residual", ratios)
    if residual > 2.0 * tol * w_norm:
        raise MaxTermsExceededError(
            h,
            max_terms,
            f"a-posteriori residual {residual:.3e} exceeds 2*tol*||w|| at h={h}",
            ratios,
        )
    del tg, term, w  # none outlives the check
    lowest = T.cols[0]
    r = cauchy_chain(grid, tail, lowest) if lowest else tail
    return ScalarField(grid, g), terms_used, ScalarField(grid, r)


def build_cgo(
    T: OscillatoryTransport,
    amplitude: AmplitudeSpec,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> CGOSolution:
    """The solution on the transport T, for an amplitude that check_admissible passes,
    whose density and remainder solve_density forms; the carrier sign is T's."""
    amplitude.check_admissible(T.op.m)
    g, terms, r = solve_density(T, amplitude, tol, max_terms)
    return CGOSolution(
        phase=T.phase,
        amplitude=amplitude,
        carrier_sign=T.sign,
        g=g,
        r=r,
        neumann_terms=terms,
    )


@lru_cache(maxsize=4)
def smooth_random_field(grid: ComplexGrid, seed: int = 0) -> ScalarField:
    """Unit-L2 random start for the norm probe: white noise smoothed and normalized.
    Formed once per (grid, seed) and shared, as the field is read-only, so a
    sweep over h smooths one start field."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    width = max(2.0, grid.n / 32.0)
    sm = scipy.ndimage.gaussian_filter(raw.real, width) + 1j * scipy.ndimage.gaussian_filter(
        raw.imag, width
    )
    f = ScalarField(grid, sm)
    return f * (1.0 / norm_lp(f, 2))


def _ring(values: np.ndarray) -> np.ndarray:
    """The 4n - 4 boundary entries of an n x n array: where a trapezoid weight is below 1."""
    return np.concatenate((values[0], values[-1], values[1:-1, 0], values[1:-1, -1]))


def _unit(values: np.ndarray):
    """(values / ||values||, ||values||) in double and the plain vdot norm; None for 0."""
    values = values.astype(np.complex128, copy=False)
    norm = float(np.sqrt(np.vdot(values, values).real))
    return (values * (1.0 / norm) if norm else None), norm


def _ritz_ratio(alphas, betas, u_rings, v_rings, c) -> float:
    """||T x||_W / ||x||_W for the top Ritz vector x = V y of the bidiagonal.

    B's top singular triplet (sigma, p, y) gives T x = U B y = sigma U p with
    ||U p|| = ||V y|| = 1, and a field's squared W-norm is proportional to its
    squared plain norm less sum_ring c |f|^2, so only the ring entries are needed.
    """
    B = np.diag(alphas) + np.diag(betas, 1)
    P, sigma, Qh = np.linalg.svd(B)
    tx = reduce(add, (p * ring for p, ring in zip(P[:, 0], u_rings)))
    x = reduce(add, (y * ring for y, ring in zip(Qh[0], v_rings)))
    return float(sigma[0] * np.sqrt((1.0 - c @ np.abs(tx) ** 2) / (1.0 - c @ np.abs(x) ** 2)))


@np.errstate(over="ignore", invalid="ignore")  # alpha and beta are checked and named
def transport_norm_probe(T: OscillatoryTransport, seed: int = 0):
    """Golub-Kahan-Lanczos estimate of the L2 operator norm of T, as (estimate, sweeps).

    Bidiagonalizes T from a random smooth start v_1 in the plain vdot inner
    product, in which apply_adjoint is exact: step k applies T to v_k for
    alpha_k u_k = T v_k - beta_(k-1) u_(k-1), then T* to u_k for
    beta_k v_(k+1) = T* u_k - alpha_k v_k, so T V_k = U_k B_k with B_k upper
    bidiagonal.  Each apply takes a complex64 copy of its vector where
    _single_range_holds for it (a unit vector's L2 norm is about the grid
    spacing), so its transforms run in single precision; the vectors, alpha,
    beta and the Ritz step stay in double.  After the k-th forward apply the
    estimate is ||T x|| / ||x|| in the trapezoid-weighted norm_lp for the top
    Ritz vector x of B_k, the ratio a power iteration on T*T converges to.  There is no
    reorthogonalization, and memory stays flat: two Lanczos vectors, B_k and
    the ring entries of each u_i and v_i are kept (see _ritz_ratio).  The
    iteration stops after step k >= 2 once |est_k - est_(k-1)| <=
    PROBE_RTOL * est_k, or after PROBE_MAX_STEPS steps (the cap); the step that
    stops does not apply T*, and a zero alpha or beta stops with the current
    estimate, while a non-finite one (the map overflowed) raises
    NonContractionError.  sweeps counts the forward applies.  A transport with
    no nonzero coefficient gives (0.0, 0).

    The stop puts the estimate within PROBE_RTOL, relative, of the value the
    iteration settles to.  The rule alone proves no such bound, but the Ritz
    values converge superlinearly, and in every case measured the stopped
    complex64 estimate was that close to the all-double value after 20
    steps: at most 1.9e-7 below it on the four-bump operator of `poly cgo` at
    n = 256 and h = 0.2...0.07 (5 steps at each h, as in double), 2.0e-7 on
    the n = 128 bump testbed, and 5.2e-7 on the n = 32 testbed, where one
    step moved the estimate away from its limit.  In double the same gaps
    were 4.8e-9, 1.9e-8 and 6.3e-7.
    """
    est, k = 0.0, 0
    if not T.active:
        return est, k
    grid = T.grid
    w = grid._trapezoid_1d
    c = 1.0 - _ring(np.outer(w, w))
    # a unit vector in the vdot norm has L2 norm within a factor 2 of the spacing
    dtype = np.complex64 if _single_range_holds(T, grid.spacing) else np.complex128
    v, _ = _unit(smooth_random_field(grid, seed).values)
    alphas, betas, u_rings, v_rings = [], [], [], []
    for k in range(1, PROBE_MAX_STEPS + 1):
        # one expression each, so no unnormalized vector outlives its step
        u, alpha = _unit(T.apply(v.astype(dtype, copy=False)) - (betas[-1] * u if betas else 0.0))
        if not isfinite(alpha):
            raise _overflow(T.phase.h, f"the norm probe's alpha at step {k}")
        if alpha == 0.0:
            break
        alphas.append(alpha)
        u_rings.append(_ring(u))
        v_rings.append(_ring(v))
        prev, est = est, _ritz_ratio(alphas, betas, u_rings, v_rings, c)
        if k == PROBE_MAX_STEPS or (k > 1 and abs(est - prev) <= PROBE_RTOL * est):
            break
        v, beta = _unit(T.apply_adjoint(u.astype(dtype, copy=False)) - alpha * v)
        if not isfinite(beta):
            raise _overflow(T.phase.h, f"the norm probe's beta at step {k}")
        if beta == 0.0:
            break
        betas.append(beta)
    return est, k
