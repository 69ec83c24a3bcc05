"""Quadratic phases with a single critical point and their oscillatory factors.

The phase is i*(z - z0)^2 scaled by a small parameter h.  Its imaginary-part
combination (phase - conj(phase))/h is 2i*Re((z-z0)^2)/h, so the oscillatory
factor is unimodular everywhere while exp(phase/h) itself has a large dynamic
range off the critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

import numpy as np

from .errors import CarrierOverflowError, CouplingError
from .grid import ComplexGrid, ScalarField

# nodes per oscillation required of the grid: spacing <= h / COUPLING_FACTOR
COUPLING_FACTOR = 8.0
# largest exponent whose exp is a finite double
EXP_LIMIT = float(np.log(np.finfo(float).max))


def check_resolution(grid: ComplexGrid, h: float) -> None:
    """The phase-resolution rule, spacing <= h / COUPLING_FACTOR; raises CouplingError."""
    if grid.spacing > h / COUPLING_FACTOR:
        raise CouplingError(
            f"grid spacing {grid.spacing:.6g} exceeds h/{COUPLING_FACTOR:g} = "
            f"{h / COUPLING_FACTOR:.6g} for h={h:.6g} (n={grid.n}, "
            f"half_width={grid.half_width:g})"
        )


@dataclass(frozen=True)
class PhaseSpec:
    """Critical point z0 and scale h of the quadratic phase i*(z - z0)^2."""

    z0: complex
    h: float

    def __post_init__(self):
        if not 0 < self.h < inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")

    def with_h(self, h: float) -> "PhaseSpec":
        return replace(self, h=h)

    def check_grid(self, grid: ComplexGrid) -> None:
        """Enforce the phase-resolution rule and z0 strictly inside the square."""
        check_resolution(grid, self.h)
        d = self.z0 - grid.center
        if not (abs(d.real) < grid.half_width and abs(d.imag) < grid.half_width):
            raise ValueError(f"critical point {self.z0} lies outside the grid square")

    def oscillation_factors(self, grid: ComplexGrid, sign: int = +1):
        """The 1-D factors (ex, ey) of the oscillation, each of length n.

        Re((z - z0)^2) = (x - x0)^2 - (y - y0)^2, so the oscillation is the
        outer product of ex = exp(2i*sign*(x - x0)^2/h) along axis 0 and
        ey = exp(-2i*sign*(y - y0)^2/h) along axis 1.
        """
        t = grid.axis_offsets
        dx = (grid.center.real + t) - self.z0.real
        dy = (grid.center.imag + t) - self.z0.imag
        scale = 2.0 * sign / self.h
        return np.exp(1j * (scale * (dx * dx))), np.exp(-1j * (scale * (dy * dy)))

    def oscillation(self, grid: ComplexGrid, sign: int = +1) -> ScalarField:
        """exp(sign*(phase - conj(phase))/h), the outer product of its 1-D factors."""
        return ScalarField(grid, np.multiply.outer(*self.oscillation_factors(grid, sign)))

    def carrier(self, grid: ComplexGrid, sign: int = +1) -> ScalarField:
        """exp(sign*phase/h); grows off the critical point.

        Raises CarrierOverflowError, naming h, where that growth passes the
        double range, instead of returning infinities.
        """
        exponent = (1j * sign / self.h) * (grid.nodes - self.z0) ** 2
        peak = float(np.max(exponent.real))
        if peak > EXP_LIMIT:
            raise CarrierOverflowError(self.h, peak)
        return ScalarField(grid, np.exp(exponent))
