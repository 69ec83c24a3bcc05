"""Quadratic phases with a single critical point and their oscillatory factors.

The phase is i*(z - z0)^2 scaled by a small parameter h.  Its imaginary-part
combination (phase - conj(phase))/h is 2i*Re((z-z0)^2)/h, so the oscillatory
factor is unimodular everywhere while exp(phase/h) itself has a large dynamic
range off the critical point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CarrierOverflowError, CouplingError
from .grid import ComplexGrid, ScalarField

# nodes per oscillation required of the grid: spacing <= h / COUPLING_FACTOR
COUPLING_FACTOR = 8.0
# largest exponent whose exp is a finite double
EXP_LIMIT = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class PhaseSpec:
    """Critical point z0 and scale h of the quadratic phase i*(z - z0)^2."""

    z0: complex
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")

    def with_h(self, h: float) -> "PhaseSpec":
        return replace(self, h=h)

    def check_grid(self, grid: ComplexGrid) -> None:
        """Enforce the phase-resolution rule and z0 strictly inside the square."""
        if grid.spacing > self.h / COUPLING_FACTOR:
            raise CouplingError(
                f"grid spacing {grid.spacing:.6g} exceeds h/{COUPLING_FACTOR:g} = "
                f"{self.h / COUPLING_FACTOR:.6g} for h={self.h:.6g} (n={grid.n}, "
                f"half_width={grid.half_width:g})"
            )
        d = self.z0 - grid.center
        if not (abs(d.real) < grid.half_width and abs(d.imag) < grid.half_width):
            raise ValueError(f"critical point {self.z0} lies outside the grid square")

    def phase_values(self, grid: ComplexGrid) -> ScalarField:
        """The phase i*(z - z0)^2 itself (no h scaling)."""
        return grid.sample(lambda z: 1j * (z - self.z0) ** 2)

    def oscillation(self, grid: ComplexGrid, sign: int = +1) -> ScalarField:
        """exp(sign*(phase - conj(phase))/h); unimodular by construction."""
        w = (2.0 * sign / self.h) * np.real((grid.nodes - self.z0) ** 2)
        return ScalarField(grid, np.exp(1j * w))

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
