import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from polycgo import (
    ComplexGrid,
    OscillatoryTransport,
    PerturbedOperator,
    field_from_expression,
    to_divergence_form,
)

# the standard m=2 bump testbed used by cgo/recovery tests: four distinct
# smooth compactly supported coefficients well inside the outer frame
TESTBED_BUMPS = {
    (0, 0): "bump(0.12, 0.08, 0.7, 1)",
    (0, 1): "bump(-0.15, 0.1, 0.7, 0.8)",
    (1, 0): "bump(0.08, -0.15, 0.7, 0.7)",
    (1, 1): "bump(-0.1, -0.12, 0.7, 0.9)",
}


def bump_testbed(grid: ComplexGrid, form: str = "standard") -> PerturbedOperator:
    coeffs = {k: field_from_expression(grid, v) for k, v in TESTBED_BUMPS.items()}
    return PerturbedOperator(grid, 2, coeffs, form=form)


def transport(op: PerturbedOperator, phase, sign: int = +1) -> OscillatoryTransport:
    """The transport of op in either form: what build_cgo and the norm probe take."""
    return OscillatoryTransport(to_divergence_form(op), phase, sign)


@pytest.fixture(scope="session")
def grid64():
    return ComplexGrid(0j, 1.0, 64)


@pytest.fixture(scope="session")
def grid128():
    return ComplexGrid(0j, 1.0, 128)


@pytest.fixture(scope="session")
def grid256():
    return ComplexGrid(0j, 1.0, 256)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
