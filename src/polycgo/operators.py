"""Perturbed polyharmonic operators: application, form transforms, adjoints.

An operator of order 2m is the principal part d^m dbar^m plus a total table of
lower-order coefficients c[j,k], 0 <= j,k <= m-1.  Two coefficient conventions
are carried by a form tag:

  standard:    d^m dbar^m u + sum c[j,k] * d^j dbar^k u
  divergence:  d^m dbar^m u + sum d^j ( c[j,k] * dbar^k u )

The two tables are related by a triangular binomial-derivative transform; the
divergence table is the one the oscillatory integral equation consumes.  Each
conversion returns an operator already in its target form unchanged, so a
caller converts without checking the form first.  The formal adjoint (for the
pairing integral of u * conj(v)) takes either form and returns the divergence
form: since d* = -dbar and dbar* = -d, the adjoint of d^j (c * dbar^k .) is
(-1)^(j+k) d^k (conj(c) * dbar^j .), so the adjoint's table is the divergence
table transposed, conjugated and signed, with no derivative taken.  The
transforms differentiate by grid.mixed_wirtinger, d first; apply_values, the
one stencil evaluation of the operator, takes dbar first.
"""

from __future__ import annotations

from math import comb

from .grid import ComplexGrid, ScalarField, _d, _dbar, mixed_wirtinger

STANDARD = "standard"
DIVERGENCE = "divergence"


class PerturbedOperator:
    """Order parameter m plus a total (j, k) coefficient table of ScalarFields."""

    def __init__(self, grid: ComplexGrid, m: int, coeffs=None, form: str = STANDARD):
        if not (isinstance(m, int) and m >= 2):
            raise ValueError(f"m must be an integer >= 2, got {m}")
        if form not in (STANDARD, DIVERGENCE):
            raise ValueError(f"unknown form {form!r}")
        self.grid = grid
        self.m = m
        self.form = form
        table = {}
        coeffs = dict(coeffs or {})
        for j in range(m):
            for k in range(m):
                c = coeffs.pop((j, k), None)
                if c is None:
                    c = grid.zero()
                elif c.grid != grid:
                    raise ValueError(f"coefficient ({j},{k}) lives on a different grid")
                table[(j, k)] = c
        if coeffs:
            raise ValueError(f"coefficient indices out of range: {sorted(coeffs)}")
        self.coeffs = table

    def coeff(self, j: int, k: int) -> ScalarField:
        return self.coeffs[(j, k)]

    def nonzero_indices(self):
        return [(j, k) for (j, k), c in sorted(self.coeffs.items()) if not c.is_zero()]

    def is_unperturbed(self) -> bool:
        return not self.nonzero_indices()

    def __repr__(self):
        nz = self.nonzero_indices()
        return f"PerturbedOperator(m={self.m}, form={self.form}, nonzero={nz})"


def apply_values(op: PerturbedOperator, values, spacing):
    """The operator on an array, in the array's precision (spacing shares it):
    dbar^k u one column at a time, each column's d-derivatives only as far as a
    nonzero coefficient needs them, the principal part d^m dbar^m u last; the
    divergence form sums its rows c[j,k] dbar^k u and applies d^j at the end."""
    m = op.m
    out, rows, col = None, {}, values
    del values  # col alone holds the samples, so the first dbar column frees them
    for k in range(m):
        if k > 0:
            col = _dbar(col, spacing)
        wanted = [j for j in range(m) if not op.coeffs[(j, k)].is_zero()]
        if op.form == DIVERGENCE:
            for j in wanted:
                rows[j] = rows.get(j, 0) + op.coeffs[(j, k)].values * col
            continue
        cur = col
        for j in range(wanted[-1] + 1 if wanted else 0):
            if j > 0:
                cur = _d(cur, spacing)
            if j in wanted:
                term = op.coeffs[(j, k)].values * cur
                out = term if out is None else out + term
    for j, row in sorted(rows.items()):
        for _ in range(j):
            row = _d(row, spacing)
        out = row if out is None else out + row
    col = _dbar(col, spacing)
    for _ in range(m):
        col = _d(col, spacing)
    return col if out is None else out + col


def apply(op: PerturbedOperator, u: ScalarField) -> ScalarField:
    """Evaluate the operator on u with repeated Wirtinger stencils (apply_values)."""
    if u.grid != op.grid:
        raise ValueError("u lives on a different grid than the coefficients")
    return ScalarField(op.grid, apply_values(op, u.values, op.grid.spacing))


def to_divergence_form(op: PerturbedOperator) -> PerturbedOperator:
    """Solve the triangular binomial-derivative system for the divergence table.

    Top-down in j: the highest row transfers unchanged, and each lower row is
    the standard coefficient minus the derivative spill-over of the rows above.
    An operator already in divergence form is returned as it is.
    """
    if op.form == DIVERGENCE:
        return op
    m = op.m
    new = {}
    for k in range(m):
        new[(m - 1, k)] = op.coeff(m - 1, k)
        for j in range(m - 2, -1, -1):
            acc = op.coeff(j, k)
            for l in range(j + 1, m):
                upper = new[(l, k)]
                if not upper.is_zero():
                    acc = acc - comb(l, j) * mixed_wirtinger(upper, l - j, 0)
            new[(j, k)] = acc
    return PerturbedOperator(op.grid, m, new, form=DIVERGENCE)


def to_standard_form(op: PerturbedOperator) -> PerturbedOperator:
    """Forward evaluation of the binomial-derivative sum; an operator already in
    standard form is returned as it is."""
    if op.form == STANDARD:
        return op
    m = op.m
    new = {}
    for k in range(m):
        for j in range(m):
            acc = op.coeff(j, k)
            for l in range(j + 1, m):
                c = op.coeff(l, k)
                if not c.is_zero():
                    acc = acc + comb(l, j) * mixed_wirtinger(c, l - j, 0)
            new[(j, k)] = acc
    return PerturbedOperator(op.grid, m, new, form=STANDARD)


def adjoint(op: PerturbedOperator) -> PerturbedOperator:
    """Divergence form of the formal adjoint: the divergence table of op, transposed,
    conjugated and signed (-1)^(j+k), over its nonzero entries only, so the
    adjoint of the adjoint is that table bit for bit.  The principal part is
    formally self-adjoint."""
    op = to_divergence_form(op)
    new = {}
    for j, k in op.nonzero_indices():
        c = op.coeff(j, k)
        new[(k, j)] = -c.conj() if (j + k) % 2 else c.conj()
    return PerturbedOperator(op.grid, op.m, new, form=DIVERGENCE)
