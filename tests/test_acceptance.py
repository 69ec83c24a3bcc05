"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Grid sizes follow the stated criteria where pinned (n=256/512/1024 for the
inverse identity, n=1024 for the disc indicator, n=2048 for the decay sweep,
the residual refinement pair, the quadratic-phase constant, and the pointwise
recovery); the remaining criteria run at the largest size their transform
count affords on one core.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import TESTBED_BUMPS, bump_testbed, transport
from support import gaussian_bump

from polycgo import (
    AMPLITUDE_ONLY,
    FULL_CGO,
    STATIONARY_PHASE_CONSTANT,
    AmplitudeSpec,
    ComplexGrid,
    PerturbedOperator,
    PhaseSpec,
    RecoveryProblem,
    build_cgo,
    dbar_inv,
    extraction_noise_floor,
    field_from_expression,
    fit_loglog_slope,
    identity_lhs,
    masked_l2,
    norm_hm,
    norm_lp,
    oscillatory_decay_probe,
    recover_all,
    residual_norm,
    sample_bilinear,
    stationary_phase_calibration,
    to_divergence_form,
    transport_norm_probe,
    wirtinger_dbar,
)
from polycgo.cli import main

H_SWEEP = (0.2, 0.14, 0.1, 0.07, 0.05)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d} {name}: {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_01_cauchy_inverse_identity():
    errs = []
    for n in (256, 512, 1024):
        g = ComplexGrid(0j, 1.0, n)
        f = g.sample(gaussian_bump(sigma=0.15))
        errs.append(norm_lp(wirtinger_dbar(dbar_inv(f)) - f, 2) / norm_lp(f, 2))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = errs[0] <= 1e-2 and all(r >= 3.0 for r in ratios)
    report(1, "cauchy inverse identity", ok,
           f"rel errs {[f'{e:.2e}' for e in errs]}, per-doubling ratios "
           f"{[f'{r:.2f}' for r in ratios]} (need <=1e-2 and >=3x)")


def test_criterion_02_disc_indicator_closed_form():
    g = ComplexGrid(0j, 1.0, 1024)
    R = 0.5
    f = g.sample(lambda z: (np.abs(z) < R).astype(complex))
    t = dbar_inv(f)
    inside = np.abs(g.nodes) < 0.9 * R
    err = float(np.max(np.abs(t.values - np.conj(g.nodes))[inside]))
    ok = err <= 5.0 * g.spacing
    report(2, "disc indicator transform", ok,
           f"max err {err:.3e} vs 5*spacing {5 * g.spacing:.3e}")


def test_criterion_03_oscillatory_decay():
    g = ComplexGrid(0j, 1.0, 2048)
    omega = g.sample(gaussian_bump(sigma=0.25))
    phase = PhaseSpec(0.05 + 0.05j, 0.2)
    s2, s4 = (p.slope for p in oscillatory_decay_probe(omega, phase, [2.0, 4.0], H_SWEEP))
    ok = s2 >= 0.5 and s4 >= 0.2
    report(3, "oscillatory decay exponents", ok,
           f"L2 slope {s2:.3f} (>=0.5), L4 slope {s4:.3f} (>=0.2)")


def test_criterion_04_transport_contraction():
    g = ComplexGrid(0j, 1.0, 512)
    op = to_divergence_form(bump_testbed(g))
    norms = [
        transport_norm_probe(transport(op, PhaseSpec(0.1 + 0.1j, h)), seed=0)[0]
        for h in H_SWEEP
    ]
    slope = fit_loglog_slope(H_SWEEP, norms)
    contraction = all(est < 1.0 for est in norms)
    ok = slope >= 0.4 and contraction
    report(4, "transport-map contraction", ok,
           f"slope {slope:.3f} (>=0.4), norms "
           f"{[f'{v:.3f}' for v in norms]} all < 1: {contraction}")


def test_criterion_05_remainder_scaling():
    g = ComplexGrid(0j, 1.0, 512)
    slopes = {}
    for m, op in (
        (2, bump_testbed(g)),
        (3, PerturbedOperator(g, 3, {
            (0, 0): field_from_expression(g, "bump(0.12, 0.08, 0.7, 1)"),
            (2, 2): field_from_expression(g, "bump(-0.1, -0.12, 0.7, 0.9)"),
        })),
    ):
        a = AmplitudeSpec.monomial(g, 0)
        op_div = to_divergence_form(op)
        r_hm = [
            norm_hm(build_cgo(transport(op_div, PhaseSpec(0.1 + 0.1j, h)), a).r, m)
            for h in H_SWEEP
        ]
        slopes[m] = fit_loglog_slope(H_SWEEP, r_hm)
    unperturbed = build_cgo(
        transport(PerturbedOperator(g, 2), PhaseSpec(0.1 + 0.1j, 0.1)),
        AmplitudeSpec.monomial(g, 1),
    )
    exact_zero = unperturbed.r.is_zero() and unperturbed.g.is_zero()
    ok = all(s >= 0.45 for s in slopes.values()) and exact_zero
    report(5, "remainder H^m scaling", ok,
           f"slopes m=2: {slopes[2]:.3f}, m=3: {slopes[3]:.3f} (>=0.45); "
           f"unperturbed remainder bit-exact zero: {exact_zero}")


def test_criterion_06_residual_refinement():
    # the domain is widened so the truncation error at n=2048 stays above the
    # float64 noise floor of the 2m-fold stencil chain (eps amplified by
    # ~1/spacing per derivative applied to the assembled solution); on
    # [-1, 1]^2 that floor (~5e-4 relative at n=2048) exceeds the truncation
    # signal and no assembly accuracy can recover the refinement ratio
    rels = []
    for n in (1024, 2048):
        g = ComplexGrid(0j, 2.5, n)
        op = PerturbedOperator(
            g, 2, {(0, 0): field_from_expression(g, "bump(0.12, 0.08, 0.7, 1)")}
        )
        sol = build_cgo(transport(op, PhaseSpec(0.1 + 0.1j, 0.1)), AmplitudeSpec.monomial(g, 0),
                        tol=1e-8)
        u = sol.u
        rels.append(residual_norm(op, u) / masked_l2(u))
    ok = rels[0] / rels[1] >= 4.0
    report(6, "residual refinement", ok,
           f"relative residuals {rels[0]:.3e} -> {rels[1]:.3e}, "
           f"ratio {rels[0] / rels[1]:.2f} (>=4)")


def test_criterion_07_stationary_phase_constant():
    g = ComplexGrid(0j, 1.0, 2048)
    c = stationary_phase_calibration(g, PhaseSpec(0.05 + 0.02j, 0.02))
    rel = abs(c - STATIONARY_PHASE_CONSTANT) / STATIONARY_PHASE_CONSTANT
    ok = rel <= 0.05
    report(7, "quadratic-phase constant", ok,
           f"measured {c:.6f}, pi/2 = {STATIONARY_PHASE_CONSTANT:.6f}, "
           f"rel dev {rel:.4f} (<=0.05)")


def test_criterion_08_single_coefficient_recovery():
    g = ComplexGrid(0j, 1.0, 2048)
    R = 0.7
    L = PerturbedOperator(g, 2, form="divergence")
    Lt = PerturbedOperator(
        g, 2, {(0, 0): field_from_expression(g, f"bump(0, 0, {R}, 1)")},
        form="divergence",
    )
    half_max_radius = R * np.sqrt(np.log(2.0) / (1.0 + np.log(2.0)))
    z0 = complex(half_max_radius, 0.0)
    prob = RecoveryProblem(L, Lt, [z0], H_SWEEP, mode=AMPLITUDE_ONLY)
    rep = recover_all(prob)
    rows = sorted((r for r in rep.rows if (r.j, r.k) == (0, 0)), key=lambda r: -r.h)
    rel_at_smallest = rows[-1].rel_err
    slope = rep.slopes[(0, 0)]
    ok = rel_at_smallest <= 0.10 and 0.7 <= slope <= 1.3
    report(8, "single-coefficient recovery", ok,
           f"rel err {rel_at_smallest:.4f} at h={rows[-1].h} (<=0.10), "
           f"error slope {slope:.3f} (in [0.7, 1.3])")


def test_criterion_09_full_triangular_recovery():
    g = ComplexGrid(0j, 1.0, 1024)
    L = PerturbedOperator(g, 2, form="divergence")
    Lt = PerturbedOperator(
        g, 2,
        {k: field_from_expression(g, text) for k, text in TESTBED_BUMPS.items()},
        form="divergence",
    )
    probes = (0.08 + 0.08j, -0.1 + 0.04j, 0.04 - 0.12j)
    rep = recover_all(RecoveryProblem(L, Lt, probes, H_SWEEP, mode=AMPLITUDE_ONLY))
    h_min = min(r.h for r in rep.rows)
    worst = max(r.rel_err for r in rep.rows if r.h == h_min)

    # zero-difference control: identical operators, extraction magnitudes
    # must sit below 10x the quadrature roundoff floor
    control = recover_all(
        RecoveryProblem(Lt, Lt, probes, (H_SWEEP[0], H_SWEEP[-1]), mode=AMPLITUDE_ONLY)
    )
    floors = {
        (r.j, r.k, r.z0, r.h): extraction_noise_floor(g, r.j, r.k, r.h, r.z0)
        for r in control.rows
    }
    control_ok = all(
        abs(r.extracted) <= 10.0 * floors[(r.j, r.k, r.z0, r.h)] for r in control.rows
    )
    ok = worst <= 0.15 and control_ok
    report(9, "full triangular recovery", ok,
           f"worst rel err {worst:.4f} at h={h_min} over 4 coefficients x 3 probes "
           f"(<=0.15); zero-difference control below 10x noise floor: {control_ok}")


def test_criterion_10_remainder_negligibility():
    g = ComplexGrid(0j, 1.0, 512)
    base = field_from_expression(g, "bump(-0.05, 0.05, 0.75, 0.6)")
    diff = field_from_expression(g, "bump(0.12, 0.08, 0.7, 1)")
    L = PerturbedOperator(g, 2, {(0, 0): base}, form="divergence")
    Lt = PerturbedOperator(g, 2, {(0, 0): base + diff}, form="divergence")
    z0 = 0.08 + 0.08j
    gaps = []
    for h in H_SWEEP:
        amp = identity_lhs(
            RecoveryProblem(L, Lt, [z0], [h], mode=AMPLITUDE_ONLY), 0, 0, h, z0
        )
        full = identity_lhs(
            RecoveryProblem(L, Lt, [z0], [h], mode=FULL_CGO), 0, 0, h, z0
        )
        gaps.append((h, abs(full - amp)))
    slope = fit_loglog_slope([r[0] for r in gaps], [r[1] for r in gaps])
    ok = slope >= 1.0
    report(10, "remainder contributions are higher order", ok,
           f"|full - amplitude| slope {slope:.3f} (>=1.0), gaps "
           f"{[f'{v:.2e}' for _, v in gaps]}")


def test_criterion_11_m3_recovery(tmp_path):
    # configs/recover_m3.json: nine differences at m = 3 recovered in full_cgo
    # mode, about 10 s on one core; the levels j + k = 3 and 4 are the
    # perturbation orders m to 2m - 2
    out = tmp_path / "run"
    code = main(["recover", "--config", str(CONFIGS / "recover_m3.json"), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    worst = next(
        float(line.split(",")[1])
        for line in (out / "slopes.csv").read_text().splitlines()
        if line.startswith("worst_rel_err_smallest_h,")
    )
    slopes = {jk: manifest["slopes"][jk] for jk in ("1,2", "2,1", "2,2")}
    ok = code == 0 and worst <= 0.15 and all(s > 0 for s in slopes.values())
    report(11, "m = 3 recovery", ok,
           f"exit {code}, worst rel err {worst:.4f} at the smallest h (<=0.15), "
           f"error slopes {', '.join(f'({jk}) {s:.2f}' for jk, s in slopes.items())} (>0)")
