import tracemalloc
from collections import Counter
from math import factorial

import numpy as np
import pytest

from support import (
    dblquad_complex,
    extraction_noise_floor,
    oscillatory_integral,
    plateau_cutoff,
    quad_complex,
    sample,
    stationary_phase_calibration,
)

from polycgo import (
    AMPLITUDE_ONLY,
    FULL_CGO,
    STATIONARY_PHASE_CONSTANT,
    ComplexGrid,
    DegenerateProbeError,
    PairingOverflowError,
    PerturbedOperator,
    PhaseSpec,
    RecoveryProblem,
    ScalarField,
    field_from_expression,
    identity_lhs,
    mixed_wirtinger,
    recover_all,
    sample_bilinear,
)
from polycgo import recovery
from polycgo.cgo import _monomial_part


def single_bump_problem(n=256, mode=AMPLITUDE_ONLY, h_list=(0.2, 0.14, 0.1), m=2,
                        bump="bump(0, 0, 0.7, 1)", probes=(0.2 + 0.1j,)):
    g = ComplexGrid(0j, 1.0, n)
    L = PerturbedOperator(g, m, form="divergence")
    Lt = PerturbedOperator(g, m, {(0, 0): field_from_expression(g, bump)}, form="divergence")
    return RecoveryProblem(L, Lt, probes, h_list, mode=mode)


class TestFresnelConstant:
    def test_1d_quadrature_product_oracle(self):
        # the plane integral of exp(2i*Re(z^2)/h) splits into two line
        # integrals; high-resolution quadrature of each (with a smooth, wide
        # window) must reproduce sqrt(pi h/2) exp(+-i pi/4), so the product is
        # (pi/2) h -- the constant the extraction divides by
        h = 0.05

        def window(t):
            # plateau 1 on |t|<=0.6, smooth to 0 by |t|=1.4
            a = np.clip((1.4 - abs(t)) / 0.8, 0.0, 1.0)
            return np.where(
                a >= 1.0, 1.0, np.where(a <= 0.0, 0.0, np.exp(1.0 - 1.0 / np.maximum(a, 1e-12)))
            )

        plus = quad_complex(lambda t: np.exp(2j * t * t / h) * window(t), -1.4, 1.4,
                            epsabs=1e-12, epsrel=1e-12, limit=2000)
        minus = quad_complex(lambda t: np.exp(-2j * t * t / h) * window(t), -1.4, 1.4,
                             epsabs=1e-12, epsrel=1e-12, limit=2000)
        expect = np.sqrt(np.pi * h / 2.0) * np.exp(1j * np.pi / 4.0)
        assert plus == pytest.approx(expect, rel=1e-2)
        assert minus == pytest.approx(np.conj(expect), rel=1e-2)
        product = plus * minus
        assert product == pytest.approx(np.pi * h / 2.0, rel=1e-2)
        assert STATIONARY_PHASE_CONSTANT == pytest.approx(np.pi / 2.0)

    def test_grid_calibration_approaches_constant(self):
        g = ComplexGrid(0j, 1.0, 512)
        vals = []
        for h in (0.1, 0.05):
            c = stationary_phase_calibration(g, PhaseSpec(0.05 + 0.02j, h))
            vals.append(abs(c - STATIONARY_PHASE_CONSTANT) / STATIONARY_PHASE_CONSTANT)
        assert vals[-1] <= 0.02
        assert vals[-1] < vals[0]

    def test_cutoff_shape(self, grid128):
        chi = plateau_cutoff(grid128, 0.1 + 0.1j, 0.2, 0.4)
        r = np.abs(grid128.nodes - (0.1 + 0.1j))
        assert np.allclose(chi.values[r <= 0.19], 1.0)
        assert np.all(chi.values[r >= 0.41] == 0.0)
        assert np.all((np.abs(chi.values) <= 1.0 + 1e-15))

    def test_per_index_empirical_constants(self):
        # the measured leading constant of each (j, k) term when targeting
        # (m-1, m-1): a plateau cutoff at the critical point times the term's
        # monomial amplitude factors, paired, over h and the point weight
        g = ComplexGrid(0j, 1.0, 512)
        z = g.nodes
        base = np.pi / 2.0

        def empirical_constants(phase, m):
            chi = plateau_cutoff(g, phase.z0, 0.3, 0.6).values
            j0 = k0 = m - 1
            return {
                (j, k): oscillatory_integral(
                    phase, g, chi * _monomial_part(np.conj(z), k0 - k) * _monomial_part(z, j0 - j)
                ) / (phase.h * recovery._monomial_weight(phase.z0, j0, k0, j, k))
                for j in range(m)
                for k in range(m)
            }

        # m=2: every index within 10% at h=0.05
        cs = empirical_constants(PhaseSpec(0.25 + 0.2j, 0.05), 2)
        assert max(abs(v - base) / base for v in cs.values()) <= 0.10
        # higher indices carry curved monomial weights whose corrections are
        # first order in h: the worst deviation must shrink with h
        worst = {}
        for h in (0.1, 0.05):
            cs3 = empirical_constants(PhaseSpec(0.25 + 0.2j, h), 3)
            worst[h] = max(abs(v - base) / base for v in cs3.values())
        assert worst[0.05] < worst[0.1]


class TestDifferences:
    def test_difference_against_a_zero_base_is_the_table_itself(self):
        g = ComplexGrid(0j, 1.0, 64)
        bump = field_from_expression(g, "bump(0.1, 0, 0.6, 1)")
        L = PerturbedOperator(g, 2, {(0, 0): bump}, form="divergence")
        Lt = PerturbedOperator(g, 2, {(0, 0): 2.0 * bump, (1, 0): -0.0 * bump,
                                      (0, 1): 0.5j * bump}, form="divergence")
        prob = RecoveryProblem(L, Lt, [0.1 + 0.1j], [0.3])
        for jk, b in prob.differences.items():
            base, tilde = L.coeff(*jk), Lt.coeff(*jk)
            if base.is_zero():
                assert b is tilde
            else:
                assert b is not tilde and np.array_equal(b.values, tilde.values - base.values)
        assert np.array_equal(prob.differences[(0, 0)].values, bump.values)

    def test_frame_check_names_the_worst_frame_value(self):
        g = ComplexGrid(0j, 1.0, 64)
        edge = np.zeros((64, 64), dtype=complex)
        edge[40, -1], edge[0, 20], edge[32, 32] = 3e-6, -2e-6j, 5.0
        L = PerturbedOperator(g, 2, form="divergence")
        Lt = PerturbedOperator(g, 2, {(1, 1): ScalarField(g, edge)}, form="divergence")
        message = r"difference \(1,1\) is not supported .*\(max \|B\| = 3\.000e-06 on the outer 5%\)"
        with pytest.raises(ValueError, match=message):
            RecoveryProblem(L, Lt, [0.1 + 0.1j], [0.3])


class TestIdentity:
    def test_identical_operators_give_zero(self):
        g = ComplexGrid(0j, 1.0, 128)
        coeffs = {(0, 0): field_from_expression(g, "bump(0.1, 0, 0.6, 1)")}
        L = PerturbedOperator(g, 2, dict(coeffs), form="divergence")
        Lt = PerturbedOperator(g, 2, dict(coeffs), form="divergence")
        prob = RecoveryProblem(L, Lt, [0.1 + 0.1j], [0.3, 0.2])
        assert identity_lhs(prob, 0, 0, 0.3, 0.1 + 0.1j) == 0
        rep = recover_all(prob)
        assert all(r.extracted == 0 for r in rep.rows)

    @pytest.mark.parametrize(
        "perturbed, mode, m",
        [(True, FULL_CGO, 2), (False, FULL_CGO, 2), (True, AMPLITUDE_ONLY, 2),
         (False, AMPLITUDE_ONLY, 2), (True, FULL_CGO, 3), (True, AMPLITUDE_ONLY, 3)],
        ids=["both", "tilde_only", "both-amplitude_only", "tilde_only-amplitude_only",
             "m3", "m3-amplitude_only"],
    )
    def test_array_path_matches_field_composition(self, perturbed, mode, m):
        # the pairing built from fields, term by term, must agree to roundoff
        # (the moment path sums the same terms in another order); at m=2, (1,0)
        # brings a negative-parity term and (0,1) a degree-0 amplitude part; at
        # m=3 the table reaches degree-2 monomials and a level above the target
        g = ComplexGrid(0j, 1.0, 128)
        z0, h = 0.2 + 0.1j, 0.2
        bump = field_from_expression(g, "bump(0.05, 0, 0.6, 1)")
        L = PerturbedOperator(
            g, m, {(0, 0): bump, (1, 1): 0.5j * bump} if perturbed else {}, form="divergence"
        )
        if m == 2:
            tilde = {(0, 0): 1.5 * bump, (1, 0): 0.4 * bump, (0, 1): -0.3j * bump}
        else:
            tilde = {(0, 2): 0.4 * bump, (2, 0): -0.3j * bump, (2, 1): 0.2 * bump,
                     (1, 1): 0.6 * bump}
        Lt = PerturbedOperator(g, m, tilde, form="divergence")
        prob = RecoveryProblem(L, Lt, [z0], [h], mode=mode)
        z = g.nodes
        for j0 in range(m):
            for k0 in range(m):
                a = {k: ScalarField(g, np.conj(z) ** (k0 - k) / factorial(k0 - k))
                     for k in range(k0 + 1)}
                b = {j: ScalarField(g, z ** (j0 - j) / factorial(j0 - j)) for j in range(j0 + 1)}
                if mode == FULL_CGO:
                    r, s = prob._cgo_pair(z0, h, k0, j0)
                    for k in range(m):
                        dr = mixed_wirtinger(r, 0, k) if not r.is_zero() else g.zero()
                        a[k] = (a[k] + dr) if k in a else dr
                        ds = mixed_wirtinger(s, 0, k).conj() if not s.is_zero() else g.zero()
                        b[k] = (b[k] + ds) if k in b else ds
                combined = None
                for (j, k), diff in sorted(prob.differences.items()):
                    if not diff.is_zero() and k in a and j in b:
                        term = (-1.0 if j % 2 else 1.0) * diff * a[k] * b[j]
                        combined = term if combined is None else combined + term
                expect = oscillatory_integral(PhaseSpec(z0, h), g, combined.values)
                got = identity_lhs(prob, j0, k0, h, z0)
                assert abs(got - expect) <= 1e-13 * abs(expect), (j0, k0)

    @pytest.mark.parametrize("mode", [AMPLITUDE_ONLY, FULL_CGO])
    def test_pairing_builds_no_oscillation(self, mode, monkeypatch):
        # the pairing folds the separable oscillation into the quadrature
        # weights; the n-by-n oscillation must never be formed
        def forbidden(*args, **kwargs):
            raise AssertionError("n-by-n oscillation built by the pairing")

        prob = single_bump_problem(n=128, mode=mode, h_list=(0.3,))
        if mode == FULL_CGO:
            # the CGO builds' transports may form E+-; build them first
            for degree in range(2):
                prob._cgo_pair(0.2 + 0.1j, 0.3, degree, degree)
        monkeypatch.setattr(PhaseSpec, "oscillation", forbidden)
        for j0 in range(2):
            for k0 in range(2):
                assert identity_lhs(prob, j0, k0, 0.3, 0.2 + 0.1j) != 0

    @pytest.mark.parametrize("mode", [AMPLITUDE_ONLY, FULL_CGO])
    def test_difference_moments_formed_once_per_step(self, mode, monkeypatch):
        # the four levels of one (z0, h) step read one moment table, keyed by the
        # nonzero differences; another step builds its own and lets the old one go
        import gc
        import weakref

        tables = []

        def counted(self, *args, _fn=RecoveryProblem._moments):
            tables.append(_fn(self, *args))
            return tables[-1]

        monkeypatch.setattr(RecoveryProblem, "_moments", counted)
        g = ComplexGrid(0j, 1.0, 128)
        bump = field_from_expression(g, "bump(0.05, 0, 0.6, 1)")
        L = PerturbedOperator(g, 2, form="divergence")
        Lt = PerturbedOperator(
            g, 2, {(0, 0): bump, (0, 1): 0.5 * bump, (1, 1): -0.2j * bump}, form="divergence"
        )
        prob = RecoveryProblem(L, Lt, [0.2 + 0.1j], [0.3, 0.25], mode=mode)
        nonzero = sorted(jk for jk, b in prob.differences.items() if not b.is_zero())
        keys = {(None, None)}
        if mode == FULL_CGO:
            # L is unperturbed, so only the adjoint family's remainders are nonzero
            keys |= {(None, 0), (None, 1)}
        steps = []
        for h in prob.h_list:
            for j0 in range(2):
                for k0 in range(2):
                    identity_lhs(prob, j0, k0, h, 0.2 + 0.1j)
            assert len(tables) == len(steps) + 1
            assert prob.step(0.2 + 0.1j, h)[1] is tables[-1]
            assert sorted(tables[-1]) == nonzero
            assert all(set(table) == keys for table in tables[-1].values())
            steps.append([weakref.ref(v) for table in tables[-1].values() for v in table.values()])
        tables.clear()
        gc.collect()
        # the first step's moments are gone with it
        assert all(ref() is None for ref in steps[0])
        assert all(ref() is not None for ref in steps[1])

    def test_remainder_derivatives_formed_once_per_step(self, monkeypatch):
        # full_cgo differentiates each nonzero remainder of a step m - 1 = 1 times,
        # however many of the step's pairings share its degree or repeat
        differentiated = []

        def counted(values, spacing, _fn=recovery._dbar):
            differentiated.append(values)
            return _fn(values, spacing)

        monkeypatch.setattr(recovery, "_dbar", counted)
        g = ComplexGrid(0j, 1.0, 128)
        z0 = 0.2 + 0.1j
        bump = field_from_expression(g, "bump(0.05, 0, 0.6, 1)")
        L = PerturbedOperator(g, 2, {(0, 0): 0.5 * bump}, form="divergence")
        Lt = PerturbedOperator(g, 2, {(0, 0): bump, (1, 1): 0.3j * bump}, form="divergence")
        prob = RecoveryProblem(L, Lt, [z0], [0.3, 0.25], mode=FULL_CGO)
        for h in prob.h_list:
            differentiated.clear()
            for _ in range(2):
                for j0 in range(2):
                    for k0 in range(2):
                        identity_lhs(prob, j0, k0, h, z0)
            remainders = prob.step(z0, h)[0]
            assert sorted(remainders) == [(s, d) for s in (-1, 1) for d in (0, 1)]
            assert not any(r.is_zero() for r in remainders.values())
            assert len(differentiated) == 4
            assert all(any(v is r.values for v in differentiated) for r in remainders.values())

    @pytest.mark.parametrize("mode", [AMPLITUDE_ONLY, FULL_CGO])
    def test_pairing_after_the_step_does_no_array_work(self, mode, monkeypatch):
        # once step() has run, every level pairs from the moment table alone:
        # nothing that forms or differentiates an n-by-n array is reached again,
        # and no transport outlives the build
        import gc
        import weakref

        transports = []

        def recorded(T, *args, _fn=recovery.build_cgo, **kwargs):
            transports.append(weakref.ref(T))
            return _fn(T, *args, **kwargs)

        monkeypatch.setattr(recovery, "build_cgo", recorded)
        z0, h = 0.2 + 0.1j, 0.3
        prob = single_bump_problem(n=128, mode=mode, h_list=(h,))
        prob.step(z0, h)
        gc.collect()
        assert len(transports) == (4 if mode == FULL_CGO else 0)
        assert all(T() is None for T in transports)
        levels = [(j0, k0) for j0 in range(2) for k0 in range(2)]
        first = [identity_lhs(prob, j0, k0, h, z0) for j0, k0 in levels]

        def forbidden(*args, **kwargs):
            raise AssertionError("array work after the step was built")

        for owner, name in ((RecoveryProblem, "_remainders"), (RecoveryProblem, "_moments"),
                            (recovery, "_dbar"), (recovery, "build_cgo")):
            monkeypatch.setattr(owner, name, forbidden)
        again = [identity_lhs(prob, j0, k0, h, z0) for j0, k0 in levels]
        assert all(v != 0 for v in first)
        assert again == first

    @pytest.mark.filterwarnings("error")  # the overflow is named, not warned about
    def test_non_finite_pairing_raises(self):
        # a finite difference whose moments overflow must not pair to inf or nan
        g = ComplexGrid(0j, 1.0, 64)
        bump = field_from_expression(g, "bump(0, 0, 0.6, 1)")
        L = PerturbedOperator(g, 2, form="divergence")
        Lt = PerturbedOperator(g, 2, {(0, 0): ScalarField(g, 1e308 * bump.values)},
                               form="divergence")
        prob = RecoveryProblem(L, Lt, [0.1 + 0.1j], [0.3])
        with pytest.raises(PairingOverflowError, match=r"level \(0,0\) at z0=0.1\+0.1j, h=0.3"):
            identity_lhs(prob, 0, 0, 0.3, 0.1 + 0.1j)

    def test_against_brute_force_quadrature(self):
        # independent adaptive 2D quadrature of the same oscillatory integrand
        prob = single_bump_problem(n=512, h_list=(0.2, 0.1))
        z0, h, R = 0.2 + 0.1j, 0.1, 0.7
        got = identity_lhs(prob, 0, 0, h, z0)

        def f(x, y):
            t = (x * x + y * y) / (R * R)
            b = np.exp(1.0 - 1.0 / (1.0 - t)) if t < 1 else 0.0
            w = 2.0 * ((x - z0.real) ** 2 - (y - z0.imag) ** 2) / h
            return b * np.exp(1j * w)

        oracle = dblquad_complex(f, -1, 1, -1, 1, epsabs=1e-10, epsrel=1e-10)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_extraction_recovers_bump_value(self):
        prob = single_bump_problem(n=512, h_list=(0.14, 0.1, 0.07))
        row, = (r for r in recover_all(prob).rows if (r.j, r.k, r.h) == (0, 0, 0.07))
        assert row.truth == sample_bilinear(prob.differences[(0, 0)], 0.2 + 0.1j)
        assert row.rel_err <= 0.1

    def test_triangularity_higher_terms_vanish(self):
        # a coefficient at (1,1) cannot enter the (0,0) pairing: dbar a = 0
        g = ComplexGrid(0j, 1.0, 128)
        L = PerturbedOperator(g, 2, form="divergence")
        Lt = PerturbedOperator(
            g, 2, {(1, 1): field_from_expression(g, "bump(0, 0, 0.6, 1)")},
            form="divergence",
        )
        prob = RecoveryProblem(L, Lt, [0.1 + 0.1j], [0.3, 0.2])
        assert identity_lhs(prob, 0, 0, 0.3, 0.1 + 0.1j) == 0
        # but it does enter its own pairing
        assert abs(identity_lhs(prob, 1, 1, 0.3, 0.1 + 0.1j)) > 1e-3

    def test_full_cgo_close_to_amplitude_only(self):
        # remainder cross terms are higher order in h
        prob_a = single_bump_problem(n=128, h_list=(0.3,), mode=AMPLITUDE_ONLY)
        prob_f = single_bump_problem(n=128, h_list=(0.3,), mode=FULL_CGO)
        z0 = 0.2 + 0.1j
        va = identity_lhs(prob_a, 0, 0, 0.3, z0)
        vf = identity_lhs(prob_f, 0, 0, 0.3, z0)
        assert abs(vf - va) < 0.5 * abs(va)
        assert vf != va


class TestRecoveryProblem:
    def test_rejects_uncompact_difference(self):
        g = ComplexGrid(0j, 1.0, 64)
        L = PerturbedOperator(g, 2, form="divergence")
        Lt = PerturbedOperator(g, 2, {(0, 0): g.constant(1.0)}, form="divergence")
        with pytest.raises(ValueError):
            RecoveryProblem(L, Lt, [0j], [0.3])

    def test_rejects_mismatched_operators(self):
        g = ComplexGrid(0j, 1.0, 64)
        L2 = PerturbedOperator(g, 2, form="divergence")
        L3 = PerturbedOperator(g, 3, form="divergence")
        with pytest.raises(ValueError):
            RecoveryProblem(L2, L3, [0j], [0.3])

    def test_degenerate_probe_on_frame(self):
        prob = single_bump_problem()
        with pytest.raises(DegenerateProbeError):
            prob.check_probe(0.95 + 0j)
        with pytest.raises(DegenerateProbeError):
            identity_lhs(prob, 0, 0, 0.2, 0.95 + 0j)

    def test_degenerate_probe_listed_not_fatal(self):
        prob = single_bump_problem(probes=(0.2 + 0.1j, 0.98 + 0j))
        rep = recover_all(prob)
        assert len(rep.degenerate) == 1
        assert rep.degenerate[0][0] == 0.98 + 0j
        assert {r.z0 for r in rep.rows} == {0.2 + 0.1j}

    def test_conditioning_bound_triggers_degeneracy(self, monkeypatch):
        monkeypatch.setattr(recovery, "CONDITIONING_BOUND", 0.1)
        g = ComplexGrid(0j, 1.0, 128)
        L = PerturbedOperator(g, 2, form="divergence")
        Lt = PerturbedOperator(
            g, 2, {(0, 0): field_from_expression(g, "bump(0, 0, 0.6, 1)")},
            form="divergence",
        )
        prob = RecoveryProblem(L, Lt, [0.5 + 0.5j], [0.3])
        with pytest.raises(DegenerateProbeError, match="bound"):
            prob.check_probe(0.5 + 0.5j)

    def test_noise_floor_positive_and_tiny(self):
        g = ComplexGrid(0j, 1.0, 128)
        floor = extraction_noise_floor(g, 1, 1, 0.1, 0.2 + 0.1j)
        assert 0 < floor < 1e-10


class TestRecoverAll:
    def test_single_bump_recovery(self):
        prob = single_bump_problem(n=512, h_list=(0.2, 0.14, 0.1, 0.07))
        rep = recover_all(prob)
        h_min = min(r.h for r in rep.rows)
        target = [r for r in rep.rows if (r.j, r.k) == (0, 0) and r.h == h_min]
        assert target[0].rel_err <= 0.15
        assert 0.5 <= rep.slopes[(0, 0)] <= 2.5

    def test_levels_feed_subtraction(self):
        # hand-expanded two-level check for m=2: with only B(0,0) nonzero, the
        # (0,1) pairing is B(0,0)-contaminated at leading order; the recovery
        # must subtract it and report a near-zero (0,1) difference
        prob = single_bump_problem(n=512, h_list=(0.1, 0.07))
        rep = recover_all(prob)
        h_min = min(r.h for r in rep.rows)
        b00 = sample_bilinear(prob.differences[(0, 0)], 0.2 + 0.1j)
        raw01 = identity_lhs(prob, 0, 1, h_min, 0.2 + 0.1j) / (
            STATIONARY_PHASE_CONSTANT * h_min
        )
        # the uncorrected value is dominated by B00 * conj(z0)
        assert abs(raw01 - b00 * np.conj(0.2 + 0.1j)) < 0.5 * abs(b00 * np.conj(0.2 + 0.1j))
        rec01 = [r for r in rep.rows if (r.j, r.k) == (0, 1) and r.h == h_min][0]
        assert abs(rec01.extracted) < 0.2 * abs(raw01)

    def test_bit_identical_reruns(self):
        prob1 = single_bump_problem(n=128, h_list=(0.3, 0.2))
        prob2 = single_bump_problem(n=128, h_list=(0.3, 0.2))
        rep1, rep2 = recover_all(prob1), recover_all(prob2)
        # repr of a float round-trips, so equal reprs mean bit-identical rows
        assert repr(rep1.rows) == repr(rep2.rows)

    def test_report_files(self, tmp_path):
        import json

        prob = single_bump_problem(n=128, h_list=(0.3, 0.2))
        rep = recover_all(prob)
        assert repr(rep.rows) == repr(recover_all(prob).rows)
        man_path = tmp_path / "manifest.json"
        rep.write_manifest(man_path, "deadbeef")
        doc = json.loads(man_path.read_text())
        assert doc["config_sha256"] == "deadbeef"
        assert doc["config"]["m"] == 2
        assert doc["config"]["conditioning_bound"] == recovery.CONDITIONING_BOUND == 100.0
        assert doc["rows"] == len(rep.rows)

    def test_full_cgo_builds_no_diagnostics(self, monkeypatch):
        # recovery pairs the remainders only: the assembled u and the
        # diagnostics must never be built, and the adjoint family's operator
        # is derived once per problem, not once per CGO build
        import polycgo.cgo as cgo_mod
        import polycgo.grid as grid_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("diagnostic computed during recovery")

        monkeypatch.setattr(cgo_mod, "residual_norm", forbidden)
        monkeypatch.setattr(grid_mod, "norm_hm", forbidden)
        monkeypatch.setattr(PhaseSpec, "carrier", forbidden)
        calls = {"adjoint": 0}
        for module in (cgo_mod, recovery):  # wherever recovery can reach it by name

            def counted(*args, _fn=module.adjoint, **kwargs):
                calls["adjoint"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, "adjoint", counted)
        prob = single_bump_problem(n=128, mode=FULL_CGO, h_list=(0.3, 0.2))
        rep = recover_all(prob)
        assert len(rep.rows) == 8
        assert calls == {"adjoint": 1}

    def test_cgo_cache_keeps_one_step(self, monkeypatch):
        # the problem keeps one (z0, h) step: 2m builds on one transport per
        # family give its remainders; no solution outlives its build, and a
        # step at another (z0, h) lets the old step's remainders go
        import gc
        import weakref

        import polycgo.recovery as recovery_mod
        from polycgo import AmplitudeSpec, OscillatoryTransport, adjoint, build_cgo

        built = []  # weakrefs to (transport, solution, remainder) of each build
        transports = []  # (id, sign) of each build's transport; both live through a step

        def recorded(T, *args, **kwargs):
            sol = build_cgo(T, *args, **kwargs)
            built.append((weakref.ref(T), weakref.ref(sol), weakref.ref(sol.r)))
            transports.append((id(T), T.sign))
            return sol

        monkeypatch.setattr(recovery_mod, "build_cgo", recorded)
        g = ComplexGrid(0j, 1.0, 128)
        z0, h = 0.2 + 0.1j, 0.3
        bump = field_from_expression(g, "bump(0.05, 0, 0.6, 1)")
        L = PerturbedOperator(g, 2, {(0, 0): 0.5 * bump}, form="divergence")
        Lt = PerturbedOperator(g, 2, {(0, 0): bump, (1, 1): 0.3j * bump}, form="divergence")
        prob = RecoveryProblem(L, Lt, [z0], [h], mode=FULL_CGO)
        remainders = prob.step(z0, h)[0]
        gc.collect()
        assert len(built) == 4
        assert sorted(sign for _, sign in set(transports)) == [-1, 1]
        assert all(T() is None and sol() is None for T, sol, _ in built)

        phase = PhaseSpec(z0, h)
        for degree in (0, 1):
            amplitude = AmplitudeSpec.monomial(g, degree)
            fresh_r = build_cgo(OscillatoryTransport(L, phase), amplitude).r
            fresh_s = build_cgo(OscillatoryTransport(adjoint(Lt), phase, -1), amplitude).r
            assert not (fresh_r.is_zero() or fresh_s.is_zero())
            assert np.array_equal(remainders[(1, degree)].values, fresh_r.values)
            assert np.array_equal(remainders[(-1, degree)].values, fresh_s.values)
        # a repeated lookup inside the step builds nothing
        r, s = prob._cgo_pair(z0, h, 1, 0)
        assert r is remainders[(1, 1)] and s is remainders[(-1, 0)]
        assert prob.step(z0, h)[0] is remainders
        assert len(built) == 4

        # a step at another (z0, h) replaces the old one, which is gone before
        # the new remainders are built
        def after_the_old_step(self, *args, _fn=RecoveryProblem._remainders):
            gc.collect()
            assert all(T() is None and r() is None for T, _, r in built[:4])
            return _fn(self, *args)

        monkeypatch.setattr(RecoveryProblem, "_remainders", after_the_old_step)
        del remainders, r, s, fresh_r, fresh_s
        prob._cgo_pair(z0, 0.25, 0, 0)
        assert len(built) == 8
        assert sorted(sign for _, sign in set(transports[4:])) == [-1, 1]


class CountedArray(np.ndarray):
    """An array view that records every product it is the left operand of."""

    products = []

    def __matmul__(self, other):
        CountedArray.products.append(self)
        return np.ndarray.__matmul__(self, other)


class CountedField:
    """A nonzero field whose values are a CountedArray view of another field's."""

    def __init__(self, field):
        self.grid, self.values = field.grid, field.values.view(CountedArray)
        self.box = field.box

    def is_zero(self):
        return False


def random_differences(prob, seed=0):
    """Replace every difference of prob by a random complex table, in place."""
    rng = np.random.default_rng(seed)
    n = prob.grid.n
    for jk in prob.differences:
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prob.differences[jk] = ScalarField(prob.grid, values)


def boxed_differences(prob, seed=0):
    """Replace every difference of prob by a random complex table on a random box,
    zero elsewhere, in place; return each difference's box as (rows, cols)."""
    rng = np.random.default_rng(seed)
    n, boxes = prob.grid.n, {}
    for jk in prob.differences:
        rows, cols = (slice(lo, hi + 1) for lo, hi in np.sort(rng.integers(1, n - 1, (2, 2))))
        values = np.zeros((n, n), dtype=complex)
        shape = values[rows, cols].shape
        values[rows, cols] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        prob.differences[jk] = ScalarField(prob.grid, values)
        boxes[jk] = rows, cols
    return boxes


def per_step(prob, z0, h):
    """The amplitude moments of one step, product by product: X^T (B Y)."""
    left, right = prob._factors(z0, h)
    return {jk: left @ (b.values @ right) for jk, b in sorted(prob.differences.items())
            if not b.is_zero()}


# A block of B @ R is the same dot products as B @ Y, but BLAS blocks a product
# by its width, so with more than one step it may sum them in another order.
# Any two orders differ by at most 2*gamma_2n*|X|^T |B| |Y| (Higham, Accuracy
# and Stability of Numerical Algorithms, 3.1); BLAS keeps far inside that:
# measured at most 0.18 eps |X|^T |B| |Y| on random complex B, n = 64...1024
# and 2...15 steps.  A product over B's support box sums the same nonzero
# terms in another blocking: measured at most 0.72 eps |X|^T |B| |Y| against
# the full product on random boxes, n = 64...512 and 1...5 steps.  A one-step
# list on a B of full support is the per-step product itself.
BATCH_ROUNDOFF = np.finfo(float).eps


def assert_moments_match(prob, z0, h, moments, exact=False):
    left, right = prob._factors(z0, h)
    expect = per_step(prob, z0, h)
    assert list(moments) == list(expect)
    for jk, moment in moments.items():
        if exact:
            assert np.array_equal(moment, expect[jk]), (z0, h, jk)
        scale = np.abs(left) @ (np.abs(prob.differences[jk].values) @ np.abs(right))
        assert np.all(np.abs(moment - expect[jk]) <= BATCH_ROUNDOFF * scale), (z0, h, jk)


def full_remainder_moments(prob, z0, h, remainders):
    """{(j, k): {(kr, js): (X^T G Y, |X|^T |G| |Y|)}}: each remainder term G of
    the step formed over the whole grid, in the order the step multiplies."""
    left, right = prob._factors(z0, h)
    m, rs, ss = prob.m, {}, {}
    for (sign, degree), r in remainders.items():
        derivatives = [mixed_wirtinger(r, 0, k).values for k in range(m)]
        if sign > 0:
            rs[degree] = derivatives
        else:
            ss[degree] = [np.conj(d) for d in derivatives]
    moments = {}
    for (j, k), b in sorted(prob.differences.items()):
        if b.is_zero():
            continue
        b, terms = b.values, {}
        for js, s in ss.items():
            terms[(None, js)] = b * s[j]
        for kr, r in rs.items():
            g = terms[(kr, None)] = b * r[k]
            for js, s in ss.items():
                terms[(kr, js)] = g * s[j]
        moments[(j, k)] = {key: (left @ (g @ right), np.abs(left) @ (np.abs(g) @ np.abs(right)))
                           for key, g in terms.items()}
    return moments


class TestMomentBatch:
    # the amplitude moments of every planned step come from one B @ R per
    # difference; each must match the per-step product X^T (B Y)

    @pytest.mark.parametrize("count", (1, 2, 5, 13))
    def test_batch_equals_per_step_products(self, count):
        # n = 64, m = 2 makes groups of 64 // 24 = 2 steps, so 5 and 13 steps
        # also cross group boundaries
        rng = np.random.default_rng(count)
        prob = single_bump_problem(n=64, h_list=(0.3,))
        random_differences(prob, seed=count)
        steps = [(complex(*rng.uniform(-0.5, 0.5, 2)), float(rng.uniform(0.2, 0.5)))
                 for _ in range(count)]
        batch = prob._amplitude_moments(steps)
        assert list(batch) == steps
        for z0, h in steps:
            assert all(moment.shape == (3, 3) for moment in batch[(z0, h)].values())
            assert_moments_match(prob, z0, h, batch[(z0, h)], exact=count == 1)

    @pytest.mark.parametrize("count", (1, 5))
    def test_box_products_equal_full_products(self, count):
        # each difference is read over its support box alone; on a compactly
        # supported B the product sums the same nonzero terms as the full one
        rng = np.random.default_rng(count)
        prob = single_bump_problem(n=64, h_list=(0.3,))
        boxes = boxed_differences(prob, seed=count)
        assert all(prob.differences[jk].box == box for jk, box in boxes.items())
        steps = [(complex(*rng.uniform(-0.5, 0.5, 2)), float(rng.uniform(0.2, 0.5)))
                 for _ in range(count)]
        batch = prob._amplitude_moments(steps)
        for z0, h in steps:
            assert_moments_match(prob, z0, h, batch[(z0, h)])

    @pytest.mark.parametrize("support", ["full", "boxed"])
    def test_remainder_moments_over_the_box(self, support):
        # full_cgo forms B * dbar^k r, B * conj(dbar^j s) and their product on
        # B's box: exactly the full-array moments when B has full support, and
        # within the roundoff bound when it is compactly supported
        prob = single_bump_problem(n=64, h_list=(0.3,))
        (random_differences if support == "full" else boxed_differences)(prob, seed=3)
        rng, n = np.random.default_rng(4), prob.grid.n
        remainders = {(sign, degree): ScalarField(prob.grid, rng.standard_normal((n, n))
                                                  + 1j * rng.standard_normal((n, n)))
                      for sign in (1, -1) for degree in range(prob.m)}
        z0, h = 0.2 + 0.1j, 0.3
        amplitude = per_step(prob, z0, h)
        moments = prob._moments(z0, h, remainders, amplitude)
        expect = full_remainder_moments(prob, z0, h, remainders)
        assert list(moments) == list(expect)
        for jk, table in moments.items():
            assert table.pop((None, None)) is amplitude[jk]
            assert set(table) == set(expect[jk])
            for key, moment in table.items():
                value, scale = expect[jk][key]
                if support == "full":
                    assert np.array_equal(moment, value), (jk, key)
                assert np.all(np.abs(moment - value) <= BATCH_ROUNDOFF * scale), (jk, key)

    def test_steps_outside_the_plan_and_revisited(self, monkeypatch):
        # a step outside the plan and a step built before each form their own
        # entry through the same function, with a one-step list
        lists = []

        def recorded(self, steps, _fn=RecoveryProblem._amplitude_moments):
            lists.append(list(steps))
            return _fn(self, steps)

        monkeypatch.setattr(RecoveryProblem, "_amplitude_moments", recorded)
        probes, hs = (0.2 + 0.1j, -0.1 + 0.2j), (0.3, 0.25)
        prob = single_bump_problem(n=64, h_list=hs, probes=probes)
        random_differences(prob)
        plan = [(z0, h) for z0 in probes for h in sorted(hs, reverse=True)]
        visits = [plan[0], (0.1 + 0.1j, 0.3), plan[1], plan[0], (probes[1], 0.2), plan[3]]
        for i, (z0, h) in enumerate(visits):
            moments = prob.step(z0, h)[1]
            assert all(list(table) == [(None, None)] for table in moments.values())
            amplitude = {jk: table[(None, None)] for jk, table in moments.items()}
            assert_moments_match(prob, z0, h, amplitude, exact=i in (1, 3, 4))
        # the plan once, then one step each for the three visits it does not hold
        assert lists == [plan, [visits[1]], [visits[3]], [visits[4]]]
        # plan[2] was never visited: its entry alone is still held
        assert list(prob._batch) == [plan[2]]

    @pytest.mark.parametrize("mode", [AMPLITUDE_ONLY, FULL_CGO])
    def test_one_product_per_difference_per_problem(self, mode, monkeypatch):
        # construction forms no moment; recover_all then reads each nonzero
        # difference, or a view of its support box, in one product for all of its
        # 2 x 2 steps
        batches = []

        def recorded(self, steps, _fn=RecoveryProblem._amplitude_moments):
            batches.append(len(steps))
            return _fn(self, steps)

        monkeypatch.setattr(RecoveryProblem, "_amplitude_moments", recorded)
        g = ComplexGrid(0j, 1.0, 128)
        bump = field_from_expression(g, "bump(0.05, 0, 0.6, 1)")
        L = PerturbedOperator(g, 2, {(0, 0): 0.5 * bump}, form="divergence")
        Lt = PerturbedOperator(g, 2, {(0, 0): bump, (1, 1): 0.3j * bump}, form="divergence")
        prob = RecoveryProblem(L, Lt, [0.2 + 0.1j, -0.1 + 0.1j], [0.3, 0.25], mode=mode)
        assert batches == []
        nonzero = {}
        for jk, b in prob.differences.items():
            if not b.is_zero():
                prob.differences[jk] = nonzero[jk] = CountedField(b)
        assert sorted(nonzero) == [(0, 0), (1, 1)]
        CountedArray.products.clear()
        rep = recover_all(prob)
        assert len(rep.rows) == 16
        assert batches == [4]
        for b in nonzero.values():
            assert sum(np.shares_memory(a, b.values) for a in CountedArray.products) == 1
        CountedArray.products.clear()

    @pytest.mark.parametrize("mode", [AMPLITUDE_ONLY, FULL_CGO])
    def test_one_support_scan_per_difference_per_problem(self, mode, monkeypatch):
        # is_zero, each of the batch's two groups (at most 5 steps at n = 128)
        # and each of the 2 x 4 full_cgo steps read a difference's box: only
        # the first read scans the whole array, in both modes
        scanned = []

        def recorded(a, *args, _fn=np.any, **kwargs):
            scanned.append(a)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np, "any", recorded)
        g = ComplexGrid(0j, 1.0, 128)
        bump = field_from_expression(g, "bump(0.05, 0, 0.6, 1)")
        L = PerturbedOperator(g, 2, {(0, 0): 0.5 * bump}, form="divergence")
        Lt = PerturbedOperator(g, 2, {(0, 0): bump, (1, 1): 0.3j * bump}, form="divergence")
        prob = RecoveryProblem(L, Lt, [0.2 + 0.1j, -0.1 + 0.1j], [0.3, 0.25, 0.2, 0.15],
                               mode=mode)
        assert len(recover_all(prob).rows) == 32
        nonzero = {jk: b.values for jk, b in prob.differences.items() if not b.is_zero()}
        assert sorted(nonzero) == [(0, 0), (1, 1)]
        assert {jk: sum(a is v for a in scanned) for jk, v in nonzero.items()} == {
            (0, 0): 1, (1, 1): 1}

    def test_batch_peak_below_one_field(self):
        # 3 probes x 10 h is 30 steps; at n = 256, m = 2 the groups hold 10, so
        # R, B @ R and the X^T blocks each stay near 256 x 30 entries
        prob = single_bump_problem(n=256, h_list=tuple(0.3 - 0.02 * i for i in range(10)),
                                   probes=(0.2 + 0.1j, -0.1 + 0.2j, 0.1 - 0.2j))
        random_differences(prob)
        steps = [(z0, h) for z0 in prob.probes for h in prob.h_list]
        prob._amplitude_moments(steps[:1])  # any first-call set-up outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = prob._amplitude_moments(steps)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(batch) == 30
        assert peak < prob.grid.n**2 * np.dtype(complex).itemsize

    def test_set_up_and_recovery_peak(self):
        # the recover_amp bumps, probes and h list at n = 512 in amplitude_only:
        # the four bump fields and the grid's shared zero field, which the
        # unperturbed operator holds, are 5 n x n complex arrays, and the
        # set-up and recover_all together peaked at 5.246 of them.  The node
        # array would be one more: 6.273 when bumps were formed from it
        bumps = {(0, 0): "bump(0.12, 0.08, 0.7, 1)", (0, 1): "bump(-0.15, 0.1, 0.7, 0.8)",
                 (1, 0): "bump(0.08, -0.15, 0.7, 0.7)", (1, 1): "bump(-0.1, -0.12, 0.7, 0.9)"}

        def recover():
            g = ComplexGrid(0j, 1.0, 512)
            coeffs = {jk: field_from_expression(g, text) for jk, text in bumps.items()}
            L = PerturbedOperator(g, 2, form="divergence")
            Lt = PerturbedOperator(g, 2, coeffs, form="divergence")
            del coeffs
            prob = RecoveryProblem(L, Lt, [0.08 + 0.08j, -0.1 + 0.04j, 0.04 - 0.12j],
                                   [0.2, 0.14, 0.1, 0.07, 0.05])
            return g, recover_all(prob)

        recover()  # any first-call set-up outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid, rep = recover()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(rep.rows) == 60 and "nodes" not in grid.__dict__
        assert peak <= 5.35 * grid.n**2 * np.dtype(complex).itemsize

    def test_plan_checks_each_probe_once(self, monkeypatch):
        # recover_all and the batch read one plan: each probe is checked once
        checked = []

        def counted(self, z0, _fn=RecoveryProblem.check_probe):
            checked.append(z0)
            return _fn(self, z0)

        monkeypatch.setattr(RecoveryProblem, "check_probe", counted)
        prob = single_bump_problem(n=128, h_list=(0.3, 0.2), probes=(0.2 + 0.1j, 0.98 + 0j))
        rep = recover_all(prob)
        assert checked == [0.2 + 0.1j, 0.98 + 0j]
        assert prob.plan.usable == (0.2 + 0.1j,)
        assert rep.degenerate == list(prob.plan.degenerate)
        assert [z for z, _ in rep.degenerate] == [0.98 + 0j]
        assert list(prob._batch) == []  # every planned step took its entry

    @pytest.mark.parametrize("mode", [AMPLITUDE_ONLY, FULL_CGO])
    def test_factors_once_per_planned_step(self, monkeypatch, mode):
        # the batch forms each step's X and Y; a step forms them again only to
        # pair a nonzero remainder, which here is the adjoint family's alone
        calls = Counter()

        def counted(self, z0, h, _fn=RecoveryProblem._factors):
            calls[(z0, h)] += 1
            return _fn(self, z0, h)

        monkeypatch.setattr(RecoveryProblem, "_factors", counted)
        prob = single_bump_problem(n=128, h_list=(0.3, 0.2), probes=(0.2 + 0.1j, -0.1 + 0.2j),
                                   mode=mode)
        recover_all(prob)
        steps = [(z0, h) for z0 in prob.plan.usable for h in prob.h_list]
        assert len(steps) == 4
        assert calls == {step: 1 if mode == AMPLITUDE_ONLY else 2 for step in steps}


class TestMonomialTable:
    @pytest.mark.parametrize("center", [0j, 0.3 - 0.2j], ids=["centred", "offset"])
    def test_matches_monomial_part(self, center):
        # sum c[p,q] x^p y^q must reproduce conj(z)^a z^b / (a! b!) in global x, y
        g = ComplexGrid(center, 1.0, 64)
        z = g.nodes
        for a in range(4):
            for b in range(4):
                c = recovery._monomial_table(a, b)
                got = sum(c[p, q] * z.real**p * z.imag**q
                          for p in range(a + b + 1) for q in range(a + b + 1))
                expect = _monomial_part(np.conj(z), a) * _monomial_part(z, b)
                scale = np.max(np.abs(expect))
                assert np.max(np.abs(got - expect)) <= 1e-13 * scale, (a, b)


class TestBilinearSampling:
    def test_exact_on_nodes(self, grid64):
        f = sample(grid64, lambda z: z**2 + np.conj(z))
        node = grid64.nodes[20, 30]
        assert sample_bilinear(f, complex(node)) == pytest.approx(node**2 + np.conj(node))

    def test_linear_fields_exact_off_node(self, grid64):
        f = sample(grid64, lambda z: 2 * z.real + 3j * z.imag)
        z = 0.1234 + 0.0567j
        assert sample_bilinear(f, z) == pytest.approx(2 * z.real + 3j * z.imag, rel=1e-10)
