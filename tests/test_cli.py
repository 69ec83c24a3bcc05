import contextlib
import io
import json
import os
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TESTBED_BUMPS
from support import DEEP_EXPRESSIONS

from polycgo import ComplexGrid, ConfigError, CouplingError, OscillatoryTransport, PhaseSpec, cgo
from polycgo import cli
from polycgo.cli import MAX_GRID_N, MAX_OPERATOR_M, build_phases, main

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def base_cauchy_config(out):
    return {
        "grid": {"n": 128, "half_width": 1.0, "center": "0"},
        "phase": {"z0": ["0.05+0.05i"], "h": [0.3, 0.2, 0.14]},
        "cauchy": {
            "omega": "bump(0, 0, 0.65, 1)",
            "q_values": [2],
            "min_slopes": {"2": 0.2},
            "inverse_identity_max_rel": 0.01,
        },
        "output": {"directory": str(out), "format": "csv"},
    }


def base_cgo_config(out):
    return {
        "grid": {"n": 128},
        "operator": {"m": 2, "coeffs": dict(
            {f"{j},{k}": text for (j, k), text in TESTBED_BUMPS.items()}
        )},
        "phase": {"z0": ["0.1+0.1i"], "h": [0.3, 0.2]},
        "solver": {"tol": 1e-8, "max_terms": 50},
        "cgo": {"min_r_slope": 0.3, "min_norm_slope": 0.2},
        "output": {"directory": str(out)},
    }


def base_recover_config(out):
    return {
        "grid": {"n": 128},
        "operator": {
            "m": 2,
            "form": "divergence",
            "coeffs": {},
            "coeffs_tilde": {"0,0": "bump(0, 0, 0.7, 1)"},
        },
        "phase": {"h": [0.3, 0.2]},
        "recovery": {"mode": "amplitude_only", "probes": ["0.2+0.1i"], "max_rel_err": 0.5},
        "output": {"directory": str(out)},
    }


class TestCauchyCommand:
    def test_default_run_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_cauchy_config(out))
        assert main(["cauchy-test", "--config", cfg]) == 0
        assert (out / "results.csv").exists()
        assert (out / "slopes.csv").exists()
        assert (out / "config.json").exists()
        assert (out / "log.txt").exists()
        # one decay row per (q, h)
        lines = (out / "results.csv").read_text().splitlines()
        decay = [l for l in lines if l.startswith("decay")]
        assert len(decay) == 3

    def test_malformed_expression_names_field(self, tmp_path, capsys):
        doc = base_cauchy_config(tmp_path / "r")
        doc["cauchy"]["omega"] = "bump("
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "cauchy.omega" in capsys.readouterr().err

    def test_bad_n_rejected(self, tmp_path, capsys):
        doc = base_cauchy_config(tmp_path / "r")
        doc["grid"]["n"] = 100
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "grid.n" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [8192, 2**34])
    def test_n_above_bound_rejected(self, tmp_path, capsys, n):
        # a power of two past the bound is refused before any array is allocated
        doc = base_cauchy_config(tmp_path / "r")
        doc["grid"]["n"] = n
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "grid.n" in capsys.readouterr().err

    def test_coupling_violation_named(self, tmp_path, capsys):
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["h"] = [0.05]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "phase.h[0]" in err and "spacing" in err

    def test_coupling_boundary_agrees_with_check_grid(self):
        # spacing == h/8 passes both the config check and PhaseSpec.check_grid;
        # the next smaller h fails both, each with its own error
        grid = ComplexGrid(0j, 1.0, 64)
        h_ok = 8.0 * grid.spacing
        h_bad = float(np.nextafter(h_ok, 0.0))
        assert build_phases({"phase": {"h": [h_ok]}}, grid)[1] == [h_ok]
        PhaseSpec(0j, h_ok).check_grid(grid)
        with pytest.raises(ConfigError, match=r"phase\.h\[1\]"):
            build_phases({"phase": {"h": [h_ok, h_bad]}}, grid)
        with pytest.raises(CouplingError):
            PhaseSpec(0j, h_bad).check_grid(grid)

    def test_nan_h_config_error(self, tmp_path, capsys):
        # json writes and reads the literal NaN, which slips past an `h <= 0` test
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["h"] = [float("nan")]
        cfg = write_config(tmp_path, doc)
        assert "NaN" in Path(cfg).read_text()
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "phase.h[0]" in capsys.readouterr().err

    def test_infinite_h_config_error(self, tmp_path, capsys):
        # inf > 0 holds and an infinite h never violates spacing <= h/8
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["h"] = [float("inf"), 0.3]
        cfg = write_config(tmp_path, doc)
        assert "Infinity" in Path(cfg).read_text()
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "phase.h[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["1.5", True])
    def test_non_number_h_config_error(self, tmp_path, capsys, h):
        # a numeric string or a bool is not a number, whatever float() makes of it
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["h"] = [h, 0.3]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "phase.h[0]" in capsys.readouterr().err

    def test_string_z0_part_config_error(self, tmp_path, capsys):
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["z0"] = [["0.1", "0.2"]]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "phase.z0[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("half_width", [1e-200, 1e200])
    def test_spacing_outside_double_range_config_error(self, tmp_path, capsys, half_width):
        # spacing^2 underflows to a subnormal or overflows to inf
        doc = base_cauchy_config(tmp_path / "r")
        doc["grid"]["half_width"] = half_width
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "grid.half_width" in capsys.readouterr().err

    @pytest.mark.parametrize("omega, half_width", [("z", 1e-100), ("z", 1e-60), ("1", 2e154)])
    def test_extreme_grid_scale_config_error(self, tmp_path, capsys, omega, half_width):
        # ||omega||_2 underflows to 0 on the tiny square (on the 1e-60 one only
        # the norms of its transforms do), and (x - x0)^2 overflows on the huge
        # one, though omega is finite and nonzero on all three
        doc = base_cauchy_config(tmp_path / "r")
        doc["grid"].update(n=16, half_width=half_width)
        doc["phase"] = {"z0": ["0"], "h": [16.0 * half_width]}
        doc["cauchy"]["omega"] = omega
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "grid.half_width" in capsys.readouterr().err

    def test_vanishing_omega_config_error(self, tmp_path, capsys):
        # on a square this wide no node lies inside the default bump's support
        doc = base_cauchy_config(tmp_path / "r")
        doc["grid"]["half_width"] = 1e50
        doc["phase"]["h"] = [1e50]
        del doc["cauchy"]["omega"]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "cauchy.omega" in capsys.readouterr().err

    def test_center_that_moves_the_nodes_config_error(self, tmp_path, capsys):
        # at 1e17 all 32 node abscissae round to one value; the run once
        # computed its tables on that collapsed lattice and exited 1
        doc = base_cauchy_config(tmp_path / "r")
        doc["grid"] = {"n": 32, "half_width": 1.0, "center": [1e17, 0]}
        doc["phase"] = {"z0": [[1e17, 0]], "h": [0.6, 0.52]}
        doc["cauchy"]["omega"] = "bump(1e17, 0, 0.6, 1)"
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "field grid.center: " in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_one_h_fits_no_slope(self, tmp_path, capsys):
        # one distinct h gives no slope to fit: a failed tolerance, not a traceback
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["h"] = [0.3]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 1
        assert "nan" in (tmp_path / "r" / "slopes.csv").read_text()

    def test_repeated_q_config_error(self, tmp_path, capsys):
        # a repeated q would run its decay probe twice and write duplicate rows
        doc = base_cauchy_config(tmp_path / "r")
        doc["cauchy"]["q_values"] = [2, 2.0]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "cauchy.q_values[1]" in err and "cauchy.q_values[0]" in err
        assert not (tmp_path / "r").exists()

    def test_repeated_z0_config_error(self, tmp_path, capsys):
        # a repeated critical point, however it is spelled, would write duplicate rows
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["z0"] = ["0.05+0.05i", "-0.1", [0.05, 0.05]]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "phase.z0[2]" in err and "phase.z0[0]" in err
        assert not (tmp_path / "r").exists()

    def test_second_z0_config_error(self, tmp_path, capsys):
        # the decay probe runs at one point; a second one was once silently dropped
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["z0"] = ["0.05+0.05i", "0.3-0.2i"]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert "phase.z0[1]" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_failed_tolerance_exits_one(self, tmp_path):
        doc = base_cauchy_config(tmp_path / "r")
        doc["cauchy"]["min_slopes"] = {"2": 5.0}  # unattainable
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 1

    @pytest.mark.parametrize("min_slopes, key", [
        ({"3": 100, "2.0": 0.5, "2": -100}, "3"),  # no q = 3 runs, so its gate never would
        ({"2.0": 0.5, "2": -100}, "2"),  # two gates for q = 2; the later one once won
    ])
    def test_min_slopes_key_names_one_configured_q(self, tmp_path, capsys, min_slopes, key):
        doc = base_cauchy_config(tmp_path / "r")
        doc["cauchy"]["min_slopes"] = min_slopes
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        assert f"cauchy.min_slopes[{key}]" in capsys.readouterr().err

    def test_default_min_slopes_gate_the_configured_q(self, tmp_path):
        # the default gates q = 2 and q = 4; with only q = 2 configured it gates q = 2
        doc = base_cauchy_config(tmp_path / "r")
        del doc["cauchy"]["min_slopes"]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) in (0, 1)
        slopes = (tmp_path / "r" / "slopes.csv").read_text()
        assert [l.split(",")[2] for l in slopes.splitlines() if l.startswith("decay")] == ["0.5"]


class TestCgoCommand:
    def test_bump_run(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_cgo_config(out))
        assert main(["cgo", "--config", cfg]) == 0
        body = (out / "results.csv").read_text()
        assert "cgo" in body and "transport_norm" in body
        log = (out / "log.txt").read_text()
        assert all(f"transport norm h={h:g} " in log for h in (0.3, 0.2)), log
        assert "sweeps" in log and "sweeps" not in body

    def test_zero_coefficient_run(self, tmp_path):
        out = tmp_path / "run"
        doc = base_cgo_config(out)
        doc["operator"]["coeffs"] = {}
        cfg = write_config(tmp_path, doc)
        assert main(["cgo", "--config", cfg]) == 0
        slopes = (out / "slopes.csv").read_text()
        assert "remainder_zero" in slopes

    def test_coupling_hard_error_before_compute(self, tmp_path):
        doc = base_cgo_config(tmp_path / "r")
        doc["phase"]["h"] = [0.3, 0.01]
        cfg = write_config(tmp_path, doc)
        assert main(["cgo", "--config", cfg]) == 2

    def test_noncontraction_exit_three(self, tmp_path, capsys):
        doc = base_cgo_config(tmp_path / "r")
        doc["operator"]["coeffs"] = {"1,1": "bump(0, 0, 0.7, 500)"}
        doc["cgo"]["amplitude_degree"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["cgo", "--config", cfg]) == 3
        assert "0.3" in capsys.readouterr().err  # offending h named

    def test_numerical_failure_writes_log_only(self, tmp_path, capsys):
        # the run directory of a failed run says why: log.txt ends with the
        # failure printed on stderr, and no result table is written
        out = tmp_path / "r"
        doc = base_cgo_config(out)
        doc["operator"]["coeffs"] = {"1,1": "bump(0, 0, 0.7, 500)"}
        doc["cgo"]["amplitude_degree"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["cgo", "--config", cfg]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("numerical failure: ") and "0.3" in err
        lines = (out / "log.txt").read_text().splitlines()
        assert lines[0].startswith("failed_at=") and lines[-1] == err
        assert sorted(p.name for p in out.iterdir()) == ["log.txt"]

    @pytest.mark.filterwarnings("error")  # the failure line is all stderr says
    @pytest.mark.parametrize("degree, where", [
        (0, "the norm probe's alpha at step 1"),  # no source: the probe overflows
        (1, "the source"),  # the Neumann solve overflows
    ], ids=["probe", "neumann"])
    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys, degree, where):
        out = tmp_path / "r"
        doc = base_cgo_config(out)
        doc["grid"]["n"] = 64
        doc["operator"] = {"m": 2, "form": "divergence",
                           "coeffs": {"1,1": "bump(0, 0, 0.7, 1e300)"}}
        doc["phase"]["h"] = [0.5, 0.3]
        doc["cgo"]["amplitude_degree"] = degree
        assert main(["cgo", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err.strip()
        assert err == f"numerical failure: transport map overflows at h=0.5: {where} is not finite"
        lines = (out / "log.txt").read_text().splitlines()
        assert lines[0].startswith("failed_at=") and lines[-1] == err
        assert sorted(p.name for p in out.iterdir()) == ["log.txt"]

    def test_double_long_double_exit_three(self, tmp_path, capsys, monkeypatch):
        # where np.longdouble is a plain double the extended-precision residual cannot run
        monkeypatch.setattr(cgo, "LONGDOUBLE_EPS", float(np.finfo(np.float64).eps))
        cfg = write_config(tmp_path, base_cgo_config(tmp_path / "r"))
        assert main(["cgo", "--config", cfg]) == 3
        assert "long double" in capsys.readouterr().err

    @pytest.mark.parametrize("form, conversion", [
        ("standard", "to_divergence_form"), ("divergence", "to_standard_form"),
    ])
    def test_one_conversion_and_one_transport_per_step(self, tmp_path, monkeypatch, form,
                                                       conversion):
        # the operator is converted once per run, to the form it is not in
        # (the conversion to its own form returns it as it is); each (z0, h)
        # builds one transport, which forms the factors of E+ and E- once and
        # serves both the solution and the norm probe, and the probe builds
        # its adjoint transport once
        calls = Counter()
        for name in ("to_divergence_form", "to_standard_form"):
            def counted(op, _fn=getattr(cli, name), _name=name):
                out = _fn(op)
                if out is not op:
                    calls[_name] += 1
                return out

            monkeypatch.setattr(cli, name, counted)
        init, factors = OscillatoryTransport.__init__, PhaseSpec.oscillation_factors
        steps, transports = Counter(), []

        def counted_init(self, op, phase, sign=+1):
            steps[(phase.z0, phase.h, sign)] += 1
            transports.append(self)
            init(self, op, phase, sign)

        def counted_factors(self, grid, sign=+1):
            calls["oscillation_factors"] += 1
            return factors(self, grid, sign)

        monkeypatch.setattr(OscillatoryTransport, "__init__", counted_init)
        monkeypatch.setattr(PhaseSpec, "oscillation_factors", counted_factors)
        doc = base_cgo_config(tmp_path / "r")
        doc["operator"]["form"] = form
        doc["phase"]["z0"] = ["0.1+0.1i", "-0.1+0.05i"]
        doc["cgo"]["min_norm_slope"] = 0.1  # the second point's slope over two h is 0.17
        cfg = write_config(tmp_path, doc)
        assert main(["cgo", "--config", cfg]) == 0
        assert calls == {conversion: 1, "oscillation_factors": 2 * len(transports)}
        assert all(T.active for T in transports)
        assert steps == {
            (z0, h, sign): 1
            for z0 in (0.1 + 0.1j, -0.1 + 0.05j) for h in (0.3, 0.2) for sign in (+1, -1)
        }

    def test_carrier_overflow_exit_three(self, tmp_path, capsys):
        # passes every config check, but 2*max|xy|/h = 769 > 709 on this square
        doc = {
            "grid": {"n": 64, "half_width": 100},
            "operator": {"m": 2, "coeffs": {}},
            "phase": {"z0": ["0"], "h": [26.0, 25.5]},
            "output": {"directory": str(tmp_path / "r")},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["cgo", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "overflows" in err and "h=26" in err


class TestRecoverCommand:
    def test_single_bump_run(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_recover_config(out))
        assert main(["recover", "--config", cfg]) == 0
        assert (out / "manifest.json").exists()
        head = (out / "results.csv").read_text().splitlines()
        assert head[1].split(",")[:3] == ["m", "j", "k"]

    def test_identical_operators_all_zero(self, tmp_path):
        out = tmp_path / "run"
        doc = base_recover_config(out)
        doc["operator"]["coeffs"] = {"0,0": "bump(0, 0, 0.7, 1)"}
        # identical tables: every extraction is exactly zero
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg]) == 0
        rows = (out / "results.csv").read_text().splitlines()[2:]
        assert all(float(row.split(",")[6]) == 0.0 for row in rows)
        assert all(float(row.split(",")[7]) == 0.0 for row in rows)

    def test_probe_on_frame_exits_three(self, tmp_path, capsys):
        doc = base_recover_config(tmp_path / "r")
        doc["recovery"]["probes"] = ["0.2+0.1i", "0.97"]
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg]) == 3
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # the failure line is all stderr says
    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # the adjoint family's Neumann solve overflows on the huge difference
        out = tmp_path / "r"
        doc = base_recover_config(out)
        doc["grid"]["n"] = 64
        doc["phase"]["h"] = [0.5, 0.3]
        doc["operator"]["coeffs_tilde"] = {"0,0": "bump(0, 0, 0.7, 1e300)"}
        doc["recovery"]["mode"] = "full_cgo"
        assert main(["recover", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "numerical failure: transport map overflows at h=0.5: the source is not finite"
        lines = (out / "log.txt").read_text().splitlines()
        assert lines[0].startswith("failed_at=") and lines[-1] == err
        assert sorted(p.name for p in out.iterdir()) == ["log.txt"]

    @pytest.mark.filterwarnings("error")  # the failure line is all stderr says
    def test_pairing_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # a finite difference whose pairing moments overflow: no transform
        # runs in amplitude_only, so the first pairing meets the overflow
        out = tmp_path / "r"
        doc = json.loads((ROOT / "bench/configs/recover_full.json").read_text())
        doc["grid"]["n"] = 128
        doc["phase"]["h"] = [0.3, 0.2]
        doc["operator"]["coeffs_tilde"] = {"0,0": "bump(0.12, 0.08, 0.7, 1e308)"}
        doc["recovery"]["mode"] = "amplitude_only"
        doc["output"]["directory"] = str(out)
        assert main(["recover", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "numerical failure: pairing of level (0,0) at z0=0.08+0.08j, h=0.3 is not finite"
        lines = (out / "log.txt").read_text().splitlines()
        assert lines[0].startswith("failed_at=") and lines[-1] == err
        assert sorted(p.name for p in out.iterdir()) == ["log.txt"]

    def test_repeated_probe_config_error(self, tmp_path, capsys):
        # a repeated probe, however it is spelled, would write duplicate rows
        doc = base_recover_config(tmp_path / "r")
        doc["recovery"]["probes"] = [[0.2, 0.1], "-0.1+0.05i", "0.2+0.1i"]
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "recovery.probes[2]" in err and "recovery.probes[0]" in err
        assert not (tmp_path / "r").exists()

    def test_missing_probes_config_error(self, tmp_path):
        doc = base_recover_config(tmp_path / "r")
        doc["recovery"]["probes"] = []
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg]) == 2

    def test_difference_on_frame_config_error(self, tmp_path, capsys):
        # a constant difference reaches the outer frame; exit 1 would read
        # as a failed tolerance, so this must be a named config error
        doc = base_recover_config(tmp_path / "r")
        doc["grid"]["n"] = 64
        doc["phase"]["h"] = [0.5, 0.3]
        doc["operator"]["coeffs_tilde"] = {"0,0": "1"}
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg]) == 2
        assert "operator.coeffs_tilde" in capsys.readouterr().err

    def test_difference_on_frame_from_coeffs_names_both_fields(self, tmp_path, capsys):
        # the rule concerns the difference: a bump in coeffs alone that reaches
        # the frame once blamed coeffs_tilde, which was empty
        doc = base_recover_config(tmp_path / "r")
        doc["grid"]["n"] = 64
        doc["phase"]["h"] = [0.5, 0.3]
        doc["operator"]["coeffs"] = {"0,0": "bump(0.85, 0, 0.3, 1)"}
        doc["operator"]["coeffs_tilde"] = {}
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "fields operator.coeffs and operator.coeffs_tilde" in err
        assert not (tmp_path / "r").exists()

    def test_empty_h_list_config_error(self, tmp_path, capsys):
        doc = base_recover_config(tmp_path / "r")
        doc["phase"]["h"] = []
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg]) == 2
        assert "phase.h" in capsys.readouterr().err


class TestDeterminismAndProvenance:
    def test_identical_configs_bitwise_outputs(self, tmp_path):
        # same config, two runs to different --out targets
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, base_recover_config(tmp_path / "default"))
        assert main(["recover", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["recover", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "slopes.csv").read_bytes() == (out2 / "slopes.csv").read_bytes()
        assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        # a rerun from the config.json echo, which adds config_hash, gives the same rows
        out3 = tmp_path / "c"
        assert main(["recover", "--config", str(out1 / "config.json"), "--out", str(out3)]) == 0
        for name in ("results.csv", "slopes.csv"):
            rows = [(out / name).read_text().split("\n", 1)[1] for out in (out1, out3)]
            assert rows[0] == rows[1]

    def test_config_hash_embedded_everywhere(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_cauchy_config(out))
        assert main(["cauchy-test", "--config", cfg]) == 0
        echo = json.loads((out / "config.json").read_text())
        h = echo["config_hash"]
        assert (out / "results.csv").read_text().startswith(f"# config_sha256={h}")
        assert (out / "slopes.csv").read_text().startswith(f"# config_sha256={h}")

    def test_out_flag_overrides_directory(self, tmp_path):
        override = tmp_path / "elsewhere"
        cfg = write_config(tmp_path, base_cauchy_config(tmp_path / "ignored"))
        assert main(["cauchy-test", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "results.csv").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["cauchy-test", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["cauchy-test", "--config", str(p)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1", "3"])
    def test_threads_outside_cpu_count_config_error(self, tmp_path, capsys, monkeypatch, threads):
        # set_fft_workers once clamped 0 and below to 1 and passed any count to scipy.fft
        def forbidden(*args, **kwargs):
            raise AssertionError("the FFT workers were set before --threads was checked")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli.cauchy, "set_fft_workers", forbidden)
        cfg = write_config(tmp_path, base_cauchy_config(tmp_path / "r"))
        assert main(["cauchy-test", "--config", cfg, "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_negative_seed_config_error(self, tmp_path, capsys):
        # the probe's default_rng refused it only after the first h was solved
        cfg = write_config(tmp_path, base_cgo_config(tmp_path / "r"))
        assert main(["cgo", "--config", cfg, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()



# malformed values for numeric config fields: wrong types, non-finite, out of range
MALFORMED = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0, -1, 10**400, True, None,
                     "", "x", "0.7", "1+i", [], {}, [0.1], [0.1, "y"]]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.text(max_size=6),
)


def points(radius):
    return st.complex_numbers(max_magnitude=radius).map(lambda z: [z.real, z.imag])


def same_point(p):
    # a config point list may not name one point twice
    return complex(*p)


# per field: (well-formed values, malformed values).  Well-formed ones pass
# every check together: half_width <= 1 and h > 1.07 meet spacing <= h/8 at
# n = 16 and 32, and |z0| < 0.5 lies inside the square.
SWEPT_FIELDS = {
    ("grid", "n"): (
        st.sampled_from([16, 32]),
        st.one_of(
            st.integers(-64, 5000).filter(lambda n: n < 1 or n & (n - 1)),
            st.integers(13, 64).map(lambda e: 2**e),  # powers of two above MAX_GRID_N
            # a power of two up to the bound is a well-formed n that only costs memory
            MALFORMED.filter(
                lambda n: not (type(n) is int and 32 < n <= MAX_GRID_N and not n & (n - 1))
            ),
        ),
    ),
    ("grid", "half_width"): (st.floats(0.5, 1.0), MALFORMED),
    ("phase", "h"): (
        st.lists(st.floats(1.1, 3.0), min_size=1, max_size=3),
        st.one_of(st.lists(st.one_of(st.floats(0.1, 3.0), MALFORMED), max_size=3), MALFORMED),
    ),
    ("phase", "z0"): (
        st.lists(points(0.45), min_size=1, max_size=1),  # cauchy-test takes one point
        st.one_of(st.lists(st.one_of(points(2.0), MALFORMED), max_size=2), MALFORMED),
    ),
}


class TestMalformedPhaseAndGrid:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_cauchy_test_exits_with_a_documented_code(self, data):
        # malform up to two fields at once and keep the others well formed, so
        # every field's check is reached, not only the first one parsed
        bad = data.draw(st.sets(st.sampled_from(sorted(SWEPT_FIELDS)), max_size=2), label="bad")
        with tempfile.TemporaryDirectory() as tmp:
            doc = base_cauchy_config(Path(tmp) / "run")
            for (section, key), (good, malformed) in sorted(SWEPT_FIELDS.items()):
                value = data.draw(malformed if (section, key) in bad else good, label=key)
                doc[section][key] = value
            cfg = write_config(Path(tmp), doc)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["cauchy-test", "--config", cfg])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


BASE_CONFIGS = {"cauchy-test": base_cauchy_config, "cgo": base_cgo_config,
                "recover": base_recover_config}


@pytest.mark.parametrize("command, section, key, value", [
    ("cgo", "cgo", "amplitude_degree", "x"),
    ("cgo", "cgo", "amplitude_degree", -1),
    ("cgo", "cgo", "amplitude_degree", 2),  # m = 2: conj(z)^2 is not annihilated
    ("cgo", "cgo", "min_r_slope", "a"),
    ("cgo", "cgo", "min_r_slope", None),
    ("cgo", "solver", "tol", -1),
    ("cgo", "solver", "tol", float("nan")),
    ("cgo", "solver", "max_terms", 0),
    ("cauchy-test", "cauchy", "q_values", "x"),
    ("cauchy-test", "cauchy", "q_values", [0.5]),
    ("cauchy-test", "cauchy", "min_slopes", []),
    ("cauchy-test", "cauchy", "inverse_identity_max_rel", "x"),
    ("recover", "recovery", "max_rel_err", "x"),
    ("recover", "recovery", "max_rel_err", float("nan")),
    ("recover", "recovery", "probes", 5),
    # found by the sweeps below: non-finite points and expressions
    ("recover", "recovery", "probes", [float("nan")]),
    ("recover", "recovery", "probes", ["0/0"]),
    ("cauchy-test", "cauchy", "omega", "exp(1000)"),
    ("cgo", "operator", "coeffs", {"0,0": "1/0"}),
    ("cgo", "operator", "coeffs", {"0,0": "exp(1000 * z)"}),
    # unknown fields and sections ("" is the top level), which once ran on the
    # defaults, a format that is not csv, and an m that once hung the run
    ("cgo", "solver", "tolerance", -5),
    ("cgo", "cgo", "amplitude_degre", 7),
    ("cgo", "", "solvr", {"tol": 1e-8}),
    ("cgo", "output", "format", "json"),
    ("cgo", "operator", "m", 100000),
    # expressions too deep for a recursive parser
    *(pytest.param("cauchy-test", "cauchy", "omega", text, id=f"omega-{name}")
      for name, text in DEEP_EXPRESSIONS.items()),
    *(pytest.param("cgo", "operator", "coeffs", {"0,0": text}, id=f"coeffs-{name}")
      for name, text in DEEP_EXPRESSIONS.items()),
])
def test_malformed_field_is_a_named_config_error(tmp_path, capsys, command, section, key, value):
    # each of these once crashed with a traceback or exited 0, 1 or 3
    doc = BASE_CONFIGS[command](tmp_path / "r")
    (doc[section] if section else doc)[key] = value
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert (f"{section}.{key}" if section else key) in err and "Traceback" not in err


@pytest.mark.parametrize("command, key, table", [
    ("cgo", "coeffs", {"0,0": "bump(0, 0, 0.6, 1)", "00,0": "0"}),
    ("recover", "coeffs_tilde", {"0,0": "bump(0, 0, 0.7, 1)", "0,00": "0"}),
])
def test_duplicate_coefficient_index_is_a_config_error(tmp_path, capsys, command, key, table):
    # two keys for one (j, k): the later key in string order once silently won
    doc = BASE_CONFIGS[command](tmp_path / "r")
    doc["operator"][key] = table
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    assert f"operator.{key}[{sorted(table)[1]}]" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(BASE_CONFIGS))
def test_repeated_h_is_a_config_error(tmp_path, capsys, command):
    # a repeated h once wrote its rows twice and counted twice in the slope fit
    doc = BASE_CONFIGS[command](tmp_path / "r")
    doc["phase"]["h"] = [0.3, 0.2, 0.2]
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "phase.h[2]" in err and "phase.h[1]" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, section, key, value, where, name", [
    ("cgo", "operator", "coeffs", {"0,0": "bump(0.5i, 0, 0.3, 1)"}, "operator.coeffs[0,0]",
     "cx"),
    ("recover", "operator", "coeffs_tilde", {"0,0": "bump(0, 0, 0.3+5i, 1)"},
     "operator.coeffs_tilde[0,0]", "radius"),
    ("cauchy-test", "cauchy", "omega", "bump(0, -0.1i, 0.6, 1)", "cauchy.omega", "cy"),
])
def test_non_real_bump_argument_is_a_config_error(tmp_path, capsys, command, section, key,
                                                  value, where, name):
    # bump once read the real parts alone, so these ran as bumps on the real axis
    doc = BASE_CONFIGS[command](tmp_path / "r")
    doc[section][key] = value
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert where in err and f"bump {name} must be a finite real number" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, pipeline", [
    ("cauchy-test", "dbar_inv"), ("cgo", "build_cgo"), ("recover", "recover_all"),
])
@pytest.mark.parametrize("via_flag", [True, False], ids=["--out", "output.directory"])
def test_uncreatable_run_directory_is_a_config_error(tmp_path, capsys, monkeypatch, command,
                                                     pipeline, via_flag):
    # a file where the run directory should go: checked when the writer opens,
    # before the pipeline runs; it once ran the command and then died in flush
    taken = tmp_path / "taken"
    taken.write_text("")

    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline ran before the run directory was checked")

    monkeypatch.setattr(cli, pipeline, forbidden)
    doc = BASE_CONFIGS[command](tmp_path / "unused" if via_flag else taken / "run")
    argv = [command, "--config", write_config(tmp_path, doc)]
    assert main(argv + ["--out", str(taken)] if via_flag else argv) == 2
    assert "--out/output.directory" in capsys.readouterr().err


SHIPPED_CONFIGS = sorted(
    str(p.relative_to(ROOT))
    for d in ("configs", "bench/configs")
    for p in (ROOT / d).glob("*.json")
)


class ConfigRead(Exception):
    """Raised where a command, having read and checked its whole config, opens its writer."""


@pytest.mark.parametrize("path", SHIPPED_CONFIGS)
def test_shipped_configs_pass_the_readers(path, monkeypatch, tmp_path):
    # every command reads and checks its whole config before it opens its
    # writer; stopping it there runs every reader and none of the pipeline
    def stop(*args, **kwargs):
        raise ConfigRead

    monkeypatch.setattr(cli, "RunWriter", stop)
    cfg = cli.load_config(str(ROOT / path))
    command = "cauchy-test" if "cauchy" in cfg else "recover" if "recovery" in cfg else "cgo"
    with pytest.raises(ConfigRead):
        main([command, "--config", str(ROOT / path), "--out", str(tmp_path)])


# a value no number field accepts: not a JSON number, or not a finite double
NOT_A_NUMBER = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, True, False, None,
                     "", "x", "0.7", "1+i", [], {}, [0.1]]),
    st.text(max_size=6),
)
BELOW_ZERO = st.one_of(st.floats(max_value=0.0, exclude_max=True), st.integers(max_value=-1))
# 10**400 is no double, but it is an integer
NOT_AN_INT = st.one_of(
    NOT_A_NUMBER.filter(lambda v: type(v) is not int), st.floats(allow_nan=False)
)
BAD_POINT = st.sampled_from([None, True, {}, [], [0.1], [0.1, "y"], "x", float("nan")])
MODES = ("amplitude_only", "full_cgo")
FORMS = ("standard", "divergence")
UNSET = object()  # a well-formed config leaves the field out


def list_field(good_item, bad_item, min_size=0, unique_by=None):
    """(well-formed, malformed) strategies for a list field: one bad entry spoils it."""
    bad_list = st.tuples(st.lists(good_item, max_size=2), bad_item).map(lambda t: t[0] + [t[1]])
    wrong_kind = MALFORMED.filter(lambda v: not isinstance(v, list) or len(v) < min_size)
    good = st.lists(good_item, min_size=max(min_size, 1), max_size=2, unique_by=unique_by)
    return good, st.one_of(bad_list, wrong_kind)


def operator_fields(key, coeffs):
    """The swept operator fields of a command whose coefficient table key is
    `key`, with `coeffs` its well-formed table."""
    bad_expression = st.sampled_from(
        ["1/0", "exp(1000 * z)", "bump(", "z^(2)", "", 5, None, *DEEP_EXPRESSIONS.values()]
    )
    return {
        ("operator", "m"): (
            st.sampled_from([2, 3]),
            st.one_of(NOT_AN_INT, st.integers(max_value=1),
                      st.integers(min_value=MAX_OPERATOR_M + 1)),
        ),
        ("operator", "form"): (st.sampled_from(FORMS), MALFORMED.filter(lambda v: v not in FORMS)),
        ("operator", key): (
            st.just(coeffs),
            st.one_of(
                MALFORMED.filter(lambda v: not isinstance(v, dict)),
                st.dictionaries(st.sampled_from(["0,0", "1,1"]), bad_expression, min_size=1),
                st.dictionaries(st.sampled_from(["x", "0", "5,5", "0,-1", "a,b"]), st.just("1"),
                                min_size=1),
            ),
        ),
        ("operator", "coefs"): (st.just(UNSET), MALFORMED),  # a misspelled key
    }


Q_VALUES = list_field(
    st.floats(1.0, 6.0),
    st.one_of(NOT_A_NUMBER, st.floats(max_value=1.0, exclude_max=True, allow_nan=False)),
)

# per command, the swept fields beyond grid and phase: (well-formed, malformed)
SECTION_FIELDS = {
    "cgo": {
        ("solver", "tol"): (
            st.floats(1e-10, 1e-4), st.one_of(NOT_A_NUMBER, BELOW_ZERO, st.just(0)),
        ),
        ("solver", "max_terms"): (
            st.integers(50, 100), st.one_of(NOT_AN_INT, st.integers(max_value=0)),
        ),
        ("cgo", "min_r_slope"): (st.floats(-1.0, 0.1), NOT_A_NUMBER),
        ("cgo", "min_norm_slope"): (st.floats(-1.0, 0.1), NOT_A_NUMBER),
        ("cgo", "amplitude_degree"): (
            st.sampled_from([0, 1]),
            # 2 is well formed at m = 3; at m = 2 it is a case of the test above
            st.one_of(NOT_AN_INT, st.integers(max_value=-1), st.integers(min_value=3)),
        ),
        **operator_fields("coeffs", {"0,0": "bump(0, 0, 0.7, 0.2)", "1,1": "bump(0, 0, 0.7, 0.1)"}),
    },
    "cauchy-test": {
        ("cauchy", "q_values"): (
            # a well-formed q_values holds every q a well-formed min_slopes key
            # names, and no q twice
            Q_VALUES[0].map(lambda qs: list(dict.fromkeys([1.5, 2.0, 4.0] + qs))), Q_VALUES[1],
        ),
        ("cauchy", "min_slopes"): (
            st.dictionaries(st.sampled_from(["2", "4", "1.5"]), st.floats(-1.0, 1.0)),
            st.one_of(
                st.sampled_from([[], 5, "x", None, True, [0.1]]),
                st.dictionaries(st.sampled_from(["x", "", "two"]), st.floats(-1, 1), min_size=1),
                st.fixed_dictionaries({"2": NOT_A_NUMBER}),
                # a q that is not configured (q_values stay at or below 6), or one q twice
                st.sampled_from([{"7": 0.1}, {"2": 0.1, "2.0": 0.2}]),
            ),
        ),
        ("cauchy", "inverse_identity_max_rel"): (
            st.floats(0.0, 1.0), st.one_of(NOT_A_NUMBER, BELOW_ZERO),
        ),
    },
    "recover": {
        ("recovery", "mode"): (
            st.sampled_from(MODES), MALFORMED.filter(lambda v: v not in MODES),
        ),
        ("recovery", "probes"): list_field(points(0.25), BAD_POINT, min_size=1,
                                           unique_by=same_point),
        ("recovery", "max_rel_err"): (
            st.floats(0.0, 10.0), st.one_of(NOT_A_NUMBER, BELOW_ZERO),
        ),
        **operator_fields("coeffs_tilde", {"0,0": "bump(0, 0, 0.7, 0.2)"}),
    },
}


def small_config(command, out):
    """The command's base config on a 32-node grid, with weak enough coefficients
    that T contracts at the h the grid resolves."""
    doc = BASE_CONFIGS[command](out)
    doc["grid"] = {"n": 32, "half_width": 1.0}
    doc["phase"] = {"z0": ["0.05+0.05i"], "h": [0.7, 0.6]}
    if command == "cgo":
        doc["operator"]["coeffs"] = {"0,0": "bump(0, 0, 0.7, 0.2)", "1,1": "bump(0, 0, 0.7, 0.1)"}
    if command == "recover":
        doc["operator"]["coeffs_tilde"] = {"0,0": "bump(0, 0, 0.7, 0.2)"}
    return doc


class TestMalformedSections:
    @pytest.mark.parametrize("command", sorted(SECTION_FIELDS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_malformed_fields_exit_two_and_are_named(self, command, data):
        # malform up to two of the command's fields and keep the others well
        # formed: a malformed field is a named config error, never a traceback,
        # and a well-formed config runs to a pass or a failed tolerance
        fields = SECTION_FIELDS[command]
        bad = data.draw(st.sets(st.sampled_from(sorted(fields)), max_size=2), label="bad")
        with tempfile.TemporaryDirectory() as tmp:
            doc = small_config(command, Path(tmp) / "run")
            for (section, key), (good, malformed) in sorted(fields.items()):
                value = data.draw(
                    malformed if (section, key) in bad else good, label=f"{section}.{key}"
                )
                if value is not UNSET:
                    doc.setdefault(section, {})[key] = value
            cfg = write_config(Path(tmp), doc)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg])
        assert "Traceback" not in err.getvalue()
        if bad:
            assert code == 2, err.getvalue()
            assert any(f"{section}.{key}" in err.getvalue() for section, key in bad)
        else:
            assert code in (0, 1), err.getvalue()
