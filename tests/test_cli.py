import json
from pathlib import Path

import pytest

from conftest import TESTBED_BUMPS

from polycgo.cli import main


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

    def test_coupling_violation_named(self, tmp_path, capsys):
        doc = base_cauchy_config(tmp_path / "r")
        doc["phase"]["h"] = [0.05]
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "phase.h[0]" in err and "spacing" in err

    def test_failed_tolerance_exits_one(self, tmp_path):
        doc = base_cauchy_config(tmp_path / "r")
        doc["cauchy"]["min_slopes"] = {"2": 5.0}  # unattainable
        cfg = write_config(tmp_path, doc)
        assert main(["cauchy-test", "--config", cfg]) == 1


class TestCgoCommand:
    def test_bump_run(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, base_cgo_config(out))
        assert main(["cgo", "--config", cfg]) == 0
        body = (out / "results.csv").read_text()
        assert "cgo" in body and "transport_norm" in body

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
