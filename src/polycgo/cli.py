"""Experiment driver: parse a config, run a pipeline, emit reproducible tables.

Commands:  poly cauchy-test | cgo | recover, each taking --config PATH plus
--out DIR, --threads N, --seed N.  A run directory receives config.json (the
normalized echo with its own hash), results.csv, slopes.csv, and log.txt; the
CSV files embed the config hash and contain no wall-clock content, so a rerun
of the same config is bit-identical (the log carries the only timestamp).

Exit codes: 0 success, 1 tolerance failure, 2 config error, 3 numerical
failure (non-contraction, term budget, degenerate probe).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from . import cauchy
from .cauchy import dbar_inv, lp_bound_constant, oscillatory_decay_probe
from .cgo import AmplitudeSpec, build_cgo, transport_norm_probe
from .errors import (
    CarrierOverflowError,
    ConfigError,
    CouplingError,
    DegenerateProbeError,
    MaxTermsExceededError,
    NonContractionError,
)
from .expressions import ExpressionError, constant_from_expression, field_from_expression
from .grid import ComplexGrid, norm_lp, wirtinger_dbar
from .operators import DIVERGENCE, STANDARD, PerturbedOperator
from .phase import COUPLING_FACTOR, PhaseSpec
from .recovery import AMPLITUDE_ONLY, FULL_CGO, RecoveryProblem, recover_all
from .sweeps import DEFAULT_H_SWEEP, fit_loglog_slope

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------- config ----

def _field(section, key):
    return f"{section}.{key}" if section else key


def _take(cfg: dict, section: str, key: str, kind, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required field {_field(section, key)}")
        return default
    val = cfg[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(
            f"field {_field(section, key)} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(val).__name__}"
        )
    return val


def _complex_from(value, where: str) -> complex:
    if isinstance(value, str):
        try:
            return constant_from_expression(value)
        except ExpressionError as exc:
            raise ConfigError(f"field {where}: {exc}") from exc
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"field {where} must be a number, 'a+bi' string, or [re, im]")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    return raw


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_grid(cfg: dict) -> ComplexGrid:
    section = _take(cfg, "", "grid", dict, default={})
    n = _take(section, "grid", "n", int, default=256)
    if n < 16 or (n & (n - 1)) != 0:
        raise ConfigError(f"field grid.n must be a power of two >= 16, got {n}")
    half_width = _take(section, "grid", "half_width", (int, float), default=1.0)
    center = _complex_from(section.get("center", 0.0), "grid.center")
    return ComplexGrid(center=center, half_width=float(half_width), n=n)


def _coeff_table(grid, m, table, where):
    coeffs = {}
    for key, text in sorted(table.items()):
        try:
            j_str, k_str = key.split(",")
            j, k = int(j_str), int(k_str)
        except ValueError as exc:
            raise ConfigError(f"field {where}[{key}]: key must look like 'j,k'") from exc
        if not (0 <= j < m and 0 <= k < m):
            raise ConfigError(f"field {where}[{key}]: index out of range for m={m}")
        try:
            coeffs[(j, k)] = field_from_expression(grid, text)
        except ExpressionError as exc:
            raise ConfigError(f"field {where}[{key}]: {exc}") from exc
    return coeffs


def build_operator(cfg: dict, grid: ComplexGrid, key: str = "coeffs") -> PerturbedOperator:
    section = _take(cfg, "", "operator", dict, required=True)
    m = _take(section, "operator", "m", int, required=True)
    if m < 2:
        raise ConfigError(f"field operator.m must be >= 2, got {m}")
    form = _take(section, "operator", "form", str, default=STANDARD)
    if form not in (STANDARD, DIVERGENCE):
        raise ConfigError(f"field operator.form must be standard or divergence, got {form!r}")
    table = _take(section, "operator", key, dict, default={})
    return PerturbedOperator(grid, m, _coeff_table(grid, m, table, f"operator.{key}"), form=form)


def build_phases(cfg: dict, grid: ComplexGrid):
    section = _take(cfg, "", "phase", dict, default={})
    z0_list = [
        _complex_from(v, f"phase.z0[{i}]")
        for i, v in enumerate(section.get("z0", [0.0]))
    ]
    h_list = [float(h) for h in section.get("h", list(DEFAULT_H_SWEEP))]
    if not h_list:
        raise ConfigError("field phase.h must list at least one value")
    for i, h in enumerate(h_list):
        if h <= 0:
            raise ConfigError(f"field phase.h[{i}] must be positive, got {h}")
        if grid.spacing > h / COUPLING_FACTOR:
            raise ConfigError(
                f"field phase.h[{i}]={h:g} violates spacing <= h/{COUPLING_FACTOR:g} "
                f"for grid.n={grid.n} "
                f"(spacing={grid.spacing:.6g} > {h / COUPLING_FACTOR:.6g})"
            )
    return z0_list, sorted(h_list, reverse=True)


def build_solver(cfg: dict):
    section = _take(cfg, "", "solver", dict, default={})
    tol = _take(section, "solver", "tol", (int, float), default=1e-10)
    max_terms = _take(section, "solver", "max_terms", int, default=50)
    return float(tol), max_terms


# --------------------------------------------------------------- outputs ----

class RunWriter:
    """Collects result/slope rows and writes the run directory at the end."""

    def __init__(self, out_dir: Path, cfg: dict):
        self.out_dir = out_dir
        self.cfg = cfg
        self.hash = config_hash(cfg)
        self.results = []
        self.slopes = []
        self.log_lines = []

    def log(self, message: str) -> None:
        self.log_lines.append(message)

    def add_result(self, **row) -> None:
        self.results.append(row)

    def add_slope(self, name: str, slope: float, threshold, passed) -> None:
        self.slopes.append(
            {"name": name, "slope": slope, "threshold": threshold, "passed": passed}
        )

    def _write_csv(self, path: Path, rows) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# config_sha256={self.hash}\n")
            if not rows:
                return
            cols = list(rows[0])
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([_cell(row.get(c)) for c in cols])

    def flush(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        echo = dict(self.cfg)
        echo["config_hash"] = self.hash
        with open(self.out_dir / "config.json", "w") as fh:
            json.dump(echo, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._write_csv(self.out_dir / "results.csv", self.results)
        self._write_csv(self.out_dir / "slopes.csv", self.slopes)
        with open(self.out_dir / "log.txt", "w") as fh:
            fh.write(f"finished_at={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            for line in self.log_lines:
                fh.write(line + "\n")


def _cell(v):
    # numpy scalars subclass float/complex but repr differently; normalize
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, complex):
        return repr(complex(v))
    return v


# -------------------------------------------------------------- commands ----

def cmd_cauchy_test(cfg: dict, out_dir: Path) -> int:
    grid = build_grid(cfg)
    z0_list, h_list = build_phases(cfg, grid)
    section = _take(cfg, "", "cauchy", dict, default={})
    omega_text = _take(section, "cauchy", "omega", str, default="bump(0, 0, 0.6, 1)")
    try:
        omega = field_from_expression(grid, omega_text)
    except ExpressionError as exc:
        raise ConfigError(f"field cauchy.omega: {exc}") from exc
    q_values = [float(q) for q in section.get("q_values", [2.0, 4.0])]
    min_slopes = {float(k): float(v) for k, v in section.get(
        "min_slopes", {"2": 0.5, "4": 0.2}).items()}
    max_identity_err = float(section.get("inverse_identity_max_rel", 1e-2))

    writer = RunWriter(out_dir, cfg)
    ok = True

    # right-inverse identity on the configured grid
    err = norm_lp(wirtinger_dbar(dbar_inv(omega)) - omega, 2) / norm_lp(omega, 2)
    passed = err <= max_identity_err
    ok &= passed
    writer.add_result(kind="inverse_identity", series="", h="", value=err)
    writer.add_slope("inverse_identity_rel_err", err, max_identity_err, passed)
    writer.log(f"inverse identity rel err {err:.3e} (<= {max_identity_err:g}: {passed})")

    # L^p boundedness constants
    for p in (1.5, 2.0, 4.0):
        c = lp_bound_constant(omega, p)
        writer.add_result(kind="lp_bound", series=f"p={p:g}", h="", value=c)
        writer.log(f"lp bound constant p={p}: {c:.4f}")

    # oscillatory decay probes
    phase = PhaseSpec(z0_list[0], max(h_list))
    for q in q_values:
        probe = oscillatory_decay_probe(omega, phase, q, h_list)
        for h, norm in probe.rows:
            writer.add_result(kind="decay", series=f"q={q:g}", h=h, value=norm)
        threshold = min_slopes.get(q)
        passed = threshold is None or probe.slope >= threshold
        ok &= passed
        writer.add_slope(f"decay_q{q:g}", probe.slope, threshold, passed)
        writer.log(f"decay slope q={q:g}: {probe.slope:.3f} (>= {threshold}: {passed})")

    writer.flush()
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_cgo(cfg: dict, out_dir: Path, seed: int) -> int:
    grid = build_grid(cfg)
    op = build_operator(cfg, grid)
    z0_list, h_list = build_phases(cfg, grid)
    tol, max_terms = build_solver(cfg)
    section = _take(cfg, "", "cgo", dict, default={})
    min_r_slope = float(section.get("min_r_slope", 0.45))
    min_norm_slope = float(section.get("min_norm_slope", 0.4))
    amplitude_degree = int(section.get("amplitude_degree", 0))

    writer = RunWriter(out_dir, cfg)
    ok = True
    amplitude = AmplitudeSpec.monomial(grid, amplitude_degree)
    for z0 in z0_list:
        tag = f"z0={z0.real:g}{z0.imag:+g}i"
        r_rows, g_rows = [], []
        for h in h_list:
            sol = build_cgo(op, PhaseSpec(z0, h), amplitude, tol=tol, max_terms=max_terms)
            d = sol.diagnostics
            writer.add_result(
                kind="cgo", series=tag, h=h, value=d.r_hm,
                g_l2=d.g_l2, residual_l2=d.residual_l2, terms=d.neumann_terms,
            )
            r_rows.append((h, d.r_hm))
            g_rows.append((h, d.g_l2))
        if op.is_unperturbed():
            exact = all(v == 0.0 for _, v in r_rows)
            ok &= exact
            writer.add_slope(f"remainder_zero[{tag}]", 0.0, "exact", exact)
            writer.log(f"{tag}: unperturbed remainder identically zero: {exact}")
            continue
        r_slope = fit_loglog_slope([r[0] for r in r_rows], [r[1] for r in r_rows])
        g_slope = fit_loglog_slope([r[0] for r in g_rows], [r[1] for r in g_rows])
        passed = r_slope >= min_r_slope
        ok &= passed
        writer.add_slope(f"remainder_hm[{tag}]", r_slope, min_r_slope, passed)
        writer.add_slope(f"density_l2[{tag}]", g_slope, None, True)
        writer.log(f"{tag}: remainder slope {r_slope:.3f}, density slope {g_slope:.3f}")

        probe = transport_norm_probe(
            op, [PhaseSpec(z0, h) for h in h_list], seed=seed
        )
        for h, est in probe.rows:
            writer.add_result(kind="transport_norm", series=tag, h=h, value=est)
        contraction = all(est < 1.0 for _, est in probe.rows)
        passed = probe.slope >= min_norm_slope and contraction
        ok &= passed
        writer.add_slope(f"transport_norm[{tag}]", probe.slope, min_norm_slope, passed)
        writer.log(
            f"{tag}: transport norm slope {probe.slope:.3f}, contraction: {contraction}"
        )

    writer.flush()
    return EXIT_OK if ok else EXIT_TOLERANCE


def cmd_recover(cfg: dict, out_dir: Path) -> int:
    grid = build_grid(cfg)
    op = build_operator(cfg, grid, key="coeffs")
    op_tilde = build_operator(cfg, grid, key="coeffs_tilde")
    _, h_list = build_phases(cfg, grid)
    tol, max_terms = build_solver(cfg)
    section = _take(cfg, "", "recovery", dict, default={})
    mode = _take(section, "recovery", "mode", str, default=AMPLITUDE_ONLY)
    if mode not in (AMPLITUDE_ONLY, FULL_CGO):
        raise ConfigError(f"field recovery.mode must be amplitude_only or full_cgo, got {mode!r}")
    probes = [
        _complex_from(v, f"recovery.probes[{i}]")
        for i, v in enumerate(section.get("probes", []))
    ]
    if not probes:
        raise ConfigError("field recovery.probes must list at least one point")
    max_rel_err = float(section.get("max_rel_err", 0.15))

    try:
        problem = RecoveryProblem(
            op, op_tilde, probes, h_list, mode=mode, solver_tol=tol, max_terms=max_terms
        )
    except ValueError as exc:
        # the config-level checks that remain concern the coefficient differences
        raise ConfigError(f"field operator.coeffs_tilde: {exc}") from exc
    report = recover_all(problem)

    writer = RunWriter(out_dir, cfg)
    for r in report.rows:
        writer.add_result(
            m=r.m, j=r.j, k=r.k,
            re_z0=r.z0.real, im_z0=r.z0.imag, h=r.h,
            re_extracted=r.extracted.real, im_extracted=r.extracted.imag,
            re_truth=r.truth.real, im_truth=r.truth.imag,
            abs_err=r.abs_err, rel_err=r.rel_err,
        )
    worst = report.worst_rel_err_at_smallest_h()
    ok = worst <= max_rel_err
    for (j, k), slope in sorted(report.slopes.items()):
        writer.add_slope(f"recovery_err[{j},{k}]", slope, None, True)
    writer.add_slope("worst_rel_err_smallest_h", worst, max_rel_err, ok)
    writer.log(f"worst relative error at smallest h: {worst:.3e} (<= {max_rel_err:g}: {ok})")
    for z0, reason in report.degenerate:
        writer.log(f"degenerate probe {z0}: {reason}")
    writer.flush()
    report.write_manifest(writer.out_dir / "manifest.json", writer.hash)
    if report.degenerate:
        print(
            f"degenerate probes: {[z for z, _ in report.degenerate]}", file=sys.stderr
        )
        return EXIT_NUMERICAL
    return EXIT_OK if ok else EXIT_TOLERANCE


# ------------------------------------------------------------------ main ----

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poly",
        description="Cauchy-transform, oscillatory-solution, and recovery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("cauchy-test", "cgo", "recover"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--out", default=None, help="run directory (default from config)")
        p.add_argument("--threads", type=int, default=1, help="FFT worker threads")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the power-iteration start field")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_section = cfg.get("output", {})
        if not isinstance(out_section, dict):
            raise ConfigError("field output must be an object")
        out_dir = Path(args.out or out_section.get("directory", f"runs/{args.command}"))
        cauchy.set_fft_workers(args.threads)
        if args.command == "cauchy-test":
            return cmd_cauchy_test(cfg, out_dir)
        if args.command == "cgo":
            return cmd_cgo(cfg, out_dir, seed=args.seed)
        return cmd_recover(cfg, out_dir)
    except (ConfigError, CouplingError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        NonContractionError, MaxTermsExceededError, DegenerateProbeError, CarrierOverflowError
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
