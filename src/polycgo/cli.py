"""Experiment driver: parse a config, run a pipeline, emit reproducible tables.

Commands:  poly cauchy-test | cgo | recover, each taking --config PATH plus
--out DIR, --threads N, --seed N.  A run directory receives config.json (the
normalized echo with its own hash), results.csv, slopes.csv, and log.txt; the
CSV files embed the config hash and contain no wall-clock content, so a rerun
of the same config is bit-identical (the log carries the only timestamp).
Each command creates its run directory once it has read its whole config and
before it computes anything, and removes the result tables (results.csv,
slopes.csv, manifest.json) an earlier run left there; a directory that cannot
be created, or a table that cannot be removed, is a config error.  A run that
then fails, numerically or on a config error found only while it computes,
writes log.txt alone: the lines logged so far and a last line, the one printed
on stderr, naming the failure.  So a failed run leaves no result table, and
only log.txt in a new directory.

Exit codes: 0 success, 1 tolerance failure (a false passed cell in
slopes.csv), 2 config error, 3 numerical failure (non-contraction, term
budget, carrier overflow, pairing overflow, no extended-precision long
double; or a degenerate probe, which poly recover reports after writing its
tables).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from math import inf, isfinite, nan
from pathlib import Path

import scipy.fft

from .cauchy import dbar_inv, fit_loglog_slope, lp_bound_constant, oscillatory_decay_probe
from .cgo import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    AmplitudeSpec,
    OscillatoryTransport,
    build_cgo,
    residual_norm,
    transport_norm_probe,
)
from .errors import (
    CarrierOverflowError,
    ConfigError,
    CouplingError,
    DegenerateProbeError,
    MaxTermsExceededError,
    NonContractionError,
    PairingOverflowError,
    PrecisionError,
)
from .expressions import ExpressionError, constant_from_expression, field_from_expression
from .grid import ComplexGrid, norm_hm, norm_lp, wirtinger_dbar
from .operators import DIVERGENCE, STANDARD, PerturbedOperator, to_divergence_form, to_standard_form
from .phase import COUPLING_FACTOR, PhaseSpec, violates_coupling
from .recovery import AMPLITUDE_ONLY, FULL_CGO, RecoveryProblem, recover_all

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
CONFIG_FAILURES = (ConfigError, CouplingError)
NUMERICAL_FAILURES = (
    NonContractionError, MaxTermsExceededError, DegenerateProbeError, CarrierOverflowError,
    PairingOverflowError, PrecisionError,
)

# largest grid.n: the doubled kernel grid is already 1 GiB per table at 4096
MAX_GRID_N = 4096
# largest operator.m: the coefficient table has m^2 entries and the form
# conversion costs O(m^3) field operations
MAX_OPERATOR_M = 16
# phase.h when a config names none
DEFAULT_H_SWEEP = (0.2, 0.14, 0.1, 0.07, 0.05)


# ---------------------------------------------------------------- config ----

# the fields of each section; load_config refuses any other, and _take reads no other
CONFIG_KEYS = {
    "grid": ("n", "half_width", "center"),
    "operator": ("m", "form", "coeffs", "coeffs_tilde"),
    "phase": ("z0", "h"),
    "solver": ("tol", "max_terms"),
    "cgo": ("min_r_slope", "min_norm_slope", "amplitude_degree"),
    "cauchy": ("omega", "q_values", "min_slopes", "inverse_identity_max_rel"),
    "recovery": ("mode", "probes", "max_rel_err"),
    "output": ("directory", "format"),
}
# the top level: the sections, and the hash a run's config.json echo adds, so
# that a run can be repeated from its echo
CONFIG_KEYS[""] = (*CONFIG_KEYS, "config_hash")

# value checks for _take and _as_float: (predicate, what the value must be)
FINITE = (isfinite, "finite")
NON_NEGATIVE = (lambda x: 0 <= x < inf, "non-negative and finite")
POSITIVE = (lambda x: 0 < x < inf, "positive and finite")
NON_EMPTY = (len, "a non-empty list")


def _take(cfg: dict, section: str, key: str, kind, default=None, required=False, check=None):
    """cfg[key] as kind (float: any JSON number, never a bool), bounded by check, or default."""
    if key not in CONFIG_KEYS[section]:
        raise KeyError(f"{key!r} is read from section {section!r} but not listed in CONFIG_KEYS")
    where = f"{section}.{key}" if section else key
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required field {where}")
        return default
    val = cfg[key]
    if kind is float:
        return _as_float(val, where, check)
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ConfigError(f"field {where} must be {kind.__name__}, got {type(val).__name__}")
    return _checked(val, where, check)


def _checked(val, where: str, check):
    if check is not None and not check[0](val):
        raise ConfigError(f"field {where} must be {check[1]}, got {val!r}")
    return val


def _as_float(value, where: str, check=None) -> float:
    """A JSON number (never a bool) as a double, bounded by check when given."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return _checked(float(value), where, check)
        except OverflowError:
            pass
    raise ConfigError(f"field {where} must be a number in double range, got {value!r}")


def _complex_from(value, where: str) -> complex:
    if isinstance(value, str):
        try:
            return constant_from_expression(value)
        except ExpressionError as exc:
            raise ConfigError(f"field {where}: {exc}") from exc
    if isinstance(value, (int, float)):
        return complex(_as_float(value, where, FINITE))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_float(value[0], where, FINITE), _as_float(value[1], where, FINITE))
    raise ConfigError(f"field {where} must be a number, 'a+bi' string, or [re, im]")


def _distinct(raw: list, where: str, parse) -> list:
    """parse(entry, name) for each entry of the list field `where`; a repeat is a config error."""
    values = []
    for i, entry in enumerate(raw):
        value = parse(entry, f"{where}[{i}]")
        if value in values:
            first = values.index(value)
            raise ConfigError(f"field {where}[{i}]: {value:g} repeats {where}[{first}]")
        values.append(value)
    return values


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
    for section, fields in raw.items():
        if section not in CONFIG_KEYS[""]:
            raise ConfigError(f"unknown config section {section!r}")
        if isinstance(fields, dict):
            unknown = sorted(set(fields) - set(CONFIG_KEYS.get(section, ())))
            if unknown:
                raise ConfigError(f"unknown field {section}.{unknown[0]}")
    return raw


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def build_grid(cfg: dict) -> ComplexGrid:
    section = _take(cfg, "", "grid", dict, default={})
    # the power-of-two rule is ComplexGrid's; the memory cap is the driver's
    n = _take(section, "grid", "n", int, default=256,
              check=(lambda n: n <= MAX_GRID_N, f"at most {MAX_GRID_N}"))
    half_width = _take(section, "grid", "half_width", float, default=1.0)
    center = _complex_from(section.get("center", 0.0), "grid.center")
    try:
        return ComplexGrid(center=center, half_width=half_width, n=n)
    except ValueError as exc:  # the message opens with the field it refuses
        raise ConfigError(f"field grid.{str(exc).split()[0]}: {exc}") from exc


def _coeff_table(grid, m, table, where):
    coeffs, keys = {}, {}
    for key, text in sorted(table.items()):
        try:
            j_str, k_str = key.split(",")
            j, k = int(j_str), int(k_str)
        except ValueError as exc:
            raise ConfigError(f"field {where}[{key}]: key must look like 'j,k'") from exc
        if not (0 <= j < m and 0 <= k < m):
            raise ConfigError(f"field {where}[{key}]: index out of range for m={m}")
        if (j, k) in keys:
            raise ConfigError(
                f"field {where}[{key}]: index ({j},{k}) is already given by [{keys[(j, k)]}]"
            )
        keys[(j, k)] = key
        try:
            coeffs[(j, k)] = field_from_expression(grid, text)
        except ExpressionError as exc:
            raise ConfigError(f"field {where}[{key}]: {exc}") from exc
    return coeffs


def build_operator(cfg: dict, grid: ComplexGrid, key: str = "coeffs") -> PerturbedOperator:
    section = _take(cfg, "", "operator", dict, required=True)
    m = _take(
        section, "operator", "m", int, required=True,
        check=(lambda m: 2 <= m <= MAX_OPERATOR_M, f"from 2 to {MAX_OPERATOR_M}"),
    )
    form = _take(
        section, "operator", "form", str, default=STANDARD,
        check=((STANDARD, DIVERGENCE).__contains__, "standard or divergence"),
    )
    table = _take(section, "operator", key, dict, default={})
    return PerturbedOperator(grid, m, _coeff_table(grid, m, table, f"operator.{key}"), form=form)


def build_h_list(cfg: dict, grid: ComplexGrid) -> list:
    """phase.h, largest first; each entry positive, finite, resolved by the grid, distinct."""
    section = _take(cfg, "", "phase", dict, default={})
    raw = _take(section, "phase", "h", list, default=list(DEFAULT_H_SWEEP), check=NON_EMPTY)
    h_list = _distinct(raw, "phase.h", lambda value, where: _as_float(value, where, POSITIVE))
    for i, h in enumerate(h_list):
        if violates_coupling(grid, h):
            raise ConfigError(
                f"field phase.h[{i}]={h:g} violates spacing <= h/{COUPLING_FACTOR:g} "
                f"for grid.n={grid.n} "
                f"(spacing={grid.spacing:.6g} > {h / COUPLING_FACTOR:.6g})"
            )
    return sorted(h_list, reverse=True)


def build_phases(cfg: dict, grid: ComplexGrid):
    """(phase.z0 list, phase.h list); each z0 finite and strictly inside the grid square."""
    h_list = build_h_list(cfg, grid)
    raw = _take(cfg.get("phase", {}), "phase", "z0", list, default=[0.0], check=NON_EMPTY)
    z0_list = _distinct(raw, "phase.z0", _complex_from)
    for i, z0 in enumerate(z0_list):
        try:
            PhaseSpec(z0, h_list[0]).check_grid(grid)
        except ValueError as exc:
            raise ConfigError(f"field phase.z0[{i}]: {exc}") from exc
    return z0_list, h_list


def build_solver(cfg: dict):
    section = _take(cfg, "", "solver", dict, default={})
    tol = _take(section, "solver", "tol", float, default=DEFAULT_TOL, check=POSITIVE)
    max_terms = _take(
        section, "solver", "max_terms", int, default=DEFAULT_MAX_TERMS,
        check=(lambda n: n >= 1, ">= 1"),
    )
    return tol, max_terms


# --------------------------------------------------------------- outputs ----

# the tables a run writes beside config.json and log.txt; opening a run removes them
RESULT_TABLES = ("results.csv", "slopes.csv", "manifest.json")


class RunWriter:
    """Creates the run directory when opened, clear of an earlier run's result
    tables, collects result/slope rows and writes them at the end, when the
    slope rows' passed cells give the exit code.  Used as a context manager, it
    writes log.txt alone, ending with the failure, when a config or numerical
    failure leaves the run."""

    def __init__(self, out_dir: Path, cfg: dict):
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"--out/output.directory {str(out_dir)!r}: cannot create the run directory: "
                f"{exc.strerror or exc}"
            ) from exc
        for name in RESULT_TABLES:
            path = out_dir / name
            try:
                path.unlink(missing_ok=True)
            except OSError as exc:
                raise ConfigError(
                    f"--out/output.directory {str(out_dir)!r}: cannot remove {str(path)!r} "
                    f"of an earlier run: {exc.strerror or exc}"
                ) from exc
        self.out_dir = out_dir
        self.cfg = cfg
        self.hash = config_hash(cfg)
        self.results = []
        self.slopes = []
        self.log_lines = []

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, CONFIG_FAILURES + NUMERICAL_FAILURES):
            self._write_log("failed_at", self.log_lines + [_failure(exc)[1]])

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

    def flush(self) -> int:
        """Write every file of the run; the exit code is 0 when every slope row passed, else 1."""
        echo = dict(self.cfg)
        echo["config_hash"] = self.hash
        with open(self.out_dir / "config.json", "w") as fh:
            json.dump(echo, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._write_csv(self.out_dir / "results.csv", self.results)
        self._write_csv(self.out_dir / "slopes.csv", self.slopes)
        self._write_log("finished_at", self.log_lines)
        return EXIT_OK if all(row["passed"] for row in self.slopes) else EXIT_TOLERANCE

    def _write_log(self, stamp: str, lines) -> None:
        with open(self.out_dir / "log.txt", "w") as fh:
            fh.write(f"{stamp}={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
            for line in lines:
                fh.write(line + "\n")


def _failure(exc: Exception):
    """(exit code, the one line on stderr and ending log.txt) of a config or numerical failure."""
    if isinstance(exc, CONFIG_FAILURES):
        return EXIT_CONFIG, f"config error: {exc}"
    return EXIT_NUMERICAL, f"numerical failure: {exc}"


def _cell(v):
    # numpy scalars subclass float/complex but repr differently; normalize
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, complex):
        return repr(complex(v))
    return v


# -------------------------------------------------------------- commands ----

def _resolved(norm: float, what: str, grid: ComplexGrid) -> float:
    """A norm of the nonzero cauchy.omega or a transform of it; 0 means it underflowed."""
    if norm == 0.0:
        raise ConfigError(
            f"field grid.half_width={grid.half_width:g}: {what} of the nonzero "
            f"cauchy.omega underflows to 0 on this square"
        )
    return norm


def cmd_cauchy_test(cfg: dict, out_dir: Path) -> int:
    grid = build_grid(cfg)
    z0_list, h_list = build_phases(cfg, grid)
    if len(z0_list) > 1:
        raise ConfigError("field phase.z0[1]: cauchy-test probes the decay at one point only")
    section = _take(cfg, "", "cauchy", dict, default={})
    omega_text = _take(section, "cauchy", "omega", str, default="bump(0, 0, 0.6, 1)")
    try:
        omega = field_from_expression(grid, omega_text)
    except ExpressionError as exc:
        raise ConfigError(f"field cauchy.omega: {exc}") from exc
    if omega.is_zero():
        raise ConfigError("field cauchy.omega vanishes on every grid node")
    omega_norm = _resolved(norm_lp(omega, 2), "the L2 norm", grid)
    q_values = _distinct(
        _take(section, "cauchy", "q_values", list, default=[2.0, 4.0]), "cauchy.q_values",
        lambda q, where: _as_float(q, where, (lambda q: 1 <= q < inf, ">= 1 and finite")),
    )
    # the default gates q = 2 and q = 4 where they are configured
    default_slopes = {key: s for key, s in (("2", 0.5), ("4", 0.2)) if float(key) in q_values}
    min_slopes = {}
    for key, value in _take(
        section, "cauchy", "min_slopes", dict, default=default_slopes
    ).items():
        where = f"cauchy.min_slopes[{key}]"
        try:
            q = float(key)
        except ValueError:
            raise ConfigError(f"field {where}: key must be a number") from None
        if q not in q_values:
            raise ConfigError(f"field {where}: q={q:g} is not in cauchy.q_values")
        if q in min_slopes:
            raise ConfigError(f"field {where}: another key already gives q={q:g}")
        min_slopes[q] = _as_float(value, where, FINITE)
    max_identity_err = _take(
        section, "cauchy", "inverse_identity_max_rel", float, default=1e-2, check=NON_NEGATIVE
    )

    with RunWriter(out_dir, cfg) as writer:
        # right-inverse identity on the configured grid
        err = norm_lp(wirtinger_dbar(dbar_inv(omega)) - omega, 2) / omega_norm
        passed = err <= max_identity_err
        writer.add_result(kind="inverse_identity", series="", h="", value=err)
        writer.add_slope("inverse_identity_rel_err", err, max_identity_err, passed)
        writer.log(f"inverse identity rel err {err:.3e} (<= {max_identity_err:g}: {passed})")

        # L^p boundedness constants
        for p in (1.5, 2.0, 4.0):
            c = _resolved(lp_bound_constant(omega, p), f"the L^{p:g} norm of dbar_inv", grid)
            writer.add_result(kind="lp_bound", series=f"p={p:g}", h="", value=c)
            writer.log(f"lp bound constant p={p}: {c:.4f}")

        # oscillatory decay probes
        phase = PhaseSpec(z0_list[0], max(h_list))
        for probe in oscillatory_decay_probe(omega, phase, q_values, h_list):
            q = probe.q
            for h, norm in probe.rows:
                _resolved(norm, f"the L^{q:g} norm at h={h:g} of the oscillatory d_inv", grid)
                writer.add_result(kind="decay", series=f"q={q:g}", h=h, value=norm)
            threshold = min_slopes.get(q)
            passed = threshold is None or probe.slope >= threshold
            writer.add_slope(f"decay_q{q:g}", probe.slope, threshold, passed)
            writer.log(f"decay slope q={q:g}: {probe.slope:.3f} (>= {threshold}: {passed})")

        return writer.flush()


def cmd_cgo(cfg: dict, out_dir: Path, seed: int) -> int:
    grid = build_grid(cfg)
    op = build_operator(cfg, grid)
    z0_list, h_list = build_phases(cfg, grid)
    tol, max_terms = build_solver(cfg)
    section = _take(cfg, "", "cgo", dict, default={})
    min_r_slope = _take(section, "cgo", "min_r_slope", float, default=0.45, check=FINITE)
    min_norm_slope = _take(section, "cgo", "min_norm_slope", float, default=0.4, check=FINITE)
    amplitude_degree = _take(
        section, "cgo", "amplitude_degree", int, default=0,
        check=(lambda d: 0 <= d < op.m, f"from 0 to operator.m - 1 = {op.m - 1}"),
    )

    with RunWriter(out_dir, cfg) as writer:
        amplitude = AmplitudeSpec.monomial(grid, amplitude_degree)
        op_div, op_std = to_divergence_form(op), to_standard_form(op)
        for z0 in z0_list:
            tag = f"z0={z0.real:g}{z0.imag:+g}i"
            rows = []
            for h in h_list:
                T = OscillatoryTransport(op_div, PhaseSpec(z0, h))
                sol = build_cgo(T, amplitude, tol=tol, max_terms=max_terms)
                r_hm, g_l2 = norm_hm(sol.r, op.m), norm_lp(sol.g, 2)
                writer.add_result(
                    kind="cgo", series=tag, h=h, value=r_hm, g_l2=g_l2,
                    residual_l2=residual_norm(op_std, sol.u), terms=sol.neumann_terms,
                )
                rows.append((h, r_hm, g_l2, *transport_norm_probe(T, seed=seed)))
                del T, sol  # neither outlives its (z0, h) step
            hs, r_hm, g_l2, estimates, sweeps = zip(*rows)
            if op.is_unperturbed():
                exact = all(v == 0.0 for v in r_hm)
                writer.add_slope(f"remainder_zero[{tag}]", 0.0, "exact", exact)
                writer.log(f"{tag}: unperturbed remainder identically zero: {exact}")
                continue
            r_slope = fit_loglog_slope(hs, r_hm)
            g_slope = fit_loglog_slope(hs, g_l2)
            norm_slope = fit_loglog_slope(hs, estimates) if all(e > 0 for e in estimates) else nan
            passed = r_slope >= min_r_slope
            writer.add_slope(f"remainder_hm[{tag}]", r_slope, min_r_slope, passed)
            writer.add_slope(f"density_l2[{tag}]", g_slope, None, True)
            writer.log(f"{tag}: remainder slope {r_slope:.3f}, density slope {g_slope:.3f}")

            for h, est, k in zip(hs, estimates, sweeps):
                writer.add_result(kind="transport_norm", series=tag, h=h, value=est)
                writer.log(f"{tag}: transport norm h={h:g} estimate {est:.6g} after {k} sweeps")
            contraction = all(est < 1.0 for est in estimates)
            passed = norm_slope >= min_norm_slope and contraction
            writer.add_slope(f"transport_norm[{tag}]", norm_slope, min_norm_slope, passed)
            writer.log(
                f"{tag}: transport norm slope {norm_slope:.3f}, contraction: {contraction}"
            )

        return writer.flush()


def cmd_recover(cfg: dict, out_dir: Path) -> int:
    grid = build_grid(cfg)
    op = build_operator(cfg, grid, key="coeffs")
    op_tilde = build_operator(cfg, grid, key="coeffs_tilde")
    h_list = build_h_list(cfg, grid)
    tol, max_terms = build_solver(cfg)
    section = _take(cfg, "", "recovery", dict, default={})
    mode = _take(
        section, "recovery", "mode", str, default=AMPLITUDE_ONLY,
        check=((AMPLITUDE_ONLY, FULL_CGO).__contains__, "amplitude_only or full_cgo"),
    )
    raw = _take(section, "recovery", "probes", list, required=True, check=NON_EMPTY)
    probes = _distinct(raw, "recovery.probes", _complex_from)
    max_rel_err = _take(
        section, "recovery", "max_rel_err", float, default=0.15, check=NON_NEGATIVE
    )

    try:
        problem = RecoveryProblem(
            op, op_tilde, probes, h_list, mode=mode, solver_tol=tol, max_terms=max_terms
        )
    except ValueError as exc:
        # the config-level checks that remain concern the coefficient differences
        raise ConfigError(f"fields operator.coeffs and operator.coeffs_tilde: {exc}") from exc

    with RunWriter(out_dir, cfg) as writer:
        report = recover_all(problem)
        for r in report.rows:
            writer.add_result(
                m=r.m, j=r.j, k=r.k,
                re_z0=r.z0.real, im_z0=r.z0.imag, h=r.h,
                re_extracted=r.extracted.real, im_extracted=r.extracted.imag,
                re_truth=r.truth.real, im_truth=r.truth.imag,
                abs_err=r.abs_err, rel_err=r.rel_err,
            )
        worst = report.worst_rel_err_at_smallest_h()
        passed = worst <= max_rel_err
        for (j, k), slope in sorted(report.slopes.items()):
            writer.add_slope(f"recovery_err[{j},{k}]", slope, None, True)
        writer.add_slope("worst_rel_err_smallest_h", worst, max_rel_err, passed)
        writer.log(
            f"worst relative error at smallest h: {worst:.3e} (<= {max_rel_err:g}: {passed})"
        )
        for z0, reason in report.degenerate:
            writer.log(f"degenerate probe {z0}: {reason}")
        code = writer.flush()
        report.write_manifest(writer.out_dir / "manifest.json", writer.hash)
        if report.degenerate:
            print(
                f"degenerate probes: {[z for z, _ in report.degenerate]}", file=sys.stderr
            )
            return EXIT_NUMERICAL
        return code


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
                       help="seed for the norm probe's start field")
    args = parser.parse_args(argv)

    try:
        cpus = os.cpu_count() or 1
        if not 1 <= args.threads <= cpus:
            raise ConfigError(f"--threads {args.threads} is outside 1..{cpus}, the CPU count")
        if args.seed < 0:
            raise ConfigError(f"--seed {args.seed} is negative; the probe's seed is 0 or more")
        cfg = load_config(args.config)
        out_section = _take(cfg, "", "output", dict, default={})
        directory = _take(out_section, "output", "directory", str, default=f"runs/{args.command}")
        _take(out_section, "output", "format", str, check=(lambda f: f == "csv", "csv"))
        out_dir = Path(args.out or directory)
        # scipy.fft keeps the worker count per thread and restores it on exit
        with scipy.fft.set_workers(args.threads):
            if args.command == "cauchy-test":
                return cmd_cauchy_test(cfg, out_dir)
            if args.command == "cgo":
                return cmd_cgo(cfg, out_dir, seed=args.seed)
            return cmd_recover(cfg, out_dir)
    except CONFIG_FAILURES + NUMERICAL_FAILURES as exc:
        code, line = _failure(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
