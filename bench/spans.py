"""Spans around the public entry points of every polycgo layer, recorded from outside.

The program carries no tracing of its own, so this module wraps class methods
and module functions in place and restores them afterwards.  Functions that
other modules import by name (``from .cauchy import dbar_inv``) are replaced
in every polycgo module that holds the same object, so no call path escapes.

A span is (name, start, end, parent index, repetition id, note).  Spans stay
in memory until the run ends; ``layer_metrics`` turns one repetition's spans
into per-layer counts, inclusive times and self times (span minus children).
"""

from __future__ import annotations

import sys
import time

NAME, START, END, PARENT, REP, NOTE = range(6)

LAYERS = ("cauchy", "cgo", "operators", "phase", "grid", "recovery", "expressions", "cli")


def _field_bytes(args, result):
    grid = args[1]
    return grid.n * grid.n * 16


def _source_active(args, result):
    return bool(args[0].active)


def _density_nonzero(args, result):
    return not result.g.is_zero()


def _neumann_terms(args, result):
    return result[1]


def _targets():
    """(owner, attribute, span name, note) for every wrapped entry point."""
    from polycgo import cauchy, cgo, cli, expressions, grid, operators, phase, recovery

    return [
        (cauchy.CauchyKernel, "apply", "cauchy.transform", None),
        (cauchy.CauchyKernel, "__init__", "cauchy.kernel_build", None),
        (cgo, "build_cgo", "cgo.build", _density_nonzero),
        (cgo, "solve_density", "cgo.solve_density", _neumann_terms),
        (cgo.OscillatoryTransport, "apply", "cgo.transport_apply", None),
        (cgo.OscillatoryTransport, "apply_adjoint", "cgo.adjoint_apply", None),
        (cgo.OscillatoryTransport, "source", "cgo.source", _source_active),
        (cgo, "residual_norm", "cgo.residual", None),
        (cgo, "transport_norm_probe", "cgo.norm_probe", None),
        (operators, "adjoint", "operators.form", None),
        (operators, "to_standard_form", "operators.form", None),
        (operators, "to_divergence_form", "operators.form", None),
        (phase.PhaseSpec, "oscillation", "phase.oscillation", None),
        (phase.PhaseSpec, "carrier", "phase.carrier", None),
        (grid.ScalarField, "__init__", "grid.field", _field_bytes),
        (grid, "wirtinger_d", "grid.stencil", None),
        (grid, "wirtinger_dbar", "grid.stencil", None),
        (grid, "integrate", "grid.quadrature", None),
        (grid, "norm_lp", "grid.quadrature", None),
        (grid, "norm_hm", "grid.norm_hm", None),
        (recovery.RecoveryProblem, "__init__", "recovery.problem", None),
        (recovery.RecoveryProblem, "_cgo_pair", "recovery.cgo_lookup", None),
        (recovery, "identity_lhs", "recovery.pairing", None),
        (recovery, "recover_all", "recovery.recover_all", None),
        (expressions.Expression, "evaluate", "expressions.eval", None),
        (cli.RunWriter, "flush", "cli.write", None),
        (recovery.RecoveryReport, "write_manifest", "cli.write", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Installs span wrappers while active; ``rep`` tags the spans of one repetition."""

    def __init__(self, rep=0):
        self.spans = []
        self.rep = rep
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self):
        targets = _targets()
        modules = [m for k, m in sys.modules.items() if k == "polycgo" or k.startswith("polycgo.")]
        for owner, attr, name, note in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                print(f"spans: {owner.__name__}.{attr} not found; {name} reads 0", file=sys.stderr)
                continue
            wrapper = self._wrap(original, name, note)
            # a module function is patched in every module that imported it by name
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()
        return False


def layer_metrics(spans, rep, kernel_cache=None):
    """Per-layer counts and times of one repetition, keyed by metric name.

    kernel_cache is ``kernel_for.cache_info()`` covering that repetition alone.
    """
    index = [i for i, s in enumerate(spans) if s[REP] == rep]
    child_time = {i: 0.0 for i in index}
    for i in index:
        parent = spans[i][PARENT]
        if parent in child_time:
            child_time[parent] += spans[i][END] - spans[i][START]

    count, incl, self_s = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in index:
        name = spans[i][NAME]
        dur = spans[i][END] - spans[i][START]
        count[name] = count.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        layer_self[name.split(".")[0]] += dur - child_time[i]

    def notes(name):
        return [spans[i][NOTE] for i in index if spans[i][NAME] == name]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    def has_ancestor(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    def ratio(a, b):
        return a / b if b else 0.0

    applies = count.get("cgo.transport_apply", 0) + count.get("cgo.adjoint_apply", 0)
    apply_transforms = sum(
        1 for i in index
        if spans[i][NAME] == "cauchy.transform"
        and parent_name(i) in ("cgo.transport_apply", "cgo.adjoint_apply")
    )
    lookups = 2 * count.get("recovery.cgo_lookup", 0)  # one u and one v solution per call
    lookup_builds = sum(
        1 for i in index
        if spans[i][NAME] == "cgo.build" and has_ancestor(i, "recovery.cgo_lookup")
    )
    hits, misses = (kernel_cache.hits, kernel_cache.misses) if kernel_cache else (0, 0)
    transforms = count.get("cauchy.transform", 0)
    out = {
        "cauchy.transforms": transforms,
        "cauchy.transform_s": incl.get("cauchy.transform", 0.0),
        "cauchy.transform_ms": 1e3 * ratio(incl.get("cauchy.transform", 0.0), transforms),
        "cauchy.kernel_builds": count.get("cauchy.kernel_build", 0),
        "cauchy.kernel_build_s": incl.get("cauchy.kernel_build", 0.0),
        "cauchy.kernel_lookups": hits + misses,
        "cauchy.kernel_cache_hit_ratio": ratio(hits, hits + misses),
        "cgo.builds": count.get("cgo.build", 0),
        "cgo.nonzero_density_builds": sum(bool(v) for v in notes("cgo.build")),
        "cgo.build_s": incl.get("cgo.build", 0.0),
        "cgo.solve_density_s": incl.get("cgo.solve_density", 0.0),
        "cgo.sources": count.get("cgo.source", 0),
        "cgo.active_sources": sum(bool(v) for v in notes("cgo.source")),
        "cgo.source_s": incl.get("cgo.source", 0.0),
        "cgo.neumann_terms": sum(notes("cgo.solve_density")),
        "cgo.transport_applies": count.get("cgo.transport_apply", 0),
        "cgo.transport_apply_ms": 1e3 * ratio(
            incl.get("cgo.transport_apply", 0.0), count.get("cgo.transport_apply", 0)
        ),
        "cgo.adjoint_applies": count.get("cgo.adjoint_apply", 0),
        "cgo.adjoint_apply_ms": 1e3 * ratio(
            incl.get("cgo.adjoint_apply", 0.0), count.get("cgo.adjoint_apply", 0)
        ),
        "cgo.transforms_per_apply": ratio(apply_transforms, applies),
        "cgo.residual_s": incl.get("cgo.residual", 0.0),
        "cgo.norm_hm_s": incl.get("grid.norm_hm", 0.0),
        "cgo.norm_probe_s": incl.get("cgo.norm_probe", 0.0),
        "operators.form_calls": count.get("operators.form", 0),
        "operators.form_s": incl.get("operators.form", 0.0),
        "phase.oscillation_calls": count.get("phase.oscillation", 0),
        "phase.oscillation_s": incl.get("phase.oscillation", 0.0),
        "phase.carrier_s": incl.get("phase.carrier", 0.0),
        "grid.fields": count.get("grid.field", 0),
        "grid.field_s": incl.get("grid.field", 0.0),
        "grid.field_mb_computed": sum(notes("grid.field")) / 1e6,
        "grid.stencil_s": incl.get("grid.stencil", 0.0),
        "grid.quadrature_s": incl.get("grid.quadrature", 0.0),
        "recovery.pairings": count.get("recovery.pairing", 0),
        "recovery.pairing_self_s": self_s.get("recovery.pairing", 0.0),
        "recovery.cgo_lookups": lookups,
        "recovery.cgo_cache_hit_ratio": ratio(lookups - lookup_builds, lookups),
        "expressions.eval_s": incl.get("expressions.eval", 0.0),
        "cli.write_s": incl.get("cli.write", 0.0),
        "trace.time_to_solution_s": incl.get("cli.main", 0.0),
        "trace.spans": len(index),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out

