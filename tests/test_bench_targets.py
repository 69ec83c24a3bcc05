"""The benchmark's span targets still name real entry points.

bench/spans.py wraps entry points by owner and attribute name and reports a
missing one only as a zero count, so a rename would go unnoticed in a run.
The module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

from polycgo import cgo, recovery

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    missing = [
        f"{owner.__name__}.{attr} ({name})"
        for owner, attr, name, _ in load_spans()._targets()
        if attr not in owner.__dict__
    ]
    assert not missing


def test_recovery_imports_build_cgo_by_name():
    # the tracer patches by-name imports; the transform-count identity relies on this one
    assert recovery.__dict__.get("build_cgo") is cgo.build_cgo
