"""The benchmark's own tests: tracing sees every call path, and the output check bites.

    python3 -m pytest bench/check_bench.py      # about two minutes on one core

The file name keeps it out of the repository's default test collection.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
from spans import Tracer, _targets, layer_metrics  # noqa: E402

import polycgo  # noqa: E402
from polycgo import cauchy, cli  # noqa: E402

# Transforms per call of the algorithm at commit 96c9054, m = 2, all four coefficients
# active: T.apply and T.apply_adjoint take m(m+1), source m(m+1)/2, and the
# remainder dbar_inv^m of a nonzero density m.
PER_APPLY, PER_SOURCE, PER_REMAINDER = 6, 3, 2


def traced_run(workload, rep, out):
    argv = [
        run.WORKLOADS[workload]["command"], "--config", str(BENCH / "configs" / f"{workload}.json"),
        "--out", str(out), "--threads", "1", "--seed", "0",
    ]
    cauchy.kernel_for.cache_clear()  # also resets the cache statistics
    with Tracer(rep) as tracer:
        assert cli.main(argv) == 0
    return layer_metrics(tracer.spans, rep, cauchy.kernel_for.cache_info())


def test_wrappers_reach_by_name_imports():
    modules = [m for k, m in sys.modules.items() if k.startswith("polycgo")]
    originals = {
        (id(owner), attr): owner.__dict__[attr] for owner, attr, _, _ in _targets()
    }
    holders = [
        (m, key) for m in modules for key, value in vars(m).items()
        if any(value is fn for fn in originals.values())
    ]
    assert any(m is polycgo.recovery and key == "build_cgo" for m, key in holders)
    with Tracer():
        for owner, attr, _, _ in _targets():
            assert getattr(owner.__dict__[attr], "__wrapped__", None) is not None, attr
        for m, key in holders:
            assert hasattr(getattr(m, key), "__wrapped__"), f"{m.__name__}.{key}"
    for owner, attr, _, _ in _targets():
        assert owner.__dict__[attr] is originals[(id(owner), attr)]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_transform_count_identity_and_repeat(workload, tmp_path):
    first, second = (traced_run(workload, rep, tmp_path / str(rep)) for rep in (0, 1))
    expected = (
        PER_APPLY * (first["cgo.transport_applies"] + first["cgo.adjoint_applies"])
        + PER_SOURCE * first["cgo.active_sources"]
        + PER_REMAINDER * first["cgo.nonzero_density_builds"]
    )
    assert first["cauchy.transforms"] == expected
    for key in run.REPEATING_COUNTS:
        assert first[key] == second[key], key


def test_output_check_rejects_a_changed_answer(tmp_path):
    ref = BENCH / "reference" / "cgo_sweep"
    shutil.copytree(ref, tmp_path, dirs_exist_ok=True)
    assert run.compare_to_reference(tmp_path, ref) == []

    def perturb(factor):
        lines = (ref / "results.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = repr(float(cells[3]) * factor)  # the first remainder norm
        lines[2] = ",".join(cells)
        (tmp_path / "results.csv").write_text("\n".join(lines) + "\n")
        return run.compare_to_reference(tmp_path, ref)

    assert perturb(1 + 1e-12) == []
    assert len(perturb(1 + 1e-4)) == 1
