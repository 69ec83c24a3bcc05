"""The benchmark's workloads reproduce its committed tables.

The benchmark checks every repetition against bench/reference/<workload>/;
running the same configs here catches a drift before a benchmark run does.
Cells compare by the benchmark's rule: |x - ref| <= 1e-6*|ref| + 1e-12 for a
real number, exact for text and integer cells.  bench/ is only read.
"""

import csv
from pathlib import Path

import pytest

from polycgo.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
RTOL, ATOL = 1e-6, 1e-12


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def cell_matches(got, ref):
    if got == ref:
        return True
    if "." not in ref and "e" not in ref.lower():
        return False  # text and integer cells match exactly
    try:
        x, r = float(got), float(ref)
    except ValueError:
        return False
    return abs(x - r) <= RTOL * abs(r) + ATOL


def assert_matches_reference(workload, out):
    for name in ("results.csv", "slopes.csv"):
        got = read_table(out / name)
        ref = read_table(BENCH / "reference" / workload / name)
        assert len(got) == len(ref) and got[0] == ref[0], name
        for i, (row, ref_row) in enumerate(zip(got, ref)):
            assert len(row) == len(ref_row), (name, i)
            bad = [(a, b) for a, b in zip(row, ref_row) if not cell_matches(a, b)]
            assert not bad, (name, i, bad)


@pytest.mark.parametrize("workload", ["recover_amp", "recover_full"])
def test_recover_workload_matches_reference(workload, tmp_path):
    config = BENCH / "configs" / f"{workload}.json"
    assert main(["recover", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert_matches_reference(workload, tmp_path)


def test_cgo_workload_matches_reference(tmp_path):
    # the benchmark runs it as poly cgo --seed 0; the only tier-1 run of the
    # adjoint apply and the norm probe at the workload's size
    config = BENCH / "configs" / "cgo_sweep.json"
    assert main(["cgo", "--config", str(config), "--out", str(tmp_path), "--seed", "0"]) == 0
    assert_matches_reference("cgo_sweep", tmp_path)
