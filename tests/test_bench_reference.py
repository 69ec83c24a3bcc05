"""The benchmark's workloads reproduce its committed tables.

The benchmark checks every repetition against bench/reference/<workload>/;
running the same configs here catches a drift before a benchmark run does.
Cells compare by the benchmark's rule: |x - ref| <= 1e-6*|ref| + 1e-12 for a
real number, exact for text and integer cells.  Each check also reports the
worst share of that tolerance a row uses, so a drift toward the benchmark's
limit shows before the benchmark refuses a run.  bench/ is only read.
"""

import csv
from math import inf
from pathlib import Path

import pytest

from polycgo.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
RTOL, ATOL = 1e-6, 1e-12


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def tolerance_share(got, ref):
    """|x - ref| / (1e-6*|ref| + 1e-12), 0 for equal text; inf for a cell that
    must match exactly and does not, or that does not read as a number."""
    if got == ref:
        return 0.0
    if "." not in ref and "e" not in ref.lower():
        return inf  # text and integer cells match exactly
    try:
        x, r = float(got), float(ref)
    except ValueError:
        return inf
    return abs(x - r) / (RTOL * abs(r) + ATOL)


def assert_matches_reference(workload, out):
    """Check both tables cell by cell; return the worst tolerance share of each
    data row, keyed by its first cell, the worst over rows that share it."""
    worst = {}
    for name in ("results.csv", "slopes.csv"):
        got = read_table(out / name)
        ref = read_table(BENCH / "reference" / workload / name)
        assert len(got) == len(ref) and got[0] == ref[0], name
        for i, (row, ref_row) in enumerate(zip(got, ref)):
            assert len(row) == len(ref_row), (name, i)
            shares = [tolerance_share(a, b) for a, b in zip(row, ref_row)]
            bad = [(a, b) for a, b, share in zip(row, ref_row, shares) if share > 1.0]
            assert not bad, (name, i, bad)
            if i:
                worst[row[0]] = max(worst.get(row[0], 0.0), *shares)
    print(f"{workload}: worst tolerance share {max(worst.values()):.3g}")
    return worst


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
    worst = assert_matches_reference("cgo_sweep", tmp_path)
    # the complex64 probe moves the norm estimates by about 0.2 of the
    # tolerance (0.20 measured), and the 80-bit residual_l2 chain amplifies
    # last-bit changes of u into the cgo rows (0.223 measured); past half, a
    # drift nears the benchmark's limit
    norms = [share for key, share in worst.items() if key.startswith("transport_norm")]
    assert len(norms) == 2 and max(norms) <= 0.5
    assert worst["cgo"] <= 0.5
