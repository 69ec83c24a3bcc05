"""Run one poly command in this process and report it as one JSON line.

    python3 bench/poly_run.py [--spans FILE --rep N] -- recover --config ... --out ...

Each repetition of the benchmark is a fresh process, as a user's `poly` run
is: the kernel cache and the allocator start cold.  The JSON line holds the
exit code, the wall time of polycgo.cli.main, the process's peak resident
memory and, with --spans, the per-layer metrics of bench/spans.py; the spans
themselves are written to FILE when the run ends.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from spans import Tracer, layer_metrics  # noqa: E402  (after the path set-up)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", default=None, help="trace the run and write its spans here")
    parser.add_argument("--rep", type=int, default=0, help="repetition id stored in each span")
    parser.add_argument("poly_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.poly_argv[1:] if args.poly_argv[:1] == ["--"] else args.poly_argv

    from polycgo import cauchy, cli

    tracer = Tracer(args.rep) if args.spans else contextlib.nullcontext()
    with tracer:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
    report = {
        "code": code,
        "seconds": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.spans:
        # a fresh process starts with empty kernel-cache statistics
        info = getattr(cauchy.kernel_for, "cache_info", None)
        report["layers"] = layer_metrics(tracer.spans, args.rep, info() if info else None)
        Path(args.spans).write_text(json.dumps(tracer.spans))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
