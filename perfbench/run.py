"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {prepare,fit,stream} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer
ones, from a traced walk through all three workloads. Work files go to
.perfbench_out/ under the root and are removed when the run ends; a traced
run leaves its spans there as a CSV file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("prepare", "fit", "stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctxae" / "__init__.py").is_file():
        print(f"no ctxae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one process, one BLAS thread: set before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    out = ROOT / ".perfbench_out"
    work = out / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = workloads.run_traced(
                args.workload, args.seed, args.seconds, work,
                out / f"spans-{args.workload}-s{args.seed}.csv")
        else:
            result = workloads.run_untraced(args.workload, args.seed,
                                            args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
