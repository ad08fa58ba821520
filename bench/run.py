"""Render, train and infer benchmark for ambidoa.

    python3 bench/run.py --workload render-image --seed 1 --seconds 20 --trace 0

Runs one workload in this process against the package under ``src/`` of the
checkout that holds this file, and prints one JSON object as the last line
of standard output: {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. A fuller record, with the environment block and, when
tracing, the spans as JSON lines, goes to ``bench/results/``. See
bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("render-image", "render-trace", "train", "infer")
# One BLAS thread plus one render worker keeps the run within 2 cores; the
# variables are set before numpy is first imported, so only when run as a
# script.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: seconds-long sizes for the test suite")
    p.add_argument("--results-dir", default=str(HERE / "results"))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ambidoa" / "__init__.py").is_file():
        print(f"error: no ambidoa package under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import ambidoa

    if Path(ambidoa.__file__).resolve().parent != src / "ambidoa":
        print(f"error: imported ambidoa from {ambidoa.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from ambibench.harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale, args.results_dir, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
