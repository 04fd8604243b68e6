"""Run one benchmark workload of elastocons and print its metrics.

    python3 perfbench/run.py --workload evolve_1d --seed 1 --seconds 38 --trace 0

Sets up (imports the package from ``src/``, writes the workload's configs,
makes warm-up calls), then repeats timed passes of the workload through
``elastocons.cli.main`` until the next pass would end after ``--seconds``.
Every call's outputs are checked.  A table of all end-to-end metrics goes to
standard output, a full record to ``perfbench/results/``, and the last line
of standard output is one JSON object with the metrics listed in
BENCHMARK.json: the end-to-end ones with ``--trace 0``; with ``--trace 1``,
untraced and traced passes alternate and the per-layer ones are reported.
"""

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "elastocons", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # cap BLAS threads at the cores this process may use, before numpy loads
    blas_threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, SRC)
    import bench
    return bench.run(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
