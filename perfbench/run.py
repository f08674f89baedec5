"""Run one workload of the cvdag benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload sim-default --seed 1901 --seconds 30 --trace 0

Workloads: sim-default, learn-large, oracle (see workloads.py and
BENCHMARK.json for why each exists). ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints per-module metrics from a traced run and writes
its spans under perfbench/out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
0 when every output check passed, 1 when one failed, 2 on a usage error or
when the package sources are missing.

BLAS is pinned to one thread in this process before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1901
BLAS_THREADS = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}, the recorded one)")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return ap, args


def main(argv=None) -> int:
    ap, args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "cvdag" / "__init__.py").is_file():
        print(f"run.py: no package sources at {SRC}; run from the root of a cvdag checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy and cvdag

    if Path(harness.cvdag.__file__).resolve().parent != SRC / "cvdag":
        print(f"run.py: imported cvdag from {harness.cvdag.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(harness.WORKLOADS)}")
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
