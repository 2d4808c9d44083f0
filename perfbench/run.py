"""Seeded end-to-end benchmark of prosolab, with an optional traced run.

    python3 perfbench/run.py --workload annotate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  Workloads are ``annotate`` and ``tag`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of output is the
end-to-end result; with ``--trace 1`` it holds the per-layer figures of a
separate traced run.  The line before it is a detail record: machine and
backend, input sizes, and the workload's own figures by name.  Exit status
is 0 when every output check passed, 1 when one failed and 2 when the
sources or arguments are unusable.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, so that `--jobs 2` uses at most two
# cores and timings do not depend on the library's thread pool.  These must
# be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("annotate", "tag"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "prosolab" / "__init__.py").is_file():
        print(f"error: no prosolab sources at {SRC_DIR}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import harness

    work_root = BENCH_DIR / ".work"
    ok = harness.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work_root / f"{args.workload}-{os.getpid()}")
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run is still using it
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
