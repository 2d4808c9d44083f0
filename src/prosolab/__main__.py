"""The `prosolab` command, also ``python -m prosolab``.  numpy's and scipy's
OpenBLAS thread pools fight over a small host's cores, so each variable below
that the environment leaves unset is set to 1 before numpy is imported; a
plain ``import prosolab`` sets nothing."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
