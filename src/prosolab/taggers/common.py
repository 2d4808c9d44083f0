"""The model-file row formats and optimizer shared by the text-only
taggers."""

from __future__ import annotations

import logging
from collections.abc import Callable
from itertools import count
from time import perf_counter

import numpy as np


def tab_floats(values) -> str:
    """A model-file row's floats, in repr, which round-trips exactly."""
    return "\t".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def comma_ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def check_training_settings(l2_lambda: float, max_iterations: int) -> None:
    """Both trainers need a penalty of at least 0 and at least one step."""
    if not l2_lambda >= 0:
        raise ValueError(f"l2_lambda must be >= 0, got {l2_lambda!r}")
    if max_iterations < 1:
        raise ValueError(
            f"max_iterations must be at least 1, got {max_iterations!r}")


def lbfgs(objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
          x0: np.ndarray, max_iterations: int, ftol: float, gtol: float,
          log: logging.Logger):
    """Minimize `objective` (value and gradient at a flat point) from `x0` by
    L-BFGS-B (Byrd, Lu, Nocedal and Zhu, SIAM J. Sci. Comput. 16, 1995), log
    each iteration (at INFO) and the outcome to the trainer's `log` and
    return scipy's result."""
    from scipy.optimize import minimize  # 0.4 s to import: training only

    started, last, iterations = perf_counter(), [], count(1)

    def checked(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = objective(x)
        if not np.isfinite(value):
            raise FloatingPointError(f"training diverged: objective {value!r} "
                                     f"with |w|_max {np.max(np.abs(x)):g}")
        last[:] = value, grad
        return value, grad

    def trace(_) -> None:
        # an iteration ends at the point that was evaluated last
        iteration = next(iterations)
        if log.isEnabledFor(logging.INFO):
            value, grad = last
            log.info("L-BFGS iteration %d: objective %.10g, max |grad| %.4g, "
                     "%.3f s", iteration, value, np.max(np.abs(grad)),
                     perf_counter() - started)

    result = minimize(checked, x0, jac=True, method="L-BFGS-B",
                      callback=trace, options={
                          "maxiter": max_iterations, "ftol": ftol,
                          "gtol": gtol})
    log.log(logging.INFO if result.success else logging.WARNING,
            "L-BFGS %s: %s (nit=%d, nfev=%d)",
            "converged" if result.success else "stopped without converging",
            result.message, result.nit, result.nfev)
    return result
