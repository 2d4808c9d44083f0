"""The text compiler, model-file row formats and optimizer shared by the
text-only taggers."""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import count
from time import perf_counter

import numpy as np

from ..corpus_io import is_punctuation

# Most padded (sentence, position) cells one chunk of a compiled text may
# span.  Decoding and training build their position arrays, potentials and
# dynamic-programming tensors one chunk at a time, so their memory stays
# bounded however long the file is.  A fixed bound, not a setting.
CHUNK_CELLS = 4096


def tab_floats(values) -> str:
    """A model-file row's floats, in repr, which round-trips exactly."""
    return "\t".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def comma_ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


@dataclass
class Chunk:
    """A run of whole sentences of a compiled text, holding its flat
    positions ``start:stop``, on a padded ``(B, T)`` grid."""

    start: int
    stop: int
    lengths: np.ndarray  # (B,)
    width: int           # T, at least 1
    cells: np.ndarray    # (stop - start,) grid cell b * T + t of each position

    def pad(self, values: np.ndarray, fill) -> np.ndarray:
        """Per-position `values` on the ``(B, T, ...)`` grid, `fill` past
        each sentence's end."""
        grid = np.full((len(self.lengths) * self.width, *values.shape[1:]),
                       fill, dtype=values.dtype)
        grid[self.cells] = values
        return grid.reshape(len(self.lengths), self.width, *values.shape[1:])

    def places(self) -> tuple[np.ndarray, np.ndarray]:
        """Index of each position in its sentence, and that sentence's
        length."""
        return self.cells % self.width, np.repeat(self.lengths, self.lengths)


@dataclass
class CompiledText:
    """A file's sentences as flat arrays over its distinct tokens."""

    types: list[str]      # distinct tokens, first occurrence first
    type_ids: np.ndarray  # (N,) type of each position, sentence by sentence
    lengths: np.ndarray   # (n_sentences,)
    offsets: np.ndarray   # (n_sentences + 1,) each sentence's first position
    type_na: np.ndarray   # (n_types,) the type is punctuation

    def na(self) -> np.ndarray:
        """(N,) positions that must predict NA."""
        return self.type_na[self.type_ids]

    def chunks(self) -> Iterator[Chunk]:
        """Runs of whole sentences, in order, each spanning at most
        CHUNK_CELLS padded cells; a longer sentence is a chunk of its own."""
        lo, width = 0, 1
        for i, n in enumerate(self.lengths.tolist()):
            if i > lo and (i - lo + 1) * max(width, n) > CHUNK_CELLS:
                yield self._chunk(lo, i, width)
                lo, width = i, 1
            width = max(width, n)
        if lo < len(self.lengths):
            yield self._chunk(lo, len(self.lengths), width)

    def _chunk(self, lo: int, hi: int, width: int) -> Chunk:
        start, stop = int(self.offsets[lo]), int(self.offsets[hi])
        lengths = self.lengths[lo:hi]
        row = np.repeat(np.arange(hi - lo), lengths)
        t = np.arange(stop - start) - np.repeat(self.offsets[lo:hi] - start,
                                                lengths)
        return Chunk(start, stop, lengths, width, row * width + t)


def compile_text(tokens: list[str], lengths: list[int]) -> CompiledText:
    """Number the distinct `tokens`, first occurrence first, of sentences of
    `lengths` tokens each; punctuation is tested once per distinct token."""
    index = dict(zip(dict.fromkeys(tokens), count()))
    type_ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64,
                           count=len(tokens))
    lengths = np.array(lengths, dtype=np.int64)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    types = list(index)
    return CompiledText(
        types=types, type_ids=type_ids, lengths=lengths, offsets=offsets,
        type_na=np.array([is_punctuation(tok) for tok in types], dtype=bool))


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
