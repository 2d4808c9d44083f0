"""Shared sentence container and text compiler for the text-only taggers."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..corpus_io import is_punctuation

# Most padded (sentence, position) cells one chunk of a compiled text may
# span.  Decoding and training build their position arrays, potentials and
# dynamic-programming tensors one chunk at a time, so their memory stays
# bounded however long the file is.  A fixed bound, not a setting.
CHUNK_CELLS = 4096


@dataclass
class LabeledSentence:
    """Tokens with aligned labels; None marks NA (excluded from loss/score)."""

    tokens: list[str]
    labels: list[int | None]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels lengths differ")


def na_mask(tokens: list[str]) -> list[bool]:
    """Positions that must predict NA: pure punctuation tokens."""
    return [is_punctuation(t) for t in tokens]


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

    def split(self, flat: list) -> list[list]:
        """One list per sentence from a list over the chunk's positions."""
        bounds = [0, *np.cumsum(self.lengths).tolist()]
        return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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


def compile_text(sentences: list[list[str]]) -> CompiledText:
    """Number the distinct tokens of `sentences` and lay the positions out
    flat; punctuation is tested once per distinct token."""
    index: dict[str, int] = {}
    type_ids = np.array([index.setdefault(tok, len(index))
                         for tokens in sentences for tok in tokens],
                        dtype=np.int64)
    lengths = np.array([len(tokens) for tokens in sentences], dtype=np.int64)
    offsets = np.zeros(len(sentences) + 1, dtype=np.int64)
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
