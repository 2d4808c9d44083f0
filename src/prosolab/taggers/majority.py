"""Majority-class baselines: global and per-word-type."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count

import numpy as np

from ..corpus_io import N_LABELS, NA, Columns, CorpusFormatError
from .common import comma_ints


@dataclass
class MajorityModel:
    kind = "majority"  # the model file's type, not a field
    per_word: dict[str, np.ndarray] = field(default_factory=dict)
    global_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(N_LABELS, dtype=np.int64))


def write_section(model: MajorityModel) -> list[str]:
    """The model file's lines after its type line; words sorted."""
    return [f"global={comma_ints(model.global_counts)}",
            f"words={len(model.per_word)}",
            *(f"word\t{word}\t{comma_ints(model.per_word[word])}"
              for word in sorted(model.per_word))]


def read_section(r) -> MajorityModel:
    """write_section's model, from the lines that serialize's `r` reads."""
    global_counts = np.array(r.values("global"), dtype=np.int64)
    if len(global_counts) != N_LABELS or global_counts.min() < 0:
        raise CorpusFormatError(r.at(
            f"key global: expected {N_LABELS} counts >= 0, got "
            f"{comma_ints(global_counts)}"))
    words, counts = r.table("word", r.value("words", least=0), N_LABELS, int,
                            named=True, sep=",")
    negative = np.flatnonzero((counts < 0).any(axis=1))
    if len(negative):
        raise CorpusFormatError(r.at(
            f"word row {negative[0]}: negative count in "
            f"{comma_ints(counts[negative[0]])}"))
    return MajorityModel(per_word=dict(zip(words, counts)),
                         global_counts=global_counts)


def train_majority(data: Columns) -> MajorityModel:
    """Count labels per lowercased word type; NA positions contribute nothing."""
    scored = data.labels != NA
    if not scored.any():
        raise ValueError("all-NA corpus: nothing to count")
    lows = [token.lower() for token in data.types]
    index = dict(zip(dict.fromkeys(lows), count()))
    word_of = np.array([index[low] for low in lows], dtype=np.int64)
    counts = np.bincount(
        word_of[data.type_ids[scored]] * N_LABELS + data.labels[scored],
        minlength=len(index) * N_LABELS).reshape(-1, N_LABELS)
    # a word no scored position uses is not in the model
    used = counts.any(axis=1)
    return MajorityModel(per_word=dict(zip(compress(index, used.tolist()),
                                           counts[used])),
                         global_counts=counts.sum(axis=0))


def predict_majority(model: MajorityModel, data: Columns,
                     mode: str = "per_word") -> np.ndarray:
    """The label code of the most frequent label per word type (falling back
    to the global majority for unseen words) or of the global majority
    everywhere, for each of `data`'s tokens; NA at punctuation.  Ties go to
    the smallest label."""
    if mode not in ("per_word", "global"):
        raise ValueError(f"unknown mode {mode!r}")
    if model.global_counts.sum() == 0:
        raise ValueError("untrained model")
    counts = [model.global_counts if mode == "global" else
              model.per_word.get(token.lower(), model.global_counts)
              for token in data.types]
    # np.argmax returns the first maximum, i.e. the smallest label on ties
    by_type = np.array(counts, dtype=np.int64).reshape(-1, N_LABELS).argmax(
        axis=1).astype(np.int8)
    by_type[data.type_na] = NA
    return by_type[data.type_ids]
