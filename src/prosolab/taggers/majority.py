"""Majority-class baselines: global and per-word-type."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus_io import N_LABELS, Columns, CorpusFormatError
from .common import CHUNK_CELLS, comma_ints, compile_text


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
    model = MajorityModel()
    seen = False
    for token, label in zip(data.tokens, data.labels):
        if label is None:
            continue
        seen = True
        key = token.lower()
        counts = model.per_word.get(key)
        if counts is None:
            counts = np.zeros(N_LABELS, dtype=np.int64)
            model.per_word[key] = counts
        counts[label] += 1
        model.global_counts[label] += 1
    if not seen:
        raise ValueError("all-NA corpus: nothing to count")
    return model


def _argmax_label(counts: np.ndarray) -> int:
    # np.argmax returns the first maximum, i.e. the smallest label on ties
    return int(np.argmax(counts))


def predict_majority(model: MajorityModel, data: Columns,
                     mode: str = "per_word") -> list[int | None]:
    """Most frequent label per word type (falling back to the global majority
    for unseen words) or the global majority everywhere, for each of
    `data`'s tokens; NA at punctuation."""
    if mode not in ("per_word", "global"):
        raise ValueError(f"unknown mode {mode!r}")
    if model.global_counts.sum() == 0:
        raise ValueError("untrained model")
    global_label = _argmax_label(model.global_counts)
    text = compile_text(data.tokens, data.lengths)
    by_type = []
    for token, punct in zip(text.types, text.type_na):
        counts = None if mode == "global" else model.per_word.get(
            token.lower())
        by_type.append(None if punct else global_label if counts is None
                       else _argmax_label(counts))
    # gather a chunk at a time: no object array as long as the file
    names = np.array(by_type, dtype=object)
    out: list[int | None] = []
    for lo in range(0, len(text.type_ids), CHUNK_CELLS):
        out += names[text.type_ids[lo:lo + CHUNK_CELLS]].tolist()
    return out
