"""Majority-class baselines: global and per-word-type."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus_io import Columns
from .common import compile_text

N_LABELS = 3


@dataclass
class MajorityModel:
    kind = "majority"  # the model file's type, not a field
    per_word: dict[str, np.ndarray] = field(default_factory=dict)
    global_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(N_LABELS, dtype=np.int64))


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
    return np.array(by_type, dtype=object)[text.type_ids].tolist()
