"""Shared sentence container for the text-only taggers."""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus_io import ProminenceRecord, is_punctuation


@dataclass
class LabeledSentence:
    """Tokens with aligned labels; None marks NA (excluded from loss/score)."""

    tokens: list[str]
    labels: list[int | None]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels lengths differ")


def sentence_from_records(records: list[ProminenceRecord]) -> LabeledSentence:
    return LabeledSentence(
        tokens=[r.token for r in records],
        labels=[r.discrete for r in records],
    )


def na_mask(tokens: list[str]) -> list[bool]:
    """Positions that must predict NA: pure punctuation tokens."""
    return [is_punctuation(t) for t in tokens]


def check_training_settings(l2_lambda: float, max_iterations: int) -> None:
    """Both trainers need a penalty of at least 0 and at least one step."""
    if not l2_lambda >= 0:
        raise ValueError(f"l2_lambda must be >= 0, got {l2_lambda!r}")
    if max_iterations < 1:
        raise ValueError(
            f"max_iterations must be at least 1, got {max_iterations!r}")
