"""Scoring, confusion matrices, subset sampling, and learning curves."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus_io import NA, Columns

CURVE_FRACTIONS = (0.01, 0.05, 0.10, 0.50, 1.00)


@dataclass
class CurvePoint:
    fraction: float
    accuracy: float

    def __post_init__(self) -> None:
        check_fraction(self.fraction)


def check_fraction(fraction: float) -> float:
    """Return `fraction` if it is one of CURVE_FRACTIONS, else raise."""
    if not any(abs(fraction - f) < 1e-9 for f in CURVE_FRACTIONS):
        allowed = ",".join(f"{100 * f:g}" for f in CURVE_FRACTIONS)
        raise ValueError(
            f"fraction {100 * fraction:g}% not supported: not in {allowed}")
    return fraction


def _shown(code) -> int | None:
    """A label code as an error names it: None at NA."""
    return None if code == NA else int(code)


def _check_pair(pred, gold) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The label codes `pred` and `gold` as int64 arrays, and the mask of
    their positions that are not NA.  They must have the same length and NA
    at the same positions."""
    p, g = np.asarray(pred, dtype=np.int64), np.asarray(gold, dtype=np.int64)
    if len(p) != len(g):
        raise ValueError(
            f"length mismatch: {len(p)} predictions vs {len(g)} gold"
        )
    scored = g != NA
    bad = np.flatnonzero((p != NA) != scored)
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"NA disagreement at position {i}: pred={_shown(p[i])!r} "
            f"gold={_shown(g[i])!r}"
        )
    return p, g, scored


def accuracy(pred: np.ndarray, gold: np.ndarray) -> float:
    """Fraction of matching non-NA positions of two label code arrays.  NA
    must agree positionally."""
    p, g, scored = _check_pair(pred, gold)
    n_scored = int(np.count_nonzero(scored))
    if n_scored == 0:
        raise ValueError("no scored positions (all NA)")
    return int(np.count_nonzero((p == g) & scored)) / n_scored


def confusion(pred: np.ndarray, gold: np.ndarray,
              n_labels: int) -> np.ndarray:
    """(n_labels, n_labels) counts of the non-NA positions: rows are gold
    labels, columns predicted ones."""
    p, g, scored = _check_pair(pred, gold)
    scored = np.flatnonzero(scored)
    p, g = p[scored], g[scored]
    bad = np.flatnonzero((g < 0) | (g >= n_labels) | (p < 0) | (p >= n_labels))
    if len(bad):
        i = int(scored[bad[0]])
        raise ValueError(f"label out of range: pred={_shown(pred[i])!r} "
                         f"gold={_shown(gold[i])!r}")
    counts = np.bincount(g * n_labels + p, minlength=n_labels * n_labels)
    return counts.reshape(n_labels, n_labels)


def confusion_tsv(counts: np.ndarray) -> str:
    """The confusion file: a header of predicted labels, then a row per
    gold label."""
    names = [str(i) for i in range(len(counts))]
    lines = ["\t".join(["", *names])]
    for name, row in zip(names, counts.tolist()):
        lines.append("\t".join([name, *map(str, row)]))
    return "\n".join(lines) + "\n"


def merge_labels(labels: np.ndarray) -> np.ndarray:
    """Collapse 3-way label codes to 2-way: {1, 2} -> 1, keeping 0 and NA."""
    return np.minimum(labels, 1)


def non_na_count(data: Columns) -> int:
    return int(np.count_nonzero(data.labels != NA))


def subset_training(data: Columns, fraction: float, seed: int) -> Columns:
    """Sample whole sentences until the non-NA token budget is first reached.

    Sentences are taken in a seeded shuffle order, so equal seeds give
    identical (and nested, across fractions) subsets; the selection is
    returned in original corpus order.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    if fraction == 1.0:
        return data
    total = non_na_count(data)
    if total == 0:
        raise ValueError("corpus has no labeled tokens")
    labeled = np.concatenate(([0], np.cumsum(data.labels != NA)))
    per_sentence = np.diff(labeled[data.offsets])
    order = np.random.default_rng(seed).permutation(len(data.lengths))
    # the first sentence in `order` at which the running count reaches the
    # budget is the last one taken
    last = np.searchsorted(np.cumsum(per_sentence[order]), fraction * total)
    picked = np.zeros(len(data.lengths), dtype=bool)
    picked[order[:last + 1]] = True
    keep = np.repeat(picked, data.lengths)
    # the bytes of each token, its newline included
    sizes = np.diff(np.flatnonzero(data.token_bytes == ord("\n")), prepend=-1)
    # the whole file's numbering, done once however many subsets are drawn
    return replace(
        data, token_bytes=data.token_bytes[np.repeat(keep, sizes)],
        labels=data.labels[keep],
        continuous=None if data.continuous is None else data.continuous[keep],
        lengths=data.lengths[picked],
        numbering=(data.types, data.type_ids[keep], data.type_na))


def learning_curve(train_fn, train_data: Columns, test_data: Columns,
                   fractions=CURVE_FRACTIONS, seed: int = 0,
                   ) -> list[CurvePoint]:
    """Retrain from scratch at each fraction and score on the fixed test set.

    train_fn(data) must return a predictor that labels every token of a
    Columns in one call.
    """
    points = []
    for fraction in sorted(fractions):
        predict = train_fn(subset_training(train_data, fraction, seed))
        points.append(CurvePoint(fraction=fraction, accuracy=accuracy(
            predict(test_data), test_data.labels)))
    return points


def report_tsv(rows: list[tuple[str, str, float, float]]) -> str:
    """Rows of (model, task, fraction, accuracy) in the report format."""
    lines = ["model\ttask\tfraction\taccuracy"]
    for model_name, task, fraction, acc in rows:
        lines.append(f"{model_name}\t{task}\t{fraction:g}\t{acc:.6f}")
    return "\n".join(lines) + "\n"


def format_summary(model_name: str, task: str, acc: float) -> str:
    """The accuracy table `evaluate` prints: one model's row under a
    header, in percent to one decimal."""
    width = max(len("Model"), len(model_name))
    header = "Model".ljust(width) + task.rjust(10)
    row = model_name.ljust(width) + f"{100.0 * acc:.1f}".rjust(10)
    return f"{header}\n{'-' * len(header)}\n{row}\n"
