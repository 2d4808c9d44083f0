"""Scoring, confusion matrices, subset sampling, and learning curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .taggers.common import LabeledSentence

CURVE_FRACTIONS = (0.01, 0.05, 0.10, 0.50, 1.00)


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (K, K), rows = gold, columns = predicted
    label_names: list[str]

    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total()

    def to_tsv(self) -> str:
        lines = ["\t".join([""] + self.label_names)]
        for name, row in zip(self.label_names, self.counts):
            lines.append("\t".join([name] + [str(int(v)) for v in row]))
        return "\n".join(lines) + "\n"


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


def _codes(labels) -> tuple[np.ndarray, np.ndarray]:
    """int64 codes of a label sequence, -1 at NA (None), and its NA mask."""
    values = np.array(labels, dtype=object)
    na = np.equal(values, None)
    values[na] = -1
    return values.astype(np.int64), na


def _check_pair(pred, gold):
    """Codes and NA masks of `pred` and `gold`, which must have the same
    length and NA at the same positions."""
    if len(pred) != len(gold):
        raise ValueError(
            f"length mismatch: {len(pred)} predictions vs {len(gold)} gold"
        )
    (p, p_na), (g, g_na) = _codes(pred), _codes(gold)
    bad = np.flatnonzero(p_na != g_na)
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"NA disagreement at position {i}: pred={pred[i]!r} "
            f"gold={gold[i]!r}"
        )
    return p, g, g_na


def accuracy(pred, gold) -> float:
    """Fraction of matching non-NA positions.  NA must agree positionally."""
    p, g, na = _check_pair(pred, gold)
    scored = int(len(g) - na.sum())
    if scored == 0:
        raise ValueError("no scored positions (all NA)")
    return int((p[~na] == g[~na]).sum()) / scored


def confusion(pred, gold, n_labels: int) -> ConfusionMatrix:
    p, g, na = _check_pair(pred, gold)
    scored = np.flatnonzero(~na)
    p, g = p[scored], g[scored]
    bad = np.flatnonzero((g < 0) | (g >= n_labels) | (p < 0) | (p >= n_labels))
    if len(bad):
        i = int(scored[bad[0]])
        raise ValueError(
            f"label out of range: pred={pred[i]!r} gold={gold[i]!r}")
    counts = np.bincount(g * n_labels + p, minlength=n_labels * n_labels)
    return ConfusionMatrix(counts=counts.reshape(n_labels, n_labels),
                           label_names=[str(i) for i in range(n_labels)])


def merge_labels(labels):
    """Collapse 3-way labels to 2-way: {1, 2} -> 1, keeping 0 and NA."""
    return [None if v is None else (1 if v >= 1 else 0) for v in labels]


def non_na_count(corpus: list[LabeledSentence]) -> int:
    return sum(1 for sent in corpus for lab in sent.labels if lab is not None)


def subset_training(corpus: list[LabeledSentence], fraction: float,
                    seed: int) -> list[LabeledSentence]:
    """Sample whole sentences until the non-NA token budget is first reached.

    Sentences are taken in a seeded shuffle order, so equal seeds give
    identical (and nested, across fractions) subsets; the selection is
    returned in original corpus order.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    if fraction == 1.0:
        return list(corpus)
    total = non_na_count(corpus)
    if total == 0:
        raise ValueError("corpus has no labeled tokens")
    target = fraction * total
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(corpus))
    picked = []
    covered = 0
    for idx in order:
        picked.append(int(idx))
        covered += sum(1 for lab in corpus[idx].labels if lab is not None)
        if covered >= target:
            break
    return [corpus[i] for i in sorted(picked)]


def learning_curve(train_fn, train_corpus: list[LabeledSentence],
                   test_corpus: list[LabeledSentence],
                   fractions=CURVE_FRACTIONS, seed: int = 0,
                   ) -> list[CurvePoint]:
    """Retrain from scratch at each fraction and score on the fixed test set.

    train_fn(corpus) must return a predictor that labels a list of token
    lists in one call.
    """
    tokens = [sent.tokens for sent in test_corpus]
    golds = [lab for sent in test_corpus for lab in sent.labels]
    points = []
    for fraction in sorted(fractions):
        predict = train_fn(subset_training(train_corpus, fraction, seed))
        preds = [lab for labels in predict(tokens) for lab in labels]
        points.append(CurvePoint(fraction=fraction,
                                 accuracy=accuracy(preds, golds)))
    return points


def report_tsv(rows: list[tuple[str, str, float, float]]) -> str:
    """Rows of (model, task, fraction, accuracy) in the report format."""
    lines = ["model\ttask\tfraction\taccuracy"]
    for model_name, task, fraction, acc in rows:
        lines.append(f"{model_name}\t{task}\t{fraction:g}\t{acc:.6f}")
    return "\n".join(lines) + "\n"


def format_summary(results: dict[str, dict[str, float]]) -> str:
    """Plain-text accuracy table: models as rows, tasks as columns, percent
    to one decimal."""
    tasks = sorted({t for per in results.values() for t in per})
    name_w = max([len("Model")] + [len(m) for m in results])
    header = "Model".ljust(name_w) + "".join(t.rjust(10) for t in tasks)
    lines = [header, "-" * len(header)]
    for model_name in results:
        cells = "".join(
            (f"{100.0 * results[model_name][t]:.1f}" if t in results[model_name]
             else "-").rjust(10)
            for t in tasks
        )
        lines.append(model_name.ljust(name_w) + cells)
    return "\n".join(lines) + "\n"
