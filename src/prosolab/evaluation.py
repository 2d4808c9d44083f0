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


def _check_pair(pred, gold):
    if len(pred) != len(gold):
        raise ValueError(
            f"length mismatch: {len(pred)} predictions vs {len(gold)} gold"
        )
    for i, (p, g) in enumerate(zip(pred, gold)):
        if (p is None) != (g is None):
            raise ValueError(
                f"NA disagreement at position {i}: pred={p!r} gold={g!r}"
            )


def accuracy(pred, gold) -> float:
    """Fraction of matching non-NA positions.  NA must agree positionally."""
    _check_pair(pred, gold)
    scored = 0
    matched = 0
    for p, g in zip(pred, gold):
        if g is None:
            continue
        scored += 1
        if p == g:
            matched += 1
    if scored == 0:
        raise ValueError("no scored positions (all NA)")
    return matched / scored


def confusion(pred, gold, n_labels: int) -> ConfusionMatrix:
    _check_pair(pred, gold)
    counts = np.zeros((n_labels, n_labels), dtype=np.int64)
    for p, g in zip(pred, gold):
        if g is None:
            continue
        if not (0 <= g < n_labels and 0 <= p < n_labels):
            raise ValueError(f"label out of range: pred={p!r} gold={g!r}")
        counts[g, p] += 1
    return ConfusionMatrix(counts=counts,
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
