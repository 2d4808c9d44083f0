"""Windowed word-embedding classifier: softmax over [prev; cur; next] + bias.

Boundary neighbors contribute the zero vector, as do words absent from the
embedding table.  Training is full-batch gradient descent with Armijo
backtracking, which is deterministic and needs no tuning on these feature
sizes.  The bias column is excluded from the L2 penalty so that with all-zero
embeddings the classifier converges to the label priors (global majority).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus_io import EmbeddingTable
from .common import LabeledSentence, na_mask


@dataclass
class EmbeddingClassifier:
    table: EmbeddingTable
    labels: list[int]
    weight_matrix: np.ndarray  # (n_labels, 3 * dimension + 1)


def _sentence_features(table: EmbeddingTable,
                       tokens: list[str]) -> np.ndarray:
    """(T, 3d + 1) rows [prev; cur; next; 1], one lookup per token; past
    either end of the sentence the neighbour is the zero row."""
    padded = np.zeros((len(tokens) + 2, table.dimension))
    for t, token in enumerate(tokens):
        padded[t + 1] = table.lookup(token)
    return np.hstack([padded[:-2], padded[1:-1], padded[2:],
                      np.ones((len(tokens), 1))])


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_embed_classifier(corpus: list[LabeledSentence],
                           table: EmbeddingTable,
                           l2_lambda: float = 1e-4,
                           max_iterations: int = 500,
                           tolerance: float = 1e-6) -> EmbeddingClassifier:
    """Fit the softmax weights on all non-NA positions of the corpus."""
    if not corpus:
        raise ValueError("empty corpus")
    labels = sorted({lab for sent in corpus for lab in sent.labels
                     if lab is not None})
    if not labels:
        raise ValueError("all-NA corpus")
    label_pos = {lab: i for i, lab in enumerate(labels)}

    rows = []
    targets = []
    for sent in corpus:
        words = [t for t, lab in enumerate(sent.labels) if lab is not None]
        rows.append(_sentence_features(table, sent.tokens)[words])
        targets += [label_pos[sent.labels[t]] for t in words]
    x = np.concatenate(rows)                 # (N, 3d + 1)
    y = np.array(targets, dtype=np.int64)    # (N,)
    n, dim = x.shape
    k = len(labels)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        p = _softmax_rows(x @ w.T)           # (N, k)
        ll = -np.sum(np.log(np.maximum(p[np.arange(n), y], 1e-300)))
        penalized = w.copy()
        penalized[:, -1] = 0.0               # bias not regularized
        value = ll + l2_lambda * float(np.sum(penalized**2))
        grad = (p - onehot).T @ x + 2.0 * l2_lambda * penalized
        return value, grad

    w = np.zeros((k, dim))
    value, grad = objective(w)
    step = 1.0
    for _ in range(max_iterations):
        gnorm2 = float(np.sum(grad**2))
        if np.sqrt(gnorm2) < tolerance:
            break
        # Armijo backtracking from the last accepted step size
        step = min(step * 2.0, 1e4)
        while True:
            trial = w - step * grad
            trial_value, trial_grad = objective(trial)
            if trial_value <= value - 1e-4 * step * gnorm2:
                break
            step *= 0.5
            if step < 1e-12:
                break
        if step < 1e-12:
            break
        w, value, grad = trial, trial_value, trial_grad
    return EmbeddingClassifier(table=table, labels=labels, weight_matrix=w)


def predict_embed(classifier: EmbeddingClassifier,
                  tokens: list[str]) -> list[int | None]:
    """Per-position argmax of logits; NA at punctuation, ties to smaller label."""
    logits = (_sentence_features(classifier.table, tokens)
              @ classifier.weight_matrix.T)
    return [None if punct else classifier.labels[int(best)]
            for punct, best in zip(na_mask(tokens), logits.argmax(axis=1))]
