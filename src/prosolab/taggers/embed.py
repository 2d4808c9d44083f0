"""Windowed word-embedding classifier: softmax over [prev; cur; next] + bias.

Boundary neighbors contribute the zero vector, as do words absent from the
embedding table.  Training minimizes the penalized negative log-likelihood
by full-batch L-BFGS-B from zero weights, the optimizer the CRF uses, which is
deterministic and needs no tuning on these feature sizes.  The bias column is
excluded from the L2 penalty so that with all-zero embeddings the classifier
converges to the label priors (global majority).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .._accel import fold
from ..corpus_io import NA, Chunk, Columns, CorpusFormatError, EmbeddingTable
from .common import check_training_settings, comma_ints, lbfgs, tab_floats

log = logging.getLogger(__name__)

# training stops once every gradient component is below TOLERANCE, or once
# an iteration lowers the objective by at most RELATIVE_REDUCTION of its size
# (scipy's ftol); at 1e-9 some `tag` benchmark predictions still move.  Not
# settings.
TOLERANCE = 1e-6
RELATIVE_REDUCTION = 1e-12


@dataclass
class EmbeddingClassifier:
    kind = "embed"  # the model file's type, not a field
    table: EmbeddingTable
    labels: list[int]
    weight_matrix: np.ndarray  # (n_labels, 3 * dimension + 1)


def write_section(model: EmbeddingClassifier) -> list[str]:
    """The model file's lines after its type line; tokens sorted."""
    entries = model.table.entries
    return [f"labels={comma_ints(model.labels)}",
            f"dimension={model.table.dimension}", f"window={EMBED_WINDOW}",
            f"rows={model.weight_matrix.shape[0]}",
            *(f"row\t{tab_floats(row)}" for row in model.weight_matrix),
            f"embeddings={len(entries)}",
            *(f"emb\t{token}\t{tab_floats(entries[token])}"
              for token in sorted(entries))]


def read_section(r) -> EmbeddingClassifier:
    """write_section's model, from the lines that serialize's `r` reads."""
    labels = r.labels()
    dim = r.value("dimension", least=1)
    window = r.value("window")
    if window != EMBED_WINDOW:
        raise CorpusFormatError(
            r.at(f"key window: unsupported embed window {window}"))
    n_rows = r.value("rows")
    if n_rows != len(labels):
        raise CorpusFormatError(
            r.at(f"key rows: {n_rows} rows for {len(labels)} labels"))
    _, weights = r.table("row", n_rows, 3 * dim + 1)
    tokens, vectors = r.table("emb", r.value("embeddings", least=0), dim,
                              named=True)
    return EmbeddingClassifier(
        table=EmbeddingTable(dim, dict(zip(tokens, vectors))), labels=labels,
        weight_matrix=weights)


def _type_vectors(table: EmbeddingTable, types: np.ndarray) -> np.ndarray:
    """(n_types, d) vector of each distinct token, one lookup each."""
    return np.array([table.lookup(tok) for tok in types]).reshape(
        len(types), table.dimension)


EMBED_WINDOW = 1  # _window_rows reads one neighbour on each side


def _window_rows(vectors: np.ndarray, data: Columns,
                 ch: Chunk) -> np.ndarray:
    """(n, 3d + 1) rows [prev; cur; next; 1] of the chunk's positions, from
    the type vectors; past either end of a sentence the neighbour is the
    zero row."""
    d = vectors.shape[1]
    cur = vectors[data.type_ids[ch.start:ch.stop]]
    t, length = ch.places()
    rows = np.zeros((len(cur), 3 * d + 1))
    rows[1:, :d] = cur[:-1]
    rows[t == 0, :d] = 0.0
    rows[:, d:2 * d] = cur
    rows[:-1, 2 * d:3 * d] = cur[1:]
    rows[t == length - 1, 2 * d:3 * d] = 0.0
    rows[:, -1] = 1.0
    return rows


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (N, k) logits, reduced over the k columns one at
    a time."""
    e = np.exp(z - fold(np.maximum, z.T)[:, None])
    return e / fold(np.add, e.T)[:, None]


def _penalized(w: np.ndarray) -> np.ndarray:
    """`w` with its bias column, which the L2 penalty leaves out, at 0."""
    out = w.copy()
    out[:, -1] = 0.0
    return out


def _gradient(x: np.ndarray, onehot: np.ndarray, w: np.ndarray,
              p: np.ndarray, l2_lambda: float) -> np.ndarray:
    """The training objective's gradient at `w`, where `p` is the softmax
    of ``x @ w.T`` and `onehot` the gold labels."""
    return (p - onehot).T @ x + 2.0 * l2_lambda * _penalized(w)


def train_embed_classifier(data: Columns, table: EmbeddingTable,
                           l2_lambda: float = 1e-4,
                           max_iterations: int = 500) -> EmbeddingClassifier:
    """Fit the softmax weights on all non-NA positions of `data`."""
    if not len(data.lengths):
        raise ValueError("empty corpus")
    check_training_settings(l2_lambda, max_iterations)
    words = data.labels != NA
    labels = np.unique(data.labels[words])
    if not len(labels):
        raise ValueError("all-NA corpus")

    vectors = _type_vectors(table, data.types)
    x = np.concatenate([
        _window_rows(vectors, data, ch)[words[ch.start:ch.stop]]
        for ch in data.chunks()])               # (N, 3d + 1)
    # each word's index in the sorted `labels`
    y = np.searchsorted(labels, data.labels[words])  # (N,)
    n, dim = x.shape
    k = len(labels)
    gold = np.arange(n) * k + y                 # flat index of each label
    onehot = np.zeros((n, k))
    onehot.flat[gold] = 1.0

    def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
        w = flat.reshape(k, dim)
        p = _softmax_rows(x @ w.T)           # (N, k)
        ll = -np.sum(np.log(np.maximum(p.take(gold), 1e-300)))
        value = ll + l2_lambda * float(np.sum(_penalized(w)**2))
        return value, _gradient(x, onehot, w, p, l2_lambda).ravel()

    result = lbfgs(objective, np.zeros(k * dim), max_iterations,
                   ftol=RELATIVE_REDUCTION, gtol=TOLERANCE, log=log)
    return EmbeddingClassifier(table=table, labels=labels.tolist(),
                               weight_matrix=result.x.reshape(k, dim))


def predict_embed(classifier: EmbeddingClassifier,
                  data: Columns) -> np.ndarray:
    """The label code of the per-position argmax of logits for each of
    `data`'s tokens; NA at punctuation, ties to the smaller label."""
    vectors = _type_vectors(classifier.table, data.types)
    na = data.type_na[data.type_ids]
    codes = np.array([*classifier.labels, NA], dtype=np.int8)
    out = np.empty(len(na), dtype=np.int8)
    for ch in data.chunks():
        logits = (_window_rows(vectors, data, ch)
                  @ classifier.weight_matrix.T)
        out[ch.start:ch.stop] = codes[np.where(
            na[ch.start:ch.stop], len(classifier.labels),
            logits.argmax(axis=1))]
    return out
