"""Linear-chain CRF with string features, trained by L-BFGS.

States are the K prominence labels plus one extra NA state reserved for
punctuation positions.  The NA state has no emission parameters (its emission
score is frozen at 0) but full transition parameters, so punctuation provides
transition context without competing on features.  Masking is done with large
negative potentials: word positions block the NA state, NA positions block
every label state.

Weight vector layout: F*K emission weights (feature-major), then S*S
transition weights flattened row-major, S = K + 1.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .._accel import NEG_INF, chain_backward, chain_forward, chain_viterbi
from ..corpus_io import NA, Chunk, Columns, CorpusFormatError
from .common import check_training_settings, comma_ints, lbfgs, tab_floats

log = logging.getLogger(__name__)

BOS = "<BOS>"
EOS = "<EOS>"
MAX_AFFIX = 4
# the neighbour templates, in template order after w0
CONTEXT = (("w-1", -1), ("w+1", 1), ("w-2", -2), ("w+2", 2))
# w0, the affixes and the three shape flags
OWN_WIDTH = 2 * MAX_AFFIX + 4


def _own_templates(tokens: Sequence[str], punct: list[bool]) -> Iterator[
        tuple[list[int], list[str]]]:
    """The templates that read only the word itself, in template order:
    for each, the indices of the `tokens` it applies to and their feature
    strings.  `punct[i]` is is_punctuation(tokens[i]); an affix of length n
    applies to the tokens of at least n characters."""
    lows = [tok.lower() for tok in tokens]
    sizes = [len(tok) for tok in tokens]
    every = list(range(len(tokens)))
    yield every, ["w0=" + low for low in lows]
    for n in range(1, MAX_AFFIX + 1):
        fit = [i for i, size in enumerate(sizes) if size >= n]
        long_enough = [lows[i] for i in fit]
        pre, suf = f"pre{n}=", f"suf{n}="
        yield fit, [pre + low[:n] for low in long_enough]
        yield fit, [suf + low[-n:] for low in long_enough]
    yield every, [("cap=0", "cap=1")[tok[:1].isupper()] for tok in tokens]
    yield every, [("dig=0", "dig=1")[any(map(str.isdigit, tok))]
                  for tok in tokens]
    yield every, [("punct=0", "punct=1")[p] for p in punct]


@dataclass
class CrfModel:
    kind = "crf"  # the model file's type, not a field
    labels: list[int]
    feature_index: dict[str, int]
    weights: np.ndarray
    l2_lambda: float
    # the training objective at `weights`, set by crf_train; not saved
    objective: float | None = None

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_states(self) -> int:
        return len(self.labels) + 1

    @property
    def na_state(self) -> int:
        return len(self.labels)

    @property
    def n_emission(self) -> int:
        return len(self.feature_index) * self.n_labels

    def transition_matrix(self) -> np.ndarray:
        s = self.n_states
        return self.weights[self.n_emission:].reshape(s, s)

    def expected_size(self) -> int:
        return self.n_emission + self.n_states**2


def write_section(model: CrfModel) -> list[str]:
    """The model file's lines after its type line; features in index
    order, which is part of the model."""
    emis = model.weights[:model.n_emission].reshape(-1, model.n_labels)
    by_index = sorted(model.feature_index, key=model.feature_index.get)
    return [f"labels={comma_ints(model.labels)}",
            f"l2_lambda={model.l2_lambda!r}", f"features={len(by_index)}",
            *(f"feature\t{feat}\t{tab_floats(row)}"
              for feat, row in zip(by_index, emis)),
            f"states={model.n_states}",
            *(f"trans\t{tab_floats(row)}"
              for row in model.transition_matrix())]


def read_section(r) -> CrfModel:
    """write_section's model, from the lines that serialize's `r` reads."""
    labels = r.labels()
    l2 = r.value("l2_lambda", float)
    features, emis = r.table("feature", r.value("features", least=0),
                             len(labels), named=True)
    n_states = r.value("states")
    if n_states != len(labels) + 1:
        raise CorpusFormatError(r.at(
            f"key states: state count {n_states} does not match label set "
            f"{comma_ints(labels)}"))
    _, trans = r.table("trans", n_states, n_states)
    return CrfModel(labels=labels, feature_index=features,
                    weights=np.concatenate([emis.ravel(), trans.ravel()]),
                    l2_lambda=l2)


def new_model(labels: list[int], feature_index: dict[str, int],
              l2_lambda: float) -> CrfModel:
    model = CrfModel(labels=list(labels), feature_index=dict(feature_index),
                     weights=np.empty(0), l2_lambda=l2_lambda)
    model.weights = np.zeros(model.expected_size())
    return model


@dataclass
class FeatureIds:
    """Feature ids of the word positions of a file, kept per distinct token
    and gathered for one chunk at a time; -1 marks a feature the lookup had
    no id for."""

    data: Columns
    na: np.ndarray       # (N,) positions left unfeaturized
    # (n_types, OWN_WIDTH) ids of the _own_templates, one column each; an
    # affix longer than the type is -1
    own: np.ndarray
    # (n_types + 2, 4) ids of each CONTEXT template with the type as the
    # neighbour; the last two rows stand for BOS and EOS
    context: np.ndarray

    def chunk(self, ch: Chunk) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the chunk's word positions, flat, in position order and
        then template order, and the grid cell of each id."""
        words = np.flatnonzero(~self.na[ch.start:ch.stop])
        tid = self.data.type_ids[ch.start:ch.stop]
        t, length = (a[words] for a in ch.places())
        cols = [self.own[tid[words], :1]]
        bos = len(self.context) - 2
        for c, (_, d) in enumerate(CONTEXT):
            near = tid[np.clip(words + d, 0, len(tid) - 1)]
            near = np.where(t + d < 0, bos,
                            np.where(t + d >= length, bos + 1, near))
            cols.append(self.context[near, c, None])
        cols.append(self.own[tid[words], 1:])
        grid = np.hstack(cols)
        keep = grid >= 0
        return grid[keep], np.repeat(ch.cells[words], keep.sum(axis=1))


def sentence_feature_ids(data: Columns, na: np.ndarray,
                         lookup) -> FeatureIds:
    """Feature ids of the positions of `data` that `na` does not mark.
    Each template is built and looked up for all distinct tokens at once;
    `lookup` maps a feature string to its id, and a feature it maps to None
    is dropped."""
    def ids(feats: list[str]) -> list[int]:
        return [-1 if (i := lookup(f)) is None else i for f in feats]

    own = np.full((len(data.types), OWN_WIDTH), -1, dtype=np.int64)
    for col, (rows, feats) in enumerate(
            _own_templates(data.types, data.type_na.tolist())):
        own[rows, col] = ids(feats)
    words = [tok.lower() for tok in data.types] + [BOS, EOS]
    context = np.array([ids([f"{name}={w}" for w in words])
                        for name, _ in CONTEXT], dtype=np.int64).T
    return FeatureIds(data, na, own, context)


def _states_from_labels(model: CrfModel, labels) -> np.ndarray:
    """The state of each label code; NA is the NA state."""
    labels = np.asarray(labels, dtype=np.int64)
    match = labels[:, None] == [*model.labels, NA]
    missing = np.flatnonzero(~match.any(axis=1))
    if len(missing):
        raise ValueError(
            f"label {int(labels[missing[0]])!r} not in model label set")
    return match.argmax(axis=1)


def _potentials(model: CrfModel, ch: Chunk, na: np.ndarray, ids: np.ndarray,
                cells: np.ndarray) -> np.ndarray:
    """(B, T, S) log-potentials of a chunk with masking baked in, NEG_INF
    past each sentence's end.  Each word row starts at 0.0 and adds its
    emission rows one at a time, in id order, as np.bincount sums."""
    K = model.n_labels
    emis = model.weights[:model.n_emission].reshape(-1, K)
    n_cells = len(ch.lengths) * ch.width
    summed = np.stack([np.bincount(cells, emis[ids, k], n_cells)
                       for k in range(K)], axis=1)
    rows = np.full((len(na), model.n_states), NEG_INF)
    rows[na, model.na_state] = 0.0
    rows[~na, :K] = summed[ch.cells[~na]]
    return ch.pad(rows, NEG_INF)


def _path_scores(pot: np.ndarray, trans: np.ndarray, states: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """(B,) score of each sentence's state path, added left to right from
    0.0: pot[0, s0], then for each later t pot[t, st] and trans[prev, st]."""
    n_batch, n_pos = states.shape
    live = np.arange(n_pos) < lengths[:, None]
    # slot 2 stays 0.0, and so does every slot past a sentence's end, so
    # each running sum meets the terms in loop order
    terms = np.zeros((n_batch, 2 * n_pos + 1))
    terms[:, 1::2] = np.where(
        live, np.take_along_axis(pot, states[..., None], axis=2)[..., 0], 0.0)
    terms[:, 4::2] = np.where(live[:, 1:],
                              trans[states[:, :-1], states[:, 1:]], 0.0)
    return np.cumsum(terms, axis=1)[:, -1]


@dataclass
class _TrainingChunk:
    """What the objective needs of one chunk of training sentences that does
    not depend on the weights."""

    chunk: Chunk
    na: np.ndarray        # (n,) positions with the NA state
    ids: np.ndarray       # feature ids of the word positions
    cells: np.ndarray     # grid cell of each id
    states: np.ndarray    # (B, T) gold states, 0 past each end
    # the emission and transition gradient updates, as _merge gives them
    emis_index: np.ndarray
    emis_counted: np.ndarray
    trans_index: np.ndarray
    trans_counted: np.ndarray


def _merge(count_sentence: np.ndarray, count_index: np.ndarray,
           marginal_sentence: np.ndarray,
           marginal_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient cells of a chunk's observed counts and of its marginals, in
    the order they are applied: sentence by sentence, a sentence's counts
    before its marginals, each in position order.  Also returns which of
    the merged updates are counts."""
    # a stable sort keeps the position order within each group
    order = np.argsort(np.concatenate(
        [2 * count_sentence, 2 * marginal_sentence + 1]), kind="stable")
    return (np.concatenate([count_index, marginal_index])[order],
            order < len(count_index))


def _training_chunks(model: CrfModel, feats: FeatureIds,
                     states: np.ndarray) -> list[_TrainingChunk]:
    K, S = model.n_labels, model.n_states
    out = []
    for ch in feats.data.chunks():
        ids, cells = feats.chunk(ch)
        grid = ch.pad(states[ch.start:ch.stop], 0)
        sentence = np.arange(len(ch.lengths))
        id_sentence = cells // ch.width
        emis = _merge(id_sentence, ids * K + grid.ravel()[cells],
                      np.repeat(id_sentence, K),
                      (ids[:, None] * K + np.arange(K)).ravel())
        live = np.arange(1, ch.width) < ch.lengths[:, None]
        trans = _merge(np.broadcast_to(sentence[:, None], live.shape)[live],
                       (grid[:, :-1] * S + grid[:, 1:])[live],
                       np.repeat(sentence, S * S),
                       np.tile(np.arange(S * S), len(sentence)))
        out.append(_TrainingChunk(ch, feats.na[ch.start:ch.stop], ids, cells,
                                  grid, *emis, *trans))
    return out


def _apply(grad: np.ndarray, index: np.ndarray, counted: np.ndarray,
           marginals: np.ndarray) -> None:
    """Add 1 for each count and subtract each marginal, in merged order."""
    updates = np.empty(len(index))
    updates[counted] = 1.0
    updates[~counted] = -marginals.ravel()
    np.add.at(grad, index, updates)


def prepare(model: CrfModel, data: Columns) -> list[_TrainingChunk]:
    """The batch `data` as crf_loglik_grad reads it, featurized under the
    model's feature index and labels."""
    if not len(data.lengths):
        raise ValueError("empty batch")
    states = _states_from_labels(model, data.labels)
    na = states == model.na_state
    return _training_chunks(
        model, sentence_feature_ids(data, na, model.feature_index.get),
        states)


def crf_loglik_grad(model: CrfModel, prepared: list[_TrainingChunk],
                    ) -> tuple[float, np.ndarray]:
    """Regularized conditional log-likelihood and its gradient over a batch
    as prepare gives it.

    Value: sum over sentences of [score(gold) - logZ] - lambda * ||w||^2.
    Gradient: observed - expected feature counts - 2 * lambda * w, where the
    expectations come from forward-backward node and edge marginals.  Each
    gradient cell takes its updates in sentence order, then position order,
    with a sentence's observed counts before its expectations.
    """
    K, S = model.n_labels, model.n_states
    emis_grad = np.zeros(model.n_emission)
    trans = model.transition_matrix()
    trans_grad = np.zeros(S * S)
    total = 0.0
    for c in prepared:
        lengths = c.chunk.lengths
        pot = _potentials(model, c.chunk, c.na, c.ids, c.cells)
        logz, alpha = chain_forward(pot, trans, lengths)
        beta = chain_backward(pot, trans, lengths)
        # the running total meets the sentences in order
        total = np.cumsum(np.concatenate(
            ([total], _path_scores(pot, trans, c.states, lengths) - logz)))[-1]

        node = np.exp(alpha + beta - logz[:, None, None])
        _apply(emis_grad, c.emis_index, c.emis_counted,
               node.reshape(-1, S)[c.cells, :K])
        edge = np.exp(alpha[:, :-1, :, None] + trans
                      + (pot[:, 1:] + beta[:, 1:])[:, :, None, :]
                      - logz[:, None, None, None])
        # summed per sentence first; zero for a 1-token sentence
        _apply(trans_grad, c.trans_index, c.trans_counted, edge.sum(axis=1))

    w = model.weights
    total -= model.l2_lambda * float(w @ w)
    grad = np.concatenate([emis_grad, trans_grad])
    grad -= 2.0 * model.l2_lambda * w
    return float(total), grad


def build_feature_index(data: Columns) -> tuple[dict[str, int], FeatureIds]:
    """Feature -> id map numbered by first occurrence in a scan of the word
    positions (position order, then template order), and `data`'s
    FeatureIds under that map.

    Only non-NA positions contribute; the NA state has no emissions, so
    features seen only at punctuation would never receive gradient.
    """
    na = data.labels == NA
    provisional: dict[str, int] = {}
    feats = sentence_feature_ids(
        data, na, lambda f: provisional.setdefault(f, len(provisional)))
    # the last slot keeps "no feature" (-1) at -1
    final = np.full(len(provisional) + 1, -1, dtype=np.int64)
    order = []
    for ch in data.chunks():
        ids, _ = feats.chunk(ch)
        fresh, first = np.unique(ids[final[ids] < 0], return_index=True)
        fresh = fresh[np.argsort(first)]
        final[fresh] = np.arange(len(order), len(order) + len(fresh))
        order.extend(fresh.tolist())
    names = list(provisional)
    feats.own, feats.context = final[feats.own], final[feats.context]
    return {names[p]: i for i, p in enumerate(order)}, feats


def crf_train(data: Columns, l2_lambda: float = 1e-4,
              max_iterations: int = 100, tolerance: float = 1e-5) -> CrfModel:
    """Fit weights by maximizing the regularized conditional log-likelihood.

    Deterministic: fixed feature order, zero init, full-batch L-BFGS.  Two
    runs on identical input produce identical weights.
    """
    if not len(data.lengths):
        raise ValueError("empty corpus")
    check_training_settings(l2_lambda, max_iterations)
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    labels = np.unique(data.labels[data.labels != NA]).tolist()
    if not labels:
        raise ValueError("all-NA corpus")
    index, feats = build_feature_index(data)
    model = new_model(labels, index, l2_lambda)
    # the index pass already featurized `data`: prepare it from those ids
    prepared = _training_chunks(model, feats,
                                _states_from_labels(model, data.labels))

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        model.weights = w.copy()
        value, grad = crf_loglik_grad(model, prepared)
        model.objective = value
        return -value, -grad

    result = lbfgs(objective, model.weights, max_iterations,
                   ftol=tolerance, gtol=tolerance, log=log)
    if not np.array_equal(model.weights, result.x):
        # a failed line search puts result.x back to an earlier iterate
        # than the one evaluated last, and leaves result.fun at that one
        model.weights = result.x
        model.objective, _ = crf_loglik_grad(model, prepared)
    return model


def viterbi(model: CrfModel, data: Columns) -> np.ndarray:
    """The label codes of each sentence's best-scoring labeling, one per
    token of `data`; NA forced at punctuation, ties to the smaller label."""
    na = data.type_na[data.type_ids]
    feats = sentence_feature_ids(data, na, model.feature_index.get)
    trans = model.transition_matrix()
    codes = np.array([*model.labels, NA], dtype=np.int8)  # by state
    out = np.empty(len(na), dtype=np.int8)
    for ch in data.chunks():
        pot = _potentials(model, ch, na[ch.start:ch.stop], *feats.chunk(ch))
        path = chain_viterbi(pot, trans, ch.lengths)
        out[ch.start:ch.stop] = codes[path.ravel()[ch.cells]]
    return out
