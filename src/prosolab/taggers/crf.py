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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .._accel import NEG_INF, chain_backward, chain_forward, chain_viterbi
from ..corpus_io import is_punctuation
from .common import LabeledSentence, check_training_settings, na_mask

log = logging.getLogger(__name__)

BOS = "<BOS>"
EOS = "<EOS>"
MAX_AFFIX = 4


def crf_featurize(tokens: list[str], position: int) -> list[str]:
    """Feature strings for one position, in fixed template order.

    Templates: surrounding words at offsets -2..2 (lowercased, with boundary
    sentinels), prefixes and suffixes of the current word up to length 4, and
    three binary shape flags (initial capital, contains digit, punctuation).
    """
    if not 0 <= position < len(tokens):
        raise IndexError(f"position {position} out of range")

    def ctx(i: int) -> str:
        if i < 0:
            return BOS
        if i >= len(tokens):
            return EOS
        return tokens[i].lower()

    w = tokens[position]
    lw = w.lower()
    feats = [
        f"w0={lw}",
        f"w-1={ctx(position - 1)}",
        f"w+1={ctx(position + 1)}",
        f"w-2={ctx(position - 2)}",
        f"w+2={ctx(position + 2)}",
    ]
    for n in range(1, min(MAX_AFFIX, len(w)) + 1):
        feats.append(f"pre{n}={lw[:n]}")
        feats.append(f"suf{n}={lw[-n:]}")
    feats.append(f"cap={int(w[:1].isupper())}")
    feats.append(f"dig={int(any(c.isdigit() for c in w))}")
    feats.append(f"punct={int(is_punctuation(w))}")
    return feats


@dataclass
class CrfModel:
    labels: list[int]
    feature_index: dict[str, int]
    weights: np.ndarray
    l2_lambda: float = 1e-4
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


def new_model(labels: list[int], feature_index: dict[str, int],
              l2_lambda: float = 1e-4) -> CrfModel:
    model = CrfModel(labels=list(labels), feature_index=dict(feature_index),
                     weights=np.empty(0), l2_lambda=l2_lambda)
    model.weights = np.zeros(model.expected_size())
    return model


def sentence_feature_ids(tokens: list[str], na,
                         lookup) -> tuple[np.ndarray, np.ndarray]:
    """Feature ids of the word positions, flat, and the position of each id.
    NA positions are not featurized; `lookup` maps a feature string to its
    id, and a feature it maps to None is dropped.  Ids run in position
    order, then template order."""
    ids, pos = [], []
    for t, skip in enumerate(na):
        if skip:
            continue
        for f in crf_featurize(tokens, t):
            i = lookup(f)
            if i is not None:
                ids.append(i)
                pos.append(t)
    return np.array(ids, dtype=np.int64), np.array(pos, dtype=np.int64)


def _states_from_labels(model: CrfModel,
                        labels: list[int | None]) -> np.ndarray:
    state = {lab: i for i, lab in enumerate(model.labels)}
    state[None] = model.na_state
    try:
        return np.array([state[lab] for lab in labels], dtype=np.int64)
    except KeyError as err:
        raise ValueError(
            f"label {err.args[0]!r} not in model label set") from None


def _potentials(model: CrfModel, na: np.ndarray, ids: np.ndarray,
                pos: np.ndarray) -> np.ndarray:
    """(T, S) log-potential matrix with masking baked in.  Each word row
    starts at 0.0 and adds its emission rows one at a time, in id order."""
    K = model.n_labels
    emis = model.weights[:model.n_emission].reshape(-1, K)
    pot = np.full((len(na), model.n_states), NEG_INF)
    pot[na, model.na_state] = 0.0
    pot[~na, :K] = 0.0
    np.add.at(pot[:, :K], pos, emis[ids])
    return pot


def _sentence_potentials(model: CrfModel, tokens: list[str],
                         na) -> np.ndarray:
    na = np.asarray(na, dtype=bool)
    return _potentials(model, na, *sentence_feature_ids(
        tokens, na, model.feature_index.get))


def _path_score(pot: np.ndarray, trans: np.ndarray,
                states: np.ndarray) -> float:
    """Score of one state path, added left to right from 0.0: pot[0, s0],
    then for each later t pot[t, st] and trans[prev, st]."""
    T = len(states)
    # slot 2 stays 0.0, so the running sum meets the terms in loop order
    terms = np.zeros(2 * T + 1)
    terms[1::2] = pot[np.arange(T), states]
    terms[4::2] = trans[states[:-1], states[1:]]
    return np.cumsum(terms)[-1]


def crf_score(model: CrfModel, tokens: list[str],
              labels: list[int | None]) -> float:
    """Unnormalized log-score of one labeling (emissions + transitions)."""
    if len(tokens) != len(labels):
        raise ValueError("tokens and labels lengths differ")
    states = _states_from_labels(model, labels)
    pot = _sentence_potentials(model, tokens, states == model.na_state)
    return float(_path_score(pot, model.transition_matrix(), states))


def forward_logZ(model: CrfModel, tokens: list[str]) -> float:
    """Log partition over all labelings with NA exactly at punctuation; the
    empty sentence has one (empty) labeling, so its logZ is 0."""
    if not tokens:
        return 0.0
    pot = _sentence_potentials(model, tokens, na_mask(tokens))
    logz, _ = chain_forward(pot, model.transition_matrix())
    return float(logz)


def _prep_sentence(model: CrfModel, sent: LabeledSentence):
    """(na, ids, pos, states) of one training sentence."""
    states = _states_from_labels(model, sent.labels)
    na = states == model.na_state
    return (na, *sentence_feature_ids(sent.tokens, na,
                                      model.feature_index.get), states)


def crf_loglik_grad(model: CrfModel, batch: list[LabeledSentence],
                    prepared=None) -> tuple[float, np.ndarray]:
    """Regularized conditional log-likelihood and its gradient.

    Value: sum over sentences of [score(gold) - logZ] - lambda * ||w||^2.
    Gradient: observed - expected feature counts - 2 * lambda * w, where the
    expectations come from forward-backward node and edge marginals.  Each
    gradient cell takes its updates in sentence order, then position order,
    with a sentence's observed counts before its expectations.
    """
    if not batch:
        raise ValueError("empty batch")
    K = model.n_labels
    emis_grad = np.zeros((len(model.feature_index), K))
    trans = model.transition_matrix()
    trans_grad = np.zeros_like(trans)
    total = 0.0
    if prepared is None:
        prepared = [_prep_sentence(model, sent) for sent in batch]
    for na, ids, pos, states in prepared:
        pot = _potentials(model, na, ids, pos)
        logz, alpha = chain_forward(pot, trans)
        beta = chain_backward(pot, trans)
        total += _path_score(pot, trans, states) - logz

        np.add.at(trans_grad, (states[:-1], states[1:]), 1.0)
        np.add.at(emis_grad, (ids, states[pos]), 1.0)
        node_marg = np.exp(alpha + beta - logz)  # (T, s)
        np.subtract.at(emis_grad, ids, node_marg[pos, :K])
        edge = np.exp(alpha[:-1, :, None] + trans[None, :, :]
                      + (pot[1:] + beta[1:])[:, None, :] - logz)
        trans_grad -= edge.sum(axis=0)  # zero for a 1-token sentence

    w = model.weights
    total -= model.l2_lambda * float(w @ w)
    grad = np.concatenate([emis_grad.ravel(), trans_grad.ravel()])
    grad -= 2.0 * model.l2_lambda * w
    return total, grad


def build_feature_index(corpus: list[LabeledSentence]) -> tuple[
        dict[str, int], list[tuple[np.ndarray, np.ndarray]]]:
    """Feature -> id map in first-occurrence scan order, and the (ids,
    positions) of each sentence from the same pass.

    Only non-NA positions contribute; the NA state has no emissions, so
    features seen only at punctuation would never receive gradient.
    """
    index: dict[str, int] = {}
    featurized = [
        sentence_feature_ids(sent.tokens, [lab is None for lab in sent.labels],
                             lambda f: index.setdefault(f, len(index)))
        for sent in corpus]
    return index, featurized


def crf_train(corpus: list[LabeledSentence], l2_lambda: float = 1e-4,
              max_iterations: int = 100, tolerance: float = 1e-5,
              labels: list[int] | None = None) -> CrfModel:
    """Fit weights by maximizing the regularized conditional log-likelihood.

    Deterministic: fixed feature order, zero init, full-batch L-BFGS.  Two
    runs on identical input produce identical weights.
    """
    if not corpus:
        raise ValueError("empty corpus")
    check_training_settings(l2_lambda, max_iterations)
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    if labels is None:
        found = sorted({lab for sent in corpus for lab in sent.labels
                        if lab is not None})
        if not found:
            raise ValueError("all-NA corpus")
        labels = found
    index, featurized = build_feature_index(corpus)
    model = new_model(labels, index, l2_lambda)
    prepared = []
    for sent, (ids, pos) in zip(corpus, featurized):
        states = _states_from_labels(model, sent.labels)
        prepared.append((states == model.na_state, ids, pos, states))

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        model.weights = w.copy()
        value, grad = crf_loglik_grad(model, corpus, prepared=prepared)
        model.objective = value
        if not np.isfinite(value):
            raise FloatingPointError(
                f"training diverged: objective {value!r} with "
                f"|w|_max {np.max(np.abs(w)):g}"
            )
        return -value, -grad

    result = minimize(objective, model.weights, jac=True, method="L-BFGS-B",
                      options={"maxiter": max_iterations, "ftol": tolerance,
                               "gtol": tolerance})
    log.log(logging.INFO if result.success else logging.WARNING,
            "L-BFGS %s: %s (nit=%d, nfev=%d)",
            "converged" if result.success else "stopped without converging",
            result.message, result.nit, result.nfev)
    if not np.array_equal(model.weights, result.x):
        # a failed line search puts result.x back to an earlier iterate
        # than the one evaluated last, and leaves result.fun at that one
        model.weights = result.x
        model.objective, _ = crf_loglik_grad(model, corpus, prepared)
    return model


def viterbi(model: CrfModel, tokens: list[str]) -> list[int | None]:
    """Best-scoring labeling; NA forced at punctuation, ties to smaller label."""
    if not tokens:
        return []
    pot = _sentence_potentials(model, tokens, na_mask(tokens))
    path = chain_viterbi(pot, model.transition_matrix())
    return [None if st == model.na_state else model.labels[int(st)]
            for st in path]
