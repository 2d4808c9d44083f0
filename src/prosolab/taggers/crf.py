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
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .._accel import NEG_INF, chain_backward, chain_forward, chain_viterbi
from ..corpus_io import is_punctuation
from .common import LabeledSentence, na_mask

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


def sentence_feature_ids(model: CrfModel,
                         tokens: list[str]) -> list[np.ndarray]:
    """Indexed feature ids per position; unknown features are dropped."""
    out = []
    for t in range(len(tokens)):
        ids = [model.feature_index[f] for f in crf_featurize(tokens, t)
               if f in model.feature_index]
        out.append(np.array(ids, dtype=np.int64))
    return out


def _states_from_labels(model: CrfModel,
                        labels: list[int | None]) -> np.ndarray:
    label_pos = {lab: i for i, lab in enumerate(model.labels)}
    states = np.empty(len(labels), dtype=np.int64)
    for t, lab in enumerate(labels):
        if lab is None:
            states[t] = model.na_state
        else:
            if lab not in label_pos:
                raise ValueError(f"label {lab!r} not in model label set")
            states[t] = label_pos[lab]
    return states


def _potentials(model: CrfModel, feats: list[np.ndarray],
                na: list[bool]) -> np.ndarray:
    """(T, S) log-potential matrix with masking baked in."""
    T = len(feats)
    K = model.n_labels
    s = model.n_states
    emis = model.weights[:model.n_emission].reshape(-1, K)
    pot = np.full((T, s), NEG_INF)
    for t in range(T):
        if na[t]:
            pot[t, model.na_state] = 0.0
        else:
            ids = feats[t]
            pot[t, :K] = emis[ids].sum(axis=0) if len(ids) else 0.0
    return pot


def crf_score(model: CrfModel, tokens: list[str],
              labels: list[int | None]) -> float:
    """Unnormalized log-score of one labeling (emissions + transitions)."""
    if len(tokens) != len(labels):
        raise ValueError("tokens and labels lengths differ")
    feats = sentence_feature_ids(model, tokens)
    states = _states_from_labels(model, labels)
    na = [lab is None for lab in labels]
    pot = _potentials(model, feats, na)
    trans = model.transition_matrix()
    score = 0.0
    prev = -1
    for t, st in enumerate(states):
        score += pot[t, st]
        if t > 0:
            score += trans[prev, st]
        prev = st
    return float(score)


def forward_logZ(model: CrfModel, tokens: list[str],
                 na: list[bool] | None = None) -> float:
    """Log partition over all labelings consistent with the NA mask."""
    if na is None:
        na = na_mask(tokens)
    feats = sentence_feature_ids(model, tokens)
    pot = _potentials(model, feats, na)
    trans = model.transition_matrix()
    logz, _ = chain_forward(pot, trans)
    return float(logz)


def _prep_sentence(model: CrfModel, sent: LabeledSentence):
    feats = sentence_feature_ids(model, sent.tokens)
    na = [lab is None for lab in sent.labels]
    states = _states_from_labels(model, sent.labels)
    return feats, na, states


def crf_loglik_grad(model: CrfModel, batch: list[LabeledSentence],
                    prepared=None) -> tuple[float, np.ndarray]:
    """Regularized conditional log-likelihood and its gradient.

    Value: sum over sentences of [score(gold) - logZ] - lambda * ||w||^2.
    Gradient: observed - expected feature counts - 2 * lambda * w, where the
    expectations come from forward-backward node and edge marginals.
    """
    if not batch:
        raise ValueError("empty batch")
    K = model.n_labels
    s = model.n_states
    n_emis = model.n_emission
    emis_grad = np.zeros((len(model.feature_index), K))
    trans_grad = np.zeros((s, s))
    trans = model.transition_matrix()
    total = 0.0
    if prepared is None:
        prepared = [_prep_sentence(model, sent) for sent in batch]
    for feats, na, states in prepared:
        T = len(feats)
        pot = _potentials(model, feats, na)
        logz, alpha = chain_forward(pot, trans)
        beta = chain_backward(pot, trans)

        gold = 0.0
        prev = -1
        for t in range(T):
            st = states[t]
            gold += pot[t, st]
            if t > 0:
                gold += trans[prev, st]
                trans_grad[prev, st] += 1.0
            if not na[t]:
                emis_grad[feats[t], st] += 1.0
            prev = st
        total += gold - logz

        node_marg = np.exp(alpha + beta - logz)  # (T, s)
        for t in range(T):
            if not na[t]:
                emis_grad[feats[t]] -= node_marg[t, :K]
        if T > 1:
            edge = np.exp(alpha[:-1, :, None] + trans[None, :, :]
                          + (pot[1:] + beta[1:])[:, None, :] - logz)
            trans_grad -= edge.sum(axis=0)

    w = model.weights
    total -= model.l2_lambda * float(w @ w)
    grad = np.concatenate([emis_grad.ravel(), trans_grad.ravel()])
    grad -= 2.0 * model.l2_lambda * w
    return total, grad


def build_feature_index(corpus: list[LabeledSentence]) -> dict[str, int]:
    """Feature -> position map in first-occurrence scan order.

    Only non-NA positions contribute; the NA state has no emissions, so
    features seen only at punctuation would never receive gradient.
    """
    index: dict[str, int] = {}
    for sent in corpus:
        for t, lab in enumerate(sent.labels):
            if lab is None:
                continue
            for f in crf_featurize(sent.tokens, t):
                if f not in index:
                    index[f] = len(index)
    return index


def crf_train(corpus: list[LabeledSentence], l2_lambda: float = 1e-4,
              max_iterations: int = 100, tolerance: float = 1e-5,
              labels: list[int] | None = None) -> CrfModel:
    """Fit weights by maximizing the regularized conditional log-likelihood.

    Deterministic: fixed feature order, zero init, full-batch L-BFGS.  Two
    runs on identical input produce identical weights.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if labels is None:
        found = sorted({lab for sent in corpus for lab in sent.labels
                        if lab is not None})
        if not found:
            raise ValueError("all-NA corpus")
        labels = found
    index = build_feature_index(corpus)
    model = new_model(labels, index, l2_lambda)
    prepared = [_prep_sentence(model, sent) for sent in corpus]

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        model.weights = w
        value, grad = crf_loglik_grad(model, corpus, prepared=prepared)
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
    model.weights = result.x
    return model


def viterbi(model: CrfModel, tokens: list[str]) -> list[int | None]:
    """Best-scoring labeling; NA forced at punctuation, ties to smaller label."""
    na = na_mask(tokens)
    feats = sentence_feature_ids(model, tokens)
    pot = _potentials(model, feats, na)
    trans = model.transition_matrix()
    path = chain_viterbi(pot, trans)
    return [None if st == model.na_state else model.labels[int(st)]
            for st in path]
