"""Per-sentence CRF oracles: the positions that must predict NA, the feature
strings of one position, the score of one labeling and one sentence's log
partition.  The package computes these for whole files at once; the tests
check it against them.  Each looks up the crf module's functions at call
time, as the module itself does."""

import numpy as np

from prosolab.corpus_io import is_punctuation
from prosolab.taggers import crf

from conftest import unlabeled


def na_mask(tokens: list[str]) -> list[bool]:
    """Positions that must predict NA: pure punctuation tokens."""
    return [is_punctuation(t) for t in tokens]


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
            return crf.BOS
        if i >= len(tokens):
            return crf.EOS
        return tokens[i].lower()

    w = tokens[position]
    own = [f for _, feats in crf._own_templates([w], [is_punctuation(w)])
           for f in feats]
    return [own[0],
            *(f"{name}={ctx(position + d)}" for name, d in crf.CONTEXT),
            *own[1:]]


def _one_sentence(model, tokens: list[str], na: np.ndarray):
    data = unlabeled(tokens)
    ch = next(data.chunks())
    feats = crf.sentence_feature_ids(data, na, model.feature_index.get)
    return ch, crf._potentials(model, ch, na, *feats.chunk(ch))


def crf_score(model, tokens: list[str], labels) -> float:
    """Unnormalized log-score of one labeling, a label code per token
    (emissions + transitions)."""
    if len(tokens) != len(labels):
        raise ValueError("tokens and labels lengths differ")
    states = crf._states_from_labels(model, labels)
    ch, pot = _one_sentence(model, tokens, states == model.na_state)
    return float(crf._path_scores(pot, model.transition_matrix(),
                                  ch.pad(states, 0), ch.lengths)[0])


def forward_logZ(model, tokens: list[str]) -> float:
    """Log partition over all labelings with NA exactly at punctuation; the
    empty sentence has one (empty) labeling, so its logZ is 0."""
    ch, pot = _one_sentence(model, tokens,
                            np.array(na_mask(tokens), dtype=bool))
    logz, _ = crf.chain_forward(pot, model.transition_matrix(), ch.lengths)
    return float(logz[0])
