"""Linear-chain CRF: features, scoring, partition, gradient, decoding."""

import itertools
import logging
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from prosolab._accel import (NEG_INF, chain_backward, chain_forward,
                             chain_viterbi)
from prosolab import corpus_io
from prosolab.corpus_io import NA
from prosolab.taggers import common, crf
from prosolab.taggers.crf import (
    build_feature_index,
    crf_loglik_grad,
    crf_train,
    new_model,
    prepare,
    sentence_feature_ids,
    viterbi,
)
from prosolab.taggers.serialize import load_model, save_model

from conftest import codes, labels_of, lbfgs_log, make_columns, unlabeled
from crf_oracles import crf_featurize, crf_score, forward_logZ, na_mask

TOY_SENTENCES = [
    (["The", "cat", "runs", "."], [0, 2, 1, None]),
    (["The", "dog", "runs", "."], [0, 2, 1, None]),
    (["big", "cat", ",", "runs"], [1, 2, None, 1]),
    (["The", "big", "dog", "sits"], [0, 1, 2, 1]),
]
TOY_CORPUS = make_columns(*TOY_SENTENCES)


def loglik(model, data):
    """crf_loglik_grad over `data`, prepared under `model`."""
    return crf_loglik_grad(model, prepare(model, data))


def harvest_model(corpus, rng=None, labels=(0, 1, 2)):
    """Model over the corpus vocabulary, optionally with random weights."""
    model = new_model(list(labels), build_feature_index(corpus)[0],
                      l2_lambda=1e-4)
    if rng is not None:
        model.weights = rng.normal(0.0, 0.5, size=model.expected_size())
    return model


def manual_score(model, tokens, labels):
    """Recompute the path score straight from the weight layout."""
    k_count = model.n_labels
    s = model.n_states
    trans = model.weights[model.n_emission:].reshape(s, s)
    states = [model.na_state if lab is None else model.labels.index(lab)
              for lab in labels]
    total = 0.0
    for t, lab in enumerate(labels):
        if lab is not None:
            k = model.labels.index(lab)
            for feat in crf_featurize(tokens, t):
                idx = model.feature_index.get(feat)
                if idx is not None:
                    total += model.weights[idx * k_count + k]
        if t > 0:
            total += trans[states[t - 1], states[t]]
    return total


def all_labelings(model, tokens):
    """Every labeling consistent with forced NA at punctuation."""
    choices = [[None] if punct else model.labels
               for punct in na_mask(tokens)]
    return [list(combo) for combo in itertools.product(*choices)]


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

def test_featurize_pinned_strings():
    feats = crf_featurize(["Tell", "me", "now"], 0)
    assert feats == [
        "w0=tell", "w-1=<BOS>", "w+1=me", "w-2=<BOS>", "w+2=now",
        "pre1=t", "suf1=l", "pre2=te", "suf2=ll",
        "pre3=tel", "suf3=ell", "pre4=tell", "suf4=tell",
        "cap=1", "dig=0", "punct=0",
    ]


def test_featurize_short_word_and_boundaries():
    feats = crf_featurize(["a", "b"], 1)
    assert "w0=b" in feats
    assert "w-1=a" in feats
    assert "w+1=<EOS>" in feats
    assert "w+2=<EOS>" in feats
    assert "pre1=b" in feats and "suf1=b" in feats
    # affixes stop at the word length
    assert not any(f.startswith("pre2") or f.startswith("suf2")
                   for f in feats)


def test_featurize_shape_flags():
    feats = crf_featurize(["R2D2"], 0)
    assert "cap=1" in feats and "dig=1" in feats and "punct=0" in feats
    assert "punct=1" in crf_featurize([","], 0)


def test_featurize_position_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        crf_featurize(["a"], 1)
    with pytest.raises(IndexError, match="out of range"):
        crf_featurize(["a"], -1)


# ---------------------------------------------------------------------------
# score and partition
# ---------------------------------------------------------------------------

def test_score_matches_manual_recomputation():
    rng = np.random.default_rng(3)
    model = harvest_model(TOY_CORPUS, rng)
    for tokens, labels in TOY_SENTENCES:
        got = crf_score(model, tokens, codes(labels))
        want = manual_score(model, tokens, labels)
        assert got == pytest.approx(want, abs=1e-10)


def test_score_length_mismatch():
    model = harvest_model(TOY_CORPUS)
    with pytest.raises(ValueError, match="lengths differ"):
        crf_score(model, ["a", "b"], [0])


def test_score_unknown_label():
    model = harvest_model(TOY_CORPUS)
    with pytest.raises(ValueError, match="not in model label set"):
        crf_score(model, ["a"], [7])


@pytest.mark.parametrize("tokens", [
    ["one"],
    ["one", "two"],
    ["The", "cat", ",", "runs", "."],
    ["big", "dog", "sits", "now", "and", "."],
])
def test_logZ_matches_enumeration(tokens):
    rng = np.random.default_rng(len(tokens))
    model = harvest_model(TOY_CORPUS, rng)
    scores = [crf_score(model, tokens, codes(labeling))
              for labeling in all_labelings(model, tokens)]
    assert forward_logZ(model, tokens) == pytest.approx(
        logsumexp(scores), abs=1e-8)


def test_logZ_zero_weights_counts_paths():
    model = harvest_model(TOY_CORPUS)
    # all-zero weights make every labeling score 0, so Z = K^(word count)
    assert forward_logZ(model, ["a", "b", "c", "d"]) == pytest.approx(
        4 * np.log(3), abs=1e-10)
    assert forward_logZ(model, ["a", ",", "c"]) == pytest.approx(
        2 * np.log(3), abs=1e-10)
    assert forward_logZ(model, ["a"]) == pytest.approx(np.log(3), abs=1e-10)


def test_empty_sentence_has_one_empty_labeling():
    # log of the one empty labeling's weight, as crf_score gives it; the
    # other taggers already decode an empty sentence to []
    model = harvest_model(TOY_CORPUS, np.random.default_rng(3))
    assert crf_score(model, [], []) == 0.0
    assert forward_logZ(model, []) == 0.0
    assert labels_of(viterbi(model, unlabeled([]))) == []
    # so it adds nothing to the objective or its gradient
    value, grad = loglik(model, TOY_CORPUS)
    padded_value, padded_grad = loglik(model, make_columns(
        *TOY_SENTENCES[:2], ([], []), *TOY_SENTENCES[2:]))
    assert padded_value == value
    assert np.array_equal(padded_grad, grad)


def test_logZ_exceeds_any_single_path():
    rng = np.random.default_rng(12)
    model = harvest_model(TOY_CORPUS, rng)
    tokens = ["The", "cat", "runs"]
    for labeling in all_labelings(model, tokens):
        assert forward_logZ(model, tokens) > crf_score(model, tokens,
                                                       codes(labeling))


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def finite_difference(model, batch, step=1e-5):
    base = model.weights.copy()
    grad = np.empty_like(base)
    prepared = prepare(model, batch)
    for i in range(len(base)):
        model.weights = base.copy()
        model.weights[i] = base[i] + step
        up, _ = crf_loglik_grad(model, prepared)
        model.weights[i] = base[i] - step
        down, _ = crf_loglik_grad(model, prepared)
        grad[i] = (up - down) / (2.0 * step)
    model.weights = base
    return grad


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_central_differences(seed):
    corpus = make_columns(
        (["The", "cat", ",", "runs"], [0, 2, None, 1]),
        (["dog", "sits", "."], [2, 1, None]),
    )
    rng = np.random.default_rng(seed)
    model = harvest_model(corpus, rng)
    _, grad = loglik(model, corpus)
    fd = finite_difference(model, corpus)
    assert np.linalg.norm(fd - grad) <= 1e-4 * (1.0 + np.linalg.norm(grad))
    assert np.max(np.abs(fd - grad) / (1.0 + np.abs(grad))) <= 1e-4


def test_gradient_transition_only_model():
    # empty feature index: emissions vanish and only transitions learn
    model = new_model([0, 1], {}, l2_lambda=1e-4)
    rng = np.random.default_rng(5)
    model.weights = rng.normal(0.0, 0.5, size=model.expected_size())
    batch = make_columns((["a", "b", "c"], [0, 1, 0]))
    assert model.n_emission == 0
    _, grad = loglik(model, batch)
    fd = finite_difference(model, batch)
    assert np.max(np.abs(fd - grad)) <= 1e-6


def test_gradient_zero_at_optimum_direction():
    # gold counts equal expected counts when weights maximize the objective,
    # so after training the gradient norm should be small
    model = crf_train(TOY_CORPUS, max_iterations=200)
    _, grad = loglik(model, TOY_CORPUS)
    assert np.linalg.norm(grad) < 0.1


def test_loglik_empty_batch():
    model = harvest_model(TOY_CORPUS)
    with pytest.raises(ValueError, match="empty batch"):
        prepare(model, make_columns())


# ---------------------------------------------------------------------------
# bit-equality against the per-position loops
# ---------------------------------------------------------------------------

def loop_potentials(model, tokens, na):
    """(T, S) potentials built one position at a time, every position
    featurized and NA rows discarded."""
    K = model.n_labels
    emis = model.weights[:model.n_emission].reshape(-1, K)
    pot = np.full((len(tokens), model.n_states), NEG_INF)
    for t in range(len(tokens)):
        ids = np.array([model.feature_index[f]
                        for f in crf_featurize(tokens, t)
                        if f in model.feature_index], dtype=np.int64)
        if na[t]:
            pot[t, model.na_state] = 0.0
        else:
            pot[t, :K] = emis[ids].sum(axis=0) if len(ids) else 0.0
    return pot


def loop_states(model, labels):
    return [model.na_state if lab is None else model.labels.index(lab)
            for lab in labels]


def loop_path_score(pot, trans, states):
    score = 0.0
    for t, st in enumerate(states):
        score += pot[t, st]
        if t > 0:
            score += trans[states[t - 1], st]
    return score


def one_sentence(kernel, pot, trans):
    """A batched chain kernel's output for a batch of the one sentence."""
    out = kernel(pot[None], trans, np.array([len(pot)]))
    return tuple(a[0] for a in out) if isinstance(out, tuple) else out[0]


def loop_loglik_grad(model, batch):
    """Value and gradient with one Python pass per position; `batch` holds
    (tokens, labels) sentences."""
    K = model.n_labels
    emis_grad = np.zeros((len(model.feature_index), K))
    trans_grad = np.zeros((model.n_states, model.n_states))
    trans = model.transition_matrix()
    total = 0.0
    for tokens, labels in batch:
        na = [lab is None for lab in labels]
        feats = [[model.feature_index[f]
                  for f in crf_featurize(tokens, t)
                  if f in model.feature_index]
                 for t in range(len(tokens))]
        states = loop_states(model, labels)
        pot = loop_potentials(model, tokens, na)
        logz, alpha = one_sentence(chain_forward, pot, trans)
        beta = one_sentence(chain_backward, pot, trans)
        total += loop_path_score(pot, trans, states) - logz
        for t, st in enumerate(states):
            if t > 0:
                trans_grad[states[t - 1], st] += 1.0
            if not na[t]:
                emis_grad[feats[t], st] += 1.0
        node_marg = np.exp(alpha + beta - logz)
        for t in range(len(states)):
            if not na[t]:
                emis_grad[feats[t]] -= node_marg[t, :K]
        if len(states) > 1:
            edge = np.exp(alpha[:-1, :, None] + trans[None, :, :]
                          + (pot[1:] + beta[1:])[:, None, :] - logz)
            trans_grad -= edge.sum(axis=0)
    w = model.weights
    total -= model.l2_lambda * float(w @ w)
    grad = np.concatenate([emis_grad.ravel(), trans_grad.ravel()])
    grad -= 2.0 * model.l2_lambda * w
    return total, grad


WORDS = ["the", "The", "cat", "dog", "runs", "R2D2", "big", "a", "sits",
         "quokka", "zebra", "Now", "and", "x"]
PUNCT = [",", ".", "?", "!", "\u2014"]


def ragged_corpus(rng, labels, n=24):
    """(tokens, labels) sentences of 1 to 9 tokens, about one in five
    punctuation, with a 1-token sentence and an all-NA one always present."""
    corpus = [(["one"], [labels[-1]]), ([",", "."], [None, None])]
    for _ in range(n):
        tokens = [str(rng.choice(PUNCT)) if rng.random() < 0.2
                  else str(rng.choice(WORDS))
                  for _ in range(int(rng.integers(1, 10)))]
        corpus.append((tokens, [None if is_na else int(rng.choice(labels))
                                for is_na in na_mask(tokens)]))
    return corpus


def chunked_corpus(rng, labels, n=24):
    """ragged_corpus with a 60-token sentence in the middle, checked to span
    more than three chunks."""
    corpus = ragged_corpus(rng, labels, n)
    long = [str(w) for w in rng.choice(WORDS, size=60)]
    corpus.insert(len(corpus) // 2,
                  (long, [int(rng.choice(labels)) for _ in long]))
    data = make_columns(*corpus)
    assert len(list(data.chunks())) > 3
    return corpus


@pytest.mark.parametrize("seed", range(3))
def test_index_pass_ids_match_a_lookup_on_the_finished_index(seed,
                                                             monkeypatch):
    monkeypatch.setattr(corpus_io, "CHUNK_CELLS", 40)
    corpus = chunked_corpus(np.random.default_rng(seed), (0, 1, 2))
    data = make_columns(*corpus)
    index, feats = build_feature_index(data)
    na = data.labels == NA
    looked_up = sentence_feature_ids(data, na, index.get)
    # the per-position scan, numbering each feature when first seen
    scan, want_ids, want_pos = {}, [], []
    for start, (tokens, labels) in zip(data.offsets.tolist(), corpus):
        for t, lab in enumerate(labels):
            if lab is not None:
                for f in crf_featurize(tokens, t):
                    want_ids.append(scan.setdefault(f, len(scan)))
                    want_pos.append(start + t)
    assert list(index.items()) == list(scan.items())
    got_ids, got_pos = [], []
    for ch in data.chunks():
        ids, cells = feats.chunk(ch)
        lookup_ids, lookup_cells = looked_up.chunk(ch)
        assert ids.dtype == cells.dtype == np.int64
        np.testing.assert_array_equal(ids, lookup_ids)
        np.testing.assert_array_equal(cells, lookup_cells)
        got_ids.append(ids)
        got_pos.append(ch.start + np.searchsorted(ch.cells, cells))
    np.testing.assert_array_equal(np.concatenate(got_ids), want_ids)
    np.testing.assert_array_equal(np.concatenate(got_pos), want_pos)


@pytest.mark.parametrize("labels", [(0, 1), (0, 1, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_scoring_paths_match_the_loops_bit_for_bit(seed, labels, monkeypatch):
    # seed 0 runs at the real chunk bound on 1400 sentences; the others
    # shrink the bound so that a short corpus spans many chunks
    if seed:
        monkeypatch.setattr(corpus_io, "CHUNK_CELLS", 40)
    rng = np.random.default_rng(seed)
    corpus = chunked_corpus(rng, labels, 24 if seed else 1400)
    data = make_columns(*corpus)
    # index half the corpus, so the rest brings features the index lacks
    model = new_model(list(labels),
                      build_feature_index(make_columns(*corpus[::2]))[0],
                      l2_lambda=0.01)
    model.weights = rng.normal(0.0, 0.7, size=model.expected_size())
    trans = model.transition_matrix()

    value, grad = loglik(model, data)
    want_value, want_grad = loop_loglik_grad(model, corpus)
    assert value == want_value
    assert np.array_equal(grad, want_grad)

    want_paths = []
    for tokens, _ in corpus:
        pot = loop_potentials(model, tokens, na_mask(tokens))
        want_paths += [None if st == model.na_state else model.labels[st]
                       for st in one_sentence(chain_viterbi, pot, trans)]
    assert labels_of(viterbi(model, data)) == want_paths

    for tokens, labels in corpus[:40]:
        states = loop_states(model, labels)
        gold_pot = loop_potentials(model, tokens,
                                   [lab is None for lab in labels])
        assert crf_score(model, tokens, codes(labels)) == \
            loop_path_score(gold_pot, trans, states)
        pot = loop_potentials(model, tokens, na_mask(tokens))
        assert forward_logZ(model, tokens) == one_sentence(
            chain_forward, pot, trans)[0]


def test_training_keeps_the_objective_it_reached():
    corpus = make_columns(*ragged_corpus(np.random.default_rng(7), (0, 1, 2)))
    model = crf_train(corpus, max_iterations=20)
    value, _ = loglik(model, corpus)
    assert model.objective == value
    assert load_model(save_model(model)).objective is None


def test_training_keeps_the_objective_after_a_failed_line_search(caplog):
    # this tolerance cannot be met, so L-BFGS-B ends on a line search it
    # rejected and puts the weights back to the iterate before it
    corpus = make_columns(*ragged_corpus(np.random.default_rng(1), (0, 1)))
    with caplog.at_level(logging.WARNING, logger="prosolab.taggers.crf"):
        model = crf_train(corpus, max_iterations=2000, tolerance=1e-14)
    assert "ABNORMAL" in caplog.text
    value, _ = loglik(model, corpus)
    assert model.objective == value


def test_training_stops_at_a_non_finite_objective(monkeypatch):
    def diverging(model, prepared):
        value, grad = unwrapped(model, prepared)
        return np.nan, grad

    unwrapped = crf.crf_loglik_grad
    monkeypatch.setattr(crf, "crf_loglik_grad", diverging)
    with pytest.raises(FloatingPointError,
                       match=r"^training diverged: objective nan with "):
        crf_train(TOY_CORPUS, max_iterations=5)


@pytest.mark.parametrize("seed, labels, tolerance, outcome, after", [
    (7, (0, 1, 2), 1e-5, "CONVERGENCE", 0),
    # the failed line search above: one more evaluation at the weights
    # L-BFGS-B puts back
    (1, (0, 1), 1e-14, "ABNORMAL", 1),
], ids=["converged", "failed-line-search"])
def test_training_evaluates_through_the_module_global(
        monkeypatch, caplog, seed, labels, tolerance, outcome, after):
    """A tracer that wraps crf.crf_loglik_grad sees every evaluation that
    crf_train makes, and the last one it sees is the objective kept."""
    corpus = make_columns(*ragged_corpus(np.random.default_rng(seed),
                                         labels))
    values = []

    def counting(model, prepared):
        value, grad = unwrapped(model, prepared)
        values.append(value)
        return value, grad

    unwrapped = crf.crf_loglik_grad
    monkeypatch.setattr(crf, "crf_loglik_grad", counting)
    with caplog.at_level(logging.INFO, logger="prosolab.taggers.crf"):
        model = crf_train(corpus, max_iterations=2000, tolerance=tolerance)
    assert outcome in caplog.text
    nfev = int(re.search(r"nfev=(\d+)", caplog.text).group(1))
    assert len(values) == nfev + after
    assert model.objective == values[-1]


# ---------------------------------------------------------------------------
# training and decoding
# ---------------------------------------------------------------------------

def test_train_fits_separable_toy_corpus():
    model = crf_train(TOY_CORPUS, max_iterations=200)
    for tokens, labels in TOY_SENTENCES:
        assert labels_of(viterbi(model, unlabeled(tokens))) == labels


def test_train_is_deterministic():
    a = crf_train(TOY_CORPUS, max_iterations=50)
    b = crf_train(TOY_CORPUS, max_iterations=50)
    assert a.feature_index == b.feature_index
    assert a.weights.tobytes() == b.weights.tobytes()


@pytest.mark.parametrize("max_iterations, level, reason", [
    (1, logging.WARNING, "ITERATIONS REACHED LIMIT"),
    (50, logging.INFO, "CONVERGENCE"),
])
def test_train_logs_optimizer_outcome(caplog, max_iterations, level, reason):
    with caplog.at_level(logging.INFO, logger="prosolab.taggers.crf"):
        crf_train(TOY_CORPUS, max_iterations=max_iterations)
    trace, [record] = lbfgs_log(caplog)
    assert record.levelno == level
    assert reason in record.getMessage()
    assert "nfev=" in record.getMessage()
    assert f"nit={len(trace)}," in record.getMessage()


def test_lbfgs_logs_each_iteration_at_info(caplog):
    """One INFO line per iteration: its number, the objective and max |grad|
    at the new point, and the seconds since training started; none at the
    default WARNING level."""
    scale = np.array([1.0, 4.0, 9.0, 0.5])
    target = np.array([1.0, -2.0, 0.5, 3.0])

    def objective(x):
        return (0.5 * float(scale @ (x - target) ** 2) + 1.0,
                scale * (x - target))

    log = logging.getLogger("prosolab.taggers.test")
    with caplog.at_level(logging.WARNING, logger=log.name):
        common.lbfgs(objective, np.zeros(4), 50, 1e-12, 1e-9, log)
    assert caplog.records == []
    with caplog.at_level(logging.INFO, logger=log.name):
        result = common.lbfgs(objective, np.zeros(4), 50, 1e-12, 1e-9, log)
    trace, [outcome] = lbfgs_log(caplog)
    assert result.success and result.nit > 1 and len(trace) == result.nit
    lines = [re.fullmatch(r"L-BFGS iteration (\d+): objective (\S+), max "
                          r"\|grad\| (\S+), (\S+) s", r.getMessage()).groups()
             for r in trace]
    assert all(r.levelno == logging.INFO for r in trace)
    assert [int(line[0]) for line in lines] == list(range(1, result.nit + 1))
    values = [float(line[1]) for line in lines]
    assert values == sorted(values, reverse=True)
    assert lines[-1][1] == f"{result.fun:.10g}"
    grad = objective(result.x)[1]
    assert lines[-1][2] == f"{np.max(np.abs(grad)):.4g}"
    seconds = [float(line[3]) for line in lines]
    assert seconds == sorted(seconds)


def test_train_regularization_shrinks_weights():
    loose = crf_train(TOY_CORPUS, l2_lambda=1e-4, max_iterations=100)
    tight = crf_train(TOY_CORPUS, l2_lambda=10.0, max_iterations=100)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_train_rejects_empty_and_all_na():
    with pytest.raises(ValueError, match="empty corpus"):
        crf_train(make_columns())
    with pytest.raises(ValueError, match="all-NA corpus"):
        crf_train(make_columns(([","], [None])))


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(21)
    model = harvest_model(TOY_CORPUS, rng)
    tokens = ["The", "cat", ",", "runs", "."]
    labelings = all_labelings(model, tokens)
    scores = [crf_score(model, tokens, codes(labeling))
              for labeling in labelings]
    best = labelings[int(np.argmax(scores))]
    path = viterbi(model, unlabeled(tokens))
    assert crf_score(model, tokens, path) == pytest.approx(max(scores),
                                                           abs=1e-9)
    assert labels_of(path) == best


def test_viterbi_zero_weights_ties_to_smallest():
    model = harvest_model(TOY_CORPUS)
    assert labels_of(viterbi(model, unlabeled(["a", "b", ",", "c"]))) == [
        0, 0, None, 0]


def test_viterbi_forces_na_exactly_at_punctuation():
    rng = np.random.default_rng(9)
    model = harvest_model(TOY_CORPUS, rng)
    tokens = ["The", ",", "cat", "runs", "?", "!"]
    path = labels_of(viterbi(model, unlabeled(tokens)))
    assert [lab is None for lab in path] == [False, True, False, False,
                                             True, True]
    assert all(lab in model.labels for lab in path if lab is not None)


def test_viterbi_handles_unseen_words():
    model = crf_train(TOY_CORPUS, max_iterations=100)
    path = labels_of(viterbi(model, unlabeled(["zebra", "quokka"])))
    assert all(lab in model.labels for lab in path)


def test_label_permutation_equivariance():
    perm = {0: 2, 1: 0, 2: 1}
    renamed = make_columns(*(
        (tokens, [None if lab is None else perm[lab] for lab in labels])
        for tokens, labels in TOY_SENTENCES))
    base = crf_train(TOY_CORPUS, max_iterations=200)
    mapped = crf_train(renamed, max_iterations=200)
    for tokens, _ in TOY_SENTENCES:
        want = [None if lab is None else perm[lab]
                for lab in labels_of(viterbi(base, unlabeled(tokens)))]
        assert labels_of(viterbi(mapped, unlabeled(tokens))) == want


def test_two_label_model():
    corpus = make_columns(
        (["up", "down", "."], [1, 0, None]),
        (["down", "up"], [0, 1]),
    )
    model = crf_train(corpus, max_iterations=100)
    assert model.labels == [0, 1]
    assert model.n_states == 3
    assert labels_of(viterbi(model, unlabeled(["up", "down"]))) == [1, 0]
