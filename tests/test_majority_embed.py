"""Majority baselines and the embedding classifier."""

import logging
import re

import numpy as np
import pytest

from prosolab.corpus_io import EmbeddingTable
from prosolab.taggers import embed
from prosolab.taggers.embed import (
    _type_vectors,
    _window_rows,
    predict_embed,
    train_embed_classifier,
)
from prosolab.taggers.majority import (
    predict_majority,
    train_majority,
    MajorityModel,
)

from conftest import labels_of, lbfgs_log, make_columns, unlabeled
from crf_oracles import na_mask


def loop_majority(model, tokens, mode):
    """The per-sentence majority decoder, as the oracle of the whole-file
    one."""
    global_label = int(np.argmax(model.global_counts))
    out = []
    for token, punct in zip(tokens, na_mask(tokens)):
        if punct:
            out.append(None)
        elif mode == "global":
            out.append(global_label)
        else:
            counts = model.per_word.get(token.lower())
            out.append(global_label if counts is None
                       else int(np.argmax(counts)))
    return out


def loop_embed(classifier, tokens):
    """The per-sentence embedding decoder, as the oracle of the whole-file
    one: one lookup and one product per sentence."""
    padded = np.zeros((len(tokens) + 2, classifier.table.dimension))
    for t, token in enumerate(tokens):
        padded[t + 1] = classifier.table.lookup(token)
    rows = np.hstack([padded[:-2], padded[1:-1], padded[2:],
                      np.ones((len(tokens), 1))])
    logits = rows @ classifier.weight_matrix.T
    return [None if punct else classifier.labels[int(best)]
            for punct, best in zip(na_mask(tokens), logits.argmax(axis=1))]


def sentence_features(table, tokens):
    """The embed classifier's window rows of one sentence."""
    data = unlabeled(tokens)
    return _window_rows(_type_vectors(table, data.types), data,
                        next(data.chunks()))


# ---------------------------------------------------------------------------
# majority
# ---------------------------------------------------------------------------

def test_majority_counts_per_type():
    corpus = make_columns(
        (["tell", "me"], [1, 0]),
        (["Tell", "me"], [1, 0]),
        (["tell", "him"], [2, 0]),
    )
    model = train_majority(corpus)
    # "tell" saw labels 1, 1, 2 -> argmax 1; case folds into one type
    assert model.per_word["tell"].tolist() == [0, 2, 1]
    assert labels_of(predict_majority(model, unlabeled(["tell"]))) == [1]
    assert labels_of(predict_majority(model, unlabeled(["TELL"]))) == [1]


def test_majority_na_contributes_nothing():
    corpus = make_columns(
        ([",", "me"], [None, 0]),
        (["me", "."], [2, None]),
    )
    model = train_majority(corpus)
    assert "," not in model.per_word
    assert "." not in model.per_word
    assert model.global_counts.tolist() == [1, 0, 1]


def test_majority_unseen_word_falls_back_to_global():
    corpus = make_columns(
        (["a"] * 10 + ["b"] * 5 + ["c"] * 5,
         [0] * 10 + [1] * 5 + [2] * 5),
    )
    model = train_majority(corpus)
    assert labels_of(predict_majority(model, unlabeled(["unseen"]))) == [0]
    assert labels_of(predict_majority(
        model, unlabeled(["b", "unseen", "c"]))) == [
        1, 0, 2]


def test_majority_global_mode_ignores_types():
    corpus = make_columns((["a", "b", "b"], [0, 1, 1]))
    model = train_majority(corpus)
    assert labels_of(predict_majority(model, unlabeled(["a", "b"]),
                                      mode="global")) == [1, 1]


def test_majority_tie_takes_smaller_label():
    corpus = make_columns((["w", "w"], [2, 1]))
    model = train_majority(corpus)
    assert labels_of(predict_majority(model, unlabeled(["w"]))) == [1]


def test_majority_punctuation_predicts_na():
    corpus = make_columns((["a"], [1]))
    model = train_majority(corpus)
    assert labels_of(predict_majority(
        model, unlabeled(["a", ",", "a", "?"]))) == [
        1, None, 1, None]


def test_majority_training_accuracy_is_class_frequency():
    # in global mode, training accuracy equals the majority class share
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, size=200).tolist()
    corpus = make_columns(([f"t{i}" for i in range(200)], labels))
    model = train_majority(corpus)
    predicted = predict_majority(model, corpus, mode="global")
    hits = sum(p == g for p, g in zip(predicted, labels))
    assert hits == max(np.bincount(labels, minlength=3))


def test_majority_rejects_all_na_and_untrained():
    with pytest.raises(ValueError, match="all-NA corpus"):
        train_majority(make_columns(([","], [None])))
    with pytest.raises(ValueError, match="untrained model"):
        predict_majority(MajorityModel(), unlabeled(["a"]))
    model = train_majority(make_columns((["a"], [0])))
    with pytest.raises(ValueError, match="unknown mode"):
        predict_majority(model, unlabeled(["a"]), mode="typo")


# ---------------------------------------------------------------------------
# embedding classifier
# ---------------------------------------------------------------------------

def separable_table():
    # two word groups pushed to opposite corners of a 4-dim space
    entries = {}
    for i, word in enumerate(["low1", "low2", "low3"]):
        entries[word] = np.array([1.0, 0.0, 0.1 * i, 0.0])
    for i, word in enumerate(["high1", "high2", "high3"]):
        entries[word] = np.array([0.0, 1.0, 0.0, 0.1 * i])
    return EmbeddingTable(dimension=4, entries=entries)


SEPARABLE = [
    (["low1", "high1"], [0, 2]),
    (["low2", "high2", "."], [0, 2, None]),
    (["high3", "low3"], [2, 0]),
    (["low1", "high3"], [0, 2]),
]


def separable_corpus():
    return make_columns(*SEPARABLE)


def test_sentence_features_match_hand_built_rows():
    low, high = np.array([1.0, 2.0]), np.array([3.0, -0.5])
    zero = np.zeros(2)
    table = EmbeddingTable(dimension=2, entries={"low": low, "High": high})

    def row(prev, cur, nxt):
        return np.concatenate([prev, cur, nxt, [1.0]])

    np.testing.assert_array_equal(sentence_features(table, ["low"]),
                                  [row(zero, low, zero)])
    # "LOW" falls back to "low"; "HIGH" has no lowercase row, "unk" no row
    tokens = ["LOW", "High", "unk", "HIGH", ","]
    np.testing.assert_array_equal(sentence_features(table, tokens), [
        row(zero, low, high), row(low, high, zero), row(high, zero, zero),
        row(zero, zero, zero), row(zero, zero, zero)])
    assert sentence_features(table, []).shape == (0, 7)
    assert labels_of(predict_embed(train_embed_classifier(
        make_columns((["low"], [1])), table), unlabeled([]))) == []


def test_embed_fits_separable_corpus():
    table = separable_table()
    clf = train_embed_classifier(separable_corpus(), table)
    for tokens, labels in SEPARABLE:
        assert labels_of(predict_embed(clf, unlabeled(tokens))) == labels
    # held-out pairing of the same word groups
    assert labels_of(predict_embed(clf, unlabeled(["high2", "low2"]))) == [
        2, 0]


def test_embed_zero_table_learns_priors():
    # with no usable vectors only the bias is informative, so every word
    # gets the most frequent label
    table = EmbeddingTable(dimension=3, entries={})
    corpus = make_columns(
        (["a", "b", "c"], [1, 1, 0]),
        (["d", "e"], [1, 2]),
    )
    clf = train_embed_classifier(corpus, table)
    assert labels_of(predict_embed(
        clf, unlabeled(["anything", "at", "all"]))) == [
        1, 1, 1]


def test_embed_case_fallback_lookup():
    table = separable_table()
    clf = train_embed_classifier(separable_corpus(), table)
    # uppercase token falls back to its lowercase vector
    assert labels_of(predict_embed(clf, unlabeled(["LOW1", "HIGH1"]))) == [
        0, 2]


def test_embed_punctuation_predicts_na():
    clf = train_embed_classifier(separable_corpus(), separable_table())
    assert labels_of(predict_embed(
        clf, unlabeled(["low1", ",", "high1"]))) == [
        0, None, 2]


def test_embed_window_uses_neighbors():
    # the center word is ambiguous; only context disambiguates
    entries = {
        "amb": np.array([0.0, 0.0]),
        "ctxa": np.array([1.0, 0.0]),
        "ctxb": np.array([0.0, 1.0]),
    }
    table = EmbeddingTable(dimension=2, entries=entries)
    corpus = make_columns(
        (["ctxa", "amb"], [0, 0]),
        (["ctxb", "amb"], [1, 1]),
        (["ctxa", "amb"], [0, 0]),
        (["ctxb", "amb"], [1, 1]),
    )
    clf = train_embed_classifier(corpus, table)
    assert predict_embed(clf, unlabeled(["ctxa", "amb"]))[1] == 0
    assert predict_embed(clf, unlabeled(["ctxb", "amb"]))[1] == 1


def test_embed_training_deterministic():
    a = train_embed_classifier(separable_corpus(), separable_table())
    b = train_embed_classifier(separable_corpus(), separable_table())
    assert a.weight_matrix.tobytes() == b.weight_matrix.tobytes()


def test_embed_rejects_empty_and_all_na():
    table = separable_table()
    with pytest.raises(ValueError, match="empty corpus"):
        train_embed_classifier(make_columns(), table)
    with pytest.raises(ValueError, match="all-NA corpus"):
        train_embed_classifier(make_columns(([","], [None])), table)


def test_embed_label_set_from_corpus():
    table = separable_table()
    corpus = make_columns((["low1", "high1"], [0, 1]))
    clf = train_embed_classifier(corpus, table)
    assert clf.labels == [0, 1]
    assert clf.weight_matrix.shape == (2, 3 * 4 + 1)



WORDS = ["tell", "Tell", "me", "ME", "low1", "high2", "amb", "zebra", "x",
         "R2D2"]
PUNCT = [",", ".", "?", "\u2014"]


@pytest.mark.parametrize("seed", range(3))
def test_whole_file_decoders_match_the_per_sentence_loops(seed):
    rng = np.random.default_rng(seed)
    sentences = [[str(rng.choice(PUNCT)) if rng.random() < 0.2
                  else str(rng.choice(WORDS))
                  for _ in range(int(rng.integers(1, 10)))]
                 for _ in range(1500)]
    sentences[7] = []
    sentences.insert(700, ["amb"] * 300)
    data = unlabeled(*sentences)
    assert len(list(data.chunks())) > 3
    corpus = make_columns(*(
        (tokens, [None if punct else int(rng.integers(3))
                  for punct in na_mask(tokens)])
        for tokens in sentences[::3]))

    majority = train_majority(corpus)
    for mode in ("per_word", "global"):
        assert labels_of(predict_majority(majority, data, mode)) == [
            lab for tokens in sentences
            for lab in loop_majority(majority, tokens, mode)]
    table = EmbeddingTable(dimension=3, entries={
        word: rng.normal(size=3) for word in WORDS[::2]})
    classifier = train_embed_classifier(corpus, table, max_iterations=20)
    assert labels_of(predict_embed(classifier, data)) == [
        lab for tokens in sentences for lab in loop_embed(classifier, tokens)]


def embed_problem(data, table):
    """The embed trainer's window rows of `data`'s words, each word's index
    in the sorted label set, and the one-hot targets, built the slow way."""
    gold = labels_of(data.labels)
    labels = sorted(set(gold) - {None})
    label_pos = {lab: i for i, lab in enumerate(labels)}
    words = np.array([lab is not None for lab in gold], dtype=bool)
    vectors = _type_vectors(table, data.types)
    x = np.concatenate([
        _window_rows(vectors, data, ch)[words[ch.start:ch.stop]]
        for ch in data.chunks()])
    y = np.array([label_pos[lab] for lab in gold if lab is not None],
                 dtype=np.int64)
    onehot = np.zeros((len(y), len(labels)))
    onehot[np.arange(len(y)), y] = 1.0
    return x, y, onehot


def oracle_objective(x, y, onehot, w, l2_lambda=1e-4):
    """The penalized negative log-likelihood at `w` and its gradient, with
    numpy's axis reductions in the softmax."""
    z = x @ w.T
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    ll = -np.sum(np.log(np.maximum(p[np.arange(len(y)), y], 1e-300)))
    penalized = w.copy()
    penalized[:, -1] = 0.0
    value = ll + l2_lambda * float(np.sum(penalized**2))
    return value, (p - onehot).T @ x + 2.0 * l2_lambda * penalized


def loop_train_embed(data, table, l2_lambda=1e-4, max_iterations=500,
                     tolerance=1e-6):
    """The embed trainer as it was written before L-BFGS-B: gradient descent
    with Armijo backtracking and a gradient for every trial step.  Returns
    the weights, their objective and the number of objective
    evaluations."""
    x, y, onehot = embed_problem(data, table)

    def objective(w):
        return oracle_objective(x, y, onehot, w, l2_lambda)

    w = np.zeros((onehot.shape[1], x.shape[1]))
    value, grad = objective(w)
    evaluations, step = 1, 1.0
    for _ in range(max_iterations):
        gnorm2 = float(np.sum(grad**2))
        if np.sqrt(gnorm2) < tolerance:
            break
        step = min(step * 2.0, 1e4)
        while True:
            trial = w - step * grad
            trial_value, trial_grad = objective(trial)
            evaluations += 1
            if trial_value <= value - 1e-4 * step * gnorm2:
                break
            step *= 0.5
            if step < 1e-12:
                break
        if step < 1e-12:
            break
        w, value, grad = trial, trial_value, trial_grad
    return w, value, evaluations


def counting(monkeypatch, name):
    """Replace embed.`name` with a wrapper that counts its calls."""
    calls = []
    inner = getattr(embed, name)

    def wrapper(*args):
        calls.append(None)
        return inner(*args)
    monkeypatch.setattr(embed, name, wrapper)
    return calls


def random_corpus(rng, n_sentences, n_labels):
    """Sentences of WORDS and PUNCT with random labels, and a 4-d table for
    all WORDS but the first."""
    sentences = [[str(rng.choice(PUNCT)) if rng.random() < 0.1
                  else str(rng.choice(WORDS))
                  for _ in range(int(rng.integers(1, 12)))]
                 for _ in range(n_sentences)]
    corpus = make_columns(*(
        (tokens, [None if punct else int(rng.integers(n_labels))
                  for punct in na_mask(tokens)]) for tokens in sentences))
    table = EmbeddingTable(dimension=4, entries={
        word: rng.normal(size=4) for word in WORDS[1:]})
    return corpus, table


def nit_nfev(caplog) -> tuple[int, int]:
    [record] = lbfgs_log(caplog)[1]
    fields = dict(re.findall(r"(nit|nfev)=(\d+)", record.getMessage()))
    return int(fields["nit"]), int(fields["nfev"])


@pytest.mark.parametrize("n_labels", [2, 3])
@pytest.mark.parametrize("seed, max_iterations", [(0, 500), (1, 40),
                                                  (2, 500)])
def test_embed_trainer_beats_the_gradient_descent_loop(
        monkeypatch, caplog, seed, max_iterations, n_labels):
    """L-BFGS-B reaches an objective no higher than the Armijo loop's at
    the same `max_iterations`, in fewer evaluations, each with one
    gradient."""
    corpus, table = random_corpus(np.random.default_rng(seed), 300,
                                  n_labels)
    _, want_value, want_evaluations = loop_train_embed(
        corpus, table, max_iterations=max_iterations)

    softmaxes = counting(monkeypatch, "_softmax_rows")
    gradients = counting(monkeypatch, "_gradient")
    with caplog.at_level(logging.INFO, logger="prosolab.taggers.embed"):
        got = train_embed_classifier(corpus, table,
                                     max_iterations=max_iterations)
    value, _ = oracle_objective(*embed_problem(corpus, table),
                                got.weight_matrix)
    assert value <= want_value * (1 + 1e-9)
    _, nfev = nit_nfev(caplog)
    assert nfev == len(softmaxes) == len(gradients) < want_evaluations


def test_embed_gradient_matches_central_differences(monkeypatch):
    """The objective the trainer minimizes gives the gradient of its value,
    bias column included, at random weights and a penalty that shows."""
    corpus, table = random_corpus(np.random.default_rng(5), 40, 3)
    seen = []
    real = embed.lbfgs

    def capture(objective, x0, *args, **kwargs):
        seen.append(objective)
        return real(objective, x0, *args, **kwargs)

    monkeypatch.setattr(embed, "lbfgs", capture)
    train_embed_classifier(corpus, table, l2_lambda=0.3, max_iterations=1)
    [objective] = seen
    w = np.random.default_rng(6).normal(size=3 * (3 * 4 + 1))
    _, grad = objective(w)
    h = 1e-6
    numeric = [(objective(w + h * e)[0] - objective(w - h * e)[0]) / (2 * h)
               for e in np.eye(len(w))]
    np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("settings, level, message", [
    ({}, logging.INFO, "L-BFGS converged: CONVERGENCE: NORM OF PROJECTED "
     "GRADIENT <= PGTOL (nit=17, nfev=18)"),
    ({"max_iterations": 2}, logging.WARNING,
     "L-BFGS stopped without converging: STOP: TOTAL NO. OF ITERATIONS "
     "REACHED LIMIT (nit=2, nfev=3)"),
], ids=["converged", "max-iterations"])
def test_embed_trainer_logs_its_outcome(caplog, settings, level, message):
    with caplog.at_level(logging.INFO, logger="prosolab.taggers.embed"):
        train_embed_classifier(separable_corpus(), separable_table(),
                               **settings)
    trace, [record] = lbfgs_log(caplog)
    assert record.levelno == level
    assert len(trace) == nit_nfev(caplog)[0]
    assert record.getMessage() == message


def test_embed_trainer_logs_a_failed_line_search(monkeypatch, caplog):
    # an uphill "gradient" fails every line search, and L-BFGS-B gives back
    # the start point
    uphill = embed._gradient
    monkeypatch.setattr(embed, "_gradient", lambda *args: -uphill(*args))
    with caplog.at_level(logging.INFO, logger="prosolab.taggers.embed"):
        clf = train_embed_classifier(separable_corpus(), separable_table())
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage().startswith(
        "L-BFGS stopped without converging: ABNORMAL")
    assert nit_nfev(caplog)[0] == 0
    assert np.isfinite(clf.weight_matrix).all()
    assert not clf.weight_matrix.any()
