"""Release gates: one test per shipped guarantee, tolerances pinned inline.

Each test is self-timed against the budget its gate states, so a pass line
here certifies both the numbers and the cost of producing them.  Gates that
need the public prominence corpus skip unless PROSOLAB_DATASET_DIR points at
a directory holding train_360.txt and test.txt; the slow full-corpus
training run additionally wants PROSOLAB_FULL_EVAL=1.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import spearmanr

from prosolab.acoustics import AudioBuffer, FrameTrack, PitchConfig, \
    extract_energy, extract_f0, frame_audio
from prosolab.conditioning import interpolate_gaps, smooth, znormalize
from prosolab.corpus_io import (NA, Columns, Token, Utterance, parse_dataset,
                                write_dataset)
from prosolab.discretize import Thresholds, discretize, split_prominent
from prosolab.evaluation import accuracy, merge_labels, subset_training
from prosolab.prominence import AnnotateConfig, ScaleGrid, annotate_utterance, \
    cwt, extract_loma
from prosolab.taggers.crf import build_feature_index, crf_loglik_grad, \
    crf_train, new_model, prepare, viterbi
from prosolab.taggers.majority import predict_majority, train_majority

from conftest import (DATASET_CONTINUOUS, DATASET_DISCRETE, DATASET_SENTENCE,
                      DATASET_TOKENS, RATE, codes, labels_of,
                      make_columns, make_word_fixture, sine, tokens_of,
                      unlabeled)
from crf_oracles import crf_score, forward_logZ

DATASET_DIR_VAR = "PROSOLAB_DATASET_DIR"
FULL_EVAL_VAR = "PROSOLAB_FULL_EVAL"

needs_corpus = pytest.mark.skipif(
    not os.environ.get(DATASET_DIR_VAR),
    reason=f"set {DATASET_DIR_VAR} to a directory holding train_360.txt "
           "and test.txt",
)
needs_full_eval = pytest.mark.skipif(
    not os.environ.get(FULL_EVAL_VAR),
    reason=f"set {FULL_EVAL_VAR}=1 (and {DATASET_DIR_VAR}) for the "
           "full-corpus training run",
)


def load_public_split(filename: str) -> Columns:
    path = Path(os.environ[DATASET_DIR_VAR]) / filename
    if not path.is_file():
        pytest.skip(f"{path} not found")
    return parse_dataset(path.read_bytes())


def merge_corpus(corpus: Columns) -> Columns:
    return replace(corpus, labels=merge_labels(corpus.labels))


def corpus_accuracy(predict, corpus: Columns) -> float:
    """`predict` labels every token of the corpus in one call."""
    return accuracy(predict(corpus), corpus.labels)


# ---------------------------------------------------------------------------
# gate 1: dataset format round-trip
# ---------------------------------------------------------------------------

def stub_utterance(tokens, labels, uid="u"):
    return Utterance(id=uid, tokens=[
        Token(tok, float(i), i + 0.5, label == NA)
        for i, (tok, label) in enumerate(zip(tokens, labels.tolist()))])


def rewrite(columns: Columns) -> bytes:
    """The dataset bytes of parsed columns, one utterance per sentence."""
    tokens, bounds = tokens_of(columns), columns.offsets.tolist()
    return write_dataset(
        (stub_utterance(tokens[a:b], columns.labels[a:b]),
         columns.labels[a:b], columns.continuous[a:b])
        for a, b in zip(bounds, bounds[1:]))


def test_criterion_1_dataset_round_trip():
    t0 = time.perf_counter()
    data = DATASET_SENTENCE.encode()
    columns = parse_dataset(data)
    assert columns.lengths.tolist() == [len(DATASET_TOKENS)]
    assert rewrite(columns) == data
    # a second pass through both directions must be a fixed point
    assert rewrite(parse_dataset(rewrite(columns))) == data
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# gate 2: global-majority arithmetic on a corpus with pinned label counts
# ---------------------------------------------------------------------------

def test_criterion_2_majority_share_arithmetic():
    t0 = time.perf_counter()
    counts = {0: 43_234, 1: 24_543, 2: 22_286}
    labels = np.repeat(list(counts), list(counts.values()))
    total = labels.size
    assert total == 90_063
    corpus = make_columns(*(
        (["w"] * len(chunk), list(chunk))
        for chunk in np.array_split(labels, math.ceil(total / 1000))))

    model3 = train_majority(corpus)
    acc3 = corpus_accuracy(
        lambda data: predict_majority(model3, data, mode="global"), corpus)
    assert abs(acc3 - 0.480) <= 0.0005

    merged = merge_corpus(corpus)
    model2 = train_majority(merged)
    acc2 = corpus_accuracy(
        lambda data: predict_majority(model2, data, mode="global"), merged)
    assert abs(acc2 - 0.520) <= 0.0005
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# gate 3: accuracy bands on the public corpus (environment-gated)
# ---------------------------------------------------------------------------

@needs_corpus
def test_criterion_3_public_corpus_subsample():
    # 5% training subsample: same pipeline as the full run at a fraction of
    # the cost, so the accuracy bands are widened by 1.5 points on each side
    t0 = time.perf_counter()
    train = load_public_split("train_360.txt")
    test = load_public_split("test.txt")
    sub = subset_training(train, 0.05, seed=0)
    test2 = merge_corpus(test)
    sub2 = merge_corpus(sub)

    maj3 = train_majority(sub)
    acc = corpus_accuracy(lambda t: predict_majority(maj3, t), test)
    assert 0.624 - 0.018 <= acc <= 0.624 + 0.018

    maj2 = train_majority(sub2)
    acc = corpus_accuracy(lambda t: predict_majority(maj2, t), test2)
    assert 0.802 - 0.018 <= acc <= 0.802 + 0.018

    crf3 = crf_train(sub)
    acc = corpus_accuracy(lambda t: viterbi(crf3, t), test)
    assert 0.645 - 0.015 <= acc <= 0.675 + 0.015

    crf2 = crf_train(sub2, labels=[0, 1])
    acc = corpus_accuracy(lambda t: viterbi(crf2, t), test2)
    assert 0.805 - 0.015 <= acc <= 0.830 + 0.015
    assert time.perf_counter() - t0 <= 600.0


@needs_corpus
@needs_full_eval
def test_criterion_3_public_corpus_full():
    t0 = time.perf_counter()
    train = load_public_split("train_360.txt")
    test = load_public_split("test.txt")
    test2 = merge_corpus(test)
    train2 = merge_corpus(train)

    maj3 = train_majority(train)
    acc = corpus_accuracy(lambda t: predict_majority(maj3, t), test)
    assert 0.624 - 0.003 <= acc <= 0.624 + 0.003

    maj2 = train_majority(train2)
    acc = corpus_accuracy(lambda t: predict_majority(maj2, t), test2)
    assert 0.802 - 0.003 <= acc <= 0.802 + 0.003

    crf3 = crf_train(train)
    acc = corpus_accuracy(lambda t: viterbi(crf3, t), test)
    assert 0.645 <= acc <= 0.675

    crf2 = crf_train(train2, labels=[0, 1])
    acc = corpus_accuracy(lambda t: viterbi(crf2, t), test2)
    assert 0.805 <= acc <= 0.830

    tenth = merge_corpus(subset_training(train, 0.10, seed=0))
    crf2_tenth = crf_train(tenth, labels=[0, 1])
    acc = corpus_accuracy(lambda t: viterbi(crf2_tenth, t), test2)
    assert acc >= 0.800
    assert time.perf_counter() - t0 <= 7200.0


# ---------------------------------------------------------------------------
# gate 4: CRF inference and gradient against brute force
# ---------------------------------------------------------------------------

TOY_SENTENCES = [
    (["tell", "me", ",", "now"], [2, 0, None, 1]),
    (["the", "pig", "ran"], [0, 2, 1]),
    (["tell", "the", "pig"], [2, 0, 1]),
    (["me", "now", "."], [0, 1, None]),
]

VOCAB = ["tell", "me", "where", "the", "pig", "is", "you",
         "rascal", "now", ",", "ran", "Big"]


def random_model(rng, corpus, labels=(0, 1, 2)):
    model = new_model(list(labels), build_feature_index(corpus)[0],
                      l2_lambda=1e-4)
    model.weights = rng.normal(0.0, 0.5, size=model.weights.shape)
    return model


def all_labelings(tokens, labels):
    slots = [[None] if tok and all(not c.isalnum() for c in tok) else
             list(labels) for tok in tokens]
    return [list(combo) for combo in itertools.product(*slots)]


def random_sentences(rng, count, max_len, vocab):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        out.append([vocab[i] for i in rng.integers(0, len(vocab), size=n)])
    return out


def test_criterion_4_crf_exact_inference():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    harvest = make_columns(*(
        (toks, [None if all(not c.isalnum() for c in w)
                else int(rng.integers(0, 3)) for w in toks])
        for toks in random_sentences(rng, 12, 6, VOCAB)))
    model = random_model(rng, harvest)

    # partition function and decoding vs full enumeration, 200 sentences
    for tokens in random_sentences(rng, 200, 6, VOCAB):
        labelings = all_labelings(tokens, model.labels)
        scores = np.array([crf_score(model, tokens, codes(lab))
                           for lab in labelings])
        assert abs(forward_logZ(model, tokens) - logsumexp(scores)) <= 1e-8
        decoded = viterbi(model, unlabeled(tokens))
        assert abs(crf_score(model, tokens, decoded) - scores.max()) <= 1e-8

    # analytic gradient vs central differences over fresh random models
    step = 1e-5
    for _ in range(10):
        m = random_model(rng, harvest)
        prepared = prepare(m, harvest)
        _, grad = crf_loglik_grad(m, prepared)
        fd = np.empty_like(m.weights)
        for j in range(len(m.weights)):
            w0 = m.weights[j]
            m.weights[j] = w0 + step
            hi, _ = crf_loglik_grad(m, prepared)
            m.weights[j] = w0 - step
            lo, _ = crf_loglik_grad(m, prepared)
            m.weights[j] = w0
            fd[j] = (hi - lo) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0)
        assert rel <= 1e-4

    # a small separable corpus must be memorized perfectly
    trained = crf_train(make_columns(*TOY_SENTENCES))
    for tokens, labels in TOY_SENTENCES:
        assert labels_of(viterbi(trained, unlabeled(tokens))) == labels
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# gate 5: signal-analysis invariants
# ---------------------------------------------------------------------------

def test_criterion_5_signal_invariants():
    t0 = time.perf_counter()

    # pitch tracking: a pure 220 Hz tone is voiced throughout at 220 +- 1 Hz
    tone = AudioBuffer(sine(220.0, 1.0, amp=0.4), RATE)
    f0 = extract_f0(frame_audio(tone, 0.005, 0.040), PitchConfig())
    assert f0.valid.all()
    assert np.all(np.abs(f0.values - 220.0) <= 1.0)

    # log energy: scaling the waveform by c shifts every frame by ln c
    quiet = AudioBuffer(sine(220.0, 0.5, amp=0.2), RATE)
    loud = AudioBuffer(quiet.samples * 2.5, RATE)
    e1 = extract_energy(frame_audio(quiet, 0.005, 0.040))
    e2 = extract_energy(frame_audio(loud, 0.005, 0.040))
    np.testing.assert_allclose(e2.values - e1.values, np.log(2.5), atol=1e-6)

    # gap interpolation is linear inside, nearest-value at the edges, and a
    # fixed point on already-complete tracks
    gappy = FrameTrack(np.array([100.0, 0.0, 0.0, 200.0]), 0.005,
                       valid=np.array([True, False, False, True]))
    filled = interpolate_gaps(gappy)
    assert filled.valid.all()
    np.testing.assert_allclose(filled.values,
                               [100.0, 400.0 / 3.0, 500.0 / 3.0, 200.0])
    np.testing.assert_array_equal(interpolate_gaps(filled).values,
                                  filled.values)
    edges = interpolate_gaps(FrameTrack(
        np.array([0.0, 5.0, 0.0]), 0.005,
        valid=np.array([False, True, False])))
    np.testing.assert_allclose(edges.values, [5.0, 5.0, 5.0])

    # smoothing preserves constants; z-scoring yields zero mean, unit spread
    const = FrameTrack(np.full(200, 3.7), 0.005)
    np.testing.assert_allclose(smooth(const, 0.02).values, 3.7, atol=1e-9)
    rng = np.random.default_rng(5)
    z, degenerate = znormalize(FrameTrack(rng.normal(2.0, 3.0, 400), 0.005))
    assert not degenerate
    assert abs(z.values.mean()) <= 1e-9
    assert abs(z.values.std() - 1.0) <= 1e-9
    zc, degenerate = znormalize(const)
    assert degenerate
    assert not zc.values.any()

    # wavelet transform is linear
    grid = ScaleGrid(n_scales=8)
    a = FrameTrack(rng.standard_normal(600), 0.005)
    b = FrameTrack(rng.standard_normal(600), 0.005)
    ca, cb = cwt(a, grid).coeffs, cwt(b, grid).coeffs
    both = cwt(FrameTrack(a.values + b.values, 0.005), grid).coeffs
    scaled = cwt(FrameTrack(2.5 * a.values, 0.005), grid).coeffs
    np.testing.assert_allclose(both, ca + cb, atol=1e-9)
    np.testing.assert_allclose(scaled, 2.5 * ca, atol=1e-9)

    # a Gaussian bump is strongest within one grid step of its matching scale
    times = np.arange(600) * 0.005
    scales = grid.scales_s()
    for i in (2, 4, 6):
        bump = np.exp(-((times - times[300]) ** 2) / (2 * scales[i] ** 2))
        coeffs = cwt(FrameTrack(bump, 0.005), grid).coeffs
        assert abs(int(np.argmax(coeffs[:, 300])) - i) <= 1
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# gate 6: word prominence on synthetic fixtures
# ---------------------------------------------------------------------------

FIXTURE_CFG = AnnotateConfig(grid=ScaleGrid(n_scales=8))


def fixture_word_values(saliences) -> list[float]:
    audio, utt = make_word_fixture(saliences)
    return annotate_utterance(audio, utt, FIXTURE_CFG)[1].tolist()


def test_criterion_6_fixture_prominence_ranking():
    t0 = time.perf_counter()

    # the longest-loudest-highest word wins the continuous value outright
    values = fixture_word_values([0.3, 0.5, 0.9, 0.1, 0.7])
    assert int(np.argmax(values)) == 2
    assert values[2] > 0.0

    # two bumps at 2:1 amplitude produce strictly ordered path strengths
    times = np.arange(600) * 0.005
    x = (2.0 * np.exp(-((times - 0.9) ** 2) / (2 * 0.08**2))
         + 1.0 * np.exp(-((times - 2.1) ** 2) / (2 * 0.08**2)))
    lomas = extract_loma(cwt(FrameTrack(x, 0.005), ScaleGrid(n_scales=8)))
    assert len(lomas) == 2
    by_time = sorted(lomas, key=lambda l: l.path[-1][1])
    assert abs(by_time[0].path[-1][1] * 0.005 - 0.9) <= 0.2
    assert abs(by_time[1].path[-1][1] * 0.005 - 2.1) <= 0.2
    assert by_time[0].strength > by_time[1].strength

    # across randomized salience orderings the produced values track the
    # intended ranking: mean Spearman correlation at least 0.8
    rng = np.random.default_rng(7)
    rhos = []
    for _ in range(20):
        sal = rng.permutation([0.1, 0.3, 0.5, 0.7, 0.9])
        rho = spearmanr(sal, fixture_word_values(sal)).statistic
        rhos.append(rho)
    assert float(np.mean(rhos)) >= 0.8
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# gate 7: threshold consistency
# ---------------------------------------------------------------------------

def test_criterion_7_reference_thresholds():
    t0 = time.perf_counter()
    values = np.array(DATASET_CONTINUOUS, dtype=np.float64)  # NaN at None
    got = discretize(values, Thresholds(0.5, 1.0))
    assert got.tolist() == codes(DATASET_DISCRETE).tolist()
    assert time.perf_counter() - t0 < 1.0


@needs_corpus
def test_criterion_7_median_split_balance():
    continuous = load_public_split("train_360.txt").continuous
    values = continuous[~np.isnan(continuous)]
    theta2 = split_prominent(values, 0.5)
    prominent = values[values >= 0.5]
    n_upper = int(np.sum(prominent >= theta2))
    n_lower = len(prominent) - n_upper
    assert abs(n_upper - n_lower) / len(prominent) <= 0.07
