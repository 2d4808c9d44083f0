"""Accuracy scoring, label merging, subset sampling, learning curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab.evaluation import (
    CURVE_FRACTIONS,
    ConfusionMatrix,
    CurvePoint,
    accuracy,
    confusion,
    format_summary,
    learning_curve,
    merge_labels,
    non_na_count,
    report_tsv,
    subset_training,
)
from prosolab.taggers.common import LabeledSentence
from prosolab.taggers.majority import predict_majority, train_majority


# ---------------------------------------------------------------------------
# accuracy and confusion
# ---------------------------------------------------------------------------

def test_accuracy_basic():
    assert accuracy([0, 1, 2, None], [0, 2, 2, None]) == pytest.approx(2 / 3)
    assert accuracy([1], [1]) == 1.0
    assert accuracy([1], [0]) == 0.0


def test_accuracy_na_positions_not_scored():
    assert accuracy([0, None, 0], [0, None, 1]) == pytest.approx(0.5)


def test_accuracy_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        accuracy([0], [0, 1])
    with pytest.raises(ValueError, match="NA disagreement at position 1"):
        accuracy([0, None], [0, 1])
    with pytest.raises(ValueError, match="NA disagreement"):
        accuracy([0, 1], [0, None])
    with pytest.raises(ValueError, match="no scored positions"):
        accuracy([None, None], [None, None])


def test_confusion_counts_gold_rows():
    cm = confusion([0, 1, 1, 2, None], [0, 1, 2, 2, None], n_labels=3)
    want = np.zeros((3, 3), dtype=int)
    want[0, 0] = 1
    want[1, 1] = 1
    want[2, 1] = 1
    want[2, 2] = 1
    np.testing.assert_array_equal(cm.counts, want)
    assert cm.total() == 4
    assert cm.accuracy() == pytest.approx(0.75)
    assert cm.accuracy() == pytest.approx(
        accuracy([0, 1, 1, 2, None], [0, 1, 2, 2, None]))


def test_confusion_label_out_of_range():
    with pytest.raises(ValueError, match="label out of range"):
        confusion([5], [0], n_labels=3)
    with pytest.raises(ValueError, match="label out of range"):
        confusion([0], [3], n_labels=3)


def _accuracy_loop(pred, gold):
    """The position-by-position reference for accuracy."""
    if len(pred) != len(gold):
        raise ValueError(
            f"length mismatch: {len(pred)} predictions vs {len(gold)} gold")
    for i, (p, g) in enumerate(zip(pred, gold)):
        if (p is None) != (g is None):
            raise ValueError(
                f"NA disagreement at position {i}: pred={p!r} gold={g!r}")
    scored = [(p, g) for p, g in zip(pred, gold) if g is not None]
    if not scored:
        raise ValueError("no scored positions (all NA)")
    return sum(p == g for p, g in scored) / len(scored)


def _confusion_loop(pred, gold, n_labels):
    """The position-by-position reference for confusion's counts."""
    try:
        _accuracy_loop(pred, gold)
    except ValueError as exc:
        if "no scored positions" not in str(exc):
            raise
    counts = np.zeros((n_labels, n_labels), dtype=np.int64)
    for p, g in zip(pred, gold):
        if g is None:
            continue
        if not (0 <= g < n_labels and 0 <= p < n_labels):
            raise ValueError(f"label out of range: pred={p!r} gold={g!r}")
        counts[g, p] += 1
    return counts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


# gold and predicted labels with NA, mostly in range; each position usually
# has NA on both sides or on neither, and the lists usually one length
label_st = st.one_of(st.none(), st.integers(0, 2), st.integers(-2, 4))
label_pair_st = st.lists(st.tuples(label_st, label_st), max_size=12).flatmap(
    lambda pairs: st.tuples(
        st.just([g for _, g in pairs]),
        st.lists(st.sampled_from([True] * 9 + [False]), min_size=len(pairs),
                 max_size=len(pairs))
        .map(lambda couple: [
            (None if g is None else g if p is None else p) if c else p
            for (p, g), c in zip(pairs, couple)]),
        st.sampled_from([0, 0, 0, 1, -1])))


@settings(max_examples=400, deadline=None)
@given(label_pair_st, st.sampled_from([2, 3]))
def test_scores_equal_a_loop(labels, n_labels):
    gold, pred, extra = labels
    if extra > 0:
        pred = pred + [1]
    elif extra < 0:
        gold = gold + [None]
    got = _outcome(accuracy, pred, gold)
    want = _outcome(_accuracy_loop, pred, gold)
    assert got == want
    got = _outcome(confusion, pred, gold, n_labels)
    want = _outcome(_confusion_loop, pred, gold, n_labels)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.counts.dtype == np.int64
        np.testing.assert_array_equal(got.counts, want)


def test_confusion_tsv():
    cm = ConfusionMatrix(counts=np.array([[2, 1], [0, 3]]),
                         label_names=["0", "1"])
    assert cm.to_tsv() == "\t0\t1\n0\t2\t1\n1\t0\t3\n"


def test_merge_labels():
    assert merge_labels([0, 1, 2, None, 2]) == [0, 1, 1, None, 1]
    assert merge_labels([]) == []


# ---------------------------------------------------------------------------
# subset sampling
# ---------------------------------------------------------------------------

def small_corpus():
    return [
        LabeledSentence(["a", "b", "."], [0, 1, None]),
        LabeledSentence(["c"], [2]),
        LabeledSentence(["d", "e", "f"], [0, 0, 1]),
        LabeledSentence(["g", ","], [2, None]),
        LabeledSentence(["h", "i"], [1, 1]),
    ]


def test_non_na_count():
    assert non_na_count(small_corpus()) == 9
    assert non_na_count([]) == 0


def test_subset_deterministic_and_ordered():
    corpus = small_corpus()
    first = subset_training(corpus, 0.5, seed=3)
    second = subset_training(corpus, 0.5, seed=3)
    assert [s.tokens for s in first] == [s.tokens for s in second]
    positions = [corpus.index(s) for s in first]
    assert positions == sorted(positions)


def test_subset_full_fraction_is_identity():
    corpus = small_corpus()
    assert subset_training(corpus, 1.0, seed=0) == corpus


def test_subset_nested_across_fractions():
    corpus = small_corpus()
    for seed in range(5):
        smaller = subset_training(corpus, 0.2, seed=seed)
        larger = subset_training(corpus, 0.8, seed=seed)
        ids_small = {id(s) for s in smaller}
        ids_large = {id(s) for s in larger}
        assert ids_small <= ids_large


def test_subset_rejects_bad_input():
    with pytest.raises(ValueError, match="outside"):
        subset_training(small_corpus(), 0.0, seed=0)
    with pytest.raises(ValueError, match="outside"):
        subset_training(small_corpus(), 1.5, seed=0)
    empty = [LabeledSentence([","], [None])]
    with pytest.raises(ValueError, match="no labeled tokens"):
        subset_training(empty, 0.5, seed=0)


sentence_strategy = st.builds(
    lambda labels: LabeledSentence([f"w{i}" for i in range(len(labels))],
                                   labels),
    st.lists(st.sampled_from([0, 1, 2, None]), min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(sentence_strategy, min_size=1, max_size=20),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=10_000))
def test_subset_budget_overshoot_bounded(corpus, fraction, seed):
    total = non_na_count(corpus)
    if total == 0:
        with pytest.raises(ValueError, match="no labeled tokens"):
            subset_training(corpus, fraction, seed)
        return
    sub = subset_training(corpus, fraction, seed)
    got = non_na_count(sub)
    target = fraction * total
    longest = max(non_na_count([s]) for s in corpus)
    # stops at the first sentence crossing the budget, so the overshoot is
    # less than one sentence worth of labeled tokens
    assert got >= target
    assert got < target + max(longest, 1)


# ---------------------------------------------------------------------------
# learning curves and reports
# ---------------------------------------------------------------------------

def majority_train_fn(corpus):
    model = train_majority(corpus)
    return lambda tokens: predict_majority(model, tokens)


def test_curve_point_validates_fraction():
    CurvePoint(fraction=0.05, accuracy=0.5)
    with pytest.raises(ValueError, match="not in"):
        CurvePoint(fraction=0.3, accuracy=0.5)


def test_learning_curve_full_fraction_matches_direct():
    corpus = small_corpus()
    points = learning_curve(majority_train_fn, corpus, corpus,
                            fractions=(1.0,), seed=0)
    assert len(points) == 1
    assert points[0].fraction == 1.0

    predict = majority_train_fn(corpus)
    preds = []
    golds = []
    for sent in corpus:
        preds.extend(predict([sent.tokens])[0])
        golds.extend(sent.labels)
    assert points[0].accuracy == pytest.approx(accuracy(preds, golds))


def test_learning_curve_sorts_fractions():
    corpus = small_corpus()
    points = learning_curve(majority_train_fn, corpus, corpus,
                            fractions=(0.5, 0.05), seed=1)
    assert [p.fraction for p in points] == [0.05, 0.5]


def test_curve_fractions_constant():
    assert CURVE_FRACTIONS == (0.01, 0.05, 0.10, 0.50, 1.00)


def test_report_tsv_format():
    text = report_tsv([("crf", "3way", 1.0, 0.654321),
                       ("global", "2way", 0.05, 0.52)])
    lines = text.splitlines()
    assert lines[0] == "model\ttask\tfraction\taccuracy"
    assert lines[1] == "crf\t3way\t1\t0.654321"
    assert lines[2] == "global\t2way\t0.05\t0.520000"


def test_format_summary_table():
    text = format_summary({
        "majority": {"2way": 0.802, "3way": 0.624},
        "crf": {"2way": 0.823},
    })
    lines = text.splitlines()
    assert lines[0].startswith("Model")
    assert "2way" in lines[0] and "3way" in lines[0]
    assert set(lines[1]) == {"-"}
    majority_row = next(l for l in lines if l.startswith("majority"))
    assert "80.2" in majority_row and "62.4" in majority_row
    crf_row = next(l for l in lines if l.startswith("crf"))
    assert "82.3" in crf_row and "-" in crf_row.replace("82.3", "")
