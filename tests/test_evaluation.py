"""Accuracy scoring, label merging, subset sampling, learning curves."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab.corpus_io import NA
from prosolab.evaluation import (
    CURVE_FRACTIONS,
    CurvePoint,
    accuracy,
    confusion,
    confusion_tsv,
    format_summary,
    learning_curve,
    merge_labels,
    non_na_count,
    report_tsv,
    subset_training,
)
from prosolab.taggers.majority import predict_majority, train_majority

from conftest import (by_sentence, codes, labels_of, make_columns,
                      same_columns, tokens_of)


# ---------------------------------------------------------------------------
# accuracy and confusion
# ---------------------------------------------------------------------------

def scored_with(score, pred, gold, *args):
    """`score` of the label codes of the lists `pred` and `gold`, which
    hold None at NA."""
    return score(codes(pred), codes(gold), *args)


def test_accuracy_basic():
    assert scored_with(accuracy, [0, 1, 2, None], [0, 2, 2, None]) == \
        pytest.approx(2 / 3)
    assert scored_with(accuracy, [1], [1]) == 1.0
    assert scored_with(accuracy, [1], [0]) == 0.0


def test_accuracy_na_positions_not_scored():
    assert scored_with(accuracy, [0, None, 0], [0, None, 1]) == \
        pytest.approx(0.5)


def test_accuracy_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        scored_with(accuracy, [0], [0, 1])
    with pytest.raises(ValueError, match=re.escape(
            "NA disagreement at position 1: pred=None gold=1")):
        scored_with(accuracy, [0, None], [0, 1])
    with pytest.raises(ValueError, match=re.escape(
            "NA disagreement at position 1: pred=1 gold=None")):
        scored_with(accuracy, [0, 1], [0, None])
    with pytest.raises(ValueError, match="no scored positions"):
        scored_with(accuracy, [None, None], [None, None])


def test_confusion_counts_gold_rows():
    counts = scored_with(confusion, [0, 1, 1, 2, None], [0, 1, 2, 2, None],
                         3)
    want = np.zeros((3, 3), dtype=int)
    want[0, 0] = 1
    want[1, 1] = 1
    want[2, 1] = 1
    want[2, 2] = 1
    np.testing.assert_array_equal(counts, want)
    assert counts.sum() == 4
    # the diagonal share of the counts is the accuracy
    assert np.trace(counts) / counts.sum() == pytest.approx(0.75)
    assert np.trace(counts) / counts.sum() == pytest.approx(
        scored_with(accuracy, [0, 1, 1, 2, None], [0, 1, 2, 2, None]))


def test_confusion_label_out_of_range():
    with pytest.raises(ValueError, match="label out of range"):
        scored_with(confusion, [5], [0], 3)
    with pytest.raises(ValueError, match="label out of range"):
        scored_with(confusion, [0], [3], 3)


def test_scores_take_any_integer_sequence_of_codes():
    # a list of codes scores as its array does; None is not a code
    assert accuracy([0, 1, NA], [1, 1, NA]) == 0.5
    assert confusion([0, 1, NA], [1, 1, NA], 2).tolist() == [[0, 0], [1, 1]]
    with pytest.raises(TypeError):
        accuracy([0, None], [0, NA])


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
# has NA on both sides or on neither, and the lists usually one length.  An
# out-of-range label is never NA's code, which no label can share.
label_st = st.one_of(st.none(), st.integers(0, 2),
                     st.integers(-2, 4).filter(lambda v: v != NA))
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
    got = _outcome(scored_with, accuracy, pred, gold)
    want = _outcome(_accuracy_loop, pred, gold)
    assert got == want
    got = _outcome(scored_with, confusion, pred, gold, n_labels)
    want = _outcome(_confusion_loop, pred, gold, n_labels)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_confusion_tsv():
    assert (confusion_tsv(np.array([[2, 1], [0, 3]]))
            == "\t0\t1\n0\t2\t1\n1\t0\t3\n")
    assert confusion_tsv(np.arange(9).reshape(3, 3)) == (
        "\t0\t1\t2\n0\t0\t1\t2\n1\t3\t4\t5\n2\t6\t7\t8\n")


def test_merge_labels():
    merged = merge_labels(codes([0, 1, 2, None, 2]))
    assert merged.dtype == np.int8
    assert labels_of(merged) == [0, 1, 1, None, 1]
    assert labels_of(merge_labels(codes([]))) == []


# ---------------------------------------------------------------------------
# subset sampling
# ---------------------------------------------------------------------------

SMALL = [
    (["a", "b", "."], [0, 1, None]),
    (["c"], [2]),
    (["d", "e", "f"], [0, 0, 1]),
    (["g", ","], [2, None]),
    (["h", "i"], [1, 1]),
]


def small_corpus():
    return make_columns(*SMALL)


def sentences(data):
    """The (tokens, labels) sentences of `data`, in order."""
    return list(zip(by_sentence(data, tokens_of(data)),
                    by_sentence(data, labels_of(data.labels))))


def test_non_na_count():
    assert non_na_count(small_corpus()) == 9
    assert non_na_count(make_columns()) == 0


def test_subset_deterministic_and_ordered():
    corpus = small_corpus()
    first = subset_training(corpus, 0.5, seed=3)
    second = subset_training(corpus, 0.5, seed=3)
    assert same_columns(first, second)
    # whole sentences of the corpus, each with its labels, in corpus order
    positions = [SMALL.index(s) for s in sentences(first)]
    assert positions == sorted(positions)
    assert first.lengths.tolist() == [len(SMALL[i][0]) for i in positions]


def test_subset_full_fraction_is_identity():
    corpus = small_corpus()
    assert same_columns(subset_training(corpus, 1.0, seed=0), corpus)


def test_subset_nested_across_fractions():
    corpus = small_corpus()
    for seed in range(5):
        smaller = sentences(subset_training(corpus, 0.2, seed=seed))
        larger = sentences(subset_training(corpus, 0.8, seed=seed))
        assert all(s in larger for s in smaller)


def test_subset_rejects_bad_input():
    with pytest.raises(ValueError, match="outside"):
        subset_training(small_corpus(), 0.0, seed=0)
    with pytest.raises(ValueError, match="outside"):
        subset_training(small_corpus(), 1.5, seed=0)
    empty = make_columns(([","], [None]))
    with pytest.raises(ValueError, match="no labeled tokens"):
        subset_training(empty, 0.5, seed=0)


sentence_strategy = st.builds(
    lambda labels: ([f"w{i}" for i in range(len(labels))], labels),
    st.lists(st.sampled_from([0, 1, 2, None]), min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(sentence_strategy, min_size=1, max_size=20),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=10_000))
def test_subset_budget_overshoot_bounded(corpus, fraction, seed):
    data = make_columns(*corpus)
    total = non_na_count(data)
    if total == 0:
        with pytest.raises(ValueError, match="no labeled tokens"):
            subset_training(data, fraction, seed)
        return
    sub = subset_training(data, fraction, seed)
    got = non_na_count(sub)
    target = fraction * total
    longest = max(non_na_count(make_columns(s)) for s in corpus)
    # stops at the first sentence crossing the budget, so the overshoot is
    # less than one sentence worth of labeled tokens
    assert got >= target
    assert got < target + max(longest, 1)


subset_sentence_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "ab", "\u00e9", " a", ","]),
              st.sampled_from([0, 1, 2, None])),
    min_size=1, max_size=6).map(
    lambda rows: ([t for t, _ in rows], [lab for _, lab in rows]))


@settings(max_examples=60, deadline=None)
@given(st.lists(subset_sentence_strategy, min_size=1, max_size=12),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=10_000))
def test_subset_holds_the_kept_sentences_token_bytes(corpus, fraction, seed):
    """A subset's token bytes are its sentences' tokens, each with a
    newline, and those sentences are the corpus's, in order; its numbering
    is the whole file's, restricted to the kept positions."""
    data = make_columns(*corpus)
    if non_na_count(data) == 0:
        return
    sub = subset_training(data, fraction, seed)
    kept = list(zip(by_sentence(sub, sub.tokens()),
                    by_sentence(sub, labels_of(sub.labels))))
    assert sub.token_bytes.tobytes() == "".join(
        f"{tok}\n" for tokens, _ in kept for tok in tokens).encode()
    rest = iter(corpus)
    assert all(any(s == (tokens, labels) for tokens, labels in rest)
               for s in kept)
    assert sub.types is data.types and sub.type_na is data.type_na
    assert tokens_of(sub) == sub.tokens()


# ---------------------------------------------------------------------------
# learning curves and reports
# ---------------------------------------------------------------------------

def majority_train_fn(corpus):
    model = train_majority(corpus)
    return lambda data: predict_majority(model, data)


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
    for tokens, labels in SMALL:
        preds.extend(labels_of(predict(make_columns((tokens, labels)))))
        golds.extend(labels)
    assert points[0].accuracy == pytest.approx(
        scored_with(accuracy, preds, golds))


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
    # the one row `evaluate` prints; the columns widen to a long name
    assert format_summary("crf", "3-way", 0.6543) == (
        "Model     3-way\n"
        "---------------\n"
        "crf        65.4\n")
    assert format_summary("majority-global", "2-way", 0.802) == (
        "Model               2-way\n"
        "-------------------------\n"
        "majority-global      80.2\n")