"""Model file round-trips for the three tagger types."""

import re

import numpy as np
import pytest

from prosolab.corpus_io import CorpusFormatError, EmbeddingTable
from prosolab.taggers.common import LabeledSentence
from prosolab.taggers.crf import crf_train, viterbi
from prosolab.taggers.embed import predict_embed, train_embed_classifier
from prosolab.taggers.majority import predict_majority, train_majority
from prosolab.taggers import serialize
from prosolab.taggers.serialize import MAGIC, load_model, save_model

CORPUS = [
    LabeledSentence(["The", "cat", "runs", "."], [0, 2, 1, None]),
    LabeledSentence(["The", "dog", "sits"], [0, 2, 1]),
    LabeledSentence(["big", "cat", ",", "runs"], [1, 2, None, 1]),
]

TABLE = EmbeddingTable(dimension=2, entries={
    "cat": np.array([1.0, -0.5]),
    "dog": np.array([0.25, 1.0 / 3.0]),
    "the": np.array([0.0, 0.125]),
})


def test_majority_round_trip():
    model = train_majority(CORPUS)
    clone = load_model(save_model(model))
    assert sorted(clone.per_word) == sorted(model.per_word)
    for word in model.per_word:
        np.testing.assert_array_equal(clone.per_word[word],
                                      model.per_word[word])
    np.testing.assert_array_equal(clone.global_counts, model.global_counts)
    tokens = ["the", "cat", "unseen", "?"]
    assert (predict_majority(clone, [tokens])
            == predict_majority(model, [tokens]))


def test_crf_round_trip_exact():
    model = crf_train(CORPUS, max_iterations=60)
    clone = load_model(save_model(model))
    assert clone.labels == model.labels
    assert clone.feature_index == model.feature_index
    assert clone.l2_lambda == model.l2_lambda
    # repr floats survive the text round trip bit for bit
    assert clone.weights.tobytes() == model.weights.tobytes()
    tokens = ["The", "big", "cat", "runs", "."]
    assert viterbi(clone, [tokens]) == viterbi(model, [tokens])


def test_embed_round_trip_exact():
    model = train_embed_classifier(CORPUS, TABLE)
    clone = load_model(save_model(model))
    assert clone.labels == model.labels
    assert save_model(clone) == save_model(model)
    assert clone.table.dimension == TABLE.dimension
    assert sorted(clone.table.entries) == sorted(TABLE.entries)
    for token in TABLE.entries:
        np.testing.assert_array_equal(clone.table.entries[token],
                                      TABLE.entries[token])
    assert clone.weight_matrix.tobytes() == model.weight_matrix.tobytes()
    tokens = ["the", "cat", ",", "dog"]
    assert predict_embed(clone, [tokens]) == predict_embed(model, [tokens])


def test_save_is_byte_deterministic():
    for model in (train_majority(CORPUS),
                  crf_train(CORPUS, max_iterations=30),
                  train_embed_classifier(CORPUS, TABLE)):
        assert save_model(model) == save_model(model)


def test_double_round_trip_is_stable():
    model = crf_train(CORPUS, max_iterations=30)
    once = save_model(model)
    assert save_model(load_model(once)) == once


def test_save_rejects_unknown_type():
    with pytest.raises(TypeError, match="cannot serialize"):
        save_model(object())


def test_load_rejects_bad_header():
    with pytest.raises(CorpusFormatError, match="bad header"):
        load_model(b"something else\n")


def test_load_rejects_unknown_type():
    with pytest.raises(CorpusFormatError, match="unknown model type"):
        load_model(f"{MAGIC}\ntype=mystery\n".encode())


def test_load_rejects_truncation():
    data = save_model(crf_train(CORPUS, max_iterations=30))
    head = data.splitlines(keepends=True)
    with pytest.raises(CorpusFormatError):
        load_model(b"".join(head[: len(head) // 2]))


def test_load_rejects_state_count_mismatch():
    data = save_model(crf_train(CORPUS, max_iterations=30)).decode()
    broken = data.replace("states=4", "states=3").encode()
    with pytest.raises(CorpusFormatError, match="state count"):
        load_model(broken)


def test_embed_file_records_the_window_the_classifier_reads():
    data = save_model(train_embed_classifier(CORPUS, TABLE)).decode()
    assert "\nwindow=1\n" in data
    with pytest.raises(CorpusFormatError, match="unsupported embed window 2"):
        load_model(data.replace("\nwindow=1\n", "\nwindow=2\n").encode())


# a row for 'cat' with too few or too many tab fields, or counts
WRONG_SHAPE = {
    "word\tcat": "bad word row 1",
    "word\tcat\t0,2,0\textra": "bad word row 1",
    "word\tcat\t0,2": "majority model, word row 1: bad count vector for 'cat'",
    "word\tcat\t0,2,0,1":
        "majority model, word row 1: bad count vector for 'cat'",
}


@pytest.mark.parametrize("row", list(WRONG_SHAPE))
def test_load_names_a_majority_row_with_wrong_column_count(row):
    data = save_model(train_majority(CORPUS)).decode()
    broken = data.replace("word\tcat\t0,0,2", row).encode()
    with pytest.raises(CorpusFormatError,
                       match=re.escape(WRONG_SHAPE[row])) as info:
        load_model(broken)
    assert str(info.value).startswith("majority model, ")


HUGE = "99999999999999999999999"  # past int64, but an integer to int()


def _saved(kind):
    if kind == "majority":
        return save_model(train_majority(CORPUS)).decode()
    if kind == "crf":
        return save_model(crf_train(CORPUS, max_iterations=30)).decode()
    return save_model(train_embed_classifier(CORPUS, TABLE)).decode()


@pytest.mark.parametrize("kind, prefix, bad, message", [
    ("crf", "feature\t", "notanumber",
     "crf model, feature row 0: not a number: 'notanumber'"),
    ("crf", "trans\t", "1.0.0", "crf model, trans row 0: not a number"),
    ("crf", "features=", "x16",
     "crf model, key features: not an integer: 'x16'"),
    ("embed", "row\t", "nope", "embed model, row 0: not a number: 'nope'"),
    ("embed", "emb\t", "nope", "embed model, emb row 0: not a number"),
    ("majority", "global=", "x", "majority model, key global: not an integer"),
    ("majority", "word\t", "0,x,2",
     "majority model, word row 0: not an integer: 'x'"),
    # values that parse but that the decoders cannot honour
    ("majority", "global=", f"2,{HUGE},3",
     f"majority model, key global: integer out of range: '{HUGE}'"),
    ("majority", "word\t", f"0,{HUGE},0",
     f"majority model, word row 0: integer out of range: '{HUGE}'"),
    ("majority", "global=", "5,3",
     "majority model, key global: expected 3 counts >= 0, got 5,3"),
    ("majority", "global=", "2,-4,3",
     "majority model, key global: expected 3 counts >= 0, got 2,-4,3"),
    ("majority", "word\t", "0,-1,0",
     "majority model, word row 0: negative count in 0,-1,0"),
    ("crf", "labels=", "0,1,7",
     "crf model, key labels: 0,1,7 are not distinct labels in 0..2"),
    ("crf", "labels=", "0,0,2",
     "crf model, key labels: 0,0,2 are not distinct labels in 0..2"),
    ("embed", "labels=", "-1,1,2",
     "embed model, key labels: -1,1,2 are not distinct labels in 0..2"),
    ("embed", "rows=", "4", "embed model, key rows: 4 rows for 3 labels"),
    ("embed", "rows=", "2", "embed model, key rows: 2 rows for 3 labels"),
], ids=["feature", "trans", "features", "row", "emb", "global", "word",
        "global-huge", "word-huge", "global-short", "global-negative",
        "word-negative", "crf-label-7", "crf-label-repeated",
        "embed-label-negative", "embed-rows-4", "embed-rows-2"])
def test_load_names_a_value_that_does_not_parse(kind, prefix, bad, message):
    # the last field of the first line that starts with `prefix` goes bad
    lines = _saved(kind).split("\n")
    i = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    head, sep, _ = lines[i].rpartition("\t" if "\t" in lines[i] else "=")
    lines[i] = head + sep + bad
    with pytest.raises(CorpusFormatError, match=re.escape(message)):
        load_model("\n".join(lines).encode())


@pytest.mark.parametrize("kind, prefix", [
    ("majority", "word\t"), ("crf", "feature\t"), ("embed", "emb\t")])
def test_load_rejects_a_name_repeated_in_a_section(kind, prefix):
    # the second row of the section takes the first row's name
    lines = _saved(kind).split("\n")
    first, second = [k for k, line in enumerate(lines)
                      if line.startswith(prefix)][:2]
    name = lines[first].split("\t")[1]
    fields = lines[second].split("\t")
    fields[1] = name
    lines[second] = "\t".join(fields)
    message = f"{kind} model, {prefix.strip()} row 1: repeated name {name!r}"
    with pytest.raises(CorpusFormatError, match=re.escape(message)):
        load_model("\n".join(lines).encode())


@pytest.mark.parametrize("block", [1, 4096])
def test_a_bad_layout_is_named_before_a_bad_number_in_an_earlier_block(
        monkeypatch, block):
    """A section converts a block of rows at a time, but a bad layout in any
    row is still reported before a bad number in an earlier one."""
    monkeypatch.setattr(serialize, "TABLE_BLOCK_VALUES", block)
    lines = _saved("crf").split("\n")
    rows = [k for k, line in enumerate(lines) if line.startswith("feature\t")]
    lines[rows[0]] = lines[rows[0]].rpartition("\t")[0] + "\tnope"
    lines[rows[2]] += "\t1.0"
    with pytest.raises(CorpusFormatError, match=re.escape(
            "crf model, bad feature row 2: expected 'feature' and 4 fields")):
        load_model("\n".join(lines).encode())
    # with the layout mended, the bad number is named by its own row
    lines[rows[2]] = lines[rows[2]].rpartition("\t")[0]
    with pytest.raises(CorpusFormatError, match=re.escape(
            "crf model, feature row 0: not a number: 'nope'")):
        load_model("\n".join(lines).encode())
