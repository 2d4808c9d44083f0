"""Model file round-trips for the three tagger types."""

import re
from itertools import chain, islice
from typing import Callable, Iterable, Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab.corpus_io import (BLOCK_VALUES, CorpusFormatError,
                                EmbeddingTable, parse_numbers)
from prosolab.taggers.common import tab_floats
from prosolab.taggers.crf import crf_train, viterbi
from prosolab.taggers.embed import predict_embed, train_embed_classifier
from prosolab.taggers.majority import predict_majority, train_majority
from prosolab import corpus_io
from prosolab.taggers import serialize
from prosolab.taggers.serialize import MAGIC, load_model, save_model

from conftest import make_columns, unlabeled

CORPUS = make_columns(
    (["The", "cat", "runs", "."], [0, 2, 1, None]),
    (["The", "dog", "sits"], [0, 2, 1]),
    (["big", "cat", ",", "runs"], [1, 2, None, 1]),
)

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
    tokens = unlabeled(["the", "cat", "unseen", "?"])
    np.testing.assert_array_equal(predict_majority(clone, tokens),
                                  predict_majority(model, tokens))


def test_crf_round_trip_exact():
    model = crf_train(CORPUS, max_iterations=60)
    clone = load_model(save_model(model))
    assert clone.labels == model.labels
    assert clone.feature_index == model.feature_index
    assert clone.l2_lambda == model.l2_lambda
    # repr floats survive the text round trip bit for bit
    assert clone.weights.tobytes() == model.weights.tobytes()
    tokens = unlabeled(["The", "big", "cat", "runs", "."])
    np.testing.assert_array_equal(viterbi(clone, tokens),
                                  viterbi(model, tokens))


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
    tokens = unlabeled(["the", "cat", ",", "dog"])
    np.testing.assert_array_equal(predict_embed(clone, tokens),
                                  predict_embed(model, tokens))


def test_save_is_byte_deterministic():
    for model in (train_majority(CORPUS),
                  crf_train(CORPUS, max_iterations=30),
                  train_embed_classifier(CORPUS, TABLE)):
        assert save_model(model) == save_model(model)


@pytest.mark.parametrize("kind", ["majority", "crf", "embed"])
def test_double_round_trip_is_stable(kind):
    once = _saved(kind).encode()
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
    ("embed", "dimension=", "0",
     "embed model, key dimension: expected a value >= 1, got 0"),
    ("embed", "dimension=", "-1",
     "embed model, key dimension: expected a value >= 1, got -1"),
    ("embed", "dimension=", "-2",
     "embed model, key dimension: expected a value >= 1, got -2"),
    ("majority", "words=", "-1",
     "majority model, key words: expected a value >= 0, got -1"),
    ("crf", "features=", "-2",
     "crf model, key features: expected a value >= 0, got -2"),
    ("embed", "embeddings=", "-3",
     "embed model, key embeddings: expected a value >= 0, got -3"),
    ("crf", "states=", "3", "crf model, key states: state count 3 does not "
     "match label set 0,1,2"),
    ("embed", "window=", "2",
     "embed model, key window: unsupported embed window 2"),
], ids=["feature", "trans", "features", "row", "emb", "global", "word",
        "global-huge", "word-huge", "global-short", "global-negative",
        "word-negative", "crf-label-7", "crf-label-repeated",
        "embed-label-negative", "embed-rows-4", "embed-rows-2",
        "embed-dimension-0", "embed-dimension-minus-1",
        "embed-dimension-minus-2", "words-negative", "features-negative",
        "embeddings-negative", "crf-states-3", "embed-window-2"])
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
    monkeypatch.setattr(corpus_io, "BLOCK_VALUES", block)
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


def parse_rows(rows: Iterable[list[str]], width: int, kind: type,
               where: Callable[[int], str]
               ) -> Iterator[tuple[int, np.ndarray]]:
    """`rows` of `width` number texts, converted by parse_numbers a block of
    rows at a time: (i, an (n, width) array of rows i..i+n-1) per block, and
    ``where(i)`` names row i.  An error that `rows` raises reaches the caller
    at once, the first bad number only once the rows have run out."""
    rows, done, bad = iter(rows), 0, None
    while texts := list(chain.from_iterable(
            islice(rows, max(1, BLOCK_VALUES // width)))):
        try:
            block = parse_numbers(texts, kind,
                                  lambda k: where(done + k // width))
        except CorpusFormatError as exc:
            bad = bad or exc
        else:
            yield done, block.reshape(-1, width)
        done += len(texts) // width
    if bad is not None:
        raise bad


def table_row_by_row(r, prefix, count, width, kind=float, named=False,
                     sep=None):
    """serialize._Reader.table read one row at a time: each row's layout
    checked as it is read, the numbers converted by parse_rows.  The
    oracle for the block reader."""
    name = prefix if prefix == "row" else f"{prefix} row"
    n_fields = 1 + named + (1 if sep else width)
    index = {}

    def rows():
        for i in range(count):
            line = r.next()
            fields = line.split("\t")
            if fields[0] != prefix or len(fields) != n_fields:
                raise CorpusFormatError(r.at(
                    f"bad {name} {i}: expected {prefix!r} and "
                    f"{n_fields - 1} fields, got {line!r}"))
            numbers = fields[1 + named:]
            if sep:
                numbers = numbers[0].split(sep)
                if len(numbers) != width:
                    raise CorpusFormatError(r.at(
                        f"{name} {i}: bad count vector for {fields[1]!r}"))
            if named:
                if fields[1] in index:
                    raise CorpusFormatError(r.at(
                        f"{name} {i}: repeated name {fields[1]!r}"))
                index[fields[1]] = i
            yield numbers

    values = np.empty((count, width),
                      dtype=np.float64 if kind is float else np.int64)
    for a, block in parse_rows(rows(), width, kind,
                               lambda i: r.at(f"{name} {i}")):
        values[a:a + len(block)] = block
    return index, values


def _outcome(data: bytes):
    """The saved bytes of the model that `data` loads as, or the message
    of the error that loading it raises."""
    try:
        return save_model(load_model(data))
    except CorpusFormatError as exc:
        return str(exc)


SAVED = {kind: _saved(kind) for kind in ("majority", "crf", "embed")}
ODD_NUMBERS = ["x", "nan", "inf", "-inf", "1e400", "", "1_0", " 1", "0x1",
               "-0.0", "1.5", "7", HUGE]


def _mutate(lines: list[str], draw) -> list[str]:
    """`lines` with one table row broken or moved about, as `draw` picks."""
    rows = [k for k, line in enumerate(lines) if "\t" in line]
    if not rows:  # an earlier change cut them off
        return lines
    k = draw(st.sampled_from(rows))
    fields = lines[k].split("\t")
    how = draw(st.sampled_from(["prefix", "fewer", "more", "repeat",
                                "number", "count", "blank", "cut", "end"]))
    if how == "prefix":
        fields[0] = draw(st.sampled_from(
            ["", "x", "row", "emb", "word", "feature", "trans",
             fields[0] + " "]))
    elif how == "fewer":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif how == "more":
        fields.insert(draw(st.integers(1, len(fields))),
                      draw(st.sampled_from(ODD_NUMBERS)))
    elif how == "repeat":
        fields[1] = lines[draw(st.sampled_from(rows))].split("\t")[1]
    elif how == "number":
        fields[draw(st.integers(1, len(fields) - 1))] = draw(
            st.sampled_from(ODD_NUMBERS))
    elif how == "count":
        fields[-1] = ",".join(fields[-1].split(",")[:draw(st.integers(0, 4))])
    elif how == "blank":
        return lines[:k] + [draw(st.sampled_from(["", "", " ", "\t"]))] * \
            draw(st.integers(1, 3)) + lines[k:]
    elif how == "cut":
        return lines[:k] + [lines[k][:draw(
            st.integers(0, len(lines[k]) - 1))]] + lines[k + 1:]
    else:  # the file ends inside the row
        return lines[:k] + [lines[k][:draw(st.integers(0, len(lines[k])))]]
    return lines[:k] + ["\t".join(fields)] + lines[k + 1:]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(list(SAVED)), st.sampled_from([1, 2, 7, 4096]),
       st.integers(1, 2), st.data())
def test_tables_read_in_blocks_what_the_row_rule_reads(kind, block, changes,
                                                       data):
    """Loading a saved model with rows broken gives the model, or the
    error, that reading its tables one row at a time gives."""
    lines = SAVED[kind].split("\n")
    for _ in range(changes):
        lines = _mutate(lines, data.draw)
    text = "\n".join(lines).encode()
    with mock.patch.object(corpus_io, "BLOCK_VALUES", block):
        got = _outcome(text)
        with mock.patch.object(serialize._Reader, "table", table_row_by_row):
            want = _outcome(text)
    assert got == want


def test_tab_floats_writes_each_value_as_repr_of_float():
    rng = np.random.default_rng(7)
    rows = [
        np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                  -1.7976931348623157e308, 2.2250738585072014e-308]),
        np.array([1.0, -3.0, 0.0, 1e16, 2.0**53, 123456789.0]),
        rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, size=50),
        rng.random(50),
        np.arange(4),  # integers are written as floats
        np.zeros(0),
    ]
    for row in rows:
        assert tab_floats(row) == "\t".join(repr(float(v)) for v in row)
    assert tab_floats([0.1, -2]) == "0.1\t-2.0"
