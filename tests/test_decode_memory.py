"""Whole-file decoding keeps no per-sentence state: the CRF and the embed
classifier work one chunk of sentences at a time and majority decoding
gathers one int8 label code per position from a table over the distinct
tokens, so memory is bounded however long the file is.  Reading keeps no
string per token: a file is held as flat arrays over its positions.  And
reading works a block of lines at a time, so what it needs beyond what it
keeps does not grow with the file either."""

import gc
import tracemalloc

import numpy as np
import pytest

from prosolab.corpus_io import (N_LABELS, NA, EmbeddingTable, load_embeddings,
                                parse_dataset)
from prosolab.taggers.crf import crf_train, viterbi
from prosolab.taggers.embed import (EmbeddingClassifier, predict_embed,
                                    train_embed_classifier)
from prosolab.taggers.serialize import load_model, save_model
from prosolab.taggers.majority import predict_majority, train_majority

from conftest import embedding_table, make_columns, tokens_of, unlabeled
from crf_oracles import na_mask

WORDS = [f"w{i}" for i in range(400)]
# Far above what chunked decoding needs (about 3.5 MiB at 5000 sentences,
# the labels returned included) and far below what decoding a whole file at
# once needs (over 20 MiB at 2500 sentences).
CEILING = 8 * 2**20
# The only array decoding builds that grows with the file is the CRF's and
# the embed classifier's NA flag per token, one byte each: 2500 more
# sentences add about 0.08 MiB.  The int32 type ids come with the file.
GROWTH = 2**20
# Bytes a read file holds per token: its UTF-8 bytes and newline, an int8
# label and a float64 value, about 15 with the sentence lengths and offsets,
# and 4 more for the int32 type id once numbered; one str per token took
# about 65 on these files.
HELD_PER_TOKEN = 24


def synthetic_file(rng, n):
    """`n` sentences of 7 to 32 Zipf-drawn tokens, a comma in the middle and
    a full stop at the end."""
    out = []
    for _ in range(n):
        tokens = [WORDS[i % len(WORDS)]
                  for i in rng.zipf(1.3, size=int(rng.integers(6, 31)))]
        tokens.insert(len(tokens) // 2, ",")
        out.append(tokens + ["."])
    return out


def working_memory(decode, data):
    """Peak bytes allocated while `decode` runs, less the labels it keeps."""
    tracemalloc.start()
    try:
        labels = decode(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(labels) == len(data.type_ids)
    return peak, peak - kept


@pytest.fixture(scope="module")
def decoders():
    rng = np.random.default_rng(0)
    train = make_columns(*(
        (tokens, [None if punct else int(rng.integers(3))
                  for punct in na_mask(tokens)])
        for tokens in synthetic_file(rng, 100)))
    crf = crf_train(train, max_iterations=5)
    table = embedding_table(16, {w: rng.normal(size=16) for w in WORDS[::2]})
    embed = train_embed_classifier(train, table, max_iterations=5)
    majority = train_majority(train)
    return {"crf": lambda data: viterbi(crf, data),
            "embed": lambda data: predict_embed(embed, data),
            "majority": lambda data: predict_majority(majority, data)}


@pytest.mark.parametrize("kind", ["crf", "embed", "majority"])
def test_decoding_memory_does_not_grow_with_the_file(decoders, kind):
    rng = np.random.default_rng(1)
    peaks, working = [], []
    for n in (2500, 5000):
        peak, work = working_memory(decoders[kind],
                                    unlabeled(*synthetic_file(rng, n)))
        peaks.append(peak)
        working.append(work)
    assert max(peaks) < CEILING
    assert working[1] - working[0] < GROWTH


def dataset_bytes(rng, n):
    """A dataset file of `n` synthetic sentences, NA at punctuation."""
    lines = []
    for tokens in synthetic_file(rng, n):
        lines += [f"{tok}\tNA\tNA" if punct else
                  f"{tok}\t{int(rng.integers(3))}\t{rng.random():.3f}"
                  for tok, punct in zip(tokens, na_mask(tokens))]
        lines.append("")
    return "\n".join(lines).encode()


def test_reading_holds_no_string_per_token():
    """What a read holds grows by less than HELD_PER_TOKEN bytes a token,
    both after the read and once a tagger has read the type ids, and
    neither leaves a reference cycle, which would hold its garbage until
    the next full collection."""
    rng = np.random.default_rng(3)
    read, numbered, tokens = [], [], []
    for n in (2500, 5000):
        raw = dataset_bytes(rng, n)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            data = parse_dataset(raw)
            read.append(tracemalloc.get_traced_memory()[0])
            assert len(data.type_ids) == len(data.labels)
            numbered.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            gc.enable()
        assert gc.collect() == 0
        tokens.append(len(data.labels))
    for held in (read, numbered):
        assert held[1] - held[0] < HELD_PER_TOKEN * (tokens[1] - tokens[0])


def embedding_bytes(rng, n):
    """A table of `n` rows of 50 values, each written as repr writes it."""
    return "".join(f"w{i} " + " ".join(map(repr, row)) + "\n" for i, row
                   in enumerate(rng.normal(size=(n, 50)).tolist())).encode()


def embed_model_bytes(rng, n):
    """The model file of an embed classifier over a table of `n` rows."""
    table = EmbeddingTable({f"w{i}": i for i in range(n)},
                           rng.normal(size=(n, 50)))
    return save_model(EmbeddingClassifier(table, [0, 1, 2],
                                          rng.normal(size=(3, 151))))


READERS = {
    "dataset": (dataset_bytes, parse_dataset),
    "embeddings": (embedding_bytes, lambda raw: load_embeddings(raw, 50)),
    "embed model": (embed_model_bytes, load_model),
}


@pytest.mark.parametrize("kind", list(READERS))
def test_reading_memory_does_not_grow_with_the_file(kind):
    """What a read allocates beyond what it keeps (its tracemalloc peak
    less what its result holds) grows by less than GROWTH from 2500 to
    5000 sentences, or table rows: the reader works a block of lines at a
    time.  Whole-file reads grew by 4.9 MiB (dataset), 3.4 MiB
    (embeddings) and 3.5 MiB (embed model); blocked reads move by at most
    0.2 MiB."""
    make, read = READERS[kind]
    rng = np.random.default_rng(4)
    working = []
    for n in (2500, 5000):
        raw = make(rng, n)
        gc.collect()
        tracemalloc.start()
        try:
            data = read(raw)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del data
        working.append(peak - held)
    assert working[1] - working[0] < GROWTH


@pytest.mark.parametrize("kind", ["crf", "embed", "majority"])
def test_decoders_return_int8_label_codes(decoders, kind):
    """One int8 code per token: NA exactly at punctuation, a label in
    0..N_LABELS-1 elsewhere."""
    data = unlabeled(*synthetic_file(np.random.default_rng(2), 50))
    labels = decoders[kind](data)
    assert isinstance(labels, np.ndarray) and labels.dtype == np.int8
    punct = np.array(na_mask(tokens_of(data)))
    np.testing.assert_array_equal(labels == NA, punct)
    assert ((0 <= labels[~punct]) & (labels[~punct] < N_LABELS)).all()
