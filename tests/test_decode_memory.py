"""Whole-file decoding keeps no per-sentence state: the CRF and the embed
classifier work one chunk of sentences at a time and majority decoding
gathers one chunk of positions at a time, so memory is bounded however long
the file is."""

import tracemalloc

import numpy as np
import pytest

from prosolab.corpus_io import EmbeddingTable
from prosolab.taggers.common import na_mask
from prosolab.taggers.crf import crf_train, viterbi
from prosolab.taggers.embed import predict_embed, train_embed_classifier
from prosolab.taggers.majority import predict_majority, train_majority

from conftest import make_columns, unlabeled

WORDS = [f"w{i}" for i in range(400)]
# Far above what chunked decoding needs (about 3.5 MiB at 5000 sentences,
# the labels returned included) and far below what decoding a whole file at
# once needs (over 20 MiB at 2500 sentences).
CEILING = 8 * 2**20
# The only arrays that grow with the file are the flat ones, about 10 bytes
# a token: the type ids, plus the NA flags for the CRF and embed; 2500 more
# sentences add about 0.45 MiB for each decoder.
GROWTH = 2**20


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
    assert len(labels) == len(data.tokens)
    return peak, peak - kept


@pytest.fixture(scope="module")
def decoders():
    rng = np.random.default_rng(0)
    train = make_columns(*(
        (tokens, [None if punct else int(rng.integers(3))
                  for punct in na_mask(tokens)])
        for tokens in synthetic_file(rng, 100)))
    crf = crf_train(train, max_iterations=5)
    table = EmbeddingTable(16, {w: rng.normal(size=16) for w in WORDS[::2]})
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
