"""Shared fixtures: WAV byte synthesis, sine-word utterances, frozen dataset,
labeled sentences as columns."""

from __future__ import annotations

import io
import os
import wave

# One BLAS thread, as the prosolab command and perfbench/run.py pin it, set
# before numpy loads: the thread count decides how OpenBLAS splits long dot
# products, so the golden CRF hashes would otherwise depend on the host's
# core count.  A value set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from prosolab.corpus_io import (NA, AudioBuffer, Columns, EmbeddingTable,
                                Token, Utterance)

RATE = 16000

# Frozen reference sentence used by the format and discretization tests.
DATASET_SENTENCE = (
    "Tell\t2\t1.473\n"
    "me\t0\t0.333\n"
    "you\t0\t0.003\n"
    "rascal\t0\t0.167\n"
    ",\tNA\tNA\n"
    "where\t2\t2.160\n"
    "is\t0\t0.006\n"
    "the\t0\t0.037\n"
    "pig\t1\t0.719\n"
    "?\tNA\tNA\n"
)
DATASET_TOKENS = ["Tell", "me", "you", "rascal", ",",
                  "where", "is", "the", "pig", "?"]
DATASET_DISCRETE = [2, 0, 0, 0, None, 2, 0, 0, 1, None]
DATASET_CONTINUOUS = [1.473, 0.333, 0.003, 0.167, None,
                      2.160, 0.006, 0.037, 0.719, None]


def codes(labels) -> np.ndarray:
    """The int8 label codes of a list of labels with None at NA."""
    return np.array([NA if lab is None else lab for lab in labels],
                    dtype=np.int8)


def labels_of(label_codes) -> list:
    """The list of labels of label codes, None at NA; the inverse of
    codes."""
    return [None if c == NA else c for c in np.asarray(label_codes).tolist()]


def tokens_of(data: Columns) -> list[str]:
    """The token of each of `data`'s lines."""
    return data.types[data.type_ids].tolist()


def by_sentence(data: Columns, flat: list) -> list[list]:
    """One list per sentence of `data` from a list over its lines."""
    offsets = data.offsets.tolist()
    return [flat[a:b] for a, b in zip(offsets, offsets[1:])]


def same_columns(a: Columns, b: Columns) -> bool:
    """Whether two Columns without a continuous column, as make_columns
    builds them, hold the same tokens, labels and sentence lengths."""
    assert a.continuous is None and b.continuous is None
    return (tokens_of(a) == tokens_of(b) and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.lengths, b.lengths))


def embedding_table(dimension: int, entries: dict | None = None
                    ) -> EmbeddingTable:
    """The table of a token -> vector dict, rows in the dict's order."""
    entries = entries or {}
    return EmbeddingTable(dict(zip(entries, range(len(entries)))), np.array(
        list(entries.values()), dtype=np.float64).reshape(-1, dimension))


def make_columns(*sentences) -> Columns:
    """The Columns of (tokens, labels) sentences, as a predictions file
    holds them: no continuous column; None marks NA in the labels."""
    for tokens, labels in sentences:
        assert len(tokens) == len(labels), (tokens, labels)
        assert not any("\n" in tok for tok in tokens), tokens
    return Columns(
        np.frombuffer("".join(f"{tok}\n" for tokens, _ in sentences
                              for tok in tokens).encode(
            "utf-8", "surrogatepass"), dtype=np.uint8).copy(),
        codes([lab for _, labels in sentences for lab in labels]), None,
        np.array([len(tokens) for tokens, _ in sentences], dtype=np.int64))


def unlabeled(*sentences) -> Columns:
    """make_columns of token lists, every label NA."""
    return make_columns(*((tokens, [None] * len(tokens))
                          for tokens in sentences))


def lbfgs_log(caplog) -> tuple[list, list]:
    """The per-iteration trace records of a training run, and the rest."""
    trace = [r for r in caplog.records
             if r.getMessage().startswith("L-BFGS iteration ")]
    return trace, [r for r in caplog.records if r not in trace]


def pcm16_wav_bytes(samples: np.ndarray, rate: int = RATE,
                    channels: int = 1, width: int = 2) -> bytes:
    """Encode float samples in [-1, 1] as a PCM WAV byte string."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(rate)
        scaled = np.clip(samples, -1.0, 1.0)
        if width == 2:
            data = (scaled * 32767).astype("<i2").tobytes()
        else:
            data = ((scaled * 127) + 128).astype(np.uint8).tobytes()
        if channels == 2:
            data = data * 1  # caller passes interleaved samples already
        w.writeframes(data)
    return buf.getvalue()


def sine(freq: float, duration_s: float, amp: float = 0.5,
         rate: int = RATE) -> np.ndarray:
    n = round(duration_s * rate)
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)


def _ramp(n_seg: int, edge: int) -> np.ndarray:
    env = np.ones(n_seg)
    k = min(edge, n_seg // 2)
    if k > 0:
        r = 0.5 - 0.5 * np.cos(np.pi * np.arange(k) / k)
        env[:k] = r
        env[-k:] = r[::-1]
    return env


def make_word_fixture(saliences, gap_s: float = 0.18, margin_s: float = 0.09,
                      fade_s: float = 0.005, amp_boost=None,
                      rate: int = RATE) -> tuple[AudioBuffer, Utterance]:
    """Synthetic utterance of sine-burst words.

    Salience s in [0, 1] drives duration (0.25 + 0.35 s), amplitude
    (0.15 + 0.6 s), and pitch (120 + 160 s Hz) together, so a higher-salience
    word is longer, louder, and higher at once.  amp_boost, if given, is a
    per-word multiplicative amplitude factor on top of that.
    """
    pieces = [np.zeros(round(margin_s * rate))]
    tokens = []
    t = margin_s
    for i, s in enumerate(saliences):
        dur = 0.25 + 0.35 * s
        amp = 0.15 + 0.6 * s
        if amp_boost is not None:
            amp *= amp_boost[i]
        f0 = 120.0 + 160.0 * s
        n_seg = round(dur * rate)
        x = amp * np.sin(2 * np.pi * f0 * np.arange(n_seg) / rate)
        x *= _ramp(n_seg, round(fade_s * rate))
        pieces.append(x)
        tokens.append(Token(text=f"w{i}", start_s=t, end_s=t + dur,
                            is_punct=False))
        t += dur
        pieces.append(np.zeros(round(gap_s * rate)))
        t += gap_s
    pieces.append(np.zeros(round(margin_s * rate)))
    audio = AudioBuffer(samples=np.concatenate(pieces), sample_rate=rate)
    return audio, Utterance(id="fixture", tokens=tokens)


@pytest.fixture
def word_fixture():
    return make_word_fixture
