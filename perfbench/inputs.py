"""Seeded input generators for the benchmark.

Everything here is a pure function of a ``numpy.random.Generator``, so one
seed gives the same bytes on every machine.  The program under test only ever
sees the files these functions' outputs are written to.
"""

from __future__ import annotations

import io
import wave
from dataclasses import dataclass

import numpy as np

RATE = 16000

# Annotate corpus shape.  Utterances of 5+ words always last longer than the
# 2.26 s the default wavelet grid needs; 2-word utterances always last less.
# Keeping exactly N_SHORT short ones makes the known short-utterance failure
# show at the same rate on every seed instead of hiding or wandering.
N_UTTERANCES = 40
N_SHORT = 3
LONG_WORDS = (5, 25)
SHORT_WORDS = 2

# Text corpus shape: a Zipfian 5k-type vocabulary, as in the ROADMAP's CRF
# measurement.
VOCAB = 5000
ZIPF_S = 1.1
SENT_LEN = (6, 30)
CAPITAL_FRAC = 0.15
COMMA_RATE = 0.06
EMBED_DIM = 16
PUNCT = (",", ".")
LABEL_PEAK = 0.75

_ONSETS = ["", "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "z", "br", "st", "tr", "pl", "sh"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]
_CODAS = ["", "", "n", "r", "s", "t", "l", "m"]


# ---------------------------------------------------------------------------
# annotate: sine-burst utterances
# ---------------------------------------------------------------------------

def _ramp(n_seg: int, edge: int) -> np.ndarray:
    env = np.ones(n_seg)
    k = min(edge, n_seg // 2)
    if k > 0:
        r = 0.5 - 0.5 * np.cos(np.pi * np.arange(k) / k)
        env[:k] = r
        env[-k:] = r[::-1]
    return env


def sine_words(saliences, gap_s: float = 0.18, margin_s: float = 0.09,
               fade_s: float = 0.005, rate: int = RATE):
    """Samples and (start, end) word spans for one sine-burst utterance.

    The same recipe as the test suite's word fixture: salience s in [0, 1]
    sets duration (0.25 + 0.35 s), amplitude (0.15 + 0.6 s) and pitch
    (120 + 160 s Hz) together, so a more salient word is longer, louder and
    higher at once, and word prominence should rank words like salience.
    """
    pieces = [np.zeros(round(margin_s * rate))]
    spans = []
    t = margin_s
    for s in saliences:
        dur = 0.25 + 0.35 * s
        n_seg = round(dur * rate)
        x = (0.15 + 0.6 * s) * np.sin(
            2 * np.pi * (120.0 + 160.0 * s) * np.arange(n_seg) / rate)
        pieces.append(x * _ramp(n_seg, round(fade_s * rate)))
        spans.append((t, t + dur))
        t += dur + gap_s
        pieces.append(np.zeros(round(gap_s * rate)))
    pieces.append(np.zeros(round(margin_s * rate)))
    return np.concatenate(pieces), spans


def pcm16_wav_bytes(samples: np.ndarray, rate: int = RATE) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes((np.clip(samples, -1.0, 1.0) * 32767)
                      .astype("<i2").tobytes())
    return buf.getvalue()


def lab_text(spans, words) -> str:
    return "".join(f"{a:.6f}\t{b:.6f}\t{w}\n" for (a, b), w in zip(spans, words))


@dataclass
class SineUtterance:
    stem: str
    wav: bytes
    lab: str
    saliences: np.ndarray
    duration_s: float
    short: bool


def annotate_corpus(rng: np.random.Generator) -> list[SineUtterance]:
    """``N_UTTERANCES`` utterances, ``N_SHORT`` of them short.

    Word counts of the long utterances are spread evenly over ``LONG_WORDS``
    and shuffled, so the total audio length barely moves with the seed.
    """
    n_long = N_UTTERANCES - N_SHORT
    counts = np.rint(np.linspace(*LONG_WORDS, n_long)).astype(int).tolist()
    counts += [SHORT_WORDS] * N_SHORT
    rng.shuffle(counts)
    out = []
    for u, n_words in enumerate(counts):
        saliences = rng.uniform(0.0, 1.0, n_words)
        samples, spans = sine_words(saliences)
        words = [f"w{i}" for i in range(n_words)]
        out.append(SineUtterance(
            stem=f"utt{u:03d}", wav=pcm16_wav_bytes(samples),
            lab=lab_text(spans, words), saliences=saliences,
            duration_s=len(samples) / RATE, short=n_words == SHORT_WORDS))
    return out


# ---------------------------------------------------------------------------
# text: Zipfian labelled corpus and embedding table
# ---------------------------------------------------------------------------

def _word_forms(rng: np.random.Generator, n: int) -> list[str]:
    forms: list[str] = []
    seen: set[str] = set()
    while len(forms) < n:
        n_syl = int(rng.integers(1, 4))
        w = "".join(_ONSETS[rng.integers(len(_ONSETS))]
                    + _VOWELS[rng.integers(len(_VOWELS))]
                    + _CODAS[rng.integers(len(_CODAS))]
                    for _ in range(n_syl))
        if w not in seen:
            seen.add(w)
            forms.append(w)
    return forms


class TextModel:
    """A vocabulary with Zipfian frequencies and per-type label rates.

    Each type prefers one label, drawn uniformly (capitalised types lean
    to 2, like names), and takes it with probability ``LABEL_PEAK``: the
    label is predictable from the word but not determined by it.  Labels
    stay near balanced, so a tagger beats the global majority only by
    learning word-level cues.
    """

    def __init__(self, rng: np.random.Generator):
        forms = _word_forms(rng, VOCAB)
        capital = rng.random(VOCAB) < CAPITAL_FRAC
        self.types = [w.capitalize() if c else w
                      for w, c in zip(forms, capital)]
        ranks = np.arange(1, VOCAB + 1)
        p = ranks ** -ZIPF_S
        self.cdf = np.cumsum(p / p.sum())
        preferred = rng.integers(0, 3, VOCAB)
        preferred[capital & (rng.random(VOCAB) < 0.5)] = 2
        self.rates = np.full((VOCAB, 3), (1.0 - LABEL_PEAK) / 2.0)
        self.rates[np.arange(VOCAB), preferred] = LABEL_PEAK

    def sentences(self, rng: np.random.Generator, n: int):
        """``n`` sentences as (tokens, labels); NA labels are None."""
        out = []
        for _ in range(n):
            length = int(rng.integers(*SENT_LEN, endpoint=True))
            ids = np.minimum(np.searchsorted(self.cdf, rng.random(length)),
                             VOCAB - 1)
            u = rng.random(length)
            cum = np.cumsum(self.rates[ids], axis=1)
            labels = (u[:, None] > cum).sum(axis=1).clip(0, 2)
            commas = rng.random(length) < COMMA_RATE
            tokens: list[str] = []
            labs: list[int | None] = []
            for i, (tid, lab) in enumerate(zip(ids, labels)):
                word = self.types[tid]
                tokens.append(word.capitalize() if i == 0 else word)
                labs.append(int(lab))
                if commas[i] and 0 < i < length - 1:
                    tokens.append(PUNCT[0])
                    labs.append(None)
            tokens.append(PUNCT[1])
            labs.append(None)
            out.append((tokens, labs))
        return out

    def embedding_text(self, rng: np.random.Generator) -> str:
        """Table of ``EMBED_DIM``-dim vectors whose first axes carry the rates.

        Real embeddings only correlate with prominence; noise on top keeps
        the classifier from reading labels off the table.
        """
        vecs = rng.normal(0.0, 1.0, (VOCAB, EMBED_DIM))
        vecs[:, :3] += 2.0 * (self.rates - 1.0 / 3.0)
        return "".join(
            w.lower() + " " + " ".join(f"{v:.5f}" for v in row) + "\n"
            for w, row in zip(self.types, vecs))


def dataset_text(sentences) -> str:
    """The 3-column dataset format: token, discrete label, continuous value."""
    blocks = []
    for tokens, labels in sentences:
        blocks.append("\n".join(
            f"{t}\tNA\tNA" if lab is None else f"{t}\t{lab}\t{lab * 0.5:.3f}"
            for t, lab in zip(tokens, labels)))
    return "\n\n".join(blocks) + "\n"
