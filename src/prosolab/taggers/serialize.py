"""Versioned flat-text model files, byte-identical across identical runs.

Layout: a magic header line, a type line, type-specific key=value lines, then
bulk rows (one feature/word/embedding per line, tab-separated).  Floats are
written with repr, which round-trips exactly; map-like sections are sorted by
key except CRF features, which keep index order because the feature order IS
part of the model.
"""

from __future__ import annotations

import numpy as np

from ..corpus_io import CorpusFormatError, EmbeddingTable
from .crf import CrfModel
from .embed import EmbeddingClassifier
from .majority import N_LABELS, MajorityModel

MAGIC = "prosolab-model v1"
EMBED_WINDOW = 1  # the embed classifier reads one neighbour on each side


def _floats(values) -> str:
    return "\t".join(repr(float(v)) for v in values)


def _ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def save_model(model) -> bytes:
    lines = [MAGIC]
    if isinstance(model, MajorityModel):
        lines.append("type=majority")
        lines.append(f"global={_ints(model.global_counts)}")
        lines.append(f"words={len(model.per_word)}")
        for word in sorted(model.per_word):
            lines.append(f"word\t{word}\t{_ints(model.per_word[word])}")
    elif isinstance(model, CrfModel):
        k = model.n_labels
        emis = model.weights[:model.n_emission].reshape(-1, k)
        by_index = sorted(model.feature_index, key=model.feature_index.get)
        lines.append("type=crf")
        lines.append(f"labels={_ints(model.labels)}")
        lines.append(f"l2_lambda={model.l2_lambda!r}")
        lines.append(f"features={len(by_index)}")
        for i, feat in enumerate(by_index):
            lines.append(f"feature\t{feat}\t{_floats(emis[i])}")
        lines.append(f"states={model.n_states}")
        for row in model.transition_matrix():
            lines.append(f"trans\t{_floats(row)}")
    elif isinstance(model, EmbeddingClassifier):
        lines.append("type=embed")
        lines.append(f"labels={_ints(model.labels)}")
        lines.append(f"dimension={model.table.dimension}")
        lines.append(f"window={EMBED_WINDOW}")
        lines.append(f"rows={model.weight_matrix.shape[0]}")
        for row in model.weight_matrix:
            lines.append(f"row\t{_floats(row)}")
        lines.append(f"embeddings={len(model.table.entries)}")
        for token in sorted(model.table.entries):
            lines.append(f"emb\t{token}\t{_floats(model.table.entries[token])}")
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return ("\n".join(lines) + "\n").encode("utf-8")


class _Reader:
    def __init__(self, data: bytes):
        self.lines = data.decode("utf-8").split("\n")
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line:
                return line
        raise CorpusFormatError("truncated model file")

    def expect_kv(self, key: str) -> str:
        line = self.next()
        prefix = key + "="
        if not line.startswith(prefix):
            raise CorpusFormatError(f"expected {key}=..., got {line!r}")
        return line[len(prefix):]


def load_model(data: bytes):
    r = _Reader(data)
    if r.next() != MAGIC:
        raise CorpusFormatError("not a model file (bad header)")
    kind = r.expect_kv("type")
    if kind == "majority":
        model = MajorityModel()
        model.global_counts = np.array(
            [int(v) for v in r.expect_kv("global").split(",")], dtype=np.int64)
        n = int(r.expect_kv("words"))
        for i in range(n):
            parts = r.next().split("\t")
            if len(parts) != 3 or parts[0] != "word":
                raise CorpusFormatError(f"bad word row {i}: {parts!r}")
            _, word, counts = parts
            model.per_word[word] = np.array(
                [int(v) for v in counts.split(",")], dtype=np.int64)
            if len(model.per_word[word]) != N_LABELS:
                raise CorpusFormatError(f"bad count vector for {word!r}")
        return model
    if kind == "crf":
        labels = [int(v) for v in r.expect_kv("labels").split(",")]
        l2 = float(r.expect_kv("l2_lambda"))
        n_feat = int(r.expect_kv("features"))
        index: dict[str, int] = {}
        emis_rows = []
        for i in range(n_feat):
            parts = r.next().split("\t")
            if parts[0] != "feature" or len(parts) != 2 + len(labels):
                raise CorpusFormatError(f"bad feature row {i}")
            index[parts[1]] = i
            emis_rows.append([float(v) for v in parts[2:]])
        n_states = int(r.expect_kv("states"))
        if n_states != len(labels) + 1:
            raise CorpusFormatError("state count does not match label set")
        trans_rows = []
        for _ in range(n_states):
            parts = r.next().split("\t")
            if parts[0] != "trans" or len(parts) != 1 + n_states:
                raise CorpusFormatError("bad transition row")
            trans_rows.append([float(v) for v in parts[1:]])
        emis = np.array(emis_rows).reshape(-1) if n_feat else np.empty(0)
        weights = np.concatenate([emis, np.array(trans_rows).ravel()])
        return CrfModel(labels=labels, feature_index=index, weights=weights,
                        l2_lambda=l2)
    if kind == "embed":
        labels = [int(v) for v in r.expect_kv("labels").split(",")]
        dim = int(r.expect_kv("dimension"))
        window = int(r.expect_kv("window"))
        if window != EMBED_WINDOW:
            raise CorpusFormatError(f"unsupported embed window {window}")
        n_rows = int(r.expect_kv("rows"))
        rows = []
        for _ in range(n_rows):
            parts = r.next().split("\t")
            if parts[0] != "row" or len(parts) != 2 + 3 * dim:
                raise CorpusFormatError("bad weight row")
            rows.append([float(v) for v in parts[1:]])
        n_emb = int(r.expect_kv("embeddings"))
        entries: dict[str, np.ndarray] = {}
        for _ in range(n_emb):
            parts = r.next().split("\t")
            if parts[0] != "emb" or len(parts) != 2 + dim:
                raise CorpusFormatError("bad embedding row")
            entries[parts[1]] = np.array([float(v) for v in parts[2:]])
        table = EmbeddingTable(dimension=dim, entries=entries)
        return EmbeddingClassifier(table=table, labels=labels,
                                   weight_matrix=np.array(rows))
    raise CorpusFormatError(f"unknown model type {kind!r}")
