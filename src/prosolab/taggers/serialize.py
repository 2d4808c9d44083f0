"""Versioned flat-text model files, byte-identical across identical runs.

Layout: a magic header line, a type line, type-specific key=value lines, then
bulk rows (one feature/word/embedding per line, tab-separated).  Floats are
written with repr, which round-trips exactly; map-like sections are sorted by
key except CRF features, which keep index order because the feature order IS
part of the model.
"""

from __future__ import annotations

import numpy as np

from ..corpus_io import CorpusFormatError, EmbeddingTable, parse_number
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
        self.section = "header"  # the model type once read; named in errors

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

    def parse(self, kind: type, texts: list[str], where: str) -> list:
        """Each text as `kind`; a bad one is an error naming `where`."""
        where = f"{self.section} model, {where}"
        return [parse_number(text, kind, where) for text in texts]

    def rows(self, prefix: str, count: int, width: int):
        """(where, fields) of the next `count` lines, each `prefix` and
        `width` tab-separated fields; weight rows are named ``row <i>``."""
        name = prefix if prefix == "row" else f"{prefix} row"
        for i in range(count):
            line = self.next()
            fields = line.split("\t")
            if fields[0] != prefix or len(fields) != 1 + width:
                raise CorpusFormatError(
                    f"{self.section} model, bad {name} {i}: expected "
                    f"{prefix!r} and {width} fields, got {line!r}")
            yield f"{name} {i}", fields[1:]

    def new_name(self, seen, name: str, where: str) -> str:
        """`name`, unless an earlier row of its section already has it."""
        if name in seen:
            raise CorpusFormatError(
                f"{self.section} model, {where}: repeated name {name!r}")
        return name

    def value(self, key: str, kind: type = int):
        return self.parse(kind, [self.expect_kv(key)], f"key {key}")[0]

    def values(self, key: str) -> list[int]:
        return self.parse(int, self.expect_kv(key).split(","), f"key {key}")


def load_model(data: bytes):
    r = _Reader(data)
    if r.next() != MAGIC:
        raise CorpusFormatError("not a model file (bad header)")
    kind = r.section = r.expect_kv("type")
    if kind == "majority":
        model = MajorityModel()
        model.global_counts = np.array(r.values("global"), dtype=np.int64)
        for where, (word, counts) in r.rows("word", r.value("words"), 2):
            word = r.new_name(model.per_word, word, where)
            model.per_word[word] = np.array(
                r.parse(int, counts.split(","), where), dtype=np.int64)
            if len(model.per_word[word]) != N_LABELS:
                raise CorpusFormatError(f"bad count vector for {word!r}")
        return model
    if kind == "crf":
        labels = r.values("labels")
        l2 = r.value("l2_lambda", float)
        index: dict[str, int] = {}
        emis_rows = []
        feature_rows = r.rows("feature", r.value("features"), 1 + len(labels))
        for i, (where, (feat, *weights)) in enumerate(feature_rows):
            index[r.new_name(index, feat, where)] = i
            emis_rows.append(r.parse(float, weights, where))
        n_states = r.value("states")
        if n_states != len(labels) + 1:
            raise CorpusFormatError("state count does not match label set")
        trans_rows = [r.parse(float, fields, where)
                      for where, fields in r.rows("trans", n_states, n_states)]
        emis = np.array(emis_rows).reshape(-1) if index else np.empty(0)
        weights = np.concatenate([emis, np.array(trans_rows).ravel()])
        return CrfModel(labels=labels, feature_index=index, weights=weights,
                        l2_lambda=l2)
    if kind == "embed":
        labels = r.values("labels")
        dim = r.value("dimension")
        window = r.value("window")
        if window != EMBED_WINDOW:
            raise CorpusFormatError(f"unsupported embed window {window}")
        rows = [r.parse(float, fields, where)
                for where, fields in r.rows("row", r.value("rows"), 3 * dim + 1)]
        entries: dict[str, np.ndarray] = {}
        for where, (token, *vec) in r.rows("emb", r.value("embeddings"),
                                           1 + dim):
            entries[r.new_name(entries, token, where)] = np.array(
                r.parse(float, vec, where))
        table = EmbeddingTable(dimension=dim, entries=entries)
        return EmbeddingClassifier(table=table, labels=labels,
                                   weight_matrix=np.array(rows))
    raise CorpusFormatError(f"unknown model type {kind!r}")
