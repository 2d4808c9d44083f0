"""Versioned flat-text model files, byte-identical across identical runs.

Layout: a magic header line, a type line, type-specific key=value lines, then
bulk rows (one feature/word/embedding per line, tab-separated).  Floats are
written with repr, which round-trips exactly; map-like sections are sorted by
key except CRF features, which keep index order because the feature order IS
part of the model.
"""

from __future__ import annotations

import numpy as np

from ..corpus_io import (CorpusFormatError, EmbeddingTable, decode_text,
                         parse_numbers)
from .crf import CrfModel
from .embed import EmbeddingClassifier
from .majority import N_LABELS, MajorityModel

MAGIC = "prosolab-model v1"
EMBED_WINDOW = 1  # the embed classifier reads one neighbour on each side
# Most numbers _Reader.table converts in one numpy call.  A fixed bound, not
# a setting.
TABLE_BLOCK_VALUES = 4096


def _floats(values) -> str:
    return "\t".join(repr(float(v)) for v in values)


def _ints(values) -> str:
    return ",".join(str(int(v)) for v in values)


def save_model(model) -> bytes:
    kind = getattr(model, "kind", None)
    lines = [MAGIC, f"type={kind}"]
    if kind == "majority":
        lines.append(f"global={_ints(model.global_counts)}")
        lines.append(f"words={len(model.per_word)}")
        for word in sorted(model.per_word):
            lines.append(f"word\t{word}\t{_ints(model.per_word[word])}")
    elif kind == "crf":
        emis = model.weights[:model.n_emission].reshape(-1, model.n_labels)
        by_index = sorted(model.feature_index, key=model.feature_index.get)
        lines.append(f"labels={_ints(model.labels)}")
        lines.append(f"l2_lambda={model.l2_lambda!r}")
        lines.append(f"features={len(by_index)}")
        for i, feat in enumerate(by_index):
            lines.append(f"feature\t{feat}\t{_floats(emis[i])}")
        lines.append(f"states={model.n_states}")
        for row in model.transition_matrix():
            lines.append(f"trans\t{_floats(row)}")
    elif kind == "embed":
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
    def __init__(self, data: bytes, where: str):
        self.lines = decode_text(data, where).split("\n")
        self.pos = 0
        self.section = "header"  # the model type once read; named in errors

    def at(self, name: str) -> str:
        return f"{self.section} model, {name}"

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

    def value(self, key: str, kind: type = int):
        where = self.at(f"key {key}")
        return parse_numbers([self.expect_kv(key)], kind,
                             lambda _: where).item()

    def values(self, key: str) -> list[int]:
        where = self.at(f"key {key}")
        return parse_numbers(self.expect_kv(key).split(","), int,
                             lambda _: where).tolist()

    def labels(self) -> list[int]:
        """The labels= key: distinct labels, each in 0..N_LABELS-1."""
        labels = self.values("labels")
        if len(set(labels) & set(range(N_LABELS))) < len(labels):
            raise CorpusFormatError(self.at(
                f"key labels: {_ints(labels)} are not distinct labels in "
                f"0..{N_LABELS - 1}"))
        return labels

    def table(self, prefix: str, count: int, width: int, kind: type = float,
              named: bool = False, sep: str | None = None):
        """(name -> row, (count, width) array) of the next `count` lines:
        `prefix`, a new name if `named`, then `width` numbers of `kind`, in
        tab-separated fields or one field split on `sep`.  The numbers convert
        a block of rows per numpy call, and one by one only to name a bad
        one's row.  A bad number is raised once every row's layout has been
        checked, so a bad layout anywhere is named first."""
        name = prefix if prefix == "row" else f"{prefix} row"
        n_fields = 1 + named + (1 if sep else width)
        # a width below 1 comes from a bad dimension key: 0 leaves nothing
        # to convert, and a negative one fails the first row's layout check
        step = max(1, TABLE_BLOCK_VALUES // max(width, 1))
        index: dict[str, int] = {}
        values = np.empty((count, max(width, 0)),
                          dtype=np.float64 if kind is float else np.int64)
        texts: list[str] = []
        bad_number = None
        for i in range(count):
            line = self.next()
            fields = line.split("\t")
            if fields[0] != prefix or len(fields) != n_fields:
                raise CorpusFormatError(self.at(
                    f"bad {name} {i}: expected {prefix!r} and "
                    f"{n_fields - 1} fields, got {line!r}"))
            numbers = fields[1 + named:]
            if sep:
                numbers = numbers[0].split(sep)
                if len(numbers) != width:
                    raise CorpusFormatError(self.at(
                        f"{name} {i}: bad count vector for {fields[1]!r}"))
            if named:
                if fields[1] in index:
                    raise CorpusFormatError(self.at(
                        f"{name} {i}: repeated name {fields[1]!r}"))
                index[fields[1]] = i
            texts += numbers
            if i + 1 == count or (i + 1) % step == 0:
                a = i - i % step  # the block's first row
                try:
                    values[a:i + 1] = parse_numbers(texts, kind, lambda k: (
                        self.at(f"{name} {a + k // width}"))).reshape(
                            i + 1 - a, width)
                except CorpusFormatError as exc:
                    bad_number = bad_number or exc
                texts = []
        if bad_number is not None:
            raise bad_number
        return index, values


def load_model(data: bytes, where: str = ""):
    """The model that `data` holds; `where`, the file's name, prefixes the
    error for bytes that are not UTF-8."""
    r = _Reader(data, where)
    if r.next() != MAGIC:
        raise CorpusFormatError("not a model file (bad header)")
    kind = r.section = r.expect_kv("type")
    if kind == "majority":
        global_counts = np.array(r.values("global"), dtype=np.int64)
        if len(global_counts) != N_LABELS or global_counts.min() < 0:
            raise CorpusFormatError(r.at(
                f"key global: expected {N_LABELS} counts >= 0, got "
                f"{_ints(global_counts)}"))
        words, counts = r.table("word", r.value("words"), N_LABELS, int,
                                named=True, sep=",")
        negative = np.flatnonzero((counts < 0).any(axis=1))
        if len(negative):
            raise CorpusFormatError(r.at(
                f"word row {negative[0]}: negative count in "
                f"{_ints(counts[negative[0]])}"))
        return MajorityModel(per_word=dict(zip(words, counts)),
                             global_counts=global_counts)
    if kind == "crf":
        labels = r.labels()
        l2 = r.value("l2_lambda", float)
        features, emis = r.table("feature", r.value("features"), len(labels),
                                 named=True)
        n_states = r.value("states")
        if n_states != len(labels) + 1:
            raise CorpusFormatError("state count does not match label set")
        _, trans = r.table("trans", n_states, n_states)
        return CrfModel(labels=labels, feature_index=features,
                        weights=np.concatenate([emis.ravel(), trans.ravel()]),
                        l2_lambda=l2)
    if kind == "embed":
        labels = r.labels()
        dim = r.value("dimension")
        window = r.value("window")
        if window != EMBED_WINDOW:
            raise CorpusFormatError(f"unsupported embed window {window}")
        n_rows = r.value("rows")
        if n_rows != len(labels):
            raise CorpusFormatError(
                r.at(f"key rows: {n_rows} rows for {len(labels)} labels"))
        _, weights = r.table("row", n_rows, 3 * dim + 1)
        tokens, vectors = r.table("emb", r.value("embeddings"), dim,
                                  named=True)
        table = EmbeddingTable(dim, dict(zip(tokens, vectors)))
        return EmbeddingClassifier(table=table, labels=labels,
                                   weight_matrix=weights)
    raise CorpusFormatError(f"unknown model type {kind!r}")
