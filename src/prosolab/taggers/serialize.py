"""Versioned flat-text model files, byte-identical across identical runs.

Layout: a magic header line, a type line, then that type's section of
key=value lines and tab-separated bulk rows, which ``write_section`` and
``read_section`` in its tagger module write and read.  Files are written
with LF line ends and read with LF, CRLF or CR ones.
"""

from __future__ import annotations

from itertools import repeat
from typing import NoReturn

import numpy as np

from ..corpus_io import (N_LABELS, CorpusFormatError, Rows, lf_bytes,
                         parse_numbers, scan_rows)
from . import crf, embed, majority
from .common import comma_ints

MAGIC = "prosolab-model v1"
# the type= line -> (section writer, section reader)
SECTIONS = {
    "majority": (majority.write_section, majority.read_section),
    "crf": (crf.write_section, crf.read_section),
    "embed": (embed.write_section, embed.read_section),
}


def save_model(model) -> bytes:
    kind = getattr(model, "kind", None)
    if kind not in SECTIONS:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [MAGIC, f"type={kind}", *SECTIONS[kind][0](model)]
    return ("\n".join(lines) + "\n").encode("utf-8")


class _Reader:
    def __init__(self, data: bytes, where: str):
        self.raw = lf_bytes(data, where)
        self.at_byte = 0  # where the next line starts
        self.section = "header"  # the model type once read; named in errors

    def at(self, name: str) -> str:
        return f"{self.section} model, {name}"

    def next(self) -> str:
        while self.at_byte < len(self.raw):
            end = self.raw.find(b"\n", self.at_byte)
            end = len(self.raw) if end < 0 else end  # the last line's end
            line, self.at_byte = self.raw[self.at_byte:end], end + 1
            if line:
                return line.decode()
        raise CorpusFormatError("truncated model file")

    def expect_kv(self, key: str) -> str:
        line = self.next()
        prefix = key + "="
        if not line.startswith(prefix):
            raise CorpusFormatError(f"expected {key}=..., got {line!r}")
        return line[len(prefix):]

    def value(self, key: str, kind: type = int, least: int | None = None):
        """The number at `key`; one below `least`, if given, is an error."""
        where = self.at(f"key {key}")
        value = parse_numbers([self.expect_kv(key)], kind,
                              lambda _: where).item()
        if least is not None and value < least:
            raise CorpusFormatError(
                f"{where}: expected a value >= {least}, got {value}")
        return value

    def values(self, key: str) -> list[int]:
        where = self.at(f"key {key}")
        return parse_numbers(self.expect_kv(key).split(","), int,
                             lambda _: where).tolist()

    def labels(self) -> list[int]:
        """The labels= key: distinct labels, each in 0..N_LABELS-1."""
        labels = self.values("labels")
        if len(set(labels) & set(range(N_LABELS))) < len(labels):
            raise CorpusFormatError(self.at(
                f"key labels: {comma_ints(labels)} are not distinct labels "
                f"in 0..{N_LABELS - 1}"))
        return labels

    def table(self, prefix: str, count: int, width: int, kind: type = float,
              named: bool = False, sep: str | None = None):
        """(name -> row, (count, width) array) of the next `count` lines
        that are not empty: `prefix`, a new name if `named`, then `width`
        numbers of `kind`, in tab-separated fields or one field split on
        `sep`.  A block of rows from scan_rows has its layout checked at
        once and its numbers converted by one parse_numbers call.  A bad
        layout is raised as soon as its block is read, and a bad number
        once every row's layout has been checked."""
        name = prefix if prefix == "row" else f"{prefix} row"
        n_fields = 1 + named + (1 if sep else width)
        index: dict[str, int] = {}

        def name_bad_row(rows: Rows, first: int) -> NoReturn:
            """Raise the error of the first row of `rows`, row `first`...,
            that breaks the layout."""
            seen = set(index)
            for i, (_, line) in enumerate(rows.numbered(), start=first):
                fields = line.split("\t")
                if fields[0] != prefix or len(fields) != n_fields:
                    raise CorpusFormatError(self.at(
                        f"bad {name} {i}: expected {prefix!r} and "
                        f"{n_fields - 1} fields, got {line!r}"))
                if sep and fields[-1].count(sep) != width - 1:
                    raise CorpusFormatError(self.at(
                        f"{name} {i}: bad count vector for {fields[1]!r}"))
                if named:
                    if fields[1] in seen:
                        raise CorpusFormatError(self.at(
                            f"{name} {i}: repeated name {fields[1]!r}"))
                    seen.add(fields[1])
            raise AssertionError("a block check failed where every row passes")

        values = np.empty((count, width),
                          dtype=np.float64 if kind is float else np.int64)
        done, bad = 0, None
        for rows in scan_rows(self.raw, False, self.at_byte, count):
            self.at_byte, n = rows.stop, len(rows.lines)
            fields, fit = rows.fields(n_fields)  # of the first `fit` rows
            new = dict(zip(fields[1::n_fields], range(done, done + n))) \
                if named else {}
            if not (fit == n and fields[::n_fields].count(prefix) == n
                    and len(new) == n * named and index.keys().isdisjoint(new)
                    and (not sep or set(map(
                        str.count, fields[n_fields - 1::n_fields],
                        repeat(sep))) <= {width - 1})):
                name_bad_row(rows, done)
            if not n:
                continue
            index.update(new)
            del fields[::n_fields]  # the prefixes
            if named:
                del fields[::n_fields - 1]  # the names
            if sep:
                fields = sep.join(fields).split(sep)
            try:
                values[done:done + n] = parse_numbers(fields, kind, lambda k: (
                    self.at(f"{name} {done + k // width}"))).reshape(n, width)
            except CorpusFormatError as exc:
                bad = bad or exc
            done += n
        if done < count:
            raise CorpusFormatError("truncated model file")
        if bad is not None:
            raise bad
        return index, values


def load_model(data: bytes, where: str = ""):
    """The model that `data` holds; `where`, the file's name, prefixes the
    error for bytes that are not UTF-8."""
    r = _Reader(data, where)
    if r.next() != MAGIC:
        raise CorpusFormatError("not a model file (bad header)")
    kind = r.section = r.expect_kv("type")
    if kind not in SECTIONS:
        raise CorpusFormatError(f"unknown model type {kind!r}")
    return SECTIONS[kind][1](r)
