"""Parsers and writers for every on-disk format the toolkit touches.

Covers PCM WAV audio, word alignments (``.lab`` lines and long-form Praat
TextGrid interval tiers), the tab-separated prominence dataset, and plain-text
word-embedding tables.  All parsers are pure functions over bytes or text;
UTF-8 is assumed everywhere and CRLF is normalized to LF before parsing.
The text parsers read a ``str`` as content and a ``Path`` as a file name;
``read_wav`` also takes a ``str`` file name.
"""

from __future__ import annotations

import io
import math
import re
import unicodedata
import wave
from dataclasses import dataclass, field
from itertools import accumulate, compress, groupby, repeat
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

INT16_SCALE = 32768.0
INT64 = np.iinfo(np.int64)
# Most values load_embeddings converts in one numpy call.  A fixed bound,
# not a setting.
EMBEDDING_BLOCK_VALUES = 4096


class CorpusFormatError(ValueError):
    """Raised when an input file violates its declared format."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class AudioBuffer:
    """Mono audio samples in [-1, 1] with their sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class Token:
    text: str
    start_s: float
    end_s: float
    is_punct: bool


@dataclass
class Utterance:
    id: str
    speaker: str
    tokens: list[Token]

    def word_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.tokens) if not t.is_punct]


@dataclass
class ProminenceRecord:
    """One dataset row: a token with its discrete and continuous labels.

    ``discrete`` and ``continuous`` are ``None`` together, exactly for
    punctuation tokens; the file format renders that as the literal ``NA``.
    """

    token: str
    discrete: int | None
    continuous: float | None


@dataclass
class EmbeddingTable:
    """Token -> vector map; a token absent in its own case falls back to its
    lowercase form, and absent in both looks up as the all-zero vector."""

    dimension: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)

    def lookup(self, token: str) -> np.ndarray:
        vec = self.entries.get(token)
        if vec is None:
            vec = self.entries.get(token.lower())
        return np.zeros(self.dimension) if vec is None else vec


def parse_number(text: str, kind: type, where: str) -> int | float:
    """`text` as an ``int`` or a finite ``float``, as `kind` says; any other
    text is a CorpusFormatError that starts with `where`."""
    try:
        value = kind(text)
    except ValueError:
        name = "an integer" if kind is int else "a number"
        raise CorpusFormatError(f"{where}: not {name}: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise CorpusFormatError(f"{where}: not a finite number: {text!r}")
    return value


def parse_numbers(texts: list[str], kind: type,
                  where: Callable[[int], str]) -> np.ndarray:
    """`texts` as one float64 or int64 array, as `kind` says, in one numpy
    conversion (which reads each text as `kind` does) and one isfinite check.
    Only when those fail are the texts read again one at a time through
    parse_number, integers held to int64, so that the error starts with
    ``where(k)`` for the first bad text k."""
    dtype = np.float64 if kind is float else np.int64
    try:
        values = np.array(texts, dtype=dtype)
    except (ValueError, OverflowError):
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    values = []
    for k, text in enumerate(texts):
        value = parse_number(text, kind, where(k))
        if kind is int and not INT64.min <= value <= INT64.max:
            raise CorpusFormatError(
                f"{where(k)}: integer out of range: {text!r}")
        values.append(value)
    return np.array(values, dtype=dtype)


def is_punctuation(text: str) -> bool:
    """True iff every character belongs to a Unicode punctuation category."""
    return bool(text) and all(
        unicodedata.category(ch).startswith("P") for ch in text
    )


# ---------------------------------------------------------------------------
# input coercion helpers
# ---------------------------------------------------------------------------

def _as_bytes(source: bytes | str | Path) -> bytes:
    return source if isinstance(source, bytes) else Path(source).read_bytes()


def decode_text(raw: bytes, where: str = "") -> str:
    """`raw` as UTF-8 text.  Bytes that are not UTF-8 are a CorpusFormatError
    naming their line, after `where` (the file) when it is given."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(
            f"{where}{' ' if where else ''}line {line}: not UTF-8 text: "
            f"byte 0x{raw[exc.start]:02x}") from None


def _as_text(source: bytes | str | Path) -> str:
    """A ``str`` is the content itself; a ``Path`` names the file to read."""
    if isinstance(source, str):
        text = source
    elif isinstance(source, bytes):
        text = decode_text(source)
    else:
        text = decode_text(Path(source).read_bytes(), str(source))
    return text.replace("\r\n", "\n").replace("\r", "\n")


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(source: bytes | str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file with 16-bit mono PCM payload.

    Samples are scaled to [-1, 1] by dividing by 32768.  Anything outside the
    supported subset (stereo, non-PCM, other sample widths) is rejected with a
    reason rather than converted.
    """
    raw = _as_bytes(source)
    try:
        with wave.open(io.BytesIO(raw)) as wav:
            n_channels = wav.getnchannels()
            if n_channels != 1:
                raise CorpusFormatError(
                    f"unsupported channel count: {n_channels} (mono required)"
                )
            width = wav.getsampwidth()
            if width != 2:
                raise CorpusFormatError(
                    f"unsupported sample width: {8 * width} bit (16-bit required)"
                )
            if wav.getcomptype() != "NONE":
                raise CorpusFormatError(
                    f"unsupported encoding: {wav.getcomptype()} (PCM required)"
                )
            rate = wav.getframerate()
            payload = wav.readframes(wav.getnframes())
    except wave.Error as exc:
        raise CorpusFormatError(f"malformed or unsupported WAV: {exc}") from exc
    if rate <= 0:
        raise CorpusFormatError(f"invalid sample rate: {rate}")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / INT16_SCALE
    if len(samples) == 0:
        raise CorpusFormatError("empty audio payload")
    return AudioBuffer(samples=samples, sample_rate=rate)


# ---------------------------------------------------------------------------
# alignments
# ---------------------------------------------------------------------------

def _check_token_order(tokens: list[Token], context: str) -> None:
    prev_end = 0.0
    for tok in tokens:
        if tok.start_s < prev_end - 1e-9:
            raise CorpusFormatError(
                f"{context}: token {tok.text!r} at {tok.start_s:.3f}s "
                f"overlaps previous token ending at {prev_end:.3f}s"
            )
        prev_end = max(prev_end, tok.end_s)


def _require_words(tokens: list[Token], context: str) -> None:
    if not any(not t.is_punct for t in tokens):
        raise CorpusFormatError(f"{context}: no non-punctuation tokens")


def parse_lab(
    source: bytes | str | Path,
    utt_id: str = "",
    speaker: str = "",
) -> Utterance:
    """Parse ``start end token`` alignment lines into an Utterance.

    Fields are separated by tabs or spaces; zero-length spans are allowed for
    punctuation tokens only.
    """
    text = _as_text(source)
    tokens: list[Token] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise CorpusFormatError(f"line {lineno}: expected 'start end token'")
        start, end = (parse_number(p, float, f"line {lineno}")
                      for p in parts[:2])
        word = parts[2]
        punct = is_punctuation(word)
        if start < 0:
            raise CorpusFormatError(f"line {lineno}: negative start time")
        if end < start:
            raise CorpusFormatError(f"line {lineno}: end before start")
        if end == start and not punct:
            raise CorpusFormatError(
                f"line {lineno}: zero-length span for non-punctuation token {word!r}"
            )
        tokens.append(Token(text=word, start_s=start, end_s=end, is_punct=punct))
    if not tokens:
        raise CorpusFormatError("no alignment lines")
    _check_token_order(tokens, "lab alignment")
    _require_words(tokens, "lab alignment")
    return Utterance(id=utt_id, speaker=speaker, tokens=tokens)


_TG_ITEM_RE = re.compile(r"item\s*\[\d+\]\s*:")
_TG_NUM_RE = re.compile(r"=\s*(\S+)")
_TG_STR_RE = re.compile(r'=\s*"((?:[^"]|"")*)"')


def _tg_field(line: str, kind: str, context: str) -> float | str:
    if kind == "num":
        m = _TG_NUM_RE.search(line)
        if m is None:
            raise CorpusFormatError(f"{context}: expected a number in {line!r}")
        return parse_number(m.group(1), float, context)
    m = _TG_STR_RE.search(line)
    if m is None:
        raise CorpusFormatError(f"{context}: expected a quoted string in {line!r}")
    return m.group(1).replace('""', '"')


def parse_textgrid(
    source: bytes | str | Path,
    tier_name: str,
    utt_id: str = "",
    speaker: str = "",
) -> Utterance:
    """Extract one IntervalTier of a long-form Praat TextGrid as an Utterance.

    Intervals with empty text (silences) are skipped.  Only the long textual
    format is supported; point tiers are ignored.
    """
    text = _as_text(source)
    lines = [ln.strip() for ln in text.split("\n")]

    # split into per-item line blocks
    item_starts = [i for i, ln in enumerate(lines) if _TG_ITEM_RE.fullmatch(ln)]
    tiers: dict[str, list[str]] = {}
    for idx, start in enumerate(item_starts):
        stop = item_starts[idx + 1] if idx + 1 < len(item_starts) else len(lines)
        block = lines[start:stop]
        cls = name = None
        for ln in block:
            if ln.startswith("class"):
                cls = _tg_field(ln, "str", "tier header")
            elif ln.startswith("name"):
                name = _tg_field(ln, "str", "tier header")
                break
        if cls == "IntervalTier" and name is not None:
            tiers[str(name)] = block

    if tier_name not in tiers:
        available = ", ".join(sorted(tiers)) or "none"
        raise CorpusFormatError(
            f"no IntervalTier named {tier_name!r}; available tiers: {available}"
        )

    block = tiers[tier_name]
    tokens: list[Token] = []
    i = 0
    while i < len(block):
        if re.fullmatch(r"intervals\s*\[\d+\]\s*:", block[i]):
            if i + 3 > len(block):
                raise CorpusFormatError("truncated interval block")
            ctx = f"interval block at tier {tier_name!r}"
            if not block[i + 1].startswith("xmin"):
                raise CorpusFormatError(f"{ctx}: expected xmin, got {block[i+1]!r}")
            if not block[i + 2].startswith("xmax"):
                raise CorpusFormatError(f"{ctx}: expected xmax, got {block[i+2]!r}")
            if not block[i + 3].startswith("text"):
                raise CorpusFormatError(f"{ctx}: expected text, got {block[i+3]!r}")
            xmin = _tg_field(block[i + 1], "num", ctx)
            xmax = _tg_field(block[i + 2], "num", ctx)
            mark = str(_tg_field(block[i + 3], "str", ctx)).strip()
            if xmax < xmin:
                raise CorpusFormatError(
                    f"{ctx}: interval end {xmax} before start {xmin}"
                )
            if mark:
                punct = is_punctuation(mark)
                if xmax == xmin and not punct:
                    raise CorpusFormatError(
                        f"{ctx}: zero-length span for non-punctuation {mark!r}"
                    )
                tokens.append(
                    Token(text=mark, start_s=xmin, end_s=xmax, is_punct=punct)
                )
            i += 4
        else:
            i += 1
    if not tokens:
        raise CorpusFormatError(f"tier {tier_name!r} has no non-empty intervals")
    _check_token_order(tokens, f"tier {tier_name!r}")
    _require_words(tokens, f"tier {tier_name!r}")
    return Utterance(id=utt_id, speaker=speaker, tokens=tokens)


# ---------------------------------------------------------------------------
# prominence dataset
# ---------------------------------------------------------------------------

def format_record(rec: ProminenceRecord) -> str:
    if (rec.discrete is None) != (rec.continuous is None):
        raise CorpusFormatError(
            f"record {rec.token!r}: discrete and continuous must be NA together"
        )
    if rec.discrete is None:
        return f"{rec.token}\tNA\tNA"
    return f"{rec.token}\t{rec.discrete}\t{rec.continuous:.3f}"


def write_dataset(
    annotated: Iterable[tuple[Utterance, Sequence[ProminenceRecord]]],
) -> bytes:
    """Serialize annotated utterances to the tab-separated dataset format.

    One ``token<TAB>discrete<TAB>continuous`` line per token, continuous values
    with exactly 3 decimals, ``NA`` for punctuation; utterances separated by a
    single blank line; the stream ends with a newline (empty input -> empty
    stream).
    """
    blocks: list[str] = []
    for utt, records in annotated:
        if len(records) != len(utt.tokens):
            raise CorpusFormatError(
                f"utterance {utt.id!r}: {len(records)} records for "
                f"{len(utt.tokens)} tokens"
            )
        blocks.append("\n".join(format_record(r) for r in records))
    if not blocks:
        return b""
    return ("\n\n".join(blocks) + "\n").encode("utf-8")


_LABELS = {"NA": None, "0": 0, "1": 1, "2": 2}
_LABEL_NAMES = {label: text for text, label in _LABELS.items()}


@dataclass
class Columns:
    """A dataset or predictions file, one flat list per column over its
    non-blank lines, sentence after sentence."""

    tokens: list[str]
    labels: list[int | None]        # None at NA
    continuous: np.ndarray | None   # NaN at NA; None for a predictions file
    lengths: list[int]              # each sentence's number of lines

    def split(self, flat: list) -> list[list]:
        """One list per sentence from a list over the file's lines."""
        ends = list(accumulate(self.lengths))
        return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _label(text: str) -> int | None:
    """The label of a dataset or predictions line: NA, 0, 1 or 2."""
    if text in _LABELS:
        return _LABELS[text]
    try:
        parse_number(text, int, "label")
    except CorpusFormatError:
        raise CorpusFormatError(
            f"label is neither NA nor an integer: {text!r}") from None
    raise CorpusFormatError(f"label out of range: {text!r}")


def _record(cols: list[str]) -> ProminenceRecord:
    token, d_str, c_str = cols
    discrete = _label(d_str)
    if (discrete is None) != (c_str == "NA"):
        raise CorpusFormatError("discrete and continuous must be NA together")
    if discrete is None:
        return ProminenceRecord(token, None, None)
    cont = parse_number(c_str, float, "continuous value")
    if cont < 0:
        raise CorpusFormatError("negative continuous value")
    return ProminenceRecord(token, discrete, cont)


def _name_first_bad_line(lines: list[str], n_cols: int,
                         row: Callable[[list[str]], object]) -> NoReturn:
    """Raise the error of the first non-blank line that does not have
    `n_cols` tab-separated columns or that ``row(columns)`` rejects,
    prefixed with its line number."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise CorpusFormatError(f"line {lineno}: expected {n_cols} "
                                    f"tab-separated columns, got {len(cols)}")
        try:
            row(cols)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from None
    raise AssertionError("a bulk check failed where every line passes")


def _read_columns(source: bytes | str | Path, n_cols: int) -> Columns:
    """The columns of blank-line-separated sentences of lines with `n_cols`
    tab-separated fields: token, label and, with 3 columns, a continuous
    value >= 0 that is NA exactly where the label is.  Each check runs on a
    whole column; when one fails, the lines are walked again one at a time
    by the line rule (_record or _label) to name the first bad one."""
    lines = _as_text(source).split("\n")
    kept = list(map(bool, map(str.strip, lines)))
    rows = list(compress(lines, kept))
    lengths = [len(list(run)) for k, run in groupby(kept) if k]
    columns = _checked_columns(rows, lengths, n_cols)
    if columns is None:
        _name_first_bad_line(lines, n_cols, _record if n_cols == 3
                             else lambda cols: _label(cols[1]))
    return columns


def _checked_columns(rows: list[str], lengths: list[int],
                     n_cols: int) -> Columns | None:
    """The columns of `rows`, or None if a check fails."""
    if not set(map(str.count, rows, repeat("\t"))) <= {n_cols - 1}:
        return None
    fields = "\t".join(rows).split("\t") if rows else []
    label_texts = fields[1::n_cols]
    if not _LABELS.keys() >= set(label_texts):
        return None
    labels = list(map(_LABELS.get, label_texts))
    if n_cols == 2:
        return Columns(fields[0::2], labels, None, lengths)
    cont_texts = fields[2::3]
    scored = list(map("NA".__ne__, label_texts))
    value_texts = list(compress(cont_texts, scored))
    # as many NA in both columns, and none where the label is not NA
    if (cont_texts.count("NA") != label_texts.count("NA")
            or "NA" in value_texts):
        return None
    try:
        # `where` is unused: a bad value is named by the line walk
        values = parse_numbers(value_texts, float, str)
    except CorpusFormatError:
        return None
    if not (values >= 0).all():
        return None
    continuous = np.full(len(cont_texts), np.nan)
    continuous[np.array(scored, dtype=bool)] = values
    return Columns(fields[0::3], labels, continuous, lengths)


def parse_dataset(source: bytes | str | Path) -> Columns:
    """The columns of the dataset format: token, label, continuous value.

    Round-trips ``write_dataset`` output up to the 3-decimal precision of the
    continuous column.
    """
    return _read_columns(source, 3)


def parse_predictions(source: bytes | str | Path) -> Columns:
    """The columns of the 2-column token<TAB>label format that ``predict``
    writes; labels follow the dataset's rule."""
    return _read_columns(source, 2)


def format_predictions(predicted: Columns) -> str:
    """The 2-column format that ``parse_predictions`` reads: a
    token<TAB>label line per token and a blank line between sentences."""
    lines = list(map("\t".join, zip(predicted.tokens, map(
        _LABEL_NAMES.__getitem__, predicted.labels))))
    return "\n\n".join(map("\n".join, predicted.split(lines))) + "\n"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def load_embeddings(
    source: bytes | str | Path, dimension: int
) -> EmbeddingTable:
    """Load a ``token v1 .. vD`` text table; first occurrence wins on
    duplicates, and the rows of a repeated token are not read."""
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    first: dict[str, int] = {}  # token -> line number of its first row
    rows: list[str] = []        # the lines of those first rows
    bad_shape = None
    for lineno, line in enumerate(_as_text(source).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != dimension + 1:
            bad_shape = CorpusFormatError(f"line {lineno}: expected "
                                          f"{dimension} values, got "
                                          f"{len(parts) - 1}")
            break
        if parts[0] not in first:
            first[parts[0]] = lineno
            rows.append(line)
    # One numpy conversion per block of rows: each value is a str object
    # until it converts, so a whole table at once would hold several times
    # the file's size in them.
    linenos = list(first.values())
    step = max(1, EMBEDDING_BLOCK_VALUES // dimension)
    vectors: list[np.ndarray] = []
    for a in range(0, len(rows), step):
        texts = " ".join(rows[a:a + step]).split()
        del texts[::dimension + 1]
        vectors.extend(parse_numbers(
            texts, float, lambda k: f"line {linenos[a + k // dimension]}",
        ).reshape(-1, dimension))
    # the rows before a bad one were read first: their error came first
    if bad_shape is not None:
        raise bad_shape
    return EmbeddingTable(dimension, dict(zip(first, vectors)))
