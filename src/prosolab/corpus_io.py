"""Parsers and writers for every on-disk format the toolkit touches.

Covers PCM WAV audio, word alignments (``.lab`` lines and long-form Praat
TextGrid interval tiers), the tab-separated prominence dataset, and plain-text
word-embedding tables.  All parsers are pure functions over bytes or text;
UTF-8 is assumed everywhere and CRLF is normalized to LF before parsing.
The text parsers read a ``str`` as content and a ``Path`` as a file name;
``read_wav`` also takes a ``str`` file name.

Files of named number rows (datasets, predictions, embedding tables and
the tables of a model file) are read a block of lines at a time by
scan_rows, which alone decides which lines are blank; each reader checks
a block's columns at once and reads the rows scan_rows found one at a
time by its own line rule only to name the first bad one.  A dataset's or
predictions file's columns grow in bytearrays, one extend a block, which
the arrays returned view.
"""

from __future__ import annotations

import io
import math
import re
import unicodedata
import wave
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

import numpy as np

INT16_SCALE = 32768.0
# Frames of a 16-bit mono WAV whose data size is 0xFFFFFFFF, the placeholder
# a writer that cannot seek back (ffmpeg to a pipe) leaves in the header.
# Such a file is read to its end, not called truncated.
STREAMED_FRAMES = 0xFFFFFFFF // 2
INT64 = np.iinfo(np.int64)
# scan_rows reads the lines in 16 * BLOCK_VALUES bytes (about BLOCK_VALUES
# numbers written by repr) at a time, number_tokens BLOCK_VALUES lines: a
# whole file at once would hold several times its bytes.  Not a setting.
BLOCK_VALUES = 4096


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
    tokens: list[Token]

    def word_indices(self) -> list[int]:
        return [i for i, t in enumerate(self.tokens) if not t.is_punct]


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
    """True iff every character belongs to a Unicode punctuation category.
    No alphanumeric character is in one, so a word answers at once."""
    return bool(text) and not text.isalnum() and all(
        unicodedata.category(ch).startswith("P") for ch in text
    )


# ---------------------------------------------------------------------------
# input coercion helpers
# ---------------------------------------------------------------------------

def _check_utf8(raw: bytes, where: str) -> None:
    """A CorpusFormatError naming the line of the first byte of `raw` that
    is not UTF-8, after `where` (the file) when it is given.  Decoded a
    block of lines at a time, so that no copy of the file is held."""
    lo = len(raw) if raw.isascii() else 0  # ASCII is UTF-8
    while lo < len(raw):
        hi = raw.find(b"\n", lo + 64 * BLOCK_VALUES) + 1 or len(raw)
        try:
            str(memoryview(raw)[lo:hi], "utf-8")
        except UnicodeDecodeError as exc:
            at = lo + exc.start
            line = raw.count(b"\n", 0, at) + 1
            raise CorpusFormatError(
                f"{where}{' ' if where else ''}line {line}: not UTF-8 text: "
                f"byte 0x{raw[at]:02x}") from None
        lo = hi


def lf_bytes(source: bytes | str | Path, where: str = "") -> bytes:
    """The UTF-8 bytes of `source` with CRLF and lone CR line ends made LF.
    A ``str`` is the content, encoded (a lone surrogate with surrogatepass);
    bytes, or the file a ``Path`` names, are only checked to be UTF-8, once
    their line ends are LF, and the error names the file, or `where` for
    bytes."""
    if isinstance(source, str):
        raw = source.encode("utf-8", "surrogatepass")
    elif isinstance(source, bytes):
        raw = source
    else:
        raw, where = Path(source).read_bytes(), str(source)
    if b"\r" in raw:  # replace scans slowly even when nothing matches
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not isinstance(source, str):
        _check_utf8(raw, where)
    return raw


def _as_text(source: bytes | str | Path) -> str:
    """A ``str`` is the content itself; a ``Path`` names the file to read."""
    return lf_bytes(source).decode("utf-8", "surrogatepass")


# ---------------------------------------------------------------------------
# files of named number rows
# ---------------------------------------------------------------------------

# first bytes of a UTF-8 line that str.strip may find blank: the ASCII
# whitespace bytes and the lead byte of any other character
_MAYBE_BLANK = np.array([c >= 0x80 or chr(c).isspace() for c in range(256)])


@dataclass
class Rows:
    """A block of whole lines that scan_rows read; its non-blank lines are
    its rows."""

    data: np.ndarray    # uint8 UTF-8 bytes, each line ending "\n"
    lineno: int         # of the block's first line
    lines: np.ndarray   # (n,) the line number of each row
    starts: np.ndarray  # (n,) its first byte in `data`
    ends: np.ndarray    # (n,) and its newline
    stop: int           # the byte of the file after the block

    def numbered(self) -> list[tuple[int, str]]:
        """Each row's line number and text, for a line rule to read."""
        return list(zip(self.lines.tolist(), _split_lines(
            _gather(self.data, self.starts, self.ends))))

    def fields(self, width: int, sep: str | None = "\t"
               ) -> tuple[list[str], int]:
        """The fields of the first k rows, row after row, and k: the rows
        before the first that line.split(sep) does not cut into `width`
        fields.  One split, with a NUL field after each row, cuts them all
        when each fits; else each row is split alone."""
        n = len(self.lines)
        text = (self.data[self.starts[0]:self.ends[-1] + 1] if n and
                self.lines[-1] - self.lines[0] == n - 1  # no blank between
                else _gather(self.data, self.starts, self.ends)
                ).tobytes().decode("utf-8", "surrogatepass")
        if "\x00" not in text:
            every = text.replace("\n", f"{sep or ' '}\x00{sep or ' '}"
                                 ).split(sep)
            if sep:
                del every[-1]  # the empty field after the last NUL
            if (len(every) == n * (width + 1)
                    and every[width::width + 1].count("\x00") == n):
                del every[width::width + 1]
                return every, n
        cut = [line.split(sep) for line in text.split("\n")[:-1]]
        k = next((i for i, f in enumerate(cut) if len(f) != width), n)
        return list(chain.from_iterable(cut[:k])), k


def scan_rows(raw: bytes, strip: bool = True, at: int = 0,
              rows: int | None = None) -> Iterator[Rows]:
    """The lines of `raw` (UTF-8) from byte `at` on, as Rows of the whole
    lines in 16 * BLOCK_VALUES bytes (or of one longer line), with at most
    `rows` rows in all if given.  A line is blank when it is empty or, with
    `strip`, when str.strip leaves nothing of it: numpy finds the lines,
    and only those whose first byte may be whitespace are decoded to test
    it.  Line numbers count from `at`."""
    lineno = 1
    while at < len(raw) and rows != 0:
        stop = (raw.rfind(b"\n", at, at + 16 * BLOCK_VALUES) + 1
                or raw.find(b"\n", at) + 1 or len(raw))
        block = raw[at:stop] + b"\n" * (raw[stop - 1] != ord("\n"))
        data = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(data == ord("\n"))
        starts = np.concatenate(([0], ends[:-1] + 1))
        kept = starts < ends
        for i in np.flatnonzero(kept & _MAYBE_BLANK[data[starts]] & strip):
            kept[i] = bool(block[starts[i]:ends[i]].decode(
                "utf-8", "surrogatepass").strip())
        found, n_lines = np.flatnonzero(kept)[:rows], len(ends)
        if len(found) == rows:  # the block ends with the last row
            n_lines = found[-1] + 1
            data = data[:ends[found[-1]] + 1]
            stop = at + len(data)
        yield Rows(data, lineno, lineno + found, starts[found], ends[found],
                   stop)
        lineno, at = lineno + n_lines, stop
        rows = None if rows is None else rows - len(found)


def _gather(data: np.ndarray, starts: np.ndarray,
            ends: np.ndarray) -> np.ndarray:
    """The spans data[s:e], each with a newline after it, gathered at
    once: each span and the byte after it, that byte made a newline."""
    sizes = (ends - starts + 1).astype(np.int32)
    after = np.cumsum(sizes)
    out = data[np.arange(sizes.sum(), dtype=np.int32)
               + np.repeat((starts + sizes - after).astype(np.int32), sizes)]
    out[after - 1] = ord("\n")
    return out


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def read_wav(source: bytes | str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file with 16-bit mono PCM payload.

    Samples are scaled to [-1, 1] by dividing by 32768.  Anything outside the
    supported subset (stereo, non-PCM, other sample widths) is rejected with a
    reason rather than converted.
    """
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    stream = io.BytesIO(raw)
    try:
        with wave.open(stream) as wav:
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
            n_frames = wav.getnframes()
            # wave stops reading at the start of the data chunk; the payload
            # is what readframes would return, a view instead of a copy
            start = stream.tell()
            riff_end = 8 + int.from_bytes(raw[4:8], "little")
            payload = memoryview(raw)[
                start:min(start + 2 * n_frames, riff_end)]
    except wave.Error as exc:
        raise CorpusFormatError(f"malformed or unsupported WAV: {exc}") from exc
    except EOFError:
        raise CorpusFormatError(
            "truncated WAV: the file ends inside its header (file length "
            f"{len(raw)})") from None
    if rate <= 0:
        raise CorpusFormatError(f"invalid sample rate: {rate}")
    if len(payload) % 2:
        raise CorpusFormatError(
            "truncated WAV: the data ends inside a 16-bit sample (data "
            f"length {len(payload)})")
    if len(payload) < 2 * n_frames and n_frames != STREAMED_FRAMES:
        raise CorpusFormatError(
            f"truncated WAV: the header declares {n_frames} frames, the data "
            f"holds {len(payload) // 2}")
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64)
    samples /= INT16_SCALE
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


def parse_lab(source: bytes | str | Path, utt_id: str = "") -> Utterance:
    """Parse ``start end token`` alignment lines into an Utterance.

    Fields are separated by any whitespace; zero-length spans are allowed for
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
    return Utterance(id=utt_id, tokens=tokens)


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


def parse_textgrid(source: bytes | str | Path, tier_name: str,
                   utt_id: str = "") -> Utterance:
    """Extract one IntervalTier of a long-form Praat TextGrid as an Utterance.

    Intervals with empty text (silences) are skipped.  Only the long textual
    format is supported; point tiers are ignored.
    """
    text = _as_text(source)
    lines = [ln.strip() for ln in text.split("\n")]

    # split into per-item line blocks
    item_starts = [i for i, ln in enumerate(lines) if _TG_ITEM_RE.fullmatch(ln)]
    tiers: dict[str, list[list[str]]] = {}
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
            tiers.setdefault(str(name), []).append(block)

    if tier_name not in tiers:
        available = ", ".join(sorted(tiers)) or "none"
        raise CorpusFormatError(
            f"no IntervalTier named {tier_name!r}; available tiers: {available}"
        )
    if len(tiers[tier_name]) > 1:
        raise CorpusFormatError(f"{len(tiers[tier_name])} IntervalTiers named "
                                f"{tier_name!r}; expected one")

    [block] = tiers[tier_name]
    tokens: list[Token] = []
    i = 0
    while i < len(block):
        if re.fullmatch(r"intervals\s*\[\d+\]\s*:", block[i]):
            if i + 3 >= len(block):
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
            if mark and xmin < 0:
                raise CorpusFormatError(f"{ctx}: negative start time")
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
    return Utterance(id=utt_id, tokens=tokens)


# ---------------------------------------------------------------------------
# prominence dataset
# ---------------------------------------------------------------------------

def write_dataset(
    annotated: Iterable[tuple[Utterance, np.ndarray, np.ndarray]],
) -> bytes:
    """Serialize annotated utterances to the tab-separated dataset format.

    Each utterance comes with its tokens' int8 label codes and float64
    continuous values, NA and NaN together.  One
    ``token<TAB>discrete<TAB>continuous`` line per token, continuous values
    with exactly 3 decimals, ``NA`` for punctuation; utterances separated by a
    single blank line; the stream ends with a newline (empty input -> empty
    stream).
    """
    blocks: list[str] = []
    for utt, labels, values in annotated:
        for n in (len(labels), len(values)):
            if n != len(utt.tokens):
                raise CorpusFormatError(f"utterance {utt.id!r}: {n} records "
                                        f"for {len(utt.tokens)} tokens")
        uncoupled = np.flatnonzero((labels == NA) != np.isnan(values))
        if len(uncoupled):
            raise CorpusFormatError(
                f"record {utt.tokens[uncoupled[0]].text!r}: discrete and "
                "continuous must be NA together")
        blocks.append("\n".join(
            f"{tok.text}\tNA\tNA" if label == NA
            else f"{tok.text}\t{label}\t{value:.3f}"
            for tok, label, value in zip(utt.tokens, labels.tolist(),
                                         values.tolist())))
    if not blocks:
        return b""
    return ("\n\n".join(blocks) + "\n").encode("utf-8")


NA = -1  # the label code of an NA line
# label text -> code; a code indexes _LABEL_NAMES, NA its last entry
_LABELS = {"0": 0, "1": 1, "2": 2, "NA": NA}
N_LABELS = len(_LABELS) - 1  # labels 0..N_LABELS-1; NA is not a label
_LABEL_NAMES = list(_LABELS)


# Most padded (sentence, position) cells one chunk of a file's sentences may
# span.  Decoding and training build their position arrays, potentials and
# dynamic-programming tensors one chunk at a time, so their memory stays
# bounded however long the file is.  A fixed bound, not a setting.
CHUNK_CELLS = 4096


@dataclass
class Chunk:
    """A run of whole sentences of a file, holding its flat positions
    ``start:stop``, on a padded ``(B, T)`` grid."""

    start: int
    stop: int
    lengths: np.ndarray  # (B,)
    width: int           # T, at least 1
    cells: np.ndarray    # (stop - start,) grid cell b * T + t of each position

    def pad(self, values: np.ndarray, fill) -> np.ndarray:
        """Per-position `values` on the ``(B, T, ...)`` grid, `fill` past
        each sentence's end."""
        grid = np.full((len(self.lengths) * self.width, *values.shape[1:]),
                       fill, dtype=values.dtype)
        grid[self.cells] = values
        return grid.reshape(len(self.lengths), self.width, *values.shape[1:])

    def places(self) -> tuple[np.ndarray, np.ndarray]:
        """Index of each position in its sentence, and that sentence's
        length."""
        return self.cells % self.width, np.repeat(self.lengths, self.lengths)


@dataclass
class Columns:
    """A dataset or predictions file, one flat column per field over its
    non-blank lines (its positions), sentence after sentence.  The tokens
    are held as bytes; the first read of `types`, `type_ids` or `type_na`
    numbers them (number_tokens), and the numbering is kept."""

    token_bytes: np.ndarray         # uint8: each position's UTF-8 token, b"\n"
    labels: np.ndarray              # (N,) int8 label codes, NA at NA
    continuous: np.ndarray | None   # NaN at NA; None for a predictions file
    lengths: np.ndarray             # (S,) int64 positions per sentence
    offsets: np.ndarray = field(init=False)  # (S + 1,) their starts, then N
    # (types, type_ids, type_na) once numbered.  replace() carries it, so a
    # copy with other token bytes passes its own or None.
    numbering: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths)))

    def _numbered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.numbering is None:
            self.numbering = number_tokens(self.token_bytes)
        return self.numbering

    @property
    def types(self) -> np.ndarray:
        """The distinct tokens (str), first seen first."""
        return self._numbered()[0]

    @property
    def type_ids(self) -> np.ndarray:
        """(N,) int32 type of each position."""
        return self._numbered()[1]

    @property
    def type_na(self) -> np.ndarray:
        """(n_types,) whether each type is punctuation."""
        return self._numbered()[2]

    def tokens(self) -> list[str]:
        """The token of each position, decoded at once."""
        return _split_lines(self.token_bytes)

    def chunks(self) -> Iterator[Chunk]:
        """Runs of whole sentences, in order, each spanning at most
        CHUNK_CELLS padded cells; a longer sentence is a chunk of its own."""
        lo, width = 0, 1
        for i, n in enumerate(self.lengths.tolist()):
            if i > lo and (i - lo + 1) * max(width, n) > CHUNK_CELLS:
                yield self._chunk(lo, i, width)
                lo, width = i, 1
            width = max(width, n)
        if lo < len(self.lengths):
            yield self._chunk(lo, len(self.lengths), width)

    def _chunk(self, lo: int, hi: int, width: int) -> Chunk:
        start, stop = int(self.offsets[lo]), int(self.offsets[hi])
        lengths = self.lengths[lo:hi]
        row = np.repeat(np.arange(hi - lo), lengths)
        t = np.arange(stop - start) - np.repeat(self.offsets[lo:hi] - start,
                                                lengths)
        return Chunk(start, stop, lengths, width, row * width + t)


def _label(text: str) -> int | None:
    """The label of a dataset or predictions line: None (NA), 0, 1 or 2."""
    if text in _LABELS:
        return None if text == "NA" else _LABELS[text]
    try:
        value = parse_number(text, int, "label")
    except CorpusFormatError:
        raise CorpusFormatError(
            f"label is neither NA nor an integer: {text!r}") from None
    if 0 <= value < N_LABELS:
        raise CorpusFormatError(
            f"not a label: {text!r} (labels are "
            f"{', '.join(_LABEL_NAMES[:N_LABELS])} or NA)")
    raise CorpusFormatError(f"label out of range: {text!r}")


def _record(cols: list[str]) -> tuple[str, int | None, float | None]:
    """The (token, label, value) of a dataset line, None for both at NA."""
    token, d_str, c_str = cols
    discrete = _label(d_str)
    if (discrete is None) != (c_str == "NA"):
        raise CorpusFormatError("discrete and continuous must be NA together")
    if discrete is None:
        return token, None, None
    cont = parse_number(c_str, float, "continuous value")
    if cont < 0:
        raise CorpusFormatError("negative continuous value")
    return token, discrete, cont


def _name_first_bad_line(rows: Rows, n_cols: int,
                         row: Callable[[list[str]], object]) -> NoReturn:
    """Raise the error of the first row of the block that does not have
    `n_cols` tab-separated columns or that ``row(columns)`` rejects,
    prefixed with its line number."""
    for lineno, line in rows.numbered():
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise CorpusFormatError(f"line {lineno}: expected {n_cols} "
                                    f"tab-separated columns, got {len(cols)}")
        try:
            row(cols)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from None
    raise AssertionError("a bulk check failed where every line passes")


def _read_columns(source: bytes | str | Path, n_cols: int,
                  where: str = "") -> Columns:
    """The columns of blank-line-separated sentences of lines with `n_cols`
    tab-separated fields: token, label and, with 3 columns, a continuous
    value >= 0 that is NA exactly where the label is.  A line is blank when
    str.strip leaves nothing of it.  scan_rows reads the file a block at a
    time and the checks run on the block's columns; when one fails, the
    block's rows are read one at a time by the line rule (_record or
    _label) to name the first bad one.  Each column grows in a bytearray
    and the arrays returned view it, so no second copy is built; a
    bytearray holds up to an eighth more than its length."""
    tokens, labels, values, opens = (bytearray() for _ in range(4))
    last = -1
    for rows in scan_rows(lf_bytes(source, where)):
        block = _checked(rows, n_cols)
        if block is None:
            _name_first_bad_line(rows, n_cols, _record if n_cols == 3
                                 else lambda cols: _label(cols[1]))
        # a row opens a sentence unless the line before it is a row
        opens.extend(len(labels) + np.flatnonzero(
            np.diff(rows.lines, prepend=last) != 1))
        last = rows.lines[-1] if len(rows.lines) else last
        for column, part in zip((tokens, labels, values), block):
            column.extend(part)
    return Columns(np.frombuffer(tokens, np.uint8),
                   np.frombuffer(labels, np.int8),
                   np.frombuffer(values) if n_cols == 3 else None,
                   np.diff(np.frombuffer(opens, np.int64), append=len(labels)))


def _checked(rows: Rows, n_cols: int) -> tuple | None:
    """The token bytes, label codes and, with 3 columns, values of the rows
    of a block, or None if a row has the wrong number of tabs, a label is
    not one of the _LABELS or, with 3 columns, a value is NA where its
    label is not or the other way round, or is not a finite number of at
    least 0.  numpy finds the fields and reads the labels."""
    data = rows.data
    # the k-th tab-separated field of the block ends at byte cuts[k]
    cuts = np.flatnonzero((data == ord("\t")) | (data == ord("\n")))
    last = np.flatnonzero(data[cuts] == ord("\n"))  # each line's last field
    row = rows.lines - rows.lineno  # each row's line in the block
    first = np.concatenate(([0], last[:-1] + 1))[row]
    if not (last[row] - first == n_cols - 1).all():
        return None
    # field k of each row is data[bounds[k] + 1:bounds[k + 1]]
    bounds = [rows.starts - 1, *(cuts[first + k] for k in range(n_cols))]
    label_at, label_end = bounds[1] + 1, bounds[2]
    na = _is_na(data, label_at, label_end)
    digit = data[label_at].astype(np.int16) - ord("0")
    if not (na | ((label_end - label_at == 1) & (digit >= 0)
                  & (digit < N_LABELS))).all():
        return None
    block = (_gather(data, bounds[0] + 1, bounds[1]),
             np.where(na, NA, digit).astype(np.int8))
    if n_cols == 2:
        return block
    if not np.array_equal(_is_na(data, label_end + 1, bounds[3]), na):
        return None
    values = np.full(len(na), np.nan)
    try:
        # `where` is unused: a bad value is named by the line walk
        values[~na] = parse_numbers(_split_lines(_gather(
            data, label_end[~na] + 1, bounds[3][~na])), float, str)
    except CorpusFormatError:
        return None
    return None if (values < 0).any() else (*block, values)


def _is_na(data: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Whether each field data[start:end] is the two bytes ``NA``."""
    return ((end - start == 2) & (data[start] == ord("N"))
            & (data.take(start + 1, mode="clip") == ord("A")))


def number_tokens(token_bytes: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct tokens of `token_bytes` (uint8, each token followed by a
    newline), first seen first, the int32 id of each token among them and
    whether each is punctuation.  Tokens are numbered BLOCK_VALUES lines at
    a time, so that no list as long as the file is built."""
    ends = np.flatnonzero(token_bytes == ord("\n")) + 1
    index = defaultdict(count().__next__)  # token -> id, first seen first
    type_ids = np.empty(len(ends), dtype=np.int32)
    for a in range(0, len(ends), BLOCK_VALUES):
        b = min(a + BLOCK_VALUES, len(ends))
        type_ids[a:b] = np.fromiter(
            map(index.__getitem__, _split_lines(
                token_bytes[ends[a - 1] if a else 0:ends[b - 1]])),
            dtype=np.int32, count=b - a)
    return (np.array(list(index), dtype=object), type_ids,
            np.array([is_punctuation(token) for token in index], dtype=bool))


def _split_lines(lines: np.ndarray) -> list[str]:
    """The text of each line of `lines`, uint8 UTF-8 bytes that end with a
    newline (or are empty)."""
    return lines.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]


def parse_dataset(source: bytes | str | Path) -> Columns:
    """The columns of the dataset format: token, label, continuous value.

    Round-trips ``write_dataset`` output up to the 3-decimal precision of the
    continuous column.
    """
    return _read_columns(source, 3)


def parse_predictions(source: bytes | str | Path, where: str = "") -> Columns:
    """The columns of the 2-column token<TAB>label format that ``predict``
    writes; labels follow the dataset's rule.  `where` names the file of
    bytes that are not UTF-8."""
    return _read_columns(source, 2, where)


def format_predictions(predicted: Columns) -> bytes:
    """The 2-column format that ``parse_predictions`` reads: a
    token<TAB>label line per token and a blank line between sentences."""
    na = predicted.labels == NA
    # each token's newline repeated into its tail: a tab, the label text,
    # the newline and, closing a sentence, the blank line
    tails = 3 + na
    tails[predicted.offsets[1:-1] - 1] += 1
    newlines = np.flatnonzero(predicted.token_bytes == ord("\n"))
    repeats = np.ones(len(predicted.token_bytes), dtype=np.intp)
    repeats[newlines] = tails
    out = np.repeat(predicted.token_bytes, repeats)
    at = newlines + np.cumsum(tails - 1) - (tails - 1)  # each tail's start
    out[at] = ord("\t")
    out[at + 1] = np.where(na, ord("N"), ord("0") + predicted.labels)
    out[at[na] + 2] = ord("A")
    return out.tobytes() or b"\n"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def load_embeddings(
    source: bytes | str | Path, dimension: int
) -> EmbeddingTable:
    """Load a ``token v1 .. vD`` text table, whose lines str.split cuts (so
    a line is blank when it holds no field).  The first row of a token
    wins, and the rows of a repeated token are not read.  The first bad
    number in a row that is read is named before a later line with another
    field count, and the rows after that line are not read."""
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    entries: dict[str, np.ndarray] = {}
    width = dimension + 1
    for rows in scan_rows(lf_bytes(source)):
        fields, n = rows.fields(width, None)
        read: dict[str, int] = {}  # each new token -> its row in the block
        for i, token in enumerate(fields[::width]):
            if token not in entries:
                read.setdefault(token, i)
        at = list(read.values())
        if len(at) == n:  # every row is read
            del fields[::width]
        else:
            fields = list(chain.from_iterable(
                fields[i * width + 1:(i + 1) * width] for i in at))
        entries.update(zip(read, parse_numbers(
            fields, float, lambda k: f"line {rows.lines[at[k // dimension]]}"
        ).reshape(-1, dimension)))
        if n < len(rows.lines):  # row n has another field count
            lineno, line = rows.numbered()[n]
            raise CorpusFormatError(f"line {lineno}: expected {dimension} "
                                    f"values, got {len(line.split()) - 1}")
    return EmbeddingTable(dimension, entries)
