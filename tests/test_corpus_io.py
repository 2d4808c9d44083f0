"""File format round-trips and rejection behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab import corpus_io
from prosolab.corpus_io import (
    CorpusFormatError,
    EmbeddingTable,
    ProminenceRecord,
    Token,
    Utterance,
    format_record,
    is_punctuation,
    load_embeddings,
    parse_dataset,
    parse_number,
    parse_lab,
    parse_predictions,
    parse_textgrid,
    read_wav,
    write_dataset,
    _label,
    _record,
)
from prosolab.taggers import serialize
from prosolab.taggers.serialize import _Reader

from conftest import (
    DATASET_CONTINUOUS,
    DATASET_DISCRETE,
    DATASET_SENTENCE,
    DATASET_TOKENS,
    pcm16_wav_bytes,
    sine,
)


def stub_utterance(tokens):
    toks = [Token(t, 0.1 * i, 0.1 * i + 0.05, is_punctuation(t))
            for i, t in enumerate(tokens)]
    return Utterance(id="u", speaker="s", tokens=toks)


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def test_read_wav_roundtrip():
    samples = sine(220.0, 0.05, amp=0.4)
    buf = read_wav(pcm16_wav_bytes(samples))
    assert buf.sample_rate == 16000
    assert buf.duration_s == pytest.approx(0.05)
    # encoder truncation plus the 32767/32768 scale gap: under two steps
    np.testing.assert_allclose(buf.samples, samples, atol=2.0 / 32768)
    assert buf.samples.min() >= -1.0 and buf.samples.max() <= 1.0


def test_read_wav_rejects_stereo():
    samples = np.zeros(200)
    with pytest.raises(CorpusFormatError,
                       match=r"unsupported channel count: 2 \(mono required\)"):
        read_wav(pcm16_wav_bytes(samples, channels=2))


def test_read_wav_rejects_8bit():
    samples = np.zeros(200)
    with pytest.raises(CorpusFormatError,
                       match=r"unsupported sample width: 8 bit \(16-bit required\)"):
        read_wav(pcm16_wav_bytes(samples, width=1))


def test_read_wav_rejects_garbage():
    with pytest.raises(CorpusFormatError, match="malformed or unsupported WAV"):
        read_wav(b"RIFFxxxxWAVEjunkjunkjunk")


def test_read_wav_rejects_empty_payload():
    with pytest.raises(CorpusFormatError, match="empty audio payload"):
        read_wav(pcm16_wav_bytes(np.zeros(0)))


def test_read_wav_from_path(tmp_path):
    p = tmp_path / "a.wav"
    p.write_bytes(pcm16_wav_bytes(sine(100.0, 0.02)))
    assert read_wav(p).sample_rate == 16000
    assert read_wav(str(p)).sample_rate == 16000


# ---------------------------------------------------------------------------
# punctuation predicate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    (",", True), ("?", True), ("...", True), ("--", True), ("'", True),
    ("word", False), ("don't", False), ("a,", False), ("", False),
    ("3", False),
])
def test_is_punctuation(text, expected):
    assert is_punctuation(text) is expected


# ---------------------------------------------------------------------------
# lab alignments
# ---------------------------------------------------------------------------

LAB_OK = "0.00 0.52 tell\n0.52\t0.80\tme\n0.80 0.80 ,\n0.90 1.40 more\n"


def test_parse_lab_basic():
    utt = parse_lab(LAB_OK, utt_id="u1", speaker="spk7")
    assert utt.id == "u1" and utt.speaker == "spk7"
    assert [t.text for t in utt.tokens] == ["tell", "me", ",", "more"]
    assert [t.is_punct for t in utt.tokens] == [False, False, True, False]
    assert utt.tokens[1].start_s == pytest.approx(0.52)
    assert utt.tokens[3].end_s == pytest.approx(1.40)
    assert utt.word_indices() == [0, 1, 3]


def test_parse_lab_from_path(tmp_path):
    p = tmp_path / "u.lab"
    p.write_text(LAB_OK)
    assert len(parse_lab(p).tokens) == 4
    assert len(parse_lab("0.00 0.52 tell").tokens) == 1


@pytest.mark.parametrize("content,pattern", [
    ("0.0 0.5\n", "line 1: expected 'start end token'"),
    # these ids describe the case; the message quotes the bad text
    pytest.param("0.0 x word\n", "line 1: not a number: 'x'",
                 id="0.0 x word\n-line 1: non-numeric time"),
    pytest.param("0.0 0.5 a\n0.6 nan w\n", "line 2: not a finite number: 'nan'",
                 id="0.0 0.5 a\n0.6 nan w\n-line 2: non-finite time"),
    pytest.param("inf inf w\n", "line 1: not a finite number: 'inf'",
                 id="inf inf w\n-line 1: non-finite time"),
    ("-0.1 0.5 word\n", "line 1: negative start time"),
    ("0.5 0.2 word\n", "line 1: end before start"),
    ("0.5 0.5 word\n", "zero-length span for non-punctuation token 'word'"),
    ("0.0 0.6 a\n0.4 0.9 b\n", "overlaps previous token"),
    ("0.0 0.0 ,\n0.1 0.1 ?\n", "no non-punctuation tokens"),
    ("\n\n", "no alignment lines"),
])
def test_parse_lab_rejects(content, pattern):
    with pytest.raises(CorpusFormatError, match=pattern):
        parse_lab(content)


def test_parse_lab_token_with_spaces_kept_whole():
    # only the first two fields split; the rest is the token verbatim
    utt = parse_lab("0.0 0.5 new york\n")
    assert utt.tokens[0].text == "new york"


TEXTGRID = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 2.0
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 2.0
        intervals: size = 5
        intervals [1]:
            xmin = 0
            xmax = 0.4
            text = ""
        intervals [2]:
            xmin = 0.4
            xmax = 1.1
            text = "hello"
        intervals [3]:
            xmin = 1.1
            xmax = 1.8
            text = "world"
        intervals [4]:
            xmin = 1.8
            xmax = 1.8
            text = "!"
        intervals [5]:
            xmin = 1.8
            xmax = 2.0
            text = ""
    item [2]:
        class = "TextTier"
        name = "events"
        xmin = 0
        xmax = 2.0
        points: size = 0
"""


def test_parse_textgrid_basic():
    utt = parse_textgrid(TEXTGRID, "words", utt_id="tg1")
    assert utt.id == "tg1"
    assert [t.text for t in utt.tokens] == ["hello", "world", "!"]
    assert utt.tokens[0].start_s == pytest.approx(0.4)
    assert utt.tokens[1].end_s == pytest.approx(1.8)
    assert utt.tokens[2].is_punct is True


def test_parse_textgrid_missing_tier_lists_available():
    with pytest.raises(
        CorpusFormatError,
        match="no IntervalTier named 'phones'; available tiers: words",
    ):
        parse_textgrid(TEXTGRID, "phones")


def test_parse_textgrid_ignores_point_tiers():
    # the TextTier is not offered even when asked for by name
    with pytest.raises(CorpusFormatError, match="no IntervalTier named 'events'"):
        parse_textgrid(TEXTGRID, "events")


def test_parse_textgrid_unescapes_quotes():
    grid = TEXTGRID.replace('text = "hello"', 'text = "say ""hi"""')
    utt = parse_textgrid(grid, "words")
    assert utt.tokens[0].text == 'say "hi"'


def test_parse_textgrid_rejects_zero_length_word():
    grid = TEXTGRID.replace('text = "!"', 'text = "oops"')
    with pytest.raises(CorpusFormatError,
                       match="zero-length span for non-punctuation 'oops'"):
        parse_textgrid(grid, "words")


def test_parse_textgrid_all_empty_tier():
    grid = TEXTGRID.replace('text = "hello"', 'text = ""')
    grid = grid.replace('text = "world"', 'text = ""')
    grid = grid.replace('text = "!"', 'text = ""')
    with pytest.raises(CorpusFormatError,
                       match="tier 'words' has no non-empty intervals"):
        parse_textgrid(grid, "words")


# ---------------------------------------------------------------------------
# prominence dataset
# ---------------------------------------------------------------------------

def dataset_records():
    return [ProminenceRecord(t, d, c) for t, d, c in
            zip(DATASET_TOKENS, DATASET_DISCRETE, DATASET_CONTINUOUS)]


def test_write_dataset_exact_bytes():
    utt = stub_utterance(DATASET_TOKENS)
    assert write_dataset([(utt, dataset_records())]) == DATASET_SENTENCE.encode()


def test_dataset_roundtrip():
    utt = stub_utterance(DATASET_TOKENS)
    data = parse_dataset(write_dataset([(utt, dataset_records())]))
    assert data.lengths == [len(DATASET_TOKENS)]
    assert data.tokens == DATASET_TOKENS
    assert data.labels == DATASET_DISCRETE
    assert len(data.continuous) == len(DATASET_CONTINUOUS)
    for got, want in zip(data.continuous.tolist(), DATASET_CONTINUOUS):
        if want is None:
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=5e-4)


def test_write_dataset_blank_line_between_utterances():
    utt = stub_utterance(["a", "b"])
    recs = [ProminenceRecord("a", 0, 0.1), ProminenceRecord("b", 1, 0.6)]
    blob = write_dataset([(utt, recs), (utt, recs)])
    assert blob == b"a\t0\t0.100\nb\t1\t0.600\n\na\t0\t0.100\nb\t1\t0.600\n"
    assert parse_dataset(blob).lengths == [2, 2]


def test_write_dataset_empty():
    assert write_dataset([]) == b""
    data = parse_dataset(b"")
    assert (data.tokens, data.labels, data.lengths) == ([], [], [])
    assert data.continuous.shape == (0,)


def test_write_dataset_count_mismatch():
    utt = stub_utterance(["a", "b"])
    with pytest.raises(CorpusFormatError, match="1 records for 2 tokens"):
        write_dataset([(utt, [ProminenceRecord("a", 0, 0.1)])])


def test_format_record_na_coupling():
    assert format_record(ProminenceRecord(",", None, None)) == ",\tNA\tNA"
    with pytest.raises(CorpusFormatError, match="NA together"):
        format_record(ProminenceRecord("x", None, 0.5))
    with pytest.raises(CorpusFormatError, match="NA together"):
        format_record(ProminenceRecord("x", 1, None))


@pytest.mark.parametrize("content,pattern", [
    (b"tok\t1\n", "expected 3 tab-separated columns, got 2"),
    (b"tok\tNA\t0.5\n", "NA together"),
    (b"tok\t2\tNA\n", "NA together"),
    (b"tok\t3\t0.5\n", "label out of range: '3'"),
    (b"tok\t-1\t0.5\n", "label out of range: '-1'"),
    (b"tok\t1\t-0.5\n", "negative continuous value"),
    pytest.param(b"tok\t1\tabc\n",
                 "line 1: continuous value: not a number: 'abc'",
                 id="tok\t1\tabc\n-bad continuous value 'abc'"),
])
def test_parse_dataset_rejects(content, pattern):
    with pytest.raises(CorpusFormatError, match=pattern):
        parse_dataset(content)


def test_one_line_str_is_content_not_a_path():
    data = parse_dataset("Tell\t2\t1.473")
    assert (data.tokens, data.labels, data.lengths) == (["Tell"], [2], [1])
    assert "cat" in load_embeddings("cat 1.0 2.0", dimension=2).entries


def test_parse_dataset_crlf_and_trailing_blank():
    blob = b"a\t0\t0.100\r\nb\t1\t0.600\r\n\r\n"
    assert parse_dataset(blob).lengths == [2]


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_load_embeddings_basic():
    table = load_embeddings(b"cat 1.0 2.0\ndog -0.5 0.25\n", dimension=2)
    assert table.dimension == 2
    np.testing.assert_array_equal(table.lookup("cat"), [1.0, 2.0])
    np.testing.assert_array_equal(table.lookup("dog"), [-0.5, 0.25])
    np.testing.assert_array_equal(table.lookup("bird"), [0.0, 0.0])
    # a token absent in its own case falls back to its lowercase form
    np.testing.assert_array_equal(table.lookup("Cat"), [1.0, 2.0])


def test_load_embeddings_duplicate_keeps_first():
    table = load_embeddings(b"cat 1.0 2.0\ncat 9.0 9.0\n", dimension=2)
    np.testing.assert_array_equal(table.lookup("cat"), [1.0, 2.0])
    # a repeated token's row is not read, so its values may be anything
    table = load_embeddings(b"cat 1.0 2.0\ncat 9.0 nine\n", dimension=2)
    np.testing.assert_array_equal(table.lookup("cat"), [1.0, 2.0])


@pytest.mark.parametrize("content,message", [
    (b"cat 1.0 two\ndog 1.0\n", "line 1: not a number: 'two'"),
    (b"cat 1.0 2.0\ndog 1.0\nemu 1.0 two\n",
     "line 2: expected 2 values, got 1"),
    (b"cat 1.0 2.0\n\ndog inf 0\n", "line 3: not a finite number: 'inf'"),
])
def test_load_embeddings_names_the_first_bad_line(content, message):
    with pytest.raises(CorpusFormatError, match=f"^{message}$"):
        load_embeddings(content, dimension=2)


def test_load_embeddings_reads_a_table_of_several_blocks():
    n = corpus_io.EMBEDDING_BLOCK_VALUES  # n rows of 2 values: two blocks
    lines = [f"w{i} {i} {i}.5" for i in range(n)]
    table = load_embeddings("\n".join(lines), dimension=2)
    assert len(table.entries) == n
    np.testing.assert_array_equal(table.lookup(f"w{n - 1}"),
                                  [n - 1, n - 0.5])
    lines[n - 3] = f"w{n - 3} 1 bad"
    with pytest.raises(CorpusFormatError,
                       match=f"^line {n - 2}: not a number: 'bad'$"):
        load_embeddings("\n".join(lines), dimension=2)


def test_load_embeddings_dimension_mismatch():
    with pytest.raises(CorpusFormatError, match="line 2: expected 3 values, got 2"):
        load_embeddings(b"cat 1 2 3\ndog 1 2\n", dimension=3)


def test_load_embeddings_non_numeric():
    with pytest.raises(CorpusFormatError, match="line 1: not a number: 'two'"):
        load_embeddings(b"cat 1.0 two\n", dimension=2)


def test_load_embeddings_bad_dimension():
    with pytest.raises(ValueError, match="dimension must be positive"):
        load_embeddings(b"", dimension=0)


def test_embedding_table_lookup_does_not_mutate():
    table = EmbeddingTable(dimension=3)
    vec = table.lookup("anything")
    vec[:] = 7.0
    np.testing.assert_array_equal(table.lookup("anything"), np.zeros(3))


# ---------------------------------------------------------------------------
# property: random datasets survive a write/parse cycle
# ---------------------------------------------------------------------------

word_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=8,
)
record_st = st.one_of(
    st.builds(
        ProminenceRecord,
        token=word_st,
        discrete=st.integers(min_value=0, max_value=2),
        continuous=st.floats(min_value=0.0, max_value=50.0,
                             allow_nan=False, allow_infinity=False),
    ),
    st.builds(ProminenceRecord, token=st.just(","),
              discrete=st.none(), continuous=st.none()),
)
sentence_st = st.lists(record_st, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(sentence_st, min_size=0, max_size=4))
def test_dataset_roundtrip_property(sentences):
    annotated = [(stub_utterance([r.token for r in recs]), recs)
                 for recs in sentences]
    data = parse_dataset(write_dataset(annotated))
    assert data.lengths == [len(recs) for recs in sentences]
    want = [rec for recs in sentences for rec in recs]
    assert data.tokens == [r.token for r in want]
    assert data.labels == [r.discrete for r in want]
    assert len(data.continuous) == len(want)
    for got, w in zip(data.continuous.tolist(), want):
        if w.continuous is None:
            assert math.isnan(got)
        else:
            assert got == pytest.approx(w.continuous, abs=5e-4)


# ---------------------------------------------------------------------------
# property: the text readers give valid values or a CorpusFormatError
# ---------------------------------------------------------------------------

# blank lines and lines of 2 or 3 tab-separated short fields, so that many
# lines have the column count a reader wants and the fields decide; half the
# fields are whole labels or non-finite spellings
field_st = st.one_of(
    st.sampled_from(["NA", "0", "1", "2", "nan", "inf", "-inf"]),
    st.lists(st.sampled_from([*"0123456789", "NA", "nan", "inf", "-", ".",
                              "a", "e", "x", "Q"]), max_size=3).map("".join))
line_st = st.one_of(st.just(""), st.lists(field_st, min_size=2, max_size=3)
                    .map("\t".join))
reader_text_st = st.lists(line_st, max_size=5).map("\n".join)


def _finite(value) -> bool:
    return isinstance(value, float) and np.isfinite(value)


@settings(max_examples=300, deadline=None)
@given(reader_text_st)
def test_text_readers_give_valid_values_or_a_format_error(text):
    labels = {None, 0, 1, 2}
    try:
        data = parse_dataset(text)
        assert (len(data.tokens) == len(data.labels) == len(data.continuous)
                == sum(data.lengths))
        for label, cont in zip(data.labels, data.continuous.tolist()):
            assert label in labels
            assert (math.isnan(cont) if label is None
                    else _finite(cont) and cont >= 0)
    except CorpusFormatError:
        pass
    try:
        data = parse_predictions(text)
        assert len(data.tokens) == len(data.labels) == sum(data.lengths)
        assert set(data.labels) <= labels and data.continuous is None
    except CorpusFormatError:
        pass
    try:
        table = load_embeddings(text, dimension=2)
        for vec in table.entries.values():
            assert vec.shape == (2,) and np.isfinite(vec).all()
    except CorpusFormatError:
        pass


def _read_line_by_line(text: str, n_cols: int):
    """(tokens, labels, continuous, lengths) as the per-line rule reads
    `text`, continuous None for 2 columns and at NA; or the message of the
    first line it rejects."""
    tokens, labels, continuous, lengths, n = [], [], [], [], 0
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            if n:
                lengths.append(n)
            n = 0
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            return (f"line {lineno}: expected {n_cols} tab-separated "
                    f"columns, got {len(cols)}")
        try:
            if n_cols == 3:
                rec = _record(cols)
                row = (rec.token, rec.discrete, rec.continuous)
            else:
                row = (cols[0], _label(cols[1]), None)
        except CorpusFormatError as exc:
            return f"line {lineno}: {exc}"
        for column, value in zip((tokens, labels, continuous), row):
            column.append(value)
        n += 1
    if n:
        lengths.append(n)
    return tokens, labels, continuous, lengths


# lines a reader must also take: valid dataset and predictions lines,
# whitespace-only lines, and column counts that offset each other over two
# lines ("a\tb" then "c\td\te\tf" has 3 fields per line on average)
odd_line_st = st.one_of(
    st.sampled_from([" ", "\t", " \t ", "\x0b", "\u3000", "a\tb",
                     "c\td\te\tf", "a\t1\t0.5\textra", ",\tNA\tNA", ",\tNA",
                     "w\t1\t-0.0", "w\t2\t1e400", "w\t0\t1_0"]),
    st.tuples(word_st, st.sampled_from(["0", "1", "2"]),
              st.floats(0, 50).map("{:.3f}".format)).map("\t".join),
    st.tuples(word_st, st.sampled_from(["NA", "0", "1", "2"]))
    .map("\t".join))
column_text_st = st.tuples(
    st.sampled_from(["", "\n", "\n \n"]),
    st.lists(st.one_of(line_st, odd_line_st), max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n", "\n\n", " \n"]),
).map(lambda p: p[0] + p[2].join(p[1]) + p[3])


@settings(max_examples=500, deadline=None)
@given(st.one_of(reader_text_st, column_text_st), st.sampled_from([2, 3]))
def test_columns_read_what_the_line_rule_reads(text, n_cols):
    want = _read_line_by_line(text, n_cols)
    read = parse_dataset if n_cols == 3 else parse_predictions
    try:
        data = read(text)
    except CorpusFormatError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    tokens, labels, continuous, lengths = want
    assert (data.tokens, data.labels, data.lengths) == (tokens, labels,
                                                        lengths)
    if n_cols == 2:
        assert data.continuous is None
    else:
        assert [v.hex() for v in data.continuous.tolist()] == [
            float("nan" if v is None else v).hex() for v in continuous]


def _embeddings_line_by_line(text: str, dimension: int):
    """token -> values as a per-line reader takes them, first row of a
    token wins and a repeated token's row is not read; or the message of
    the first line it rejects."""
    entries = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != dimension + 1:
            return (f"line {lineno}: expected {dimension} values, got "
                    f"{len(parts) - 1}")
        if parts[0] not in entries:
            try:
                entries[parts[0]] = [parse_number(p, float, f"line {lineno}")
                                     for p in parts[1:]]
            except CorpusFormatError as exc:
                return str(exc)
    return entries


embedding_line_st = st.one_of(
    st.just(""),
    st.lists(st.sampled_from(["cat", "dog", "1.5", "-2", "x", "nan", "1e400",
                              "1_0", "\u0663"]), min_size=1, max_size=4)
    .map(" ".join))


@settings(max_examples=300, deadline=None)
@given(st.lists(embedding_line_st, max_size=6).map("\n".join),
       st.sampled_from([1, 2, 5, corpus_io.EMBEDDING_BLOCK_VALUES]))
def test_embeddings_read_in_bulk_what_the_line_rule_reads(text, block):
    want = _embeddings_line_by_line(text, 2)
    saved, corpus_io.EMBEDDING_BLOCK_VALUES = (
        corpus_io.EMBEDDING_BLOCK_VALUES, block)
    try:
        table = load_embeddings(text, dimension=2)
    except CorpusFormatError as exc:
        assert str(exc) == want
        return
    finally:
        corpus_io.EMBEDDING_BLOCK_VALUES = saved
    assert not isinstance(want, str), want
    assert list(table.entries) == list(want)
    for token, values in want.items():
        assert [v.hex() for v in table.entries[token].tolist()] == [
            v.hex() for v in values]


# number fields of a model file: digits in three scripts, signs, points,
# exponents, underscores, spelled infinities and NaNs, surrounding whitespace,
# integers past int64, and arbitrary text that keeps the row's tab layout
number_text_st = st.one_of(
    st.text(alphabet="0123456789+-._eE infatyINFATY\u0663\uff13\x0b\x1c\r",
            max_size=8),
    st.integers(min_value=-2**70, max_value=2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["infinity", " nan ", "1_000", "-Infinity", "\u0663.5",
                     "1e400", f" {2**63} ", str(-2**63)]),
    st.text(max_size=6).filter(lambda t: "\t" not in t and "\n" not in t))


def _parsed_one_by_one(texts, kind, width):
    """(values, None) as parse_number reads `texts`, integers held to int64,
    or (None, the message for the first text it rejects)."""
    values = []
    for k, text in enumerate(texts):
        where = f"crf model, trans row {k // width}"
        try:
            value = parse_number(text, kind, where)
        except CorpusFormatError as exc:
            return None, str(exc)
        if kind is int and not -2**63 <= value < 2**63:
            return None, f"{where}: integer out of range: {text!r}"
        values.append(value)
    return values, None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([int, float]), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([1, 2, 5, serialize.TABLE_BLOCK_VALUES]), st.data())
def test_model_sections_read_in_bulk_what_parse_number_reads(kind, count,
                                                             width, block,
                                                             data):
    texts = data.draw(st.lists(number_text_st, min_size=count * width,
                               max_size=count * width))
    lines = ["trans\t" + "\t".join(texts[i * width:(i + 1) * width])
             for i in range(count)]
    reader = _Reader("\n".join(lines).encode(), "")
    reader.section = "crf"
    want, error = _parsed_one_by_one(texts, kind, width)
    saved, serialize.TABLE_BLOCK_VALUES = serialize.TABLE_BLOCK_VALUES, block
    try:
        _, values = reader.table("trans", count, width, kind)
    except CorpusFormatError as exc:
        assert str(exc) == error
        return
    finally:
        serialize.TABLE_BLOCK_VALUES = saved
    assert error is None and values.shape == (count, width)
    got = values.ravel().tolist()
    if kind is float:
        assert [v.hex() for v in got] == [v.hex() for v in want]
    else:
        assert got == want
