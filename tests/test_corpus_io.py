"""File format round-trips and rejection behavior."""

import io
import math
import re
import sys
import unicodedata
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab import corpus_io
from prosolab.corpus_io import (
    NA,
    CorpusFormatError,
    Token,
    Utterance,
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
from prosolab.taggers.serialize import _Reader

from conftest import (
    DATASET_CONTINUOUS,
    DATASET_DISCRETE,
    DATASET_SENTENCE,
    DATASET_TOKENS,
    codes,
    embedding_table,
    labels_of,
    pcm16_wav_bytes,
    sine,
    tokens_of,
)


def stub_utterance(tokens):
    toks = [Token(t, 0.1 * i, 0.1 * i + 0.05, is_punctuation(t))
            for i, t in enumerate(tokens)]
    return Utterance(id="u", tokens=toks)


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


GOOD_WAV = pcm16_wav_bytes(sine(100.0, 0.02))
IN_HEADER = "truncated WAV: the file ends inside its header (file length {})"
IN_SAMPLE = ("truncated WAV: the data ends inside a 16-bit sample "
             "(data length {})")
SHORT = "truncated WAV: the header declares {} frames, the data holds {}"
# the RIFF chunk says it ends 10 samples into the data chunk
RIFF_ENDS_EARLY = GOOD_WAV[:4] + (36 + 20).to_bytes(4, "little") + GOOD_WAV[8:]


@pytest.mark.parametrize("raw, message", [
    (b"", IN_HEADER.format(0)),
    (b"RIFF", IN_HEADER.format(4)),
    (GOOD_WAV[:20], IN_HEADER.format(20)),
    (GOOD_WAV[:30], IN_HEADER.format(30)),
    # the 44-byte header, then one byte of the first sample
    (GOOD_WAV[:45], IN_SAMPLE.format(1)),
    (GOOD_WAV[:-1], IN_SAMPLE.format(639)),
    # 684 bytes, 320 frames declared: the header and one whole sample
    (GOOD_WAV[:46], SHORT.format(320, 1)),
    (RIFF_ENDS_EARLY, SHORT.format(320, 10)),
], ids=["empty", "RIFF", "20-bytes", "30-bytes", "one-data-byte",
        "last-byte-cut", "one-data-sample", "riff-ends-early"])
def test_read_wav_names_a_truncated_file(raw, message):
    with pytest.raises(CorpusFormatError) as err:
        read_wav(raw)
    assert str(err.value) == message


def test_read_wav_reads_a_streamed_file_to_its_end():
    # ffmpeg writing to a pipe leaves 0xFFFFFFFF as the RIFF and data sizes
    raw = bytearray(GOOD_WAV)
    raw[4:8] = raw[40:44] = (0xFFFFFFFF).to_bytes(4, "little")
    buf = read_wav(bytes(raw))
    np.testing.assert_array_equal(buf.samples, read_wav(GOOD_WAV).samples)
    # still a whole number of samples, or the file was cut
    with pytest.raises(CorpusFormatError, match="ends inside a 16-bit sample"):
        read_wav(bytes(raw[:-1]))


def test_read_wav_skips_a_chunk_before_the_data():
    data = GOOD_WAV.index(b"data")
    extra = b"LIST" + (6).to_bytes(4, "little") + b"prosol"
    raw = bytearray(GOOD_WAV[:data] + extra + GOOD_WAV[data:])
    raw[4:8] = (len(raw) - 8).to_bytes(4, "little")
    np.testing.assert_array_equal(read_wav(bytes(raw)).samples,
                                  read_wav(GOOD_WAV).samples)


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


def _all_punctuation_categories(text: str) -> bool:
    """The definition: text is not empty and each character is in a Unicode
    punctuation (P*) category."""
    return bool(text) and all(unicodedata.category(ch).startswith("P")
                              for ch in text)


def test_is_punctuation_on_every_code_point():
    # no alphanumeric character is punctuation, so is_punctuation may
    # answer a word from str.isalnum without reading categories
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        punct = unicodedata.category(ch).startswith("P")
        assert not (punct and ch.isalnum()), hex(code)
        assert is_punctuation(ch) is punct, hex(code)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(
    st.sampled_from(",.?!'\"-\u2014\u00bf\u3001a1\u00e9\u0663 "),
    st.characters()), max_size=6))
def test_is_punctuation_equals_the_category_definition(text):
    assert is_punctuation(text) is _all_punctuation_categories(text)


# ---------------------------------------------------------------------------
# lab alignments
# ---------------------------------------------------------------------------

LAB_OK = "0.00 0.52 tell\n0.52\t0.80\tme\n0.80 0.80 ,\n0.90 1.40 more\n"


def test_parse_lab_basic():
    utt = parse_lab(LAB_OK, utt_id="u1")
    assert utt.id == "u1"
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


def interval_tiers(*tiers: tuple[str, str]) -> str:
    """A TextGrid of one-interval IntervalTiers, each (name, mark)."""
    return 'File type = "ooTextFile"\nObject class = "TextGrid"\n' + "".join(
        f'item [{k}]:\nclass = "IntervalTier"\nname = "{name}"\n'
        f'intervals [1]:\nxmin = 0\nxmax = 1\ntext = "{mark}"\n'
        for k, (name, mark) in enumerate(tiers, start=1))


def test_parse_textgrid_repeated_tier_fails_by_name():
    grid = interval_tiers(("words", "first"), ("phones", "f"),
                          ("words", "second"), ("phones", "s"))
    with pytest.raises(CorpusFormatError,
                       match="^2 IntervalTiers named 'words'; expected one$"):
        parse_textgrid(grid, "words")
    # a repeated tier that is not asked for is ignored
    grid = interval_tiers(("phones", "f"), ("words", "first"), ("phones", "s"))
    assert [t.text for t in parse_textgrid(grid, "words").tokens] == ["first"]


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


def test_parse_textgrid_rejects_a_negative_start_as_parse_lab_does():
    grid = TEXTGRID.replace("xmin = 0.4\n", "xmin = -1\n")
    with pytest.raises(CorpusFormatError) as err:
        parse_textgrid(grid, "words")
    assert str(err.value) == ("interval block at tier 'words': negative start "
                              "time")
    with pytest.raises(CorpusFormatError, match="line 1: negative start time"):
        parse_lab("-1 1.1 hello\n")


def test_parse_textgrid_rejects_a_block_cut_after_xmax():
    # the file ends at the interval's xmax line, with no newline after it
    grid = ('item [1]:\nclass = "IntervalTier"\nname = "words"\n'
            'intervals [1]:\nxmin = 0\nxmax = 1')
    with pytest.raises(CorpusFormatError, match="truncated interval block"):
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

def annotated(tokens, labels, values):
    """(utterance, label codes, values) of labels with None at NA and
    values with None at NA, as write_dataset takes them."""
    return (stub_utterance(tokens), codes(labels),
            np.array(values, dtype=np.float64))


def test_write_dataset_exact_bytes():
    sentence = annotated(DATASET_TOKENS, DATASET_DISCRETE, DATASET_CONTINUOUS)
    assert write_dataset([sentence]) == DATASET_SENTENCE.encode()


def test_dataset_roundtrip():
    data = parse_dataset(write_dataset([annotated(
        DATASET_TOKENS, DATASET_DISCRETE, DATASET_CONTINUOUS)]))
    assert data.lengths.tolist() == [len(DATASET_TOKENS)]
    assert tokens_of(data) == DATASET_TOKENS
    assert data.labels.dtype == np.int8
    assert labels_of(data.labels) == DATASET_DISCRETE
    assert len(data.continuous) == len(DATASET_CONTINUOUS)
    for got, want in zip(data.continuous.tolist(), DATASET_CONTINUOUS):
        if want is None:
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=5e-4)


def test_write_dataset_blank_line_between_utterances():
    sentence = annotated(["a", "b"], [0, 1], [0.1, 0.6])
    blob = write_dataset([sentence, sentence])
    assert blob == b"a\t0\t0.100\nb\t1\t0.600\n\na\t0\t0.100\nb\t1\t0.600\n"
    assert parse_dataset(blob).lengths.tolist() == [2, 2]


def test_write_dataset_empty():
    assert write_dataset([]) == b""
    data = parse_dataset(b"")
    assert (tokens_of(data), labels_of(data.labels),
            data.lengths.tolist()) == ([], [], [])
    assert data.continuous.shape == (0,)


def test_write_dataset_count_mismatch():
    for labels, values in [([0], [0.1, 0.6]), ([0, 1], [0.1]), ([0], [0.1])]:
        with pytest.raises(CorpusFormatError,
                           match="utterance 'u': 1 records for 2 tokens"):
            write_dataset([annotated(["a", "b"], labels, values)])


def test_write_dataset_na_coupling():
    assert write_dataset([annotated([","], [None], [None])]) == b",\tNA\tNA\n"
    with pytest.raises(CorpusFormatError,
                       match="record 'x': discrete and continuous must be NA "
                             "together"):
        write_dataset([annotated(["w", "x"], [0, None], [0.1, 0.5])])
    with pytest.raises(CorpusFormatError, match="record 'x': .* NA together"):
        write_dataset([annotated(["x"], [1], [None])])


@pytest.mark.parametrize("content,pattern", [
    (b"tok\t1\n", "expected 3 tab-separated columns, got 2"),
    (b"tok\tNA\t0.5\n", "NA together"),
    (b"tok\t2\tNA\n", "NA together"),
    (b"tok\t3\t0.5\n", "label out of range: '3'"),
    (b"tok\t-1\t0.5\n", "label out of range: '-1'"),
    *[(f"tok\t{label}\t0.5\n".encode(), re.escape(
        f"line 1: not a label: {label!r} (labels are 0, 1, 2 or NA)") + "$")
      for label in ["01", "+1", "-0", " 1", "1 ", "+2", "00"]],
    (b"tok\tNb\tNA\n", "label is neither NA nor an integer: 'Nb'"),
    (b"tok\tNA\tNb\n", "NA together"),
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
    assert (tokens_of(data), labels_of(data.labels),
            data.lengths.tolist()) == (["Tell"], [2], [1])
    assert "cat" in load_embeddings("cat 1.0 2.0", dimension=2).index


def test_parse_dataset_crlf_and_trailing_blank():
    blob = b"a\t0\t0.100\r\nb\t1\t0.600\r\n\r\n"
    assert parse_dataset(blob).lengths.tolist() == [2]


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_load_embeddings_basic():
    table = load_embeddings(b"cat 1.0 2.0\ndog -0.5 0.25\n", dimension=2)
    assert table.vectors.shape[1] == 2
    np.testing.assert_array_equal(table.lookup(["cat"]), [[1.0, 2.0]])
    np.testing.assert_array_equal(table.lookup(["dog"]), [[-0.5, 0.25]])
    np.testing.assert_array_equal(table.lookup(["bird"]), [[0.0, 0.0]])
    # a token absent in its own case falls back to its lowercase form
    np.testing.assert_array_equal(table.lookup(["Cat"]), [[1.0, 2.0]])


def test_load_embeddings_duplicate_keeps_first():
    table = load_embeddings(b"cat 1.0 2.0\ncat 9.0 9.0\n", dimension=2)
    np.testing.assert_array_equal(table.lookup(["cat"]), [[1.0, 2.0]])
    # a repeated token's row is not read, so its values may be anything
    table = load_embeddings(b"cat 1.0 2.0\ncat 9.0 nine\n", dimension=2)
    np.testing.assert_array_equal(table.lookup(["cat"]), [[1.0, 2.0]])


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
    n = corpus_io.BLOCK_VALUES  # n rows of 2 values: two blocks
    lines = [f"w{i} {i} {i}.5" for i in range(n)]
    table = load_embeddings("\n".join(lines), dimension=2)
    assert len(table.index) == n
    np.testing.assert_array_equal(table.lookup([f"w{n - 1}"]),
                                  [[n - 1, n - 0.5]])
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
    table = embedding_table(3)
    vec = table.lookup(["anything"])
    vec[:] = 7.0
    np.testing.assert_array_equal(table.lookup(["anything"]), [np.zeros(3)])


def _lookup_one(entries: dict, dimension: int, token: str) -> np.ndarray:
    """The per-token rule, the oracle of EmbeddingTable.lookup: the token's
    own vector, else its lowercase form's, else zeros."""
    vec = entries.get(token)
    if vec is None:
        vec = entries.get(token.lower())
    return np.zeros(dimension) if vec is None else vec


# case variants whose lowercase forms are, or are not, table tokens
# (U+0130 lowercases to two characters, U+01C5 is titlecase)
case_token_st = st.sampled_from(["cat", "Cat", "CAT", "dog", "DOG", "\u0130",
                                 "i\u0307", "\u01c4", "\u01c5", "\u01c6",
                                 "Stra\xdfe", "STRASSE", "", "x"])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d),
    st.dictionaries(case_token_st, st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=d, max_size=d)),
    st.lists(case_token_st | st.text(max_size=3), max_size=8))))
def test_embedding_lookup_is_the_per_token_rule(case):
    dimension, entries, tokens = case
    entries = {token: np.array(vec) for token, vec in entries.items()}
    table = embedding_table(dimension, entries)
    got = table.lookup(tokens)
    assert got.shape == (len(tokens), dimension)
    np.testing.assert_array_equal(got, np.array(
        [_lookup_one(entries, dimension, t) for t in tokens]).reshape(
            len(tokens), dimension))
    got[:] = 7.0  # a new array: the table is unchanged
    np.testing.assert_array_equal(table.vectors, np.array(
        list(entries.values())).reshape(-1, dimension))


# ---------------------------------------------------------------------------
# property: random datasets survive a write/parse cycle
# ---------------------------------------------------------------------------

word_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=8,
)
# (token, label, value) rows, None for both at punctuation
row_st = st.one_of(
    st.tuples(word_st, st.integers(min_value=0, max_value=2),
              st.floats(min_value=0.0, max_value=50.0,
                        allow_nan=False, allow_infinity=False)),
    st.just((",", None, None)),
)
sentence_st = st.lists(row_st, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(sentence_st, min_size=0, max_size=4))
def test_dataset_roundtrip_property(sentences):
    data = parse_dataset(write_dataset(
        annotated(*zip(*rows)) for rows in sentences))
    assert data.lengths.tolist() == [len(rows) for rows in sentences]
    want = [row for rows in sentences for row in rows]
    assert tokens_of(data) == [token for token, _, _ in want]
    assert data.type_na.tolist() == [is_punctuation(t) for t in data.types]
    assert data.labels.dtype == np.int8
    assert labels_of(data.labels) == [label for _, label, _ in want]
    assert len(data.continuous) == len(want)
    for got, (_, _, value) in zip(data.continuous.tolist(), want):
        if value is None:
            assert math.isnan(got)
        else:
            assert got == pytest.approx(value, abs=5e-4)


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
        assert (len(data.type_ids) == len(data.labels)
                == len(data.continuous) == sum(data.lengths))
        assert data.labels.dtype == np.int8
        for label, cont in zip(labels_of(data.labels),
                               data.continuous.tolist()):
            assert label in labels
            assert (math.isnan(cont) if label is None
                    else _finite(cont) and cont >= 0)
    except CorpusFormatError:
        pass
    try:
        data = parse_predictions(text)
        assert len(data.type_ids) == len(data.labels) == sum(data.lengths)
        assert data.labels.dtype == np.int8
        assert set(labels_of(data.labels)) <= labels
        assert data.continuous is None
    except CorpusFormatError:
        pass
    try:
        table = load_embeddings(text, dimension=2)
        assert table.vectors.shape == (len(table.index), 2)
        assert np.isfinite(table.vectors).all()
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
                row = _record(cols)
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
# column counts that offset each other over two lines ("a\tb" then
# "c\td\te\tf" has 3 fields per line on average), and what a byte-level
# reading of the layout could get wrong: whitespace-only lines, lines that
# start with whitespace or a multi-byte character, multi-byte tokens and
# labels that spell an integer label another way
odd_line_st = st.one_of(
    st.sampled_from([" ", "\t", " \t ", "\x0b", "\u3000", "a\tb",
                     "c\td\te\tf", "a\t1\t0.5\textra", ",\tNA\tNA", ",\tNA",
                     "w\t1\t-0.0", "w\t2\t1e400", "w\t0\t1_0", "\t\t",
                     " \t \t ", "\u3000w\t1\t0.5", "\xa0w\t0\t0.1", "\x1c",
                     "\x85", "\x85\t1", "\x1cw\tNA\tNA", "\tNA", "\t2\t0.5",
                     "w\tNb\tNA", ",\tNA\tNb", "w\tNb", "\ud800w\t1\t0.5",
                     "w\ud800\t0"]),
    st.tuples(st.one_of(word_st, st.sampled_from(["é", "—", "“", "中",
                                                  "中文", "“é”"])),
              st.sampled_from(["0", "1", "2", "01", "+1", "-0", " 1", "1 ",
                               "Nb"]),
              st.floats(0, 50).map("{:.3f}".format)).map("\t".join),
    st.tuples(word_st, st.sampled_from(["NA", "0", "1", "2", "01", "+1",
                                        "-0", " 1", "1 ", "é", "N", "Nb",
                                        "NAN"]))
    .map("\t".join))
column_text_st = st.tuples(
    st.sampled_from(["", "\n", "\n \n"]),
    st.lists(st.one_of(line_st, odd_line_st), max_size=8),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n", "\n\n", " \n"]),
).map(lambda p: p[0] + p[2].join(p[1]) + p[3])


@settings(max_examples=500, deadline=None)
@given(st.one_of(reader_text_st, column_text_st), st.sampled_from([2, 3]),
       st.sampled_from([1, 2, 7, corpus_io.BLOCK_VALUES]))
def test_columns_read_what_the_line_rule_reads(text, n_cols, block):
    want = _read_line_by_line(text, n_cols)
    read = parse_dataset if n_cols == 3 else parse_predictions
    saved, corpus_io.BLOCK_VALUES = corpus_io.BLOCK_VALUES, block
    try:
        data = read(text)
        data.type_ids  # numbered on first use, also a block at a time
    except CorpusFormatError as exc:
        assert str(exc) == want
        return
    finally:
        corpus_io.BLOCK_VALUES = saved
    assert not isinstance(want, str), want
    tokens, labels, continuous, lengths = want
    assert data.labels.dtype == np.int8
    assert (data.types[data.type_ids].tolist(), labels_of(data.labels),
            data.lengths.tolist()) == (tokens, labels, lengths)
    # the distinct tokens, first occurrence first, each tested once
    assert data.types.tolist() == list(dict.fromkeys(tokens))
    assert data.type_ids.dtype == np.int32
    assert data.type_na.tolist() == [is_punctuation(t) for t in data.types]
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


# what a byte-level reading of str.split could get wrong: separators
# bytes.split does not cut at (\x1c, \x85, \xa0, \u3000) beside the ones it
# does, runs of them, whitespace-only lines and tokens that start with a
# multi-byte character
embedding_space_st = st.text(
    alphabet=[" ", "\t", "\x0b", "\x1c", "\x85", "\xa0", "\u3000"],
    min_size=1, max_size=3)
embedding_line_st = st.one_of(
    st.just(""),
    embedding_space_st,
    st.tuples(
        st.one_of(st.just(""), embedding_space_st),
        st.lists(st.tuples(
            st.sampled_from(["cat", "dog", "1.5", "-2", "x", "nan", "1e400",
                             "1_0", "\u0663", "\xe9", "\u4e2d\u6587",
                             "\xe91"]),
            embedding_space_st), min_size=1, max_size=4),
        st.one_of(st.just(""), embedding_space_st),
    ).map(lambda p: p[0] + "".join(f + sep for f, sep in p[1])[
        :-len(p[1][-1][1])] + p[2]))


@settings(max_examples=300, deadline=None)
@given(st.lists(embedding_line_st, max_size=6).map("\n".join),
       st.sampled_from([1, 2, 5, corpus_io.BLOCK_VALUES]))
def test_embeddings_read_in_bulk_what_the_line_rule_reads(text, block):
    want = _embeddings_line_by_line(text, 2)
    saved, corpus_io.BLOCK_VALUES = corpus_io.BLOCK_VALUES, block
    try:
        table = load_embeddings(text, dimension=2)
    except CorpusFormatError as exc:
        assert str(exc) == want
        return
    finally:
        corpus_io.BLOCK_VALUES = saved
    assert not isinstance(want, str), want
    assert list(table.index) == list(want)
    for token, values in want.items():
        assert [v.hex() for v in table.vectors[table.index[token]].tolist()
                ] == [v.hex() for v in values]


# number fields of a model file: digits in three scripts, signs, points,
# exponents, underscores, spelled infinities and NaNs, surrounding whitespace,
# integers past int64, and arbitrary text that keeps the row's tab layout and
# its line (a model file ends lines with LF, CRLF or CR)
number_text_st = st.one_of(
    st.text(alphabet="0123456789+-._eE infatyINFATY\u0663\uff13\x0b\x1c",
            max_size=8),
    st.integers(min_value=-2**70, max_value=2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["infinity", " nan ", "1_000", "-Infinity", "\u0663.5",
                     "1e400", f" {2**63} ", str(-2**63)]),
    st.text(max_size=6).filter(lambda t: not set(t) & set("\t\n\r")))


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
       st.sampled_from([1, 2, 5, corpus_io.BLOCK_VALUES]), st.data())
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
    saved, corpus_io.BLOCK_VALUES = corpus_io.BLOCK_VALUES, block
    try:
        _, values = reader.table("trans", count, width, kind)
    except CorpusFormatError as exc:
        assert str(exc) == error
        return
    finally:
        corpus_io.BLOCK_VALUES = saved
    assert error is None and values.shape == (count, width)
    got = values.ravel().tolist()
    if kind is float:
        assert [v.hex() for v in got] == [v.hex() for v in want]
    else:
        assert got == want


# ---------------------------------------------------------------------------
# fuzz gate: the audio and alignment readers give usable values or a
# CorpusFormatError, and no other exception escapes
# ---------------------------------------------------------------------------

@st.composite
def wav_bytes_st(draw):
    """(WAV bytes, True when they are an intact 16-bit mono file): 1 or 2
    channels, 8-, 16- or 24-bit samples, 16, 22.05 or 24 kHz and 0-40
    frames, some cut at a random byte or with one byte past the last
    whole frame in their data chunk.  Half are 16-bit mono."""
    channels, width = draw(st.sampled_from([(1, 2)] * 5 + [
        (1, 1), (1, 3), (2, 1), (2, 2), (2, 3)]))
    frames = draw(st.integers(0, 40))
    payload = draw(st.binary(min_size=frames * channels * width,
                             max_size=frames * channels * width))
    edit = draw(st.sampled_from(["none", "none", "cut", "extra"]))
    if edit == "extra":
        payload += b"\x00"
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(draw(st.sampled_from([16000, 22050, 24000])))
        w.writeframes(payload)
    raw = buf.getvalue()
    if edit == "cut":
        raw = raw[:draw(st.integers(0, len(raw) - 1))]
    return raw, edit != "cut" and (channels, width) == (1, 2) and frames > 0


@settings(max_examples=400, deadline=None)
@given(wav_bytes_st())
def test_read_wav_gives_finite_samples_or_a_format_error(case):
    """An intact 16-bit mono file reads; any other, a file cut inside its
    data chunk included, is a CorpusFormatError."""
    raw, intact = case
    try:
        audio = read_wav(raw)
    except CorpusFormatError:
        assert not intact
        return
    assert intact
    assert audio.sample_rate > 0 and len(audio.samples) > 0
    assert np.isfinite(audio.samples).all()
    assert np.abs(audio.samples).max() <= 1.0


# a time that is negative, non-finite, huge or not a number at all
odd_time_st = st.one_of(
    st.sampled_from(["-1", "-0.0", "nan", "inf", "-inf", "1e308", "1e400",
                     "12345678901234567890", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
mark_st = st.sampled_from(["hello", "w0", "new york", "42", "$", "$5", "—",
                           "…", "“", "”", ",", ".", "?!", "don't", ""])


@st.composite
def spans_st(draw, max_size):
    """(start, end, mark) texts of spans laid end to end on a half-second
    grid, so that they often touch, overlap or have zero length; now and
    then a time is replaced by an odd one."""
    spans, end = [], 0.0
    for _ in range(draw(st.integers(0, max_size))):
        start = max(0.0, end + draw(st.sampled_from([0.0, 0.0, 0.5, -0.5])))
        end = start + draw(st.sampled_from([0.5, 0.5, 1.0, 0.0]))
        times = [repr(start), repr(end)]
        for k in (0, 1):
            if draw(st.integers(0, 9)) == 0:
                times[k] = draw(odd_time_st)
        spans.append((*times, draw(mark_st)))
    return spans


@st.composite
def lab_text_st(draw):
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    return "\n".join(sep.join(span).strip()
                     for span in draw(spans_st(max_size=5)))


@st.composite
def textgrid_text_st(draw):
    intervals = draw(spans_st(max_size=4))
    tier = draw(st.sampled_from(["words"] * 4 + ["phones"]))
    lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"',
             "item []:", "    item [1]:", '        class = "IntervalTier"',
             f'        name = "{tier}"',
             f"        intervals: size = {len(intervals)}"]
    for k, (xmin, xmax, mark) in enumerate(intervals, start=1):
        lines += [f"        intervals [{k}]:", f"            xmin = {xmin}",
                  f"            xmax = {xmax}", f'            text = "{mark}"']
    # a cut file ends inside a header or an interval block
    if draw(st.integers(0, 3)) == 0:
        lines = lines[:draw(st.integers(0, len(lines)))]
    return "\n".join(lines) + "\n"


def _check_alignment(utt: Utterance) -> None:
    assert any(not tok.is_punct for tok in utt.tokens)
    latest_end = 0.0
    for tok in utt.tokens:
        assert math.isfinite(tok.start_s) and math.isfinite(tok.end_s)
        assert 0.0 <= tok.start_s <= tok.end_s
        assert tok.start_s < tok.end_s or tok.is_punct
        # spans may touch but not overlap, up to the readers' 1 ns slack
        assert tok.start_s >= latest_end - 1e-9
        latest_end = max(latest_end, tok.end_s)


@settings(max_examples=400, deadline=None)
@given(lab_text_st())
def test_parse_lab_gives_an_ordered_alignment_or_a_format_error(text):
    try:
        utt = parse_lab(text)
    except CorpusFormatError:
        return
    _check_alignment(utt)


@settings(max_examples=400, deadline=None)
@given(textgrid_text_st())
def test_parse_textgrid_gives_an_ordered_alignment_or_a_format_error(text):
    try:
        utt = parse_textgrid(text, "words")
    except CorpusFormatError:
        return
    _check_alignment(utt)
