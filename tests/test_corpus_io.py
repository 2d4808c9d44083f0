"""File format round-trips and rejection behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_lab,
    parse_predictions,
    parse_textgrid,
    read_wav,
    write_dataset,
)

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
    sentences = parse_dataset(write_dataset([(utt, dataset_records())]))
    assert len(sentences) == 1
    got = sentences[0]
    assert [r.token for r in got] == DATASET_TOKENS
    assert [r.discrete for r in got] == DATASET_DISCRETE
    for rec, want in zip(got, DATASET_CONTINUOUS):
        if want is None:
            assert rec.continuous is None
        else:
            assert rec.continuous == pytest.approx(want, abs=5e-4)


def test_write_dataset_blank_line_between_utterances():
    utt = stub_utterance(["a", "b"])
    recs = [ProminenceRecord("a", 0, 0.1), ProminenceRecord("b", 1, 0.6)]
    blob = write_dataset([(utt, recs), (utt, recs)])
    assert blob == b"a\t0\t0.100\nb\t1\t0.600\n\na\t0\t0.100\nb\t1\t0.600\n"
    assert len(parse_dataset(blob)) == 2


def test_write_dataset_empty():
    assert write_dataset([]) == b""
    assert parse_dataset(b"") == []


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
    [[record]] = parse_dataset("Tell\t2\t1.473")
    assert (record.token, record.discrete) == ("Tell", 2)
    assert "cat" in load_embeddings("cat 1.0 2.0", dimension=2).entries


def test_parse_dataset_crlf_and_trailing_blank():
    blob = b"a\t0\t0.100\r\nb\t1\t0.600\r\n\r\n"
    sents = parse_dataset(blob)
    assert len(sents) == 1 and len(sents[0]) == 2


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
    parsed = parse_dataset(write_dataset(annotated))
    assert len(parsed) == len(sentences)
    for got, want in zip(parsed, sentences):
        assert [r.token for r in got] == [r.token for r in want]
        assert [r.discrete for r in got] == [r.discrete for r in want]
        for g, w in zip(got, want):
            if w.continuous is None:
                assert g.continuous is None
            else:
                assert g.continuous == pytest.approx(w.continuous, abs=5e-4)


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
        for sentence in parse_dataset(text):
            for rec in sentence:
                assert rec.discrete in labels
                assert (rec.continuous is None if rec.discrete is None
                        else _finite(rec.continuous) and rec.continuous >= 0)
    except CorpusFormatError:
        pass
    try:
        for tokens, predicted in parse_predictions(text):
            assert len(tokens) == len(predicted)
            assert set(predicted) <= labels
    except CorpusFormatError:
        pass
    try:
        table = load_embeddings(text, dimension=2)
        for vec in table.entries.values():
            assert vec.shape == (2,) and np.isfinite(vec).all()
    except CorpusFormatError:
        pass
