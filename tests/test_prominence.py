"""Composite signal, wavelet scalogram, amplitude lines, and word assignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab import prominence
from prosolab.acoustics import FrameTrack
from prosolab.corpus_io import (NA, AudioBuffer, CorpusFormatError, Token,
                                Utterance, parse_dataset, parse_lab, read_wav,
                                write_dataset)
from prosolab.discretize import Thresholds
from prosolab.prominence import (
    AnnotateConfig,
    AnnotationError,
    CompositeConfig,
    Loma,
    ScaleGrid,
    Scalogram,
    annotate_utterance,
    compose,
    cwt,
    extract_loma,
    ricker,
    word_prominence,
)

from conftest import make_word_fixture, pcm16_wav_bytes

SHIFT = 0.005
GRID8 = ScaleGrid(n_scales=8)


def track(values, shift=SHIFT):
    return FrameTrack(np.asarray(values, dtype=float), shift)


def bump_track(n_frames, centers_s, sigmas_s, amps, shift=SHIFT):
    t = np.arange(n_frames) * shift
    x = np.zeros(n_frames)
    for c, s, a in zip(centers_s, sigmas_s, amps):
        x += a * np.exp(-((t - c) ** 2) / (2.0 * s**2))
    return track(x, shift)


def fixture_values(saliences, mode="product", **kw):
    audio, utt = make_word_fixture(saliences, **kw)
    cfg = AnnotateConfig(grid=GRID8,
                         composite=CompositeConfig(mode=mode))
    return annotate_utterance(audio, utt, cfg)[1].tolist()


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_sum_weighted():
    one = track(np.ones(5))
    cfg = CompositeConfig(mode="sum")
    out = compose(one, one, one, cfg)
    np.testing.assert_array_equal(out.values, np.full(5, 2.5))


def test_compose_zero_weight_drops_stream():
    rng = np.random.default_rng(0)
    f0 = track(rng.standard_normal(40))
    d = track(rng.standard_normal(40))
    e1 = track(rng.standard_normal(40))
    e2 = track(rng.standard_normal(40))
    for mode in ("sum", "product"):
        cfg = CompositeConfig(w_energy=0.0, mode=mode)
        a = compose(f0, e1, d, cfg).values
        b = compose(f0, e2, d, cfg).values
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_compose_product_shifts_positive():
    f0 = track([-2.0, 0.0, 2.0])
    e = track([1.0, -1.0, 0.0])
    d = track([0.0, 0.0, 0.0])
    out = compose(f0, e, d, CompositeConfig()).values
    # each stream enters as (s - min + 1) ** w >= 1 at the min, so the
    # product is positive everywhere
    assert (out > 0).all()
    np.testing.assert_allclose(
        out, (f0.values + 3.0) * np.sqrt(e.values + 2.0) * 1.0
    )


def test_compose_mode_rank_agreement_on_fixture():
    prod = fixture_values([0.2, 0.9, 0.5], mode="product")
    summed = fixture_values([0.2, 0.9, 0.5], mode="sum")
    assert list(np.argsort(prod)) == list(np.argsort(summed))


def test_compose_mismatch_errors():
    a, b = track(np.ones(4)), track(np.ones(5))
    with pytest.raises(ValueError, match="length mismatch"):
        compose(a, b, a, CompositeConfig())
    c = track(np.ones(4), shift=0.01)
    with pytest.raises(ValueError, match="shift mismatch"):
        compose(a, a, c, CompositeConfig())


def test_composite_config_validation():
    with pytest.raises(ValueError, match="non-negative"):
        CompositeConfig(w_f0=-1.0)
    with pytest.raises(ValueError, match="at least one"):
        CompositeConfig(w_f0=0.0, w_energy=0.0, w_dur=0.0)
    with pytest.raises(ValueError, match="unknown composition mode"):
        CompositeConfig(mode="mean")


# ---------------------------------------------------------------------------
# scale grid and cwt
# ---------------------------------------------------------------------------

def test_scale_grid_dyadic_periods():
    periods = GRID8.periods_s()
    np.testing.assert_allclose(periods[0], 0.1)
    np.testing.assert_allclose(periods[2:] / periods[:-2], 2.0)
    np.testing.assert_allclose(GRID8.scales_s(),
                               periods / (2.0 * math.pi * math.sqrt(2.0)))


def test_scale_grid_validation():
    with pytest.raises(ValueError):
        ScaleGrid(n_scales=0)
    with pytest.raises(ValueError):
        ScaleGrid(min_period_s=0.0)
    with pytest.raises(ValueError):
        ScaleGrid(scales_per_octave=0)


def test_ricker_shape():
    k = ricker(4.0, 20)
    assert len(k) == 41
    assert k[20] == 1.0  # peak value at t=0 before any normalization
    np.testing.assert_allclose(k, k[::-1])
    # zero crossings at t = +-1 scale unit
    assert k[20 + 4] == pytest.approx(0.0, abs=1e-12)


def test_cwt_zero_track():
    s = cwt(track(np.zeros(600)), GRID8)
    assert s.coeffs.shape == (8, 600)
    np.testing.assert_array_equal(s.coeffs, 0.0)


def test_cwt_linearity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(600)
    y = rng.standard_normal(600)
    sx = cwt(track(x), GRID8).coeffs
    sy = cwt(track(y), GRID8).coeffs
    s_scaled = cwt(track(2.5 * x), GRID8).coeffs
    s_sum = cwt(track(x + y), GRID8).coeffs
    np.testing.assert_allclose(s_scaled, 2.5 * sx, atol=1e-9)
    np.testing.assert_allclose(s_sum, sx + sy, atol=1e-9)


def test_cwt_matches_direct_sum_oracle():
    times = np.arange(400) * SHIFT
    x = (1.5 * np.exp(-((times - 0.7) ** 2) / (2 * 0.05**2))
         + 2.0 * np.exp(-((times - 1.3) ** 2) / (2 * 0.09**2))
         + 0.2 * np.sin(2 * np.pi * 1.3 * times))
    tr = track(x)
    grid = ScaleGrid(n_scales=6)
    s = cwt(tr, grid)
    xm = x - x.mean()
    scales_f = grid.scales_s() / SHIFT
    k = np.arange(len(x))
    for i, a in enumerate(scales_f):
        radius = max(1, math.ceil(5.0 * a))
        for j in (150, 200, 260):
            if j - radius < 0 or j + radius >= len(x):
                continue
            rel = (k - j) / a
            psi = (1.0 - rel**2) * np.exp(-(rel**2) / 2.0)
            psi[np.abs(k - j) > radius] = 0.0
            want = float((xm * psi).sum()) * a**-1.5
            assert s.coeffs[i, j] == pytest.approx(want, abs=1e-9)


def test_cwt_gaussian_bump_scale_localization():
    scales = GRID8.scales_s()
    for i in (2, 4, 6):
        tr = bump_track(600, [1.5], [scales[i]], [1.0])
        s = cwt(tr, GRID8)
        best = int(np.argmax(s.coeffs[:, 300]))
        assert abs(best - i) <= 1


def test_cwt_octave_spacing_of_bump_widths():
    scales = GRID8.scales_s()
    narrow = cwt(bump_track(600, [1.5], [scales[2]], [1.0]), GRID8)
    wide = cwt(bump_track(600, [1.5], [2.0 * scales[2]], [1.0]), GRID8)
    b_narrow = int(np.argmax(narrow.coeffs[:, 300]))
    b_wide = int(np.argmax(wide.coeffs[:, 300]))
    # doubling the width moves the response one octave = 2 grid steps
    assert abs((b_wide - b_narrow) - 2) <= 1


def test_cwt_track_too_short():
    with pytest.raises(ValueError, match="track too short for coarsest scale"):
        cwt(track(np.zeros(200)), ScaleGrid())  # 1 s vs 4.5 s coarsest period


def test_cwt_rejects_invalid_frames():
    t = FrameTrack(np.zeros(600), SHIFT,
                   valid=np.arange(600) % 2 == 0)
    with pytest.raises(ValueError, match="fully valid"):
        cwt(t, GRID8)


# ---------------------------------------------------------------------------
# lines of maximum amplitude
# ---------------------------------------------------------------------------

def test_loma_zero_scalogram_empty():
    s = Scalogram(coeffs=np.zeros((8, 300)), grid=GRID8, frame_shift_s=SHIFT)
    assert extract_loma(s) == []


def test_loma_single_bump():
    tr = bump_track(600, [1.5], [0.1], [1.0])
    lomas = extract_loma(cwt(tr, GRID8))
    assert len(lomas) == 1
    end_t = lomas[0].path[-1][1] * SHIFT
    assert abs(end_t - 1.5) <= 0.3  # inside the bump's 3-sigma support
    assert lomas[0].strength > 0


def test_loma_two_bumps_ordered_strengths():
    tr = bump_track(600, [0.9, 2.1], [0.08, 0.08], [2.0, 1.0])
    lomas = extract_loma(cwt(tr, GRID8))
    assert len(lomas) == 2
    by_time = sorted(lomas, key=lambda l: l.path[-1][1])
    assert abs(by_time[0].path[-1][1] * SHIFT - 0.9) <= 0.2
    assert abs(by_time[1].path[-1][1] * SHIFT - 2.1) <= 0.2
    assert by_time[0].strength > by_time[1].strength


def test_loma_path_invariants():
    times = np.arange(600) * SHIFT
    x = (1.5 * np.exp(-((times - 0.5) ** 2) / (2 * 0.05**2))
         + 2.2 * np.exp(-((times - 1.1) ** 2) / (2 * 0.10**2))
         + 0.9 * np.exp(-((times - 1.6) ** 2) / (2 * 0.07**2))
         + 1.7 * np.exp(-((times - 2.3) ** 2) / (2 * 0.12**2))
         + 0.2 * np.sin(2 * np.pi * 1.3 * times))
    s = cwt(track(x), GRID8)
    lomas = extract_loma(s)
    assert lomas
    periods_f = GRID8.periods_s() / SHIFT
    endpoints = set()
    seeds = [l.path[0][1] for l in lomas]
    assert seeds == sorted(seeds)
    for loma in lomas:
        rows = [r for r, _ in loma.path]
        assert rows[0] == 7  # every line starts at the coarsest row
        assert all(a - b == 1 for a, b in zip(rows[:-1], rows[1:]))
        for (r_prev, f_prev), (r_next, f_next) in zip(loma.path, loma.path[1:]):
            w = max(1, round(periods_f[r_next] / 2.0))
            assert abs(f_next - f_prev) <= w
        recomputed = sum(float(s.coeffs[r, f]) for r, f in loma.path)
        assert loma.strength == pytest.approx(recomputed, abs=1e-12)
        assert loma.strength > 0
        endpoints.add(loma.path[-1])
    assert len(endpoints) == len(lomas)  # dedup leaves unique finest endpoints


# ---------------------------------------------------------------------------
# word assignment
# ---------------------------------------------------------------------------

def _five_words():
    tokens = [Token(f"w{i}", 0.1 + 0.4 * i, 0.5 + 0.4 * i, False)
              for i in range(5)]
    return Utterance(id="u", tokens=tokens)


def test_word_prominence_containment():
    utt = _five_words()
    # word 2 spans [0.9, 1.3); a line ending at frame 220 lands at 1.1 s
    lomas = [Loma(path=[(1, 220)], strength=3.5)]
    assert word_prominence(lomas, utt, SHIFT).tolist() == [
        0.0, 0.0, 3.5, 0.0, 0.0]


def test_word_prominence_from_isolated_bump_pipeline():
    utt = _five_words()
    tr = bump_track(600, [1.1], [0.06], [1.0])  # inside word 2 only
    lomas = extract_loma(cwt(tr, GRID8))
    out = word_prominence(lomas, utt, SHIFT)
    assert out[2] > 0
    assert all(v == 0.0 for i, v in enumerate(out) if i != 2)


def test_word_prominence_nearest_by_boundary():
    utt = Utterance(id="u", tokens=[
        Token("a", 0.1, 0.4, False), Token("b", 1.0, 1.4, False)])
    # 0.5 s sits in silence, 0.1 s from a's end and 0.5 s from b's start
    lomas = [Loma(path=[(0, 100)], strength=2.0)]
    assert word_prominence(lomas, utt, SHIFT).tolist() == [2.0, 0.0]


def test_word_prominence_max_not_sum():
    utt = Utterance(id="u", tokens=[Token("a", 0.0, 1.0, False)])
    lomas = [Loma(path=[(0, 50)], strength=2.0),
             Loma(path=[(0, 120)], strength=5.0)]
    assert word_prominence(lomas, utt, SHIFT).tolist() == [5.0]


def test_word_prominence_clamps_negative():
    utt = Utterance(id="u", tokens=[Token("a", 0.0, 1.0, False)])
    lomas = [Loma(path=[(0, 50)], strength=-1.0)]
    assert word_prominence(lomas, utt, SHIFT).tolist() == [0.0]


def test_word_prominence_skips_punctuation():
    utt = Utterance(id="u", tokens=[
        Token("a", 0.1, 0.4, False), Token(",", 0.4, 0.6, True),
        Token("b", 0.6, 1.0, False)])
    # the line lands inside the punctuation span; a's end is nearer than b's
    # start (0.1 s vs 0.1 s tie -> first word scanned wins)
    lomas = [Loma(path=[(0, 100)], strength=1.0)]
    out = word_prominence(lomas, utt, SHIFT)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [1.0, math.nan, 0.0])


def test_word_prominence_permutation_stable():
    utt = _five_words()
    rng = np.random.default_rng(4)
    lomas = [Loma(path=[(0, f)], strength=float(s))
             for f, s in zip((30, 110, 225, 300, 395), (1.0, 4.0, 2.0, 8.0, 3.0))]
    base = word_prominence(lomas, utt, SHIFT)
    for _ in range(5):
        shuffled = [lomas[i] for i in rng.permutation(len(lomas))]
        assert np.array_equal(word_prominence(shuffled, utt, SHIFT), base)


# ---------------------------------------------------------------------------
# end-to-end annotation
# ---------------------------------------------------------------------------

def test_annotate_salient_word_wins():
    values = fixture_values([0.3, 0.5, 0.9, 0.1, 0.7])
    assert int(np.argmax(values)) == 2
    assert values[2] > 0


def test_annotate_flat_fixture_stability():
    values = np.array(fixture_values([0.5] * 5))
    spread = (values.max() - values.min()) / values.mean()
    assert spread <= 0.2


def test_annotate_all_silence_zero():
    audio_n = 2 * 16000
    from prosolab.corpus_io import AudioBuffer
    audio = AudioBuffer(np.zeros(audio_n), 16000)
    utt = Utterance(id="s", tokens=[
        Token("a", 0.2, 0.8, False), Token("b", 1.0, 1.7, False)])
    labels, values = annotate_utterance(audio, utt, AnnotateConfig(grid=GRID8))
    assert values.tolist() == [0.0, 0.0]
    assert labels.tolist() == [0, 0]


def test_annotate_punctuation_gets_na():
    audio, utt = make_word_fixture([0.4, 0.8, 0.2])
    end = utt.tokens[-1].end_s
    utt.tokens.append(Token(".", end, end, True))
    labels, values = annotate_utterance(audio, utt, AnnotateConfig(grid=GRID8))
    assert (labels.dtype, values.dtype) == (np.int8, np.float64)
    assert labels[-1] == NA and math.isnan(values[-1])
    assert (labels[:-1] != NA).all() and not np.isnan(values[:-1]).any()


def test_annotated_codes_and_values_survive_the_dataset_file():
    audio, utt = make_word_fixture([0.4, 0.8, 0.2, 0.6])
    comma = Token(",", utt.tokens[1].end_s, utt.tokens[1].end_s, True)
    utt.tokens.insert(2, comma)
    labels, values = annotate_utterance(
        audio, utt, AnnotateConfig(grid=GRID8, thresholds=Thresholds(3, 12)))
    data = parse_dataset(write_dataset([(utt, labels, values)]))
    assert data.labels.dtype == np.int8
    assert data.labels.tolist() == labels.tolist()
    assert np.flatnonzero(data.labels == NA).tolist() == [2]
    words = labels != NA
    assert data.continuous[words].tolist() == [
        float(f"{v:.3f}") for v in values[words].tolist()]
    assert np.isnan(data.continuous[~words]).all()


def test_annotate_span_outside_audio():
    audio, utt = make_word_fixture([0.5, 0.5])
    short = type(audio)(samples=audio.samples[: len(audio.samples) // 2],
                        sample_rate=audio.sample_rate)
    with pytest.raises(AnnotationError, match="span outside audio") as err:
        annotate_utterance(short, utt, AnnotateConfig(grid=GRID8))
    assert err.value.utt_id == "fixture"
    assert err.value.stage == "input"


@pytest.mark.parametrize("start,end", [
    (0.1, 9.0), (-0.1, 0.3), (math.nan, 0.3)],
    ids=["end-past-audio", "negative-start", "nan-start"])
def test_annotate_input_rejects_span_outside_audio(start, end):
    # the input stage is the one check of spans against the audio
    audio, _ = make_word_fixture([0.5, 0.5])
    utt = Utterance(id="u", tokens=[Token("a", start, end, False)])
    with pytest.raises(AnnotationError,
                       match="span outside audio: token 'a'") as err:
        annotate_utterance(audio, utt, AnnotateConfig(grid=GRID8))
    assert err.value.stage == "input"


def test_annotate_input_rejects_zero_length_word():
    # a word that does not end after it starts has no log duration
    audio, utt = make_word_fixture([0.5] * 4)
    end = utt.tokens[-1].end_s
    utt.tokens.append(Token("zz", end, end, False))
    with pytest.raises(AnnotationError,
                       match="stage input: zero-length word 'zz'") as err:
        annotate_utterance(audio, utt, AnnotateConfig(grid=GRID8))
    assert err.value.stage == "input"


def test_annotate_input_rejects_utterance_without_words():
    audio, _ = make_word_fixture([0.5, 0.5])
    utt = Utterance(id="u", tokens=[Token(",", 0.1, 0.2, True)])
    with pytest.raises(AnnotationError, match="stage input: no words"):
        annotate_utterance(audio, utt, AnnotateConfig(grid=GRID8))


def test_streams_share_the_framing_grid_at_22050_hz(monkeypatch):
    # a 5 ms shift is a 110-sample hop at 22.05 kHz, so frames are
    # 4.989 ms apart; every stream and frame time must read that grid
    rate = 22050
    x = np.zeros(25 * rate)
    word = np.arange(20 * rate, round(20.5 * rate))
    x[word] = 0.4 * np.sin(2 * np.pi * 150.0 * word / rate)
    utt = Utterance(id="u", tokens=[Token("w", 20.0, 20.5, False)])
    seen = {}
    for name in ("frame_audio", "extract_f0", "extract_energy",
                 "duration_track"):
        def spy(*args, _name=name, _real=getattr(prominence, name)):
            seen[_name] = _real(*args)
            return seen[_name]
        monkeypatch.setattr(prominence, name, spy)
    annotate_utterance(AudioBuffer(x, rate), utt, AnnotateConfig(grid=GRID8))
    n = len(seen["frame_audio"].rms)
    assert [len(seen[name]) for name in (
        "extract_f0", "extract_energy", "duration_track")] == [n, n, n]
    voiced = np.flatnonzero(seen["extract_f0"].valid)
    timed = np.flatnonzero(seen["duration_track"].valid)
    assert abs(timed[0] - voiced[0]) <= 1
    assert abs(timed[-1] - voiced[-1]) <= 1


def test_annotate_amplitude_boost_monotone():
    sal = [0.3, 0.5, 0.9, 0.1, 0.7]
    values = []
    for boost in (1.0, 1.3, 1.7, 2.2):
        factors = [1.0] * 5
        factors[1] = boost
        audio, utt = make_word_fixture(sal, amp_boost=factors)
        _, word_values = annotate_utterance(audio, utt,
                                            AnnotateConfig(grid=GRID8))
        values.append(word_values[1])
    diffs = np.diff(values)
    assert (diffs >= -1e-9).all()


# ---------------------------------------------------------------------------
# fuzz gate: WAV and .lab bytes through the readers and annotate_utterance
# give finite values, a CorpusFormatError, or an AnnotationError that names
# its stage and reason
# ---------------------------------------------------------------------------

STAGES = {"input", "extract_f0", "extract_energy", "duration_track",
          "conditioning", "compose", "cwt", "extract_loma",
          "word_prominence", "discretize"}
MARKS = ["—", "…", "“", "$", "42", ",", "."]


@st.composite
def annotate_input_st(draw):
    """(WAV bytes, .lab text) of one utterance of 1-8 sine-burst words at 16,
    22.05 or 24 kHz.  The audio is now and then cut to one window or
    shorter, or cut or extended by up to a second, and its spans then
    stay or are scaled with it; a word span is now and then zero-length,
    touching the next word or ending past the audio; and marks, digits and
    punctuation sit between words."""
    rate = draw(st.sampled_from([16000, 22050, 24000]))
    audio, utt = make_word_fixture(
        draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)),
        rate=rate)
    win = round(rate * AnnotateConfig().window_s)
    n = len(audio.samples)
    n = draw(st.sampled_from([st.just(n)] * 3 + [
        st.integers(0, win), st.integers(win, n + rate)]).flatmap(lambda s: s))
    samples = np.zeros(n)
    samples[:len(audio.samples)] = audio.samples[:n]
    # a cut or extended file's spans may also be scaled to its new length
    scale = n / len(audio.samples) if draw(st.booleans()) else 1.0
    tokens = utt.tokens
    lines = []
    for k, tok in enumerate(tokens):
        start, end = scale * tok.start_s, scale * tok.end_s
        edit = draw(st.sampled_from(["none"] * 9 + ["zero", "touch", "past"]))
        if edit == "zero":
            end = start
        elif edit == "touch" and k + 1 < len(tokens):
            end = scale * tokens[k + 1].start_s
        elif edit == "past":
            end = n / rate + draw(st.sampled_from([1e-6, 0.5]))
        lines.append(f"{start!r} {end!r} {tok.text}")
        if draw(st.integers(0, 3)) == 0:
            mark_end = end + draw(st.sampled_from([0.0, 0.05]))
            lines.append(f"{end!r} {mark_end!r} {draw(st.sampled_from(MARKS))}")
    return pcm16_wav_bytes(samples, rate), "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(annotate_input_st())
def test_annotate_gives_finite_records_or_a_named_failure(case):
    wav, lab = case
    try:
        audio, utt = read_wav(wav), parse_lab(lab, utt_id="u")
    except CorpusFormatError as exc:
        assert str(exc)
        return
    try:
        labels, values = annotate_utterance(audio, utt)
    except AnnotationError as exc:
        prefix = f"utterance 'u': stage {exc.stage}: "
        assert exc.stage in STAGES
        assert str(exc).startswith(prefix) and len(str(exc)) > len(prefix)
        return
    assert (labels.dtype, values.dtype) == (np.int8, np.float64)
    assert len(labels) == len(values) == len(utt.tokens)
    for label, value, tok in zip(labels.tolist(), values.tolist(), utt.tokens):
        if tok.is_punct:
            assert label == NA and math.isnan(value)
        else:
            assert math.isfinite(value) and value >= 0
            assert label in (0, 1, 2)


def test_annotate_stage_tagging():
    # a grid too coarse for the utterance fails inside the cwt stage
    audio, utt = make_word_fixture([0.5, 0.5])
    with pytest.raises(AnnotationError, match="stage cwt") as err:
        annotate_utterance(audio, utt, AnnotateConfig(grid=ScaleGrid(n_scales=16)))
    assert err.value.stage == "cwt"



def test_pitch_and_energy_share_one_framing(monkeypatch):
    # window_s alone sets the window of both streams
    calls = []

    def spy(name, real):
        def wrapped(*args):
            result = real(*args)
            calls.append((name, args, result))
            return result
        return wrapped

    for name in ("frame_audio", "extract_f0", "extract_energy"):
        monkeypatch.setattr(prominence, name,
                            spy(name, getattr(prominence, name)))
    audio, utt = make_word_fixture([0.4, 0.8, 0.2])
    annotate_utterance(audio, utt, AnnotateConfig(grid=GRID8, window_s=0.05))
    assert [name for name, _, _ in calls] == [
        "frame_audio", "extract_f0", "extract_energy"]
    (_, frame_args, frames), (_, f0_args, _), (_, energy_args, _) = calls
    assert frame_args[1:] == (SHIFT, 0.05)
    assert f0_args[0] is frames and energy_args[0] is frames
    assert frames.win == round(0.05 * audio.sample_rate)
