"""Pitch, energy, and duration extraction against closed forms and oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosolab import acoustics
from prosolab._accel import frame_acf
from prosolab.acoustics import (
    ENERGY_FLOOR,
    FRAME_BLOCK,
    FrameTrack,
    OCTAVE_COST,
    SILENCE_RMS,
    PitchConfig,
    duration_track,
    extract_energy,
    extract_f0,
    frame_audio,
)
from prosolab.corpus_io import AudioBuffer, Token, Utterance
from prosolab.prominence import AnnotateConfig

from conftest import RATE, make_word_fixture, sine

SHIFT = 0.005
WINDOW = 0.040


def framed(x, rate=RATE, window_s=WINDOW):
    return frame_audio(AudioBuffer(x, rate), SHIFT, window_s)


def harmonic(freq, duration_s, rate=RATE, noise=0.01, seed=11):
    t = np.arange(round(duration_s * rate)) / rate
    rng = np.random.default_rng(seed)
    return (0.5 * np.sin(2 * np.pi * freq * t)
            + 0.25 * np.sin(2 * np.pi * 2 * freq * t + 0.7)
            + 0.12 * np.sin(2 * np.pi * 3 * freq * t + 1.1)
            + noise * rng.standard_normal(len(t)))


def oracle_f0_track(samples, rate, cfg):
    """Per-frame pitch decision recomputed with direct lag-by-lag sums."""
    hop = max(1, round(rate * SHIFT))
    win = round(rate * WINDOW)
    half = win // 2
    n_frames = math.ceil(len(samples) / hop)
    ext = np.concatenate([np.zeros(win), samples, np.zeros(win)])
    taper = np.hanning(win)
    lag_min = max(2, math.floor(rate / cfg.f0_max))
    lag_max = min(win - 3, math.ceil(rate / cfg.f0_min))
    w_acf = np.array([taper[: win - L] @ taper[L:] for L in range(lag_max + 2)])
    values = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    for i in range(n_frames):
        lo = win + i * hop - half
        frame = ext[lo:lo + win]
        rms = math.sqrt(float(frame @ frame) / win)
        w = (frame - frame.mean()) * taper
        acf = np.array([w[: win - L] @ w[L:] for L in range(lag_max + 2)])
        if acf[0] <= 0 or rms < 1e-4:
            continue
        corr = acf / w_acf * (w_acf[0] / acf[0])
        best_j, best_score = -1, -np.inf
        for j in range(lag_min, lag_max + 1):
            if w_acf[j + 1] <= 1e-3 * w_acf[0]:
                continue
            if corr[j] > corr[j - 1] and corr[j] > corr[j + 1]:
                score = corr[j] - OCTAVE_COST * math.log2(j)
                if score > best_score:
                    best_score, best_j = score, j
        if best_j < 0 or corr[best_j] < cfg.voicing_threshold:
            continue
        y0, y1, y2 = corr[best_j - 1], corr[best_j], corr[best_j + 1]
        lag = float(best_j)
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-12:
            delta = 0.5 * (y0 - y2) / denom
            if -1 < delta < 1:
                lag += delta
        values[i] = min(cfg.f0_max, max(cfg.f0_min, rate / lag))
        voiced[i] = True
    return values, voiced


def gather_frames(x, rate, frame_shift_s, window_s):
    """Framing by a fancy-index gather: one copied row per frame."""
    hop = max(1, round(rate * frame_shift_s))
    win = round(rate * window_s)
    n_frames = math.ceil(len(x) / hop)
    padded = np.concatenate([np.zeros(win), x, np.zeros(win)])
    idx = (np.arange(n_frames)[:, None] * hop - win // 2 + win
           + np.arange(win)[None, :])
    return padded[idx]


def padded_acf(rows, max_lag):
    """frame_acf of `rows`, each padded with zeros to the smallest power of
    two that holds it and max_lag more samples."""
    nfft = 1
    while nfft < rows.shape[1] + max_lag + 1:
        nfft *= 2
    padded = np.zeros((len(rows), nfft))
    padded[:, :rows.shape[1]] = rows
    return frame_acf(padded, max_lag)


def loop_f0_track(samples, rate, cfg):
    """Exact reference for extract_f0: the same FFT ACF of every frame, then
    one frame at a time through the peak picking in scalar arithmetic."""
    frames = gather_frames(samples, rate, SHIFT, WINDOW)
    n_frames, win = frames.shape
    raw_rms = np.sqrt(np.mean(frames**2, axis=1))
    frames = frames - frames.mean(axis=1, keepdims=True)
    taper = np.hanning(win)
    frames = frames * taper[None, :]
    lag_min = max(2, int(math.floor(rate / cfg.f0_max)))
    lag_max = min(win - 3, int(math.ceil(rate / cfg.f0_min)))
    acf = padded_acf(frames, lag_max + 1)
    w_acf = padded_acf(taper[None, :], lag_max + 1)[0]
    lags = np.arange(lag_min, lag_max + 1)
    searchable = lags[w_acf[lags + 1] > 1e-3 * w_acf[0]]
    values = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    for i in range(n_frames):
        r0 = acf[i, 0]
        if r0 <= 0 or raw_rms[i] < SILENCE_RMS or len(searchable) == 0:
            continue
        corr = acf[i] / w_acf * (w_acf[0] / r0)
        is_peak = (corr[searchable] > corr[searchable - 1]) & (
            corr[searchable] > corr[searchable + 1]
        )
        cands = searchable[is_peak]
        if len(cands) == 0:
            continue
        j = int(cands[np.argmax(corr[cands] - OCTAVE_COST * np.log2(cands))])
        y0, y1, y2 = corr[j - 1], corr[j], corr[j + 1]
        if y1 < cfg.voicing_threshold:
            continue
        lag = float(j)
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-12:
            delta = 0.5 * (y0 - y2) / denom
            if -1 < delta < 1:
                lag += delta
        values[i] = min(cfg.f0_max, max(cfg.f0_min, rate / lag))
        voiced[i] = True
    return values, voiced


# ---------------------------------------------------------------------------
# pitch
# ---------------------------------------------------------------------------

def test_f0_matches_brute_force_oracle():
    cfg = PitchConfig()
    # the word fixture's exact-zero gaps are frames that skip the ACF
    for x in (harmonic(180.0, 0.3), make_word_fixture([0.3, 0.6])[0].samples):
        track = extract_f0(framed(x), cfg)
        want_values, want_voiced = oracle_f0_track(x, RATE, cfg)
        np.testing.assert_array_equal(track.valid, want_voiced)
        np.testing.assert_allclose(track.values, want_values, atol=1e-4)


def _between(x, filler):
    return np.concatenate([x, filler, x])


F0_CASES = [
    pytest.param(make_word_fixture([0.2, 0.8, 0.5])[0].samples, RATE,
                 PitchConfig(), id="word_fixture_gaps"),
    # a constant 0.5 clears the RMS floor but is exactly zero once the frame
    # mean is removed, so its ACF has r0 == 0
    pytest.param(_between(harmonic(150.0, 0.2), np.full(RATE // 10, 0.5)),
                 RATE, PitchConfig(), id="dc_offset"),
    pytest.param(_between(harmonic(150.0, 0.2), sine(150.0, 0.1, amp=5e-5)),
                 RATE, PitchConfig(), id="below_silence_floor"),
    pytest.param(0.05 * np.random.default_rng(3).standard_normal(RATE // 2),
                 RATE, PitchConfig(), id="noise"),
    pytest.param(np.concatenate([harmonic(62.0, 0.2), harmonic(398.0, 0.2)]),
                 RATE, PitchConfig(), id="range_edges"),
    # lags up to win - 3, where the taper overlap is too thin to search
    pytest.param(make_word_fixture([0.0, 0.4])[0].samples, RATE,
                 PitchConfig(f0_min=25.0), id="thin_overlap_lags"),
    pytest.param(harmonic(150.0, 0.5, rate=22050), 22050, PitchConfig(),
                 id="hop_not_dividing"),
    pytest.param(harmonic(180.0, 0.04), RATE, PitchConfig(), id="one_window"),
    pytest.param(np.zeros(RATE // 4), RATE, PitchConfig(), id="all_zero"),
]


@pytest.mark.parametrize("samples,rate,cfg", F0_CASES)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_f0_matches_frame_loop(samples, rate, cfg):
    """Bit for bit the per-frame loop, including frames that skip the ACF."""
    track = extract_f0(framed(samples, rate), cfg)
    want_values, want_voiced = loop_f0_track(samples, rate, cfg)
    assert np.array_equal(track.valid, want_voiced)
    assert np.array_equal(track.values, want_values)


# a DC run of 2 * FRAME_BLOCK + 8 hops holds whole blocks of loud frames that
# are exactly zero once their mean is removed, so every ACF in such a block
# has r0 == 0 and no row of the block can be voiced
DC_BLOCK = np.full((2 * FRAME_BLOCK + 8) * round(RATE * SHIFT), 0.5)


@pytest.mark.parametrize("samples,rate,cfg", F0_CASES + [
    pytest.param(np.concatenate([DC_BLOCK, harmonic(150.0, 0.2)]), RATE,
                 PitchConfig(), id="dc_whole_block"),
    pytest.param(_between(np.zeros(RATE // 4), harmonic(180.0, 0.1)), RATE,
                 PitchConfig(), id="under_one_block"),
])
@pytest.mark.parametrize("block", [1, 3, 7, FRAME_BLOCK])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_f0_and_rms_do_not_depend_on_the_block_size(monkeypatch, block,
                                                     samples, rate, cfg):
    """Bit for bit the per-frame loop and the whole-utterance RMS, wherever
    the blocks of frames fall."""
    monkeypatch.setattr(acoustics, "FRAME_BLOCK", block)
    frames = framed(samples, rate)
    gathered = gather_frames(samples, rate, SHIFT, WINDOW)
    assert np.array_equal(frames.rms, np.sqrt(np.mean(gathered**2, axis=1)))
    track = extract_f0(frames, cfg)
    want_values, want_voiced = loop_f0_track(samples, rate, cfg)
    assert np.array_equal(track.valid, want_voiced)
    assert np.array_equal(track.values, want_values)


@st.composite
def framed_audio_st(draw):
    """(samples, rate, block): 8-48 kHz audio from exactly one window to
    past three blocks of 64 frames, made of runs of tone, noise, exact
    zeros and a constant, read in blocks of 1, 3, 7 or 64 frames."""
    rate = draw(st.sampled_from([8000, 16000, 22050, 24000, 48000]))
    win, hop = round(rate * WINDOW), round(rate * SHIFT)
    n = draw(st.integers(win, win + (3 * 64 + 2) * hop))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples, t = np.empty(n), np.arange(n) / rate
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        kind = draw(st.sampled_from(["tone", "noise", "zero", "dc"]))
        if kind == "tone":
            samples[lo:hi] = draw(st.floats(1e-5, 0.9)) * np.sin(
                2 * np.pi * draw(st.floats(40.0, 500.0)) * t[lo:hi])
        elif kind == "noise":
            samples[lo:hi] = (draw(st.floats(1e-5, 0.5))
                              * rng.standard_normal(hi - lo))
        else:
            samples[lo:hi] = 0.0 if kind == "zero" else draw(
                st.floats(-0.9, 0.9))
    block = draw(st.sampled_from([1, 3, 7, 64]))
    return samples, rate, block


@settings(max_examples=200, deadline=None)
@given(framed_audio_st())
def test_blocked_rms_and_f0_equal_the_per_frame_oracles(case):
    """RMS summed off each block's squared span, and the pitch track, are
    bit for bit the sums over each frame's own copy and the per-frame loop,
    for any rate, length, content and block size."""
    samples, rate, block = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(acoustics, "FRAME_BLOCK", block)
        frames = framed(samples, rate)
        track = extract_f0(frames, PitchConfig())
    gathered = gather_frames(samples, rate, SHIFT, WINDOW)
    assert np.array_equal(frames.rms, np.sqrt(np.mean(gathered**2, axis=1)))
    want_values, want_voiced = loop_f0_track(samples, rate, PitchConfig())
    assert np.array_equal(track.valid, want_voiced)
    assert np.array_equal(track.values, want_values)


def test_block_cases_hit_an_empty_block_and_a_short_tail():
    """The DC case has a whole block of loud frames whose ACFs all have
    r0 == 0; the short case has fewer loud frames than one block."""
    frames = framed(np.concatenate([DC_BLOCK, harmonic(150.0, 0.2)]))
    rows = np.flatnonzero(frames.rms >= SILENCE_RMS)
    loud = frames.gather(rows)
    flat = (loud == loud[:, :1]).all(axis=1)
    n_blocks = len(loud) // FRAME_BLOCK
    assert flat[:n_blocks * FRAME_BLOCK].reshape(n_blocks, -1).all(
        axis=1).any()
    short = framed(_between(np.zeros(RATE // 4), harmonic(180.0, 0.1)))
    assert 0 < (short.rms >= SILENCE_RMS).sum() < FRAME_BLOCK


def oracle_pick(band, thick, octave, threshold):
    """The peak picking as a 2-D rule over the interior columns: winning
    column of `band` and voiced flag of each row."""
    c = band[:, 1:-1]
    is_peak = c > band[:, :-2]
    is_peak &= c > band[:, 2:]
    is_peak &= thick
    score = c - octave
    score[~is_peak] = -np.inf
    at = np.arange(len(band))
    i = score.argmax(axis=1)
    ok = is_peak[at, i] & (band[at, i + 1] >= threshold)
    return i + 1, ok, is_peak.any(axis=1)


@st.composite
def peak_band_st(draw):
    """(band, thick, octave, threshold): 0-64 rows of small integers, so ties
    and plateaus are common, random thin lags and octave costs that tie,
    rows whose edge column out-tops both the last interior column and the
    next row's first column, and +inf scattered over the edge and thin
    columns."""
    k, m = draw(st.integers(0, 64)), draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = rng.integers(0, 4, (k, m)).astype(np.float64)
    for r in np.flatnonzero(rng.random(k) < draw(st.floats(0, 1))):
        band[r, -3:] = (0, 2, 3)
        if r + 1 < k:
            band[r + 1, 0] = 0
    thick = rng.random(m - 2) < draw(st.floats(0, 1))
    # +inf where the pick must never look: the edges and the thin lags
    out = np.flatnonzero(~np.r_[False, thick, False])
    band[:, out] = np.where(rng.random((k, len(out))) < draw(st.floats(0, 1)),
                            np.inf, band[:, out])
    octave = rng.integers(0, 3, m - 2) / 2
    return band, thick, octave, float(draw(st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(peak_band_st())
def test_pick_peaks_is_the_two_dimensional_rule(case):
    """The flat pick with its edge and thin-lag penalties picks the column
    and voicing of the per-row rule, ties, plateaus and row edges included."""
    band, thick, octave, threshold = case
    k, m = band.shape
    pen = np.full(m, np.inf)
    pen[1:-1] = np.where(thick, octave, np.inf)
    scratch = np.full(k * m, np.nan), np.ones(2 * k * m, dtype=bool)
    col, ok = acoustics.pick_peaks(band.copy(), pen, threshold, *scratch)
    want_col, want_ok, has_peak = oracle_pick(band, thick, octave, threshold)
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(col[has_peak], want_col[has_peak])


def test_f0_pure_tone_220hz():
    track = extract_f0(framed(sine(220.0, 1.0)), PitchConfig())
    assert track.valid.all()
    np.testing.assert_allclose(track.values, 220.0, atol=1.0)


def test_f0_two_level_track():
    x = np.concatenate([sine(150.0, 0.5), sine(300.0, 0.5)])
    track = extract_f0(framed(x), PitchConfig())
    times = np.arange(len(track)) * track.frame_shift_s
    low = times < 0.46
    high = times >= 0.54
    assert track.valid[low].all() and track.valid[high].all()
    np.testing.assert_allclose(track.values[low], 150.0, atol=1.0)
    np.testing.assert_allclose(track.values[high], 300.0, atol=1.0)


def test_f0_low_pitch_near_floor():
    # period 258 samples: most of the admissible lag range, where the taper
    # attenuates hardest; the window-ACF correction must keep this voiced
    track = extract_f0(framed(sine(62.0, 1.0)), PitchConfig())
    assert track.valid[4:-4].all()
    interior = track.values[4:-4]
    np.testing.assert_allclose(interior, 62.0, atol=1.0)


def test_f0_silence_is_unvoiced():
    track = extract_f0(framed(np.zeros(RATE // 2)), PitchConfig())
    assert not track.valid.any()
    assert (track.values == 0.0).all()


def test_f0_noise_is_unvoiced():
    rng = np.random.default_rng(3)
    noise = 0.05 * rng.standard_normal(RATE)
    track = extract_f0(framed(noise), PitchConfig())
    assert not track.valid.any()


def test_f0_stays_in_configured_range():
    for freq in (62.0, 100.0, 180.0, 300.0, 395.0):
        track = extract_f0(framed(harmonic(freq, 0.2)), PitchConfig())
        v = track.values[track.valid]
        assert (v >= 60.0).all() and (v <= 400.0).all()


def test_f0_time_shift_consistency():
    cfg = PitchConfig()
    hop = round(RATE * SHIFT)
    k = 5
    x = harmonic(180.0, 0.4)
    base = extract_f0(framed(x), cfg)
    shifted = extract_f0(framed(np.concatenate([np.zeros(k * hop), x])), cfg)
    assert len(shifted) == len(base) + k
    np.testing.assert_array_equal(shifted.valid[k:], base.valid)
    np.testing.assert_allclose(shifted.values[k:], base.values, atol=1e-9)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_closed_form_sine():
    # 200 Hz at 16 kHz: exactly 8 periods per 40 ms window, so interior
    # frames have RMS a/sqrt(2) up to float rounding
    amp = 0.3
    track = extract_energy(framed(sine(200.0, 1.0, amp=amp)))
    assert track.valid.all()
    interior = track.values[5:195]
    np.testing.assert_allclose(interior, math.log(amp / math.sqrt(2)),
                               atol=1e-6)


def test_energy_gain_law():
    x = sine(200.0, 0.5, amp=0.2)
    c = 2.5
    base = extract_energy(framed(x))
    scaled = extract_energy(framed(c * x))
    np.testing.assert_allclose(scaled.values - base.values, math.log(c),
                               atol=1e-6)


def test_energy_silence_floor():
    track = extract_energy(framed(np.zeros(RATE // 2)))
    assert (track.values == math.log(ENERGY_FLOOR)).all()


@pytest.mark.parametrize("rate,n", [(RATE, 640), (22050, 22050), (RATE, 641)],
                         ids=["one_window", "hop_not_dividing", "window_plus_1"])
def test_framing_view_matches_gather(rate, n):
    """Every row, both edges included, as a run of frames and as rows with
    gaps, and the samples are only read."""
    x = np.random.default_rng(n).standard_normal(n)
    x.flags.writeable = False
    frames = framed(x, rate)
    gathered = gather_frames(x, rate, SHIFT, WINDOW)
    every = np.arange(len(gathered))
    for rows in (every, every[::2], every[1:], every[[0, -1]]):
        assert np.array_equal(frames.gather(rows), gathered[rows])
    rms = np.sqrt(np.mean(gathered**2, axis=1))
    assert np.array_equal(frames.rms, rms)
    assert np.array_equal(extract_energy(frames).values,
                          np.log(np.maximum(rms, ENERGY_FLOOR)))


def test_energy_time_shift_consistency():
    hop = round(RATE * 0.005)
    k = 7
    x = sine(200.0, 0.4, amp=0.2)
    base = extract_energy(framed(x))
    shifted = extract_energy(framed(np.concatenate([np.zeros(k * hop), x])))
    assert len(shifted) == len(base) + k
    np.testing.assert_allclose(shifted.values[k:], base.values, atol=1e-9)


# ---------------------------------------------------------------------------
# duration
# ---------------------------------------------------------------------------

def _utt(spans):
    tokens = [Token(text, s, e, text == ",") for s, e, text in spans]
    return Utterance(id="u", tokens=tokens)


def test_duration_track_piecewise():
    utt = _utt([(0.0, 0.2, "a"), (0.2, 0.2, ","), (0.3, 0.7, "bee")])
    track = duration_track(utt, 10, 0.1)
    assert len(track) == 10
    np.testing.assert_array_equal(
        track.valid,
        [True, True, False, True, True, True, True, False, False, False],
    )
    np.testing.assert_allclose(track.values[:2], math.log(0.2))
    np.testing.assert_allclose(track.values[3:7], math.log(0.7 - 0.3))


def test_duration_track_punct_leaves_gap():
    utt = _utt([(0.0, 0.4, "a"), (0.4, 0.6, ","), (0.6, 1.0, "b")])
    track = duration_track(utt, 10, 0.1)
    # the punctuation span [0.4, 0.6) stays invalid even though it has extent
    times = np.arange(len(track)) * 0.1
    in_punct = (times >= 0.4) & (times < 0.6)
    assert not track.valid[in_punct].any()
    assert track.valid[~in_punct].all()


def test_track_lengths_agree():
    x = harmonic(180.0, 1.0)
    buf = AudioBuffer(x, RATE)
    frames = frame_audio(buf, SHIFT, WINDOW)
    f0 = extract_f0(frames, PitchConfig())
    en = extract_energy(frames)
    dur = duration_track(_utt([(0.1, 0.8, "a")]), len(frames.rms),
                         frames.frame_shift_s)
    assert len(f0) == len(en)
    assert abs(len(f0) - len(dur)) <= 1


def test_track_lengths_agree_non_divisible_rate():
    rate = 22050
    t = np.arange(rate) / rate
    buf = AudioBuffer(0.4 * np.sin(2 * np.pi * 150.0 * t), rate)
    frames = frame_audio(buf, SHIFT, WINDOW)
    f0 = extract_f0(frames, PitchConfig())
    en = extract_energy(frames)
    dur = duration_track(_utt([(0.1, 0.8, "a")]), len(frames.rms),
                         frames.frame_shift_s)
    assert len(f0) == len(en) == len(dur)


# ---------------------------------------------------------------------------
# configuration and track validation
# ---------------------------------------------------------------------------

def test_pitch_config_validation():
    with pytest.raises(ValueError, match="f0_min < f0_max"):
        PitchConfig(f0_min=400.0, f0_max=300.0)
    with pytest.raises(ValueError, match="at least 2 periods"):
        AnnotateConfig(window_s=0.004)
    with pytest.raises(ValueError, match="voicing_threshold"):
        PitchConfig(voicing_threshold=0.0)
    with pytest.raises(ValueError, match="voicing_threshold"):
        PitchConfig(voicing_threshold=1.2)


def test_annotate_config_rejects_a_shift_or_sigma_out_of_range():
    for shift in (0.0, -0.005):
        with pytest.raises(ValueError, match="^frame_shift_s must be positive"):
            AnnotateConfig(frame_shift_s=shift)
    for key in ("smooth_sigma_s", "dur_smooth_sigma_s"):
        with pytest.raises(ValueError, match=f"^{key} must be non-negative"):
            AnnotateConfig(**{key: -0.01})


def test_frame_audio_rejects_a_shift_below_one_sample():
    # 0.00001 s is 0.16 samples at 16 kHz; 0.0001 s rounds to 2
    with pytest.raises(ValueError, match=r"^frame shift 1e-05 s is less than "
                                         r"one sample at 16000 Hz$"):
        frame_audio(AudioBuffer(np.zeros(RATE), RATE), 0.00001, WINDOW)
    assert frame_audio(AudioBuffer(np.zeros(RATE), RATE), 0.0001,
                       WINDOW).hop == 2


def test_extract_f0_audio_too_short():
    with pytest.raises(ValueError, match="audio shorter than one window"):
        framed(np.zeros(100))


def test_extract_f0_window_too_short_for_range():
    with pytest.raises(ValueError, match="window too short"):
        extract_f0(framed(np.zeros(50), 1000, window_s=0.005), PitchConfig())


def test_frame_track_validation():
    with pytest.raises(ValueError, match="valid mask length"):
        FrameTrack(np.zeros(4), 0.005, valid=np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="frame_shift_s"):
        FrameTrack(np.zeros(4), 0.0)
    track = FrameTrack(np.zeros(4), 0.005)
    assert track.valid.all() and len(track) == 4
