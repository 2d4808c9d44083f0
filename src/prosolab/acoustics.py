"""Frame-synchronous prosodic stream extraction: pitch, energy, duration.

All three extractors share the same framing convention: frame i is centered
at sample i * hop (hop = rate * frame_shift_s), edges zero-padded, and the
number of frames is ceil(n_samples / hop).  Matching lengths means downstream
code can trim at most one frame to align the streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._accel import frame_acf
from .corpus_io import AudioBuffer, Utterance

ENERGY_FLOOR = 1e-6
SILENCE_RMS = 1e-4
OCTAVE_COST = 0.01  # per-octave penalty separating a period from its multiples


@dataclass
class FrameTrack:
    """A sampled signal with a validity mask (False = gap, value unusable)."""

    values: np.ndarray
    frame_shift_s: float
    start_s: float = 0.0
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.valid is None:
            self.valid = np.ones(len(self.values), dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
        if len(self.valid) != len(self.values):
            raise ValueError("valid mask length differs from values length")
        if self.frame_shift_s <= 0:
            raise ValueError("frame_shift_s must be positive")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class PitchConfig:
    f0_min: float = 60.0
    f0_max: float = 400.0
    frame_shift_s: float = 0.005
    window_s: float = 0.040
    voicing_threshold: float = 0.45

    def __post_init__(self) -> None:
        if not 0 < self.f0_min < self.f0_max:
            raise ValueError("need 0 < f0_min < f0_max")
        if self.window_s * self.f0_max < 2:
            raise ValueError("window must span at least 2 periods of f0_max")
        if not 0 < self.voicing_threshold < 1:
            raise ValueError("voicing_threshold must lie in (0, 1)")


def _frame_signal(x: np.ndarray, rate: int, frame_shift_s: float,
                  window_s: float) -> np.ndarray:
    """Cut x into centered, zero-padded frames: a read-only (n_frames, win)
    view of one padded copy."""
    hop = max(1, round(rate * frame_shift_s))
    win = round(rate * window_s)
    n = len(x)
    if n < win:
        raise ValueError(
            f"audio shorter than one window ({n} samples < {win})"
        )
    n_frames = math.ceil(n / hop)
    padded = np.concatenate([np.zeros(win), x, np.zeros(win)])
    return sliding_window_view(padded, win)[win - win // 2::hop][:n_frames]


def extract_f0(audio: AudioBuffer, cfg: PitchConfig) -> FrameTrack:
    """Estimate F0 per frame by normalized-autocorrelation peak picking.

    Frames are zero-meaned and Hann-windowed, and the frame ACF is divided by
    the taper's own ACF, recovering the signal's normalized autocorrelation
    free of the taper's lag-dependent attenuation.  Candidate lags are the
    interior local maxima of that corrected curve inside the admissible
    range; the winner maximizes peak height minus a small octave cost that
    breaks the exact tie between a period and its multiples in favor of the
    shorter lag.  The winning lag is refined by parabolic interpolation.  A
    frame is voiced iff the corrected peak reaches cfg.voicing_threshold and
    the raw frame RMS clears the silence floor; unvoiced frames are invalid
    with placeholder value 0.  Frames below the silence floor, which can
    never be voiced, skip the ACF altogether.
    """
    rate = audio.sample_rate
    frames = _frame_signal(audio.samples, rate, cfg.frame_shift_s, cfg.window_s)
    n_frames, win = frames.shape

    lag_min = max(2, int(math.floor(rate / cfg.f0_max)))
    lag_max = min(win - 3, int(math.ceil(rate / cfg.f0_min)))
    if lag_max <= lag_min:
        raise ValueError("window too short for the requested f0 range")

    taper = np.hanning(win)
    rows = np.flatnonzero(np.sqrt(np.mean(frames**2, axis=1)) >= SILENCE_RMS)
    loud = frames[rows]
    loud -= loud.mean(axis=1, keepdims=True)
    loud *= taper
    # one lag beyond the search range so the local-max test has neighbors
    acf = frame_acf(loud, lag_max + 1)
    w_acf = frame_acf(taper[None, :], lag_max + 1)[0]
    live = acf[:, 0] > 0
    rows, acf = rows[live], acf[live]

    corr = acf / w_acf * (w_acf[0] / acf[:, :1])
    lags = np.arange(lag_min, lag_max + 1)
    c = corr[:, lag_min:lag_max + 1]
    # lags whose window overlap is too thin carry no usable signal, and
    # dividing by a near-zero window ACF would just amplify rounding noise;
    # a true period shows as an interior local maximum, whereas a boundary
    # argmax on a monotone slope is window-envelope correlation, not pitch
    is_peak = ((w_acf[lags + 1] > 1e-3 * w_acf[0])
               & (c > corr[:, lag_min - 1:lag_max])
               & (c > corr[:, lag_min + 1:lag_max + 2]))
    score = np.where(is_peak, c - OCTAVE_COST * np.log2(lags), -np.inf)
    j = lag_min + score.argmax(axis=1)
    at = np.arange(len(rows))
    y0, y1, y2 = corr[at, j - 1], corr[at, j], corr[at, j + 1]
    ok = is_peak.any(axis=1) & (y1 >= cfg.voicing_threshold)
    denom = y0 - 2 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 0.5 * (y0 - y2) / denom
    refine = (np.abs(denom) > 1e-12) & (-1 < delta) & (delta < 1)
    lag = np.where(refine, j + delta, j)

    values = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    values[rows[ok]] = np.clip(rate / lag[ok], cfg.f0_min, cfg.f0_max)
    voiced[rows[ok]] = True
    return FrameTrack(values=values, frame_shift_s=cfg.frame_shift_s,
                      valid=voiced)


def extract_energy(audio: AudioBuffer, frame_shift_s: float = 0.005,
                   window_s: float = 0.040) -> FrameTrack:
    """Log-RMS energy per frame: ln(max(RMS, 1e-6)).  All frames valid."""
    frames = _frame_signal(audio.samples, audio.sample_rate, frame_shift_s,
                           window_s)
    rms = np.sqrt(np.mean(frames**2, axis=1))
    values = np.log(np.maximum(rms, ENERGY_FLOOR))
    return FrameTrack(values=values, frame_shift_s=frame_shift_s)


def duration_track(utterance: Utterance, frame_shift_s: float,
                   total_duration_s: float) -> FrameTrack:
    """Piecewise-constant log word duration over each word's span.

    Frames whose center falls inside a non-punctuation token's [start, end)
    span take ln(end - start); frames in silences or punctuation spans are
    invalid gaps for the conditioning stage to fill.
    """
    for tok in utterance.tokens:
        if tok.start_s < -1e-9 or tok.end_s > total_duration_s + 1e-9:
            raise ValueError(
                f"span outside audio: token {tok.text!r} "
                f"[{tok.start_s:.3f}, {tok.end_s:.3f}] vs duration "
                f"{total_duration_s:.3f}"
            )
    n_frames = math.ceil(total_duration_s / frame_shift_s)
    values = np.zeros(n_frames)
    valid = np.zeros(n_frames, dtype=bool)
    times = np.arange(n_frames) * frame_shift_s
    for tok in utterance.tokens:
        if tok.is_punct:
            continue
        inside = (times >= tok.start_s) & (times < tok.end_s)
        values[inside] = math.log(tok.end_s - tok.start_s)
        valid[inside] = True
    return FrameTrack(values=values, frame_shift_s=frame_shift_s, valid=valid)
