"""Frame-synchronous prosodic stream extraction: pitch, energy, duration.

The front end frames each utterance once (`frame_audio`): frame i is centered
at sample i * hop (hop = rate * frame_shift_s rounded to whole samples), edges
zero-padded, and the number of frames is ceil(n_samples / hop).  That framing
is the one grid: pitch and energy read its frames, and the duration track and
every frame time read its frame count and its real period, hop / rate.
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
    voicing_threshold: float = 0.45

    def __post_init__(self) -> None:
        if not 0 < self.f0_min < self.f0_max:
            raise ValueError("need 0 < f0_min < f0_max")
        if not 0 < self.voicing_threshold < 1:
            raise ValueError("voicing_threshold must lie in (0, 1)")


@dataclass
class Frames:
    """One utterance cut on the front end's frame grid."""

    samples: np.ndarray  # read-only (n_frames, win) view of one padded copy
    rms: np.ndarray  # per-frame RMS of the raw samples
    sample_rate: int
    frame_shift_s: float  # hop / sample_rate: the period the frames have


def frame_audio(audio: AudioBuffer, frame_shift_s: float,
                window_s: float) -> Frames:
    """Cut the audio into centered, zero-padded frames and take each
    frame's RMS."""
    rate = audio.sample_rate
    hop = max(1, round(rate * frame_shift_s))
    win = round(rate * window_s)
    n = len(audio.samples)
    if n < win:
        raise ValueError(
            f"audio shorter than one window ({n} samples < {win})"
        )
    n_frames = math.ceil(n / hop)
    padded = np.concatenate([np.zeros(win), audio.samples, np.zeros(win)])
    frames = sliding_window_view(padded, win)[win - win // 2::hop][:n_frames]
    return Frames(samples=frames, rms=np.sqrt(np.mean(frames**2, axis=1)),
                  sample_rate=rate, frame_shift_s=hop / rate)


def extract_f0(frames: Frames, cfg: PitchConfig) -> FrameTrack:
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
    rate = frames.sample_rate
    n_frames, win = frames.samples.shape

    lag_min = max(2, int(math.floor(rate / cfg.f0_max)))
    lag_max = min(win - 3, int(math.ceil(rate / cfg.f0_min)))
    if lag_max <= lag_min:
        raise ValueError("window too short for the requested f0 range")

    taper = np.hanning(win)
    rows = np.flatnonzero(frames.rms >= SILENCE_RMS)
    loud = frames.samples[rows]
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
    return FrameTrack(values=values, frame_shift_s=frames.frame_shift_s,
                      valid=voiced)


def extract_energy(frames: Frames) -> FrameTrack:
    """Log-RMS energy per frame: ln(max(RMS, 1e-6)).  All frames valid."""
    return FrameTrack(values=np.log(np.maximum(frames.rms, ENERGY_FLOOR)),
                      frame_shift_s=frames.frame_shift_s)


def duration_track(utterance: Utterance, n_frames: int,
                   frame_shift_s: float) -> FrameTrack:
    """Piecewise-constant log word duration over each word's span, on a grid
    of n_frames frames frame_shift_s apart.

    Frames whose center falls inside a non-punctuation token's [start, end)
    span take ln(end - start); frames in silences or punctuation spans are
    invalid gaps for the conditioning stage to fill.
    """
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
