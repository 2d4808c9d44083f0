"""Continuous word prominence from composed prosodic streams.

The pipeline: compose the three z-normalized streams into one signal, run a
Mexican-hat continuous wavelet transform over a dyadic scale grid, trace lines
of maximum amplitude from the coarsest scale down, and give each word the
strength of the strongest line landing inside (or nearest to) its span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._accel import mirror_correlate
from .acoustics import FrameTrack, PitchConfig, duration_track, \
    extract_energy, extract_f0, frame_audio
from .conditioning import condition
from .corpus_io import AudioBuffer, Utterance
from .discretize import Thresholds, discretize

PRODUCT_SHIFT_EPS = 1.0


class AnnotationError(ValueError):
    """Pipeline failure, tagged with the stage and utterance that caused it."""

    def __init__(self, utt_id: str, stage: str, message: str):
        super().__init__(f"utterance {utt_id!r}: stage {stage}: {message}")
        self.utt_id = utt_id
        self.stage = stage


@dataclass
class CompositeConfig:
    w_f0: float = 1.0
    w_energy: float = 0.5
    w_dur: float = 1.0
    mode: str = "product"

    def __post_init__(self) -> None:
        if min(self.w_f0, self.w_energy, self.w_dur) < 0:
            raise ValueError("stream weights must be non-negative")
        if max(self.w_f0, self.w_energy, self.w_dur) == 0:
            raise ValueError("at least one stream weight must be positive")
        if self.mode not in ("sum", "product"):
            raise ValueError(f"unknown composition mode {self.mode!r}")


@dataclass
class ScaleGrid:
    n_scales: int = 12
    min_period_s: float = 0.1
    scales_per_octave: int = 2

    def __post_init__(self) -> None:
        if self.n_scales < 1 or self.scales_per_octave < 1:
            raise ValueError("n_scales and scales_per_octave must be positive")
        if self.min_period_s <= 0:
            raise ValueError("min_period_s must be positive")

    def periods_s(self) -> np.ndarray:
        i = np.arange(self.n_scales)
        return self.min_period_s * 2.0 ** (i / self.scales_per_octave)

    def scales_s(self) -> np.ndarray:
        # wavelet scale parameter for a given oscillation period
        return self.periods_s() / (2.0 * math.pi * math.sqrt(2.0))


@dataclass
class Scalogram:
    coeffs: np.ndarray  # (n_scales, n_frames); row 0 = finest scale
    grid: ScaleGrid
    frame_shift_s: float


@dataclass
class Loma:
    """A coarse-to-fine path of local maxima with its accumulated amplitude."""

    path: list[tuple[int, int]]  # (scale_index, frame_index), coarsest first
    strength: float


@dataclass
class AnnotateConfig:
    """Everything one annotation run needs, with reproducible defaults.

    frame_shift_s and window_s are the front end's one frame grid: they
    frame both the pitch and the energy stream.
    """

    pitch: PitchConfig = field(default_factory=PitchConfig)
    composite: CompositeConfig = field(default_factory=CompositeConfig)
    grid: ScaleGrid = field(default_factory=ScaleGrid)
    frame_shift_s: float = 0.005
    window_s: float = 0.040
    smooth_sigma_s: float = 0.02
    dur_smooth_sigma_s: float = 0.0
    thresholds: Thresholds = field(default_factory=lambda: Thresholds(0.5, 1.0))
    n_classes: int = 3

    def __post_init__(self) -> None:
        if self.window_s * self.pitch.f0_max < 2:
            raise ValueError("window must span at least 2 periods of f0_max")
        if self.frame_shift_s <= 0:
            raise ValueError(
                f"frame_shift_s must be positive, got {self.frame_shift_s}")
        for key in ("smooth_sigma_s", "dur_smooth_sigma_s"):
            if getattr(self, key) < 0:
                raise ValueError(
                    f"{key} must be non-negative, got {getattr(self, key)}")


def compose(f0: FrameTrack, energy: FrameTrack, dur: FrameTrack,
            cfg: CompositeConfig) -> FrameTrack:
    """Merge three standardized streams into one prominence carrier signal.

    Sum mode is the plain weighted sum.  Product mode shifts each stream
    positive first (s - min(s) + 1) so that weights act as exponents on values
    >= 1; raw multiplication of signed z-scores would let two negatives make
    a positive.
    """
    tracks = (f0, energy, dur)
    lengths = {len(t) for t in tracks}
    if len(lengths) != 1:
        raise ValueError(f"stream length mismatch: {sorted(lengths)}")
    shifts = {t.frame_shift_s for t in tracks}
    if len(shifts) != 1:
        raise ValueError(f"frame shift mismatch: {sorted(shifts)}")
    weights = (cfg.w_f0, cfg.w_energy, cfg.w_dur)
    if cfg.mode == "sum":
        out = np.zeros(len(f0))
        for t, w in zip(tracks, weights):
            out = out + w * t.values
    else:
        out = np.ones(len(f0))
        for t, w in zip(tracks, weights):
            shifted = t.values - t.values.min() + PRODUCT_SHIFT_EPS
            out = out * shifted**w
    return FrameTrack(values=out, frame_shift_s=f0.frame_shift_s)


def ricker(scale_frames: float, radius: int) -> np.ndarray:
    """Mexican-hat wavelet samples at integer offsets -radius..radius."""
    t = np.arange(-radius, radius + 1) / scale_frames
    return (1.0 - t**2) * np.exp(-(t**2) / 2.0)


def cwt(track: FrameTrack, grid: ScaleGrid) -> Scalogram:
    """Mexican-hat CWT of the mean-removed track over the dyadic scale grid.

    Row i holds sum_j x[j] psi((j - b) / a_i) scaled by a_i^(-3/2), i.e. the
    L1-dilated wavelet with the extra 1/sqrt(a) factor, computed with mirror
    boundaries.  This scaling makes an isolated Gaussian bump of width sigma
    respond most strongly at a = sigma, which is what ties scales to event
    widths downstream.
    """
    if not track.valid.all():
        raise ValueError("cwt requires a fully valid track")
    n = len(track)
    duration = n * track.frame_shift_s
    periods = grid.periods_s()
    if periods[-1] > 2.0 * duration:
        raise ValueError(
            f"track too short for coarsest scale: period {periods[-1]:.3f}s "
            f"needs duration >= {periods[-1] / 2:.3f}s, have {duration:.3f}s"
        )
    x = track.values - track.values.mean()
    scales_f = grid.scales_s() / track.frame_shift_s
    coeffs = np.empty((grid.n_scales, n))
    for i, a in enumerate(scales_f):
        radius = max(1, int(math.ceil(5.0 * a)))
        kernel = ricker(a, radius)
        # symmetric kernel: correlate equals convolve
        coeffs[i] = mirror_correlate(x, kernel) * a**-1.5
    return Scalogram(coeffs=coeffs, grid=grid,
                     frame_shift_s=track.frame_shift_s)


def _strict_maxima(row: np.ndarray) -> np.ndarray:
    """Indices of interior strict local maxima with positive value."""
    if len(row) < 3:
        return np.empty(0, dtype=np.int64)
    interior = row[1:-1]
    hits = (interior > row[:-2]) & (interior > row[2:]) & (interior > 0)
    return np.nonzero(hits)[0] + 1


def extract_loma(s: Scalogram) -> list[Loma]:
    """Trace lines of maximum amplitude from the coarsest row down.

    Each strict positive local maximum of the coarsest row seeds a line.  At
    every descent the line jumps to the strongest positive local maximum of
    the next finer row within +-W frames, W being half that row's period (at
    least one frame); no candidate ends the line early.  Lines sharing an
    endpoint collapse to the strongest one.
    """
    coeffs = s.coeffs
    n_scales, n_frames = coeffs.shape
    periods_f = s.grid.periods_s() / s.frame_shift_s
    maxima = [_strict_maxima(coeffs[i]) for i in range(n_scales)]

    lines: list[tuple[Loma, int]] = []
    for seed in maxima[n_scales - 1]:
        path = [(n_scales - 1, int(seed))]
        strength = float(coeffs[n_scales - 1, seed])
        pos = int(seed)
        for row in range(n_scales - 2, -1, -1):
            w = max(1, int(round(periods_f[row] / 2.0)))
            cands = maxima[row]
            cands = cands[(cands >= pos - w) & (cands <= pos + w)]
            if len(cands) == 0:
                break
            vals = coeffs[row, cands]
            best = vals.max()
            tied = cands[vals == best]
            # prefer the candidate closest to the current position
            pos = int(tied[np.argmin(np.abs(tied - pos))])
            path.append((row, pos))
            strength += float(best)
        lines.append((Loma(path=path, strength=strength), int(seed)))

    # deduplicate by endpoint, keeping the strongest (earlier seed on ties)
    by_end: dict[tuple[int, int], tuple[Loma, int]] = {}
    for loma, seed in lines:
        key = loma.path[-1]
        kept = by_end.get(key)
        if kept is None or loma.strength > kept[0].strength:
            by_end[key] = (loma, seed)
    out = sorted(by_end.values(), key=lambda pair: pair[1])
    return [loma for loma, _ in out]


def word_prominence(lomas: list[Loma], utterance: Utterance,
                    frame_shift_s: float) -> np.ndarray:
    """Assign each word the max strength of the lines ending inside its span.

    A line's time is its finest endpoint's frame center.  Lines landing in
    silences or punctuation spans go to the nearest word by span-boundary
    distance.  Words without any line get 0; punctuation tokens get NaN.
    """
    words = [(i, t) for i, t in enumerate(utterance.tokens) if not t.is_punct]
    values = [math.nan if t.is_punct else 0.0 for t in utterance.tokens]
    for loma in lomas:
        t = loma.path[-1][1] * frame_shift_s
        owner = None
        for i, tok in words:
            if tok.start_s <= t < tok.end_s:
                owner = i
                break
        if owner is None:
            best_dist = math.inf
            for i, tok in words:
                dist = tok.start_s - t if t < tok.start_s else t - tok.end_s
                if dist < best_dist:
                    best_dist = dist
                    owner = i
        values[owner] = max(values[owner], max(loma.strength, 0.0))
    return np.array(values)


def _zero_track(n: int, shift: float) -> FrameTrack:
    return FrameTrack(values=np.zeros(n), frame_shift_s=shift)


def annotate_utterance(audio: AudioBuffer, utterance: Utterance,
                       cfg: AnnotateConfig | None = None,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Full acoustic pipeline: streams -> conditioning -> CWT -> word values.

    Returns the int8 label code and the float64 continuous prominence of
    each token: NA and NaN at punctuation.  Degenerate streams (no voiced
    frames, constant energy) fall back to all-zero signals; if both pitch and
    energy are degenerate the audio carries no usable prosody and every word
    gets 0.
    """
    if cfg is None:
        cfg = AnnotateConfig()
    uid = utterance.id or "<unnamed>"

    if not utterance.word_indices():
        raise AnnotationError(uid, "input", "no words to annotate")
    for tok in utterance.tokens:
        if "\t" in tok.text:
            raise AnnotationError(
                uid, "input", f"token {tok.text!r} holds a tab, which a "
                "dataset line cannot hold")
        if not (tok.start_s >= -1e-9 and tok.end_s <= audio.duration_s + 1e-9):
            raise AnnotationError(
                uid, "input",
                f"span outside audio: token {tok.text!r} [{tok.start_s:.3f}, "
                f"{tok.end_s:.3f}]s but audio lasts {audio.duration_s:.3f}s"
            )
        if not (tok.is_punct or tok.end_s > tok.start_s):
            raise AnnotationError(
                uid, "input",
                f"zero-length word {tok.text!r}: [{tok.start_s:.3f}, "
                f"{tok.end_s:.3f}]s does not end after it starts"
            )

    def run(stage, fn, *args):
        try:
            return fn(*args)
        except AnnotationError:
            raise
        except Exception as exc:
            raise AnnotationError(uid, stage, str(exc)) from exc

    # audio too short to frame is reported as the pitch tracker's failure;
    # the framing is the one grid every stream and frame time reads
    frames = run("extract_f0", frame_audio, audio, cfg.frame_shift_s,
                 cfg.window_s)
    n, shift = len(frames.rms), frames.frame_shift_s
    f0_raw = run("extract_f0", extract_f0, frames, cfg.pitch)
    en_raw = run("extract_energy", extract_energy, frames)
    du_raw = run("duration_track", duration_track, utterance, n, shift)
    if n < 2:
        raise AnnotationError(uid, "conditioning", "fewer than 2 frames")

    def prep(track: FrameTrack, sigma: float) -> tuple[FrameTrack, bool]:
        if not track.valid.any():
            return _zero_track(n, shift), True
        return run("conditioning", condition, track, sigma)

    f0c, f0_degen = prep(f0_raw, cfg.smooth_sigma_s)
    enc, en_degen = prep(en_raw, cfg.smooth_sigma_s)
    duc, _ = prep(du_raw, cfg.dur_smooth_sigma_s)

    if f0_degen and en_degen:
        # no pitch, no level variation: nothing prosodic to rank words by
        composite = _zero_track(n, shift)
    else:
        composite = run("compose", compose, f0c, enc, duc, cfg.composite)

    scal = run("cwt", cwt, composite, cfg.grid)
    lomas = run("extract_loma", extract_loma, scal)
    values = run("word_prominence", word_prominence, lomas, utterance, shift)
    return run("discretize", discretize, values, cfg.thresholds,
               cfg.n_classes), values
