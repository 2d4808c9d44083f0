"""Frame-synchronous prosodic stream extraction: pitch, energy, duration.

The front end frames each utterance once (`frame_audio`): frame i is centered
at sample i * hop (hop = rate * frame_shift_s rounded to whole samples), edges
zero-padded, and the number of frames is ceil(n_samples / hop).  That framing
is the one grid: pitch and energy read its frames, and the duration track and
every frame time read its frame count and its real period, hop / rate.

The per-frame work (RMS, the taper, the FFT autocorrelation and the peak
picking) runs over blocks of at most FRAME_BLOCK frames, so its arrays stay
in cache and its memory does not grow with the utterance.  RMS sums each
frame's window of one squared span of samples per block, not a gathered
copy of the frames.  The peak picking reads each block's band of lags as
one flat array, frame after frame, in a few whole-array passes that the
call's own buffers hold: the neighbour test there also compares one frame's
last lag with the next frame's first, and a penalty of +inf at both edge
lags keeps those two columns out of every pick.  The parabolic refinement
of the winning lags runs once per REFINE_BLOCKS blocks, over the voiced
frames they picked.  So each frame's result depends on that frame alone,
not on where the blocks fall.
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
# Most frames one step of the front end holds at a time.  At 16 kHz (a
# 640-sample window and a 230-lag band) each extract_f0 call allocates once:
# the 64 x 1024 float64 FFT buffer (512 KiB), transformed in place; the
# 64 x 230 band and its score (115 KiB each); two 64 x 230 peak masks
# (29 KiB together); and the 64 row scales.  Each block adds its 513-bin
# spectrum (513 KiB) during the transform and the frames' own 64 x 640 copy
# (320 KiB) before it.  A fixed bound, not a setting.
FRAME_BLOCK = 64
# Blocks whose voiced rows extract_f0 refines in one pass.  Until then each
# such row keeps its frame index, winning column and three band values (40
# bytes), so a chunk holds at most 40 KiB.  A fixed bound, not a setting.
REFINE_BLOCKS = 16


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
    """One utterance on the front end's frame grid: frame i is the `win`
    samples that start at i * hop - win // 2, zero past either end."""

    samples: np.ndarray  # the float64 audio itself, never written
    hop: int
    win: int
    rms: np.ndarray  # per-frame RMS of the raw samples
    sample_rate: int

    def __post_init__(self) -> None:
        self._windows = sliding_window_view(self.samples, self.win)

    @property
    def frame_shift_s(self) -> float:
        """hop / sample_rate: the period the frames have."""
        return self.hop / self.sample_rate

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Frames `rows`, in ascending order, as a new ``(len(rows), win)``
        array."""
        n, win, hop = len(self.samples), self.win, self.hop
        starts = rows * hop - win // 2
        # rows p..q-1 lie inside the audio, the others reach past an end
        p, q = np.searchsorted(starts, (0, n - win + 1))
        out = self._windows[np.minimum(np.maximum(starts, 0), n - win)]
        for r in (*range(p), *range(q, len(rows))):
            s = starts[r]
            lo, hi = max(0, -s), min(win, n - s)
            out[r, :lo] = 0
            out[r, lo:hi] = self.samples[s + lo:s + hi]
            out[r, hi:] = 0
        return out


def frame_audio(audio: AudioBuffer, frame_shift_s: float,
                window_s: float) -> Frames:
    """Put the audio on the frame grid and take each frame's RMS."""
    rate = audio.sample_rate
    hop = round(rate * frame_shift_s)
    if hop < 1:
        raise ValueError(f"frame shift {frame_shift_s} s is less than one "
                         f"sample at {rate} Hz")
    win = round(rate * window_s)
    n = len(audio.samples)
    if n < win:
        raise ValueError(
            f"audio shorter than one window ({n} samples < {win})"
        )
    n_frames = math.ceil(n / hop)
    frames = Frames(samples=np.asarray(audio.samples, dtype=np.float64),
                    hop=hop, win=win, rms=np.empty(n_frames),
                    sample_rate=rate)
    rms = frames.rms
    # each block of frames squares the span of samples they cover once, zero
    # past either end of the audio, and sums every frame's window of it, in
    # the same pairwise order as a sum over the frame's own copy
    half = win // 2
    squares = np.empty((FRAME_BLOCK - 1) * hop + win)
    windows = sliding_window_view(squares, win)[::hop]
    for a in range(0, n_frames, FRAME_BLOCK):
        k = min(FRAME_BLOCK, n_frames - a)
        start = a * hop - half
        span = squares[:(k - 1) * hop + win]
        lo, hi = max(0, -start), min(len(span), n - start)
        span[:lo] = 0
        span[hi:] = 0
        np.square(frames.samples[start + lo:start + hi], out=span[lo:hi])
        out = rms[a:a + k]
        np.add.reduce(windows[:k], axis=1, out=out)
        out /= win
        np.sqrt(out, out=out)
    return frames


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
    rate, win, n_frames = frames.sample_rate, frames.win, len(frames.rms)

    lag_min = max(2, int(math.floor(rate / cfg.f0_max)))
    lag_max = min(win - 3, int(math.ceil(rate / cfg.f0_min)))
    if lag_max <= lag_min:
        raise ValueError("window too short for the requested f0 range")

    # one lag beyond the search range so the local-max test has neighbors;
    # a row holds a frame and at least that many zeros, so its circular ACF
    # is the linear one
    nfft = 1
    while nfft < win + lag_max + 2:
        nfft *= 2
    buf = np.zeros((FRAME_BLOCK, nfft))
    taper = np.hanning(win)
    buf[0, :win] = taper
    w_acf = frame_acf(buf[:1], lag_max + 1)[0].copy()
    lags = np.arange(lag_min, lag_max + 1)
    # lags whose window overlap is too thin carry no usable signal, and
    # dividing by a near-zero window ACF would just amplify rounding noise
    thick = w_acf[lags + 1] > 1e-3 * w_acf[0]
    octave = OCTAVE_COST * np.log2(lags)

    # the peak test reads the corrected ACF over lags lag_min - 1 ..
    # lag_max + 1 only; band[:, i] is lag lag_min - 1 + i, and pen[i] is the
    # cost of picking it: +inf at both edges and at thin lags
    w_band = w_acf[lag_min - 1:lag_max + 2]
    m = len(w_band)
    pen = np.full(m, np.inf)
    pen[1:-1] = np.where(thick, octave, np.inf)
    band_buf = np.empty(FRAME_BLOCK * m)
    scale_buf = np.empty(FRAME_BLOCK)
    score = np.empty(FRAME_BLOCK * m)
    peak = np.empty(2 * FRAME_BLOCK * m, dtype=bool)

    values = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    loud_rows = np.flatnonzero(frames.rms >= SILENCE_RMS)
    around = np.array([[-1], [0], [1]])
    # the parabolic refinement runs once per chunk of REFINE_BLOCKS blocks,
    # over the voiced rows that the chunk's blocks picked
    chunk = REFINE_BLOCKS * FRAME_BLOCK
    for c in range(0, len(loud_rows), chunk):
        picked = []
        for a in range(c, min(c + chunk, len(loud_rows)), FRAME_BLOCK):
            rows = loud_rows[a:a + FRAME_BLOCK]
            block = buf[:len(rows)]
            # zero-mean and taper the frames in their own contiguous copy,
            # where numpy's elementwise passes cost less than half what they
            # cost on the buffer's strided rows; the copy is let go before
            # the transform
            loud = frames.gather(rows)
            loud -= np.add.reduce(loud, axis=1, keepdims=True) / win
            loud *= taper
            block[:, :win] = loud
            block[:, win:] = 0
            del loud
            acf = frame_acf(block, lag_max + 1)
            # each row's scale to the normalized ACF; a dead row (r0 = 0)
            # gets nan, which fails every peak test
            r0 = acf[:, 0]
            scale = scale_buf[:len(rows)]
            scale.fill(np.nan)
            np.divide(w_acf[0], r0, out=scale, where=r0 > 0)
            band = band_buf[:len(rows) * m].reshape(-1, m)
            np.divide(acf[:, lag_min - 1:], w_band, out=band)
            band *= scale[:, None]
            col, ok = pick_peaks(band, pen, cfg.voicing_threshold, score,
                                 peak)
            # the voiced rows, their winning columns and the band around them
            col = col[ok]
            at = np.flatnonzero(ok) * m + col
            picked.append((rows[ok], col, band_buf[at + around]))
        rows, col, (y0, y1, y2) = (np.concatenate(p, axis=-1)
                                   for p in zip(*picked))
        denom = y0 - 2 * y1 + y2
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = 0.5 * (y0 - y2) / denom
        refine = (np.abs(denom) > 1e-12) & (np.abs(delta) < 1)
        j = lag_min - 1 + col
        values[rows] = np.where(refine, j + delta, j)
        voiced[rows] = True
    # the voiced frames hold their lags until here
    values[voiced] = np.minimum(np.maximum(rate / values[voiced], cfg.f0_min),
                                cfg.f0_max)
    return FrameTrack(values=values, frame_shift_s=frames.frame_shift_s,
                      valid=voiced)


def pick_peaks(band: np.ndarray, pen: np.ndarray, threshold: float,
               score: np.ndarray, peak: np.ndarray):
    """The winning column of each row of `band` and whether it is voiced.

    A column is a candidate when it lies above both its neighbours in the
    row and its penalty `pen` is finite: a true period shows as an interior
    local maximum, whereas a maximum at a band edge on a monotone slope is
    window-envelope correlation, not pitch.  The winner maximizes
    band - pen over the candidates, the first on a tie, and the row is
    voiced when it has a candidate and the winner's band value reaches
    `threshold`.  The neighbour test runs over the flattened band, so a
    row's first and last columns meet the rows beside it there; `pen` is
    +inf at both, which keeps them out.  `score` (float64) and `peak`
    (bool, twice as long) are scratch space of at least band.size entries.
    """
    k, m = band.shape
    n = k * m
    flat, s = band.reshape(-1), score[:n]
    up, down = peak[:n], peak[n:2 * n]
    up[:1] = False
    np.greater(flat[1:], flat[:-1], out=up[1:])
    np.greater(flat[:-1], flat[1:], out=down[:-1])
    down[-1:] = False
    up &= down
    at = np.flatnonzero(up)
    # an infinite band value in a penalised column would score inf - inf
    cost = pen[at % m]
    keep = cost < np.inf
    at = at[keep]
    s.fill(-np.inf)
    s[at] = flat[at] - cost[keep]
    col = s.reshape(k, m).argmax(axis=1)
    at = np.arange(0, n, m) + col
    return col, (s[at] > -np.inf) & (flat[at] >= threshold)


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
