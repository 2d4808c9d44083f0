"""Gap filling, smoothing, and per-utterance standardization of frame tracks.

Fixed pipeline order: interpolate_gaps -> smooth -> znormalize.  Each stage is
a pure function returning a new FrameTrack.
"""

from __future__ import annotations

import math

import numpy as np

from ._accel import mirror_correlate
from .acoustics import FrameTrack

DEGENERATE_STD = 1e-12


def interpolate_gaps(track: FrameTrack) -> FrameTrack:
    """Fill invalid runs linearly; extend edge gaps with the nearest value."""
    valid = track.valid
    if not valid.any():
        raise ValueError("no valid frames to interpolate from")
    values = track.values
    if valid.all():
        out = values.copy()
    else:
        idx = np.arange(len(values))
        # np.interp clamps outside the sample range, giving edge extension
        out = np.interp(idx, idx[valid], values[valid])
    return FrameTrack(values=out, frame_shift_s=track.frame_shift_s)


def gaussian_kernel(sigma_s: float, frame_shift_s: float) -> np.ndarray:
    """Unit-area Gaussian sampled at the frame rate, truncated at 3 sigma."""
    radius = int(math.ceil(3.0 * sigma_s / frame_shift_s))
    if radius < 1:
        return np.ones(1)
    t = np.arange(-radius, radius + 1) * frame_shift_s
    k = np.exp(-(t**2) / (2.0 * sigma_s**2))
    return k / k.sum()


def smooth(track: FrameTrack, sigma_s: float) -> FrameTrack:
    """Gaussian smoothing with reflective boundaries; sigma_s = 0 is identity."""
    if sigma_s < 0:
        raise ValueError("sigma_s must be non-negative")
    if not track.valid.all():
        raise ValueError("smooth requires a fully valid track")
    if sigma_s == 0:
        out = track.values.copy()
    else:
        kernel = gaussian_kernel(sigma_s, track.frame_shift_s)
        # symmetric kernel: correlation equals convolution
        out = mirror_correlate(track.values, kernel)
    return FrameTrack(values=out, frame_shift_s=track.frame_shift_s)


def znormalize(track: FrameTrack) -> tuple[FrameTrack, bool]:
    """Standardize to mean 0, population std 1.

    Returns (track, degenerate).  A track whose std falls below 1e-12 cannot
    be scaled; it comes back all zeros with the degenerate flag set.
    """
    if not track.valid.all():
        raise ValueError("znormalize requires a fully valid track")
    values = track.values
    if len(values) < 2:
        raise ValueError("znormalize requires length >= 2")
    dev = values - values.mean()
    # second centering pass: for a near-constant track the first mean's
    # rounding error rivals the spread and would leak into every residual
    dev -= dev.mean()
    std = np.sqrt(np.mean(dev**2))
    if std < DEGENERATE_STD:
        out = np.zeros_like(values)
        degenerate = True
    else:
        out = dev / std
        degenerate = False
    return FrameTrack(values=out, frame_shift_s=track.frame_shift_s), degenerate


def condition(track: FrameTrack, sigma_s: float) -> tuple[FrameTrack, bool]:
    """interpolate_gaps -> smooth -> znormalize, returning the degenerate flag."""
    return znormalize(smooth(interpolate_gaps(track), sigma_s))
