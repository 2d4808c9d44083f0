"""Numeric inner-loop kernels, one vectorized numpy implementation each.

``mirror_correlate`` smooths tracks and builds the wavelet rows,
``frame_acf`` feeds the pitch tracker, and the three linear-chain dynamic
programs serve the CRF tagger.
"""

from __future__ import annotations

import numpy as np

NEG_INF = -1.0e30  # finite stand-in for log(0); keeps log-sum-exp NaN-free

# Kept for the benchmark harness, which reports both in its machine block.
BACKEND = "numpy"
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# mirror-boundary 1-D correlation (shared by smoothing and the wavelet rows)
# ---------------------------------------------------------------------------

def mirror_correlate(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate ``x`` with ``kernel`` (odd length), mirroring at both ends.

    Mirror convention omits the edge sample: ``a b c d -> c b | a b c d | c b``.
    For the symmetric kernels used here correlation equals convolution.
    """
    n = x.shape[0]
    radius = (kernel.shape[0] - 1) // 2
    if n == 1:
        return np.array([x[0] * kernel.sum()])
    period = 2 * n - 2
    j = np.arange(-radius, n + radius)
    jj = np.mod(j, period)
    jj = np.where(jj >= n, period - jj, jj)
    return np.correlate(x[jj], kernel, mode="valid")


# ---------------------------------------------------------------------------
# frame-wise autocorrelation (pitch tracking)
# ---------------------------------------------------------------------------

def frame_acf(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """One-sided autocorrelation of each row for lags ``0..max_lag`` via FFT."""
    n_frames, width = frames.shape
    nfft = 1
    while nfft < width + max_lag + 1:
        nfft *= 2
    spec = np.fft.rfft(frames, nfft, axis=1)
    acf = np.fft.irfft(spec.real**2 + spec.imag**2, nfft, axis=1)
    return acf[:, : max_lag + 1].copy()


# ---------------------------------------------------------------------------
# linear-chain dynamic programs (sequence tagger)
# ---------------------------------------------------------------------------

def chain_forward(log_pot: np.ndarray, trans: np.ndarray,
                  lengths: np.ndarray):
    """Forward recursion in the log domain over a padded batch.

    ``log_pot`` is ``(B, T, S)``: sentence ``b`` fills its first
    ``lengths[b]`` rows, and the rows past them are padding.  Returns
    ``(logZ, alpha)`` with ``logZ`` of shape ``(B,)``; a sentence of length
    0 has logZ 0.  States that are impossible carry ``NEG_INF`` rather than
    ``-inf`` so the arithmetic stays NaN-free: a position with no live
    predecessor keeps every entry at or below ``NEG_INF / 2``, and so does
    all of alpha past a sentence's end when its padding rows are
    ``NEG_INF``.
    """
    n_batch, n_pos, n_states = log_pot.shape
    alpha = np.empty((n_batch, n_pos, n_states))
    alpha[:, 0] = log_pot[:, 0]
    for t in range(1, n_pos):
        scores = alpha[:, t - 1, :, None] + trans
        m = scores.max(axis=1)
        alpha[:, t] = log_pot[:, t] + (
            m + np.log(np.exp(scores - m[:, None, :]).sum(axis=1)))
    last = alpha[np.arange(n_batch), lengths - 1]
    m = last.max(axis=1)
    log_z = m + np.log(np.exp(last - m[:, None]).sum(axis=1))
    # an empty sentence has one labeling, the empty one
    return np.where(lengths > 0, log_z, 0.0), alpha


def chain_backward(log_pot: np.ndarray, trans: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Backward recursion over a padded batch laid out as for
    ``chain_forward``; beta is 0 from each sentence's last position on."""
    n_batch, n_pos, n_states = log_pot.shape
    beta = np.zeros((n_batch, n_pos, n_states))
    inside = lengths[:, None] - 1
    for t in range(n_pos - 2, -1, -1):
        scores = trans + (log_pot[:, t + 1] + beta[:, t + 1])[:, None, :]
        m = scores.max(axis=2)
        beta[:, t] = np.where(
            t < inside,
            m + np.log(np.exp(scores - m[:, :, None]).sum(axis=2)), 0.0)
    return beta


def chain_viterbi(log_pot: np.ndarray, trans: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Best-scoring state path of each sentence of a padded batch laid out as
    for ``chain_forward``, as ``(B, T)`` states (entries past a sentence's
    end are padding); ties resolve to the smallest state index."""
    n_batch, n_pos, n_states = log_pot.shape
    delta = np.empty((n_batch, n_pos, n_states))
    back = np.zeros((n_batch, n_pos, n_states), dtype=np.int64)
    delta[:, 0] = log_pot[:, 0]
    for t in range(1, n_pos):
        scores = delta[:, t - 1, :, None] + trans
        # argmax keeps the first (smallest) index
        back[:, t] = scores.argmax(axis=1)
        delta[:, t] = log_pot[:, t] + np.take_along_axis(
            scores, back[:, t, None, :], axis=1)[:, 0]
    rows = np.arange(n_batch)
    last = delta[rows, lengths - 1].argmax(axis=1)
    path = np.zeros((n_batch, n_pos), dtype=np.int64)
    state = last
    for t in range(n_pos - 1, -1, -1):
        state = np.where(lengths - 1 == t, last, state)
        path[:, t] = state
        state = back[rows, t, state]
    return path
