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

def chain_forward(log_pot: np.ndarray, trans: np.ndarray):
    """Forward recursion in the log domain; returns ``(logZ, alpha)``.

    States that are impossible carry ``NEG_INF`` in ``log_pot`` rather than
    ``-inf`` so the arithmetic stays NaN-free.
    """
    n_pos, n_states = log_pot.shape
    alpha = np.empty((n_pos, n_states))
    alpha[0] = log_pot[0]
    for t in range(1, n_pos):
        scores = alpha[t - 1][:, None] + trans
        m = scores.max(axis=0)
        safe = m > NEG_INF / 2
        lse = np.full(n_states, NEG_INF)
        if safe.any():
            lse[safe] = m[safe] + np.log(
                np.exp(scores[:, safe] - m[safe]).sum(axis=0)
            )
        alpha[t] = np.where(safe, log_pot[t] + lse, NEG_INF)
    m = alpha[-1].max()
    if m <= NEG_INF / 2:
        return NEG_INF, alpha
    return m + np.log(np.exp(alpha[-1] - m).sum()), alpha


def chain_backward(log_pot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    n_pos, n_states = log_pot.shape
    beta = np.zeros((n_pos, n_states))
    for t in range(n_pos - 2, -1, -1):
        scores = trans + (log_pot[t + 1] + beta[t + 1])[None, :]
        m = scores.max(axis=1)
        safe = m > NEG_INF / 2
        lse = np.full(n_states, NEG_INF)
        if safe.any():
            lse[safe] = m[safe] + np.log(
                np.exp(scores[safe] - m[safe][:, None]).sum(axis=1)
            )
        beta[t] = lse
    return beta


def chain_viterbi(log_pot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Best-scoring state path; ties resolve to the smallest state index."""
    n_pos, n_states = log_pot.shape
    delta = np.empty((n_pos, n_states))
    back = np.zeros((n_pos, n_states), dtype=np.int64)
    delta[0] = log_pot[0]
    for t in range(1, n_pos):
        scores = delta[t - 1][:, None] + trans
        back[t] = scores.argmax(axis=0)  # argmax keeps the first (smallest) index
        delta[t] = log_pot[t] + scores[back[t], np.arange(n_states)]
    path = np.zeros(n_pos, dtype=np.int64)
    path[-1] = int(delta[-1].argmax())
    for t in range(n_pos - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path
