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

def frame_acf(rows: np.ndarray, max_lag: int) -> np.ndarray:
    """One-sided autocorrelation of each row for lags ``0..max_lag`` via FFT,
    computed in place.

    `rows` is a float64 ``(k, nfft)`` array whose rows end in at least
    ``max_lag`` zeros, so the circular autocorrelation of a row is its
    linear one.  The rows are overwritten with it, and the result is a view
    of their first ``max_lag + 1`` columns.
    """
    spec = np.fft.rfft(rows, axis=1)
    # square the real and imaginary parts in one pass over both
    flat = spec.view(np.float64)
    flat *= flat
    re, im = spec.real, spec.imag
    re += im
    im[:] = 0
    np.fft.irfft(spec, rows.shape[1], axis=1, out=rows)
    return rows[:, :max_lag + 1]


# ---------------------------------------------------------------------------
# linear-chain dynamic programs (sequence tagger)
# ---------------------------------------------------------------------------

def fold(op, columns) -> np.ndarray:
    """`op` (``np.maximum`` or ``np.add``) applied left to right over the
    arrays `columns`, the entries of a short axis of a table.

    Over the 2-5 label or state columns that the taggers reduce, this is bit
    for bit numpy's reduction along that axis (max is exact, and numpy adds
    so short an axis in index order), in ``len(columns) - 1`` elementwise
    calls, which cost less than one reduction along a short axis.
    """
    if len(columns) == 1:
        return columns[0].copy()
    out = op(columns[0], columns[1])
    for column in columns[2:]:
        op(out, column, out=out)
    return out


def _logsumexp(columns: np.ndarray) -> np.ndarray:
    """log(sum(exp)) along the first axis of `columns`, shifted by the
    maximum; `columns` is overwritten."""
    m = fold(np.maximum, columns)
    np.exp(np.subtract(columns, m, out=columns), out=columns)
    return m + np.log(fold(np.add, columns))


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
    # scores[i, b, j]: previous state i, then state j
    scores = np.empty((n_states, n_batch, n_states))
    for t in range(1, n_pos):
        np.add(alpha[:, t - 1].T[:, :, None], trans[:, None, :], out=scores)
        alpha[:, t] = log_pot[:, t] + _logsumexp(scores)
    last = alpha[np.arange(n_batch), lengths - 1]
    log_z = _logsumexp(last.T.copy())
    # an empty sentence has one labeling, the empty one
    return np.where(lengths > 0, log_z, 0.0), alpha


def chain_backward(log_pot: np.ndarray, trans: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Backward recursion over a padded batch laid out as for
    ``chain_forward``; beta is 0 from each sentence's last position on."""
    n_batch, n_pos, n_states = log_pot.shape
    beta = np.zeros((n_batch, n_pos, n_states))
    inside = lengths[:, None] - 1
    # scores[j, b, i]: state i, then next state j
    scores = np.empty((n_states, n_batch, n_states))
    for t in range(n_pos - 2, -1, -1):
        after = log_pot[:, t + 1] + beta[:, t + 1]
        np.add(trans.T[:, None, :], after.T[:, :, None], out=scores)
        beta[:, t] = np.where(t < inside, _logsumexp(scores), 0.0)
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
    # scores[i, b, j]: previous state i, then state j
    scores = np.empty((n_states, n_batch, n_states))
    for t in range(1, n_pos):
        np.add(delta[:, t - 1].T[:, :, None], trans[:, None, :], out=scores)
        # the best score into each state so far, and the previous state it
        # came from: only a strictly better score replaces it, so ties keep
        # the smallest previous state
        best = scores[0].copy()
        for i in range(1, n_states):
            np.putmask(back[:, t], scores[i] > best, i)
            np.maximum(best, scores[i], out=best)
        delta[:, t] = log_pot[:, t] + best
    rows = np.arange(n_batch)
    last = delta[rows, lengths - 1].argmax(axis=1)
    path = np.zeros((n_batch, n_pos), dtype=np.int64)
    state = last
    for t in range(n_pos - 1, -1, -1):
        state = np.where(lengths - 1 == t, last, state)
        path[:, t] = state
        state = back[rows, t, state]
    return path
