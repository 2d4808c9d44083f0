"""Each numpy kernel against an independent oracle: np.pad reflection for the
mirror correlation, a direct sum for the autocorrelation, and enumeration of
every state path for the linear-chain dynamic programs.  The dynamic programs
and the embed softmax also equal, bit for bit, the same steps written with
numpy's axis reductions, and the in-place autocorrelation equals the
out-of-place FFT formula."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from prosolab import _accel as A
from prosolab.taggers.embed import _softmax_rows

RNG = np.random.default_rng(42)


def _pad_oracle(x, kernel):
    """Reference mirror correlation via np.pad reflect + np.correlate."""
    half_l = (len(kernel) - 1) // 2
    half_r = len(kernel) - 1 - half_l
    if len(x) == 1:
        return np.array([x[0] * kernel.sum()])
    # np.pad 'reflect' mirrors without repeating the edge sample, but caps the
    # pad at len-1 per call; apply repeatedly for kernels longer than x
    ext = x
    left = half_l
    right = half_r
    while left > 0 or right > 0:
        step_l = min(left, len(x) - 1)
        step_r = min(right, len(x) - 1)
        ext = np.pad(ext, (step_l, step_r), mode="reflect")
        left -= step_l
        right -= step_r
        if step_l == 0 and step_r == 0:
            break
    return np.correlate(ext, kernel, mode="valid")


@pytest.mark.parametrize("n,m", [(50, 9), (50, 11), (7, 3), (8, 31), (1, 5),
                                 (2, 7), (100, 101), (40, 9), (12, 5)])
def test_mirror_correlate_matches_pad_oracle(n, m):
    x = RNG.normal(size=n)
    k = RNG.normal(size=m)
    np.testing.assert_allclose(A.mirror_correlate(x, k), _pad_oracle(x, k),
                               atol=1e-12)


def test_frame_acf_matches_direct_sum():
    frames = RNG.normal(size=(5, 48))
    max_lag = 20
    direct = np.zeros((5, max_lag + 1))
    for i in range(5):
        for lag in range(max_lag + 1):
            for j in range(48 - lag):
                direct[i, lag] += frames[i, j] * frames[i, j + lag]
    rows = np.zeros((5, 128))
    rows[:, :48] = frames
    np.testing.assert_allclose(A.frame_acf(rows, max_lag), direct,
                               atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
       log2_nfft=st.integers(1, 11), width_at=st.floats(0, 1),
       lag_at=st.floats(0, 1), scale=st.floats(1e-6, 1e3),
       zero_rows=st.booleans())
@example(seed=0, k=1, log2_nfft=10, width_at=0.62, lag_at=1.0, scale=1e-6,
         zero_rows=False)
@example(seed=0, k=1, log2_nfft=10, width_at=0.62, lag_at=1.0, scale=1e3,
         zero_rows=True)
def test_frame_acf_in_place_equals_the_padded_transform(
        seed, k, log2_nfft, width_at, lag_at, scale, zero_rows):
    """Bit for bit the out-of-place formula: ``rfft`` padding each row to
    nfft, then ``irfft`` of ``re**2 + im**2``."""
    nfft = 2**log2_nfft
    width = 1 + int(width_at * (nfft - 2))
    max_lag = int(lag_at * (nfft - width - 1))
    frames = scale * np.random.default_rng(seed).standard_normal((k, width))
    if zero_rows:
        frames[::2] = 0
    spec = np.fft.rfft(frames, nfft, axis=1)
    want = np.fft.irfft(spec.real**2 + spec.imag**2, nfft, axis=1)
    rows = np.zeros((k, nfft))
    rows[:, :width] = frames
    got = A.frame_acf(rows, max_lag)
    assert got.shape == (k, max_lag + 1)
    assert np.array_equal(got.view(np.int64),
                          want[:, :max_lag + 1].view(np.int64))


def _random_chain(T, S, mask_prob=0.3, rng=RNG):
    pot = rng.normal(size=(T, S))
    mask = rng.random(size=(T, S)) < mask_prob
    # keep at least one state alive per position
    for t in range(T):
        if mask[t].all():
            mask[t, rng.integers(S)] = False
    pot[mask] = A.NEG_INF
    return pot


def _batch(pots):
    """Ragged chains padded with NEG_INF to one ``(B, T, S)`` batch."""
    lengths = np.array([len(p) for p in pots])
    batch = np.full((len(pots), lengths.max(), pots[0].shape[1]), A.NEG_INF)
    for b, p in enumerate(pots):
        batch[b, :len(p)] = p
    return batch, lengths


def _prefix_scores(pot, trans):
    """Scores of every state prefix: element ``[s0, .., st]`` of entry t."""
    out = [pot[0]]
    for t in range(1, len(pot)):
        out.append(out[-1][..., None] + trans + pot[t])
    return out


def _suffix_scores(pot, trans):
    """Entry t holds, at ``[st, .., s(T-1)]``, the score of positions t+1.."""
    S = pot.shape[1]
    out = [np.zeros(S)]
    for t in range(len(pot) - 2, -1, -1):
        nxt = out[0]
        step = trans + pot[t + 1]
        out.insert(0, step.reshape(step.shape + (1,) * (nxt.ndim - 1))
                   + nxt[None])
    return out


def _assert_log_close(got, want):
    dead = want <= A.NEG_INF / 2
    assert np.all(got[dead] <= A.NEG_INF / 2)
    np.testing.assert_allclose(got[~dead], want[~dead], atol=1e-10)


@pytest.mark.parametrize("T,S,dead", [
    pytest.param(T, S, None, id=f"{T}-{S}")
    for T, S in [(1, 3), (2, 4), (6, 4), (5, 5), (9, 5)]
] + [
    pytest.param(T, S, dead, id=f"{T}-{S}-dead{dead}")
    for T, S, dead in [(2, 4, 0), (2, 4, 1), (6, 4, 3), (5, 5, 0), (5, 5, 4)]
])
def test_chain_kernels_agree(T, S, dead):
    """Forward, backward and Viterbi match enumeration of every state path,
    for each sentence of a ragged padded batch: one of length T, and
    shorter and longer ones around it.

    With every state of position ``dead`` of the length-T sentence
    impossible, it has no live path: its logZ, its alpha from ``dead`` on
    and its beta before ``dead`` must all stay dead.
    """
    pots = [_random_chain(n, S) for n in (T + 2, T, 1, max(T - 1, 1))]
    if dead is not None:
        pots[1][dead] = A.NEG_INF
    trans = RNG.normal(size=(S, S))
    batch, lengths = _batch(pots)

    log_z, alpha = A.chain_forward(batch, trans, lengths)
    beta = A.chain_backward(batch, trans, lengths)
    paths = A.chain_viterbi(batch, trans, lengths)
    for b, pot in enumerate(pots):
        n = len(pot)
        prefixes = _prefix_scores(pot, trans)
        suffixes = _suffix_scores(pot, trans)
        want_alpha = np.array([logsumexp(p.reshape(-1, S), axis=0)
                               for p in prefixes])
        want_beta = np.array([logsumexp(q.reshape(S, -1), axis=1)
                              for q in suffixes])
        _assert_log_close(alpha[b, :n], want_alpha)
        _assert_log_close(beta[b, :n], want_beta)
        # past the end: alpha dead on the NEG_INF padding, beta 0
        assert np.all(alpha[b, n:] <= A.NEG_INF / 2)
        assert np.all(beta[b, n:] == 0.0)
        if dead is not None and b == 1:
            assert log_z[b] <= A.NEG_INF / 2
            assert np.all(alpha[b, dead:n] <= A.NEG_INF / 2)
            assert np.all(beta[b, :dead] <= A.NEG_INF / 2)
            continue
        scores = prefixes[-1]
        assert abs(log_z[b] - logsumexp(scores)) < 1e-10
        best = np.unravel_index(scores.argmax(), scores.shape)
        assert paths[b, :n].tolist() == list(best)


def test_alpha_beta_consistency():
    pots = [_random_chain(7, 4), _random_chain(3, 4)]
    batch, lengths = _batch(pots)
    trans = RNG.normal(size=(4, 4))
    lz, alpha = A.chain_forward(batch, trans, lengths)
    beta = A.chain_backward(batch, trans, lengths)
    # at every position, logsumexp(alpha + beta) equals logZ
    for b, n in enumerate(lengths):
        for t in range(n):
            row = alpha[b, t] + beta[b, t]
            m = row.max()
            assert abs(m + np.log(np.sum(np.exp(row - m))) - lz[b]) < 1e-9


# ---------------------------------------------------------------------------
# the column folds against numpy's axis reductions, bit for bit
# ---------------------------------------------------------------------------

def axis_forward(log_pot, trans, lengths):
    """chain_forward as one max and one sum along the state axis per step."""
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
    return np.where(lengths > 0, log_z, 0.0), alpha


def axis_backward(log_pot, trans, lengths):
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


def axis_viterbi(log_pot, trans, lengths):
    n_batch, n_pos, n_states = log_pot.shape
    delta = np.empty((n_batch, n_pos, n_states))
    back = np.zeros((n_batch, n_pos, n_states), dtype=np.int64)
    delta[:, 0] = log_pot[:, 0]
    for t in range(1, n_pos):
        scores = delta[:, t - 1, :, None] + trans
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


def axis_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(2, 5),
       n_batch=st.integers(1, 8), width=st.integers(1, 9),
       dead=st.floats(0.0, 0.6), ties=st.booleans())
def test_chain_kernels_equal_the_axis_reductions(seed, n_states, n_batch,
                                                 width, dead, ties):
    """Ragged padded batches, empty sentences after the first, some
    positions NEG_INF, some rounded so that scores tie: every output equals
    the axis-reduction kernel's."""
    rng = np.random.default_rng(seed)
    pots = [_random_chain(int(rng.integers(b == 0, width + 1)), n_states,
                          mask_prob=dead, rng=rng) for b in range(n_batch)]
    if ties:
        pots = [np.where(p > A.NEG_INF, np.round(p), p) for p in pots]
    batch, lengths = _batch(pots)
    trans = rng.normal(size=(n_states, n_states))
    if ties:
        trans = np.round(trans)
    for got, want in zip(A.chain_forward(batch, trans, lengths),
                         axis_forward(batch, trans, lengths)):
        assert np.array_equal(got, want)
    assert np.array_equal(A.chain_backward(batch, trans, lengths),
                          axis_backward(batch, trans, lengths))
    assert np.array_equal(A.chain_viterbi(batch, trans, lengths),
                          axis_viterbi(batch, trans, lengths))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
def test_softmax_rows_equal_the_axis_reductions(k, scale):
    z = RNG.normal(size=(5000, k)) * scale
    z[::7, 1] = z[::7, 0]  # tied logits
    assert np.array_equal(_softmax_rows(z), axis_softmax(z))
