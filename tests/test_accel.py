"""Each numpy kernel against an independent oracle: np.pad reflection for the
mirror correlation, a direct sum for the autocorrelation, and enumeration of
every state path for the linear-chain dynamic programs."""

import numpy as np
import pytest
from scipy.special import logsumexp

from prosolab import _accel as A

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
    np.testing.assert_allclose(A.frame_acf(frames, max_lag), direct,
                               atol=1e-10)


def _random_chain(T, S, mask_prob=0.3):
    pot = RNG.normal(size=(T, S))
    mask = RNG.random(size=(T, S)) < mask_prob
    # keep at least one state alive per position
    for t in range(T):
        if mask[t].all():
            mask[t, RNG.integers(S)] = False
    pot[mask] = A.NEG_INF
    trans = RNG.normal(size=(S, S))
    return pot, trans


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
    """Forward, backward and Viterbi match enumeration of every state path.

    With every state of position ``dead`` impossible, no path is alive: logZ,
    alpha from ``dead`` on and beta before ``dead`` must all stay dead.
    """
    pot, trans = _random_chain(T, S)
    if dead is not None:
        pot[dead] = A.NEG_INF
    prefixes = _prefix_scores(pot, trans)
    suffixes = _suffix_scores(pot, trans)
    want_alpha = np.array([logsumexp(p.reshape(-1, S), axis=0)
                           for p in prefixes])
    want_beta = np.array([logsumexp(q.reshape(S, -1), axis=1)
                          for q in suffixes])
    paths = prefixes[-1]

    log_z, alpha = A.chain_forward(pot, trans)
    beta = A.chain_backward(pot, trans)
    _assert_log_close(alpha, want_alpha)
    _assert_log_close(beta, want_beta)
    if dead is None:
        assert abs(log_z - logsumexp(paths)) < 1e-10
        best = np.unravel_index(paths.argmax(), paths.shape)
        assert A.chain_viterbi(pot, trans).tolist() == list(best)
    else:
        assert log_z <= A.NEG_INF / 2
        assert np.all(alpha[dead:] <= A.NEG_INF / 2)
        assert np.all(beta[:dead] <= A.NEG_INF / 2)


def test_alpha_beta_consistency():
    pot, trans = _random_chain(7, 4)
    lz, alpha = A.chain_forward(pot, trans)
    beta = A.chain_backward(pot, trans)
    # at every position, logsumexp(alpha + beta) equals logZ
    for t in range(7):
        row = alpha[t] + beta[t]
        m = row.max()
        assert abs(m + np.log(np.sum(np.exp(row - m))) - lz) < 1e-9
