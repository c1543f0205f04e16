"""Tests' own copy of the exact test's tails in a two-function form.

``_binom_cdf`` and ``_binom_sf`` evaluate P(X <= k) and P(X >= k), X ~
Binomial(n, p0), with one betainc call each, flooring the betainc
arguments at 1 instead of masking empty and whole tails, and
``twosided_pvalues`` sums them into the kernel's two-sided p-value.
crossnorm evaluates every tail with ``exact_test._tail``; the tests check
it against this formulation bit for bit.  ``_reference_interval_verdicts``
is ``exact_test._interval_verdicts`` with every tail of every bound
evaluated, from these two functions.
"""
import numpy as np
from scipy import special

from crossnorm.exact_test import _ALPHA_MARGIN, _MAX_P0, _MIN_P, _P0_WIDEN, _mirror, _tail_edges


def _binom_cdf(k, n, q0):
    # P(X <= k) for X ~ Binomial(n, p0) via the incomplete beta, q0 = 1 - p0;
    # 0 <= k <= n.
    a = np.maximum(n - k, 1.0)
    b = k + 1.0
    return np.where(k >= n, 1.0, special.betainc(a, b, q0))


def _binom_sf(k, n, p0):
    # P(X >= k) for X ~ Binomial(n, p0); 0 <= k <= n.
    a = np.maximum(k, 1.0)
    b = np.maximum(n - k + 1.0, 1.0)
    return np.where(k <= 0, 1.0, special.betainc(a, b, p0))


def twosided_pvalues(x1, n, p0):
    """binom_twosided_pvalues with each tail from _binom_cdf or _binom_sf."""
    x1, n, p0 = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x1, n, p0)))
    x1, p0 = _mirror(x1, n, p0)
    slack, lo, hi = _tail_edges(x1, n, p0)
    with np.errstate(invalid="ignore", divide="ignore"):
        lower = np.where(lo >= 0.0, _binom_cdf(np.clip(lo, 0.0, None), n, 1.0 - p0), 0.0)
        upper = np.where(hi <= n, _binom_sf(np.clip(hi, 0.0, None), n, p0), 0.0)
    p = np.where((slack <= 0.0) | (n == 0.0), 1.0, lower + upper)
    return np.clip(p, _MIN_P, 1.0)


def _reference_two_tail_bound(x, n, below, q_obs, q_far):
    """Observed tail at q_obs plus the far tail, each side on its own boolean
    subset with its own _binom_cdf/_binom_sf pair, both tails on every row."""
    _, lo, hi = _tail_edges(x, n, q_obs)
    bound = np.empty(x.size)
    b, a = below, ~below
    bound[b] = _binom_cdf(x[b], n[b], 1.0 - q_obs[b]) + np.where(
        hi[b] <= n[b], _binom_sf(hi[b], n[b], q_far[b]), 0.0)
    bound[a] = _binom_sf(x[a], n[a], q_obs[a]) + np.where(
        lo[a] >= 0.0, _binom_cdf(np.clip(lo[a], 0.0, None), n[a], 1.0 - q_far[a]), 0.0)
    return bound


def _reference_interval_verdicts(x1, n, p_lo, p_hi, alpha):
    """Reference: _interval_verdicts evaluating every tail of every bound, with
    the kernel's _mirror at both ends."""
    p_lo = np.clip(p_lo * (1.0 - _P0_WIDEN), _MIN_P, _MAX_P0)
    p_hi = np.clip(p_hi * (1.0 + _P0_WIDEN), _MIN_P, _MAX_P0)
    accept_at = alpha * (1.0 + _ALPHA_MARGIN)
    reject_at = alpha * (1.0 - _ALPHA_MARGIN)
    verdict = np.zeros(x1.size, dtype=np.int8)
    x, qa = _mirror(x1, n, p_lo)
    _, qb = _mirror(x1, n, p_hi)
    q1, q2 = np.minimum(qa, qb), np.maximum(qa, qb)
    below = n * q1 - x >= 1.0
    is_sided = ((p_hi < 0.5) | (p_lo > 0.5)) & (below | (x - n * q2 >= 1.0))
    sided = np.flatnonzero(is_sided)
    x, n_s, below = x[sided], n[sided], below[sided]
    near = np.where(below, q1[sided], q2[sided])
    far = np.where(below, q2[sided], q1[sided])
    lower = _reference_two_tail_bound(x, n_s, below, far, near)
    verdict[sided[lower >= accept_at]] = -1
    open_ = lower < accept_at
    upper = _reference_two_tail_bound(x[open_], n_s[open_], below[open_], near[open_],
                                      far[open_])
    verdict[sided[open_][upper < reject_at]] = 1
    rest = np.flatnonzero(~is_sided)
    lower = np.minimum(_binom_cdf(x1[rest], n[rest], 1.0 - p_hi[rest]),
                       _binom_sf(x1[rest], n[rest], p_lo[rest]))
    verdict[rest[lower >= accept_at]] = -1
    return verdict
