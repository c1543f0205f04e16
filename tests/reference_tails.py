"""Tests' own copy of the exact test's tails in a two-function form.

``_binom_cdf`` and ``_binom_sf`` evaluate P(X <= k) and P(X >= k), X ~
Binomial(n, p0), with one betainc call each, flooring the betainc
arguments at 1 instead of masking empty and whole tails, and
``twosided_pvalues`` sums them into the kernel's two-sided p-value.
crossnorm evaluates every tail with ``exact_test._tail``; the tests check
it against this formulation bit for bit.
"""
import numpy as np
from scipy import special

from crossnorm.exact_test import _MIN_P, _mirror, _tail_edges


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
