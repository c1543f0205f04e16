"""Exact two-sided conditional binomial test, vectorized over genes.

Conditioning on the two-species count sum ``n`` turns the equal-rate null
into a binomial null for the species-1 count.  The null success probability
folds together the scaling factor, the two gene lengths, and the two
sequencing depths, so genes of different length and libraries of different
depth are compared on a common scale.

The two-sided p-value is the binomial mass of all outcomes at least as far
from the null mean ``n * p0`` as the observed count:

    p = P(|X - n*p0| >= |x1 - n*p0|),  X ~ Binomial(n, p0)

Every function takes arrays (or scalars) and broadcasts, so a table's
columns go in directly: ``gene_pvalues(table.count_sp1, table.count_sp2,
table.length_sp1, table.length_sp2, table.total_sp1, table.total_sp2, c)``.
Tail masses are evaluated through the regularized incomplete beta function,
which is numerically stable for the deep-coverage genes (n up to ~1e5)
where per-term factorials overflow, and lets thousands of genes be tested
in one call.  Inputs are mirrored onto the p0 <= 1/2 side first so that
swapping the two species takes a bit-identical code path.

Callers that only need ``p < level`` (the SCBN count and DE calls) decide
it with :func:`_rejects`, and most deep cells need no betainc there.
Bernstein's inequality bounds each binomial tail beyond a distance t from
the mean by exp(-t^2 / (2 (var + t/3))) (:func:`_tails_below`), and a cell
whose two tails are both bounded below level/4 is decided "reject" at
once: betainc would have to be off by a factor of 2 to make the kernel's
sum of the two reach the level.  Every decision already assumes betainc
accurate to far better than that (``normalization._ALPHA_MARGIN`` takes
1e-9), so the screened answer is the kernel's own.
"""
from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "null_prob_values",
    "binom_twosided_pvalues",
    "gene_pvalues",
]

# Slack on the two-sided distance threshold, relative to n.  The rejection
# region includes exact ties (mirror-image outcomes with |k - n*p0| equal to
# the observed distance), and rounding noise in n*p0 must not drop them.
# Capped well below 1 so the slack can never swallow an adjacent outcome.
_TIE_REL_TOL = 1e-7
_TIE_CAP = 0.25

_MIN_P = 5e-324                          # smallest positive float
_MAX_P0 = float(np.nextafter(1.0, 0.0))  # keep p0 strictly inside (0, 1)

# _tails_below's allowance, relative to n, for the rounding between the exact
# mean n*p0 and the one a tail is taken at: fl(n*p0), the edges' float
# arithmetic, and the 1 - p0 of a lower tail, each off by at most n * 2**-53.
_MEAN_ERR = 2.0**-50
# _tails_below decides only at levels whose quarter is a normal float, where
# a tail's betainc error is relative, never a subnormal float's absolute one.
_MIN_SCREEN_LEVEL = 4.0 * np.finfo(np.float64).tiny


def _p0(c, l1n1, l2n2):
    # null_prob_values on the products L1*N1 and L2*N2; the SCBN grid shares it.
    a = c * l1n1
    return np.clip(a / (l2n2 + a), _MIN_P, _MAX_P0)


def null_prob_values(c, length_sp1, length_sp2, total_sp1, total_sp2):
    """Null success probabilities for arrays of lengths at scaling factor c.

    p0 = c*L1*N1 / (L2*N2 + c*L1*N1), clipped strictly inside (0, 1).
    """
    l1 = np.asarray(length_sp1, dtype=np.float64)
    l2 = np.asarray(length_sp2, dtype=np.float64)
    return _p0(c, l1 * float(total_sp1), l2 * float(total_sp2))


def _binom_cdf(k, n, q0):
    # P(X <= k) for X ~ Binomial(n, p0) via the incomplete beta; 0 <= k <= n.
    a = np.maximum(n - k, 1.0)
    b = k + 1.0
    return np.where(k >= n, 1.0, special.betainc(a, b, q0))


def _binom_sf(k, n, p0):
    # P(X >= k) for X ~ Binomial(n, p0); 0 <= k <= n.
    a = np.maximum(k, 1.0)
    b = np.maximum(n - k + 1.0, 1.0)
    return np.where(k <= 0, 1.0, special.betainc(a, b, p0))


def _inner_tail(k, n, p0, lower):
    # P(X <= k) where ``lower`` holds, else P(X >= k), for X ~ Binomial(n, p0),
    # with both kinds in one betainc call, for integral k and n whose tail is
    # neither empty nor every outcome: k < n for a lower tail, k > 0 for an
    # upper one.  The arguments are then _binom_cdf's and _binom_sf's, whose
    # floors at 1 do not bind.
    d = n - k
    return special.betainc(np.where(lower, d, k), np.where(lower, k, d) + 1.0,
                           np.where(lower, 1.0 - p0, p0))


def _tail(edge, n, p0, lower):
    # The kernel's tail at an edge from _tail_edges, integral n: _inner_tail,
    # but 1 where the tail holds every outcome and 0 where it is empty (an
    # edge below 0 or above n), the only places the floors bind.
    k = np.maximum(edge, 0.0)
    whole = np.where(lower, k >= n, k <= 0.0)
    tail = np.where(whole, 1.0, _inner_tail(k, n, p0, lower))
    return np.where(np.where(lower, edge >= 0.0, edge <= n), tail, 0.0)


def _plus_far_tail(obs, far_edge, n, lower, p_far, level):
    # The observed tail ``obs`` (the lower one where ``lower`` holds) plus the
    # opposite, far tail at far_edge and p_far, summed as the kernel sums
    # them, on the rows where obs < level; elsewhere obs alone, which is then
    # >= level.  Since fl(a + b) >= a for b >= 0, the result is below level
    # exactly where the sum is.  The far tail's betainc runs only on those
    # rows, and only where the far tail is not empty (an empty one adds 0).
    rows = np.flatnonzero((obs < level) & np.where(lower, far_edge <= n, far_edge >= 0.0))
    if rows.size:
        obs[rows] += _tail(far_edge[rows], n[rows], p_far[rows], ~lower[rows])
    return obs


def _mirror(x1, n, p0):
    # Mirror onto p0 <= 1/2 (and x1 <= n/2 at exactly 1/2) so species-swapped
    # inputs reduce to identical arithmetic.
    flip = (p0 > 0.5) | ((p0 == 0.5) & (2.0 * x1 > n))
    return np.where(flip, n - x1, x1), np.where(flip, 1.0 - p0, p0)


def _tail_edges(x1, n, p0):
    # The observed distance from the null mean less the tie slack, and the
    # two tail edges: lo is the largest outcome in the lower tail, hi the
    # smallest in the upper tail.
    mu = n * p0
    slack = np.abs(x1 - mu) - np.minimum(_TIE_REL_TOL * n, _TIE_CAP)
    return slack, np.floor(mu - slack), np.ceil(mu + slack)


def _tails_below(t, n, p0, level):
    """Whether Bernstein's bound on P(X <= n*p0 - t) and on P(X >= n*p0 + t),
    X ~ Binomial(n, p0), is below level/4: exp(-t^2 / (2 (var + t/3))) with
    var = n*p0*(1 - p0), compared through its logarithm.  t is first cut,
    and var raised, by n * _MEAN_ERR, so the bound also holds for the
    rounded means the kernel's tails are taken at.  False wherever t is at
    or below 0, and everywhere at levels below _MIN_SCREEN_LEVEL."""
    if level < _MIN_SCREEN_LEVEL:
        return np.zeros(np.shape(t), dtype=bool)
    err = n * _MEAN_ERR
    t = np.maximum(t - err, 0.0)
    return t * t > 2.0 * np.log(4.0 / level) * (n * p0 * (1.0 - p0) + err + t / 3.0)


def binom_twosided_pvalues(x1, n, p0):
    """Vectorized two-sided exact binomial p-values.

    Parameters broadcast against each other; counts are exact when passed
    as integers below 2**53.  Returns values in (0, 1]; n = 0 maps to 1
    (empty rejection region).
    """
    x1, n, p0 = np.broadcast_arrays(
        np.asarray(x1, dtype=np.float64),
        np.asarray(n, dtype=np.float64),
        np.asarray(p0, dtype=np.float64),
    )
    x1, p0 = _mirror(x1, n, p0)
    q0 = 1.0 - p0
    slack, lo, hi = _tail_edges(x1, n, p0)
    with np.errstate(invalid="ignore", divide="ignore"):
        lower = np.where(lo >= 0.0, _binom_cdf(np.clip(lo, 0.0, None), n, q0), 0.0)
        upper = np.where(hi <= n, _binom_sf(np.clip(hi, 0.0, None), n, p0), 0.0)
    p = lower + upper
    p = np.where(slack <= 0.0, 1.0, p)  # observed count at/next to the null mean
    p = np.where(n == 0.0, 1.0, p)
    return np.clip(p, _MIN_P, 1.0)


def _rejects(x1, n, p0, level):
    """binom_twosided_pvalues(x1, n, p0) < level, for 1-D arrays of integral
    counts and 0 < level <= 1, evaluating betainc only where a bound cannot
    decide.

    A cell whose observed distance from the null mean, less the tie slack,
    is not positive, or with n = 0, gets p = 1 from the kernel and is not
    rejected.  Both of a live cell's tail edges lie at least its slack from
    the mean (_tail_edges), so where _tails_below holds at the slack the
    cell is rejected with no betainc (see the module docstring).  The
    kernel's own mirroring, edges and betainc arguments give every other
    live cell's observed tail (the one holding x1) first.
    The kernel returns the sum of the two tails clipped to [_MIN_P, 1], and
    the clip keeps a value >= level at >= level, so _plus_far_tail decides
    those cells exactly.
    """
    x1, n, p0 = (np.asarray(v, dtype=np.float64) for v in (x1, n, p0))
    x1, p0 = _mirror(x1, n, p0)
    slack, lo, hi = _tail_edges(x1, n, p0)
    live = (slack > 0.0) & (n != 0.0)
    rejects = live & _tails_below(slack, n, p0, level)
    rows = np.flatnonzero(live & ~rejects)
    if rows.size:
        x1, n, p0, lo, hi = x1[rows], n[rows], p0[rows], lo[rows], hi[rows]
        below = x1 < n * p0
        with np.errstate(invalid="ignore", divide="ignore"):
            obs = _tail(np.where(below, lo, hi), n, p0, below)
            p = _plus_far_tail(obs, np.where(below, hi, lo), n, below, p0, level)
        rejects[rows] = np.clip(p, _MIN_P, 1.0) < level
    return rejects


def gene_pvalues(count_sp1, count_sp2, length_sp1, length_sp2, total_sp1, total_sp2, c):
    """P-values for arrays of genes at one scaling factor; NaN where untestable."""
    x1 = np.asarray(count_sp1, dtype=np.float64)
    x2 = np.asarray(count_sp2, dtype=np.float64)
    n = x1 + x2
    p0 = null_prob_values(c, length_sp1, length_sp2, total_sp1, total_sp2)
    p = binom_twosided_pvalues(x1, n, p0)
    return np.where(n > 0.0, p, np.nan)
