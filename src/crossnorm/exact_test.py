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
Every tail mass (the kernel's, the cell decisions' and the run bounds')
is one :func:`_tail` call, both kinds through the regularized incomplete
beta function in one betainc call.  That is numerically stable for
deep-coverage genes, where per-term factorials overflow (each count, and
a testable gene's n, is below 2**53), and lets thousands of genes be
tested in one call.  Inputs are mirrored onto the p0 <= 1/2 side first so
that swapping the two species takes a bit-identical code path.

Callers that only need ``p < level`` (the SCBN count and DE calls) decide
it with :func:`_rejects`, on the kernel's own body (:func:`_two_sided`).
:func:`binom_twosided_pvalues` runs that body on blocks of ``_ROWS`` (4096)
cells.  The kernel is elementwise, so every value is the one a whole-array
call gives; blocks only keep the temporaries small enough for the allocator
to reuse, where whole-table ones go back to the OS and fault in again.

The SCBN grid asks the same question of a run of p0 values
(:func:`_interval_verdicts`): p0 rises with the scaling factor and the
exact tails are monotone in p0, so tails at a run's two ends bound the
p-value everywhere in it.  Runs are bounded only for n below
``_MAX_BOUNDED_N`` = 2**40, and a bound decides only where it clears the
level by ``_ALPHA_MARGIN``, which absorbs betainc's rounding error
(``tests/check_betainc.py`` checks it against 50-digit sums).  The kernel,
the cell decisions and both run bounds sum their tails in :func:`_tail_sum`,
observed tail first, far tail only where it can change the answer; a run's
upper bound comes first, its lower bound only on the rows left open.

``scipy.special`` is imported at the first tail, not with this module: its
import takes about 0.3 s, which commands that test no gene never pay.
:func:`_tail` looks up ``special.betainc`` on every call, so a counting
stand-in set on ``special`` sees every betainc call.
"""
from __future__ import annotations

import numpy as np

from .core import _testable

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

# Relative widening of a run's end-point p0 (see _interval_verdicts).
_P0_WIDEN = 1e-12
# A run bound decides only when it clears the level by this relative margin,
# which absorbs betainc's own rounding error.
_ALPHA_MARGIN = 1e-9
# Below this n the kernel's observed-side tail edge is exactly x1: the
# rounding error in mu - slack stays far below the tie slack.  Larger genes
# are always tested cell by cell.
_MAX_BOUNDED_N = 2.0**40
_ROWS = 4096  # cells per block of binom_twosided_pvalues (see the module docstring)


class _Special:
    # scipy.special, imported at the first attribute lookup.  Each attribute
    # is cached on the instance, so later lookups skip __getattr__.
    def __getattr__(self, name):
        from scipy import special as module

        value = getattr(module, name)
        setattr(self, name, value)
        return value


special = _Special()  # _tail calls special.betainc; tests may replace the attribute


def _p0(c, l1n1, l2n2):
    # null_prob_values on the products L1*N1 and L2*N2; the SCBN grid shares it.
    a = c * l1n1
    return np.clip(a / (l2n2 + a), _MIN_P, _MAX_P0)


def _gene_inputs(table, rows=slice(None)):
    """The float64 x1, n, L1*N1 and L2*N2 of the table's genes at ``rows``, the inputs of
    the kernel and _p0: counts convert exactly, and each sum or product is rounded once."""
    x1 = table.count_sp1[rows].astype(np.float64)
    n = x1 + table.count_sp2[rows]
    l1n1 = table.length_sp1[rows] * float(table.total_sp1)
    l2n2 = table.length_sp2[rows] * float(table.total_sp2)
    return x1, n, l1n1, l2n2


def null_prob_values(c, length_sp1, length_sp2, total_sp1, total_sp2):
    """Null success probabilities for arrays of lengths at scaling factor c.

    p0 = c*L1*N1 / (L2*N2 + c*L1*N1), clipped strictly inside (0, 1).
    """
    l1 = np.asarray(length_sp1, dtype=np.float64)
    l2 = np.asarray(length_sp2, dtype=np.float64)
    return _p0(c, l1 * float(total_sp1), l2 * float(total_sp2))


def _tail(edge, n, p0, lower):
    # P(X <= edge) where ``lower`` holds, else P(X >= edge), for X ~
    # Binomial(n, p0), integral edge and n, with both kinds in one betainc
    # call: 1 where the tail holds every outcome and 0 where it is empty (an
    # edge below 0 or above n).  P(X >= edge) is P(n - X <= n - edge), and
    # n - (n - edge) is exactly edge below 2**53, so j is the lower edge of
    # either kind.
    j = np.where(lower, edge, n - edge)
    tail = special.betainc(n - j, j + 1.0, np.where(lower, 1.0 - p0, p0))
    return np.where(j >= n, 1.0, np.where(j >= 0.0, tail, 0.0))


def _tail_sum(obs_edge, far_edge, n, lower, p_obs, p_far, level):
    # The two-tail sum: the observed tail at obs_edge and p_obs (the lower
    # one where ``lower`` holds) plus the opposite, far tail at far_edge and
    # p_far, summed as the kernel sums them, on the rows where the observed
    # tail is below level; elsewhere the observed tail alone, which is then
    # >= level.  Since fl(a + b) >= a for b >= 0, the result is below level
    # exactly where the sum is.  The far tail's betainc runs only on those
    # rows, and only where the far tail is not empty (an empty one adds 0).
    total = _tail(obs_edge, n, p_obs, lower)
    rows = np.flatnonzero((total < level) & np.where(lower, far_edge <= n, far_edge >= 0.0))
    if rows.size:
        total[rows] += _tail(far_edge[rows], n[rows], p_far[rows], ~lower[rows])
    return total


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


def _two_sided(x1, n, p0, level):
    """The kernel's p-value on 1-D arrays, exact wherever it is below
    ``level``; elsewhere a value at or above ``level``.

    A cell whose observed distance from the null mean, less the tie slack,
    is not positive, or with n = 0, gets p = 1.  Every other cell takes its
    observed tail (the one holding x1) and the far tail only where the
    observed one is below ``level`` (:func:`_tail_sum`), and the sum is
    clipped to [_MIN_P, 1], which keeps a value at or above a level <= 1 at
    or above it.  Float addition commutes, so the sum is the same whichever
    of the two tails is the observed one.
    """
    x1, p0 = _mirror(x1, n, p0)
    slack, lo, hi = _tail_edges(x1, n, p0)
    p = np.ones(x1.shape)
    live = ~((slack <= 0.0) | (n == 0.0))
    below = x1 < n * p0
    # Cells below the mean first: np.where on a mask in two runs is several
    # times faster than on a shuffled one.
    rows = np.concatenate((np.flatnonzero(live & below), np.flatnonzero(live & ~below)))
    n, p0, lo, hi, below = n[rows], p0[rows], lo[rows], hi[rows], below[rows]
    with np.errstate(invalid="ignore", divide="ignore"):
        p[rows] = _tail_sum(np.where(below, lo, hi), np.where(below, hi, lo), n, below,
                            p0, p0, level)
    return np.clip(p, _MIN_P, 1.0)


def binom_twosided_pvalues(x1, n, p0):
    """Vectorized two-sided exact binomial p-values.

    Parameters broadcast against each other; counts are exact when passed
    as integers below 2**53.  Returns values in (0, 1]; n = 0 maps to 1
    (empty rejection region).
    """
    x1, n, p0 = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (x1, n, p0)))
    shape = x1.shape
    x1, n, p0 = x1.ravel(), n.ravel(), p0.ravel()
    p = np.empty(x1.shape)
    for start in range(0, p.size, _ROWS):
        rows = slice(start, start + _ROWS)
        p[rows] = _two_sided(x1[rows], n[rows], p0[rows], np.inf)
    # [()] turns a 0-d result into a scalar and leaves arrays as they are.
    return p.reshape(shape)[()]


def _rejects(x1, n, p0, level):
    """binom_twosided_pvalues(x1, n, p0) < level, for 1-D arrays of integral
    counts and 0 < level <= 1: a far tail is taken only where it can change
    the answer."""
    x1, n, p0 = (np.asarray(v, dtype=np.float64) for v in (x1, n, p0))
    return _two_sided(x1, n, p0, level) < level


def _interval_verdicts(x1, n, p_lo, p_hi, alpha):
    """+1 where the p-value is below alpha at every p0 in [p_lo, p_hi], -1
    where it is below alpha at none, 0 where the end-point bounds cannot tell.

    The bounds hold for binom_twosided_pvalues itself, not only in exact
    arithmetic: each step from p0 to a tail edge or a betainc argument
    (mirroring, n * p0, the slack, floor/ceil, 1 - p0) is a rounded
    monotone function, so the kernel's cells inside the interval order like
    its end points.  The observed-side edge is exactly x1 for
    n < _MAX_BOUNDED_N, which the caller enforces.
    """
    # The grid's exp() and fl(a / (b + a)) are monotone in c only up to a
    # few ulps; widening the ends covers every inside cell's p0.
    p_lo = np.clip(p_lo * (1.0 - _P0_WIDEN), _MIN_P, _MAX_P0)
    p_hi = np.clip(p_hi * (1.0 + _P0_WIDEN), _MIN_P, _MAX_P0)
    accept_at = alpha * (1.0 + _ALPHA_MARGIN)
    reject_at = alpha * (1.0 - _ALPHA_MARGIN)
    verdict = np.zeros(x1.size, dtype=np.int8)

    # Sided intervals.  p0 stays on one side of 1/2, so every cell has the
    # kernel's mirror frame; let q1 <= q2 be the mirrored ends.  The null
    # mean stays at least 1 from x and on one side of it, so every cell
    # takes the kernel's slack > 0 branch: the observed tail plus the far
    # tail.  Below the mean that is P(X <= x) + P(X >= hi), where
    # P(X <= x) falls as q rises, hi = ceil(2*mu - x - tol) never falls,
    # and P(X >= k) rises.  Hence with the near end q1 and the far end q2,
    #   upper bound: P(X <= x | q1) + P(X >= hi(q1) | q2)
    #   lower bound: P(X <= x | q2) + P(X >= hi(q2) | q1).
    # Above the mean the mirror image holds, with q2 the near end.  Each
    # bound is one _tail_sum with x as its observed edge and the far edge
    # taken at its observed tail's end, exact as compared with its level.
    # Where upper < reject_at, lower <= upper < accept_at, so trying the
    # upper bound first changes which tails are evaluated, not a verdict.
    # A sided interval never has p0 = 1/2 at an end, so there the kernel's
    # mirror flips exactly where p_lo > 1/2; the other rows only fail the
    # side test, whatever their x and q.
    flip = p_lo > 0.5
    x = np.where(flip, n - x1, x1)
    qa, qb = np.where(flip, 1.0 - p_lo, p_lo), np.where(flip, 1.0 - p_hi, p_hi)
    q1, q2 = np.minimum(qa, qb), np.maximum(qa, qb)
    below = n * q1 - x >= 1.0
    is_sided = ((p_hi < 0.5) | flip) & (below | (x - n * q2 >= 1.0))
    sided = np.flatnonzero(is_sided)
    x, n_s, below = x[sided], n[sided], below[sided]
    near = np.where(below, q1[sided], q2[sided])
    far = np.where(below, q2[sided], q1[sided])
    _, lo, hi = _tail_edges(x, n_s, near)
    rejected = _tail_sum(x, np.where(below, hi, lo), n_s, below, near, far, reject_at) < reject_at
    verdict[sided[rejected]] = 1
    open_ = np.flatnonzero(~rejected)
    sided, x, n_s, below, near, far = (v[open_] for v in (sided, x, n_s, below, near, far))
    _, lo, hi = _tail_edges(x, n_s, far)
    accepted = _tail_sum(x, np.where(below, hi, lo), n_s, below, far, near, accept_at) >= accept_at
    verdict[sided[accepted]] = -1

    # Other intervals can only be proven accepted.  Unless the kernel
    # returns 1, its p-value includes the observed-side tail: P(X <= x1)
    # with x1 below the null mean, P(X >= x1) above it, each the same
    # betainc in either mirror frame.  P(X <= x1) falls and P(X >= x1)
    # rises with p0, so the smaller of P(X <= x1) at p_hi and P(X >= x1)
    # at p_lo is below every cell's p-value, whichever side x1 is on there.
    # The second tail is evaluated only where the first one is >= accept_at.
    rest = np.flatnonzero(~is_sided)
    rest = rest[_tail(x1[rest], n[rest], p_hi[rest], True) >= accept_at]
    rest = rest[_tail(x1[rest], n[rest], p_lo[rest], False) >= accept_at]
    verdict[rest] = -1
    return verdict


def gene_pvalues(count_sp1, count_sp2, length_sp1, length_sp2, total_sp1, total_sp2, c):
    """P-values for arrays of genes at one scaling factor; NaN where untestable
    (n = 0 or n >= 2**53, the rule of ``OrthologTable.testable``)."""
    x1 = np.asarray(count_sp1, dtype=np.float64)
    x2 = np.asarray(count_sp2, dtype=np.float64)
    n = x1 + x2
    p0 = null_prob_values(c, length_sp1, length_sp2, total_sp1, total_sp2)
    p = binom_twosided_pvalues(x1, n, p0)
    return np.where(_testable(n), p, np.nan)
