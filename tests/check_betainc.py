#!/usr/bin/env python3
"""Check crossnorm.exact_test._tail against 50-digit binomial sums.

Every run-bound decision of the SCBN count (``exact_test._interval_verdicts``)
trusts a betainc tail to within the relative margin
``exact_test._ALPHA_MARGIN`` of the level it is compared with.  This script
puts tails exactly where those decisions are made, at alpha*(1 - margin)
and alpha*(1 + margin), and deeper at alpha/4, for alpha in {0.05, 1e-3},
both kinds (P(X <= k) and P(X >= k)), with n drawn log-uniformly in every
decade from 10 to 1e8, ``--per-decade`` seeded points per combination.
Each point draws p and the edge k at the target's normal quantile, then
solves for the p0 at which the tail is the target (scipy's betaincinv).
``_tail(k, n, p0, lower)`` is then compared with the tail of Binomial(n,
p0) at that exact float p0, summed in 50-digit mpmath arithmetic from the
pmf at k outward.  Prints the largest relative error per decade and exits
1 if any exceeds ``_ALPHA_MARGIN / 10``.  Run from the repository root:

    PYTHONPATH=src python3 tests/check_betainc.py --per-decade 2
"""
from __future__ import annotations

import argparse
import itertools
import sys

import mpmath
import numpy as np
from scipy import special

from crossnorm.exact_test import _ALPHA_MARGIN, _tail

ALPHAS = (0.05, 1e-3)
DECADES = range(1, 8)           # n in [10**d, 10**(d + 1)), up to 1e8
LIMIT = _ALPHA_MARGIN / 10.0    # the largest relative error allowed
DIGITS = 50


def targets(alpha: float) -> tuple[float, ...]:
    return (alpha * (1.0 - _ALPHA_MARGIN), alpha * (1.0 + _ALPHA_MARGIN), alpha / 4.0)


def point(rng, decade: int, target: float, lower: bool) -> tuple[float, float, float]:
    """An edge k, a count n and a float p0 whose ``lower`` tail is ``target``."""
    n = float(np.floor(10.0 ** rng.uniform(decade, decade + 1)))
    p = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
    p = 1.0 - p if rng.random() < 0.5 else p
    z = -special.ndtri(target) * np.sqrt(n * p * (1.0 - p))
    if lower:
        k = float(min(max(np.floor(n * p - z), 0.0), n - 1.0))
        p0 = 1.0 - special.betaincinv(n - k, k + 1.0, target)
    else:
        k = float(min(max(np.ceil(n * p + z), 1.0), n))
        p0 = special.betaincinv(k, n - k + 1.0, target)
    return k, n, float(p0)


def exact_tail(k: float, n: float, p0: float, lower: bool) -> mpmath.mpf:
    """P(X <= k) or P(X >= k) for X ~ Binomial(n, p0) at the float p0 itself,
    summed from the pmf at k outward until a term is below 1e-60 of the sum."""
    with mpmath.workdps(DIGITS + 10):
        k, n = int(k), int(n)
        p = mpmath.mpf(p0)
        q = 1 - p
        term = mpmath.binomial(n, k) * p**k * q ** (n - k)
        total, j = term, k
        # Each step multiplies by pmf(j -+ 1) / pmf(j).
        step = q / p if lower else p / q
        while term > total * mpmath.mpf(10) ** -60 and (j > 0 if lower else j < n):
            if lower:
                term = term * j * step / (n - j + 1)
                j -= 1
            else:
                term = term * (n - j) * step / (j + 1)
                j += 1
            total += term
        return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-decade", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    worst: dict[int, tuple[float, tuple]] = {}
    checked = 0
    for decade, alpha, lower in itertools.product(DECADES, ALPHAS, (True, False)):
        for target in targets(alpha):
            for _ in range(args.per_decade):
                k, n, p0 = point(rng, decade, target, lower)
                got = float(_tail(np.array([k]), np.array([n]), np.array([p0]), lower)[0])
                exact = exact_tail(k, n, p0, lower)
                error = float(abs(mpmath.mpf(got) - exact) / exact)
                checked += 1
                if error > worst.get(decade, (-1.0,))[0]:
                    worst[decade] = (error, (k, n, p0, lower, target, got))
    print("decade  max relative error  at (k, n, p0, lower, target, tail)")
    for decade in DECADES:
        error, at = worst[decade]
        print(f"1e{decade}     {error:.3e}           {at}")
    error, at = max(worst.values())
    print(f"{checked} tails checked; the largest relative error is {error:.3e}, "
          f"the limit {LIMIT:.0e} (_ALPHA_MARGIN / 10)")
    if error > LIMIT:
        print(f"error: _tail is off by {error:.3e} relative at {at}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
