#!/usr/bin/env python3
"""Check crossnorm.exact_test._tail and its tail screen against 50-digit binomial sums.

Every run-bound decision of the SCBN count (``exact_test._interval_verdicts``)
trusts a betainc tail to within the relative margin
``exact_test._ALPHA_MARGIN`` of the level it is compared with, and the
Bernstein screen in ``_rejects`` trusts it to a factor of 2 at level/4.
This script puts tails exactly where those decisions are made: at
alpha*(1 - margin), alpha*(1 + margin) and alpha/4, for alpha in {0.05,
1e-3}, both kinds (P(X <= k) and P(X >= k)), with n drawn log-uniformly in
every decade from 10 to 1e8, ``--per-decade`` seeded points per
combination.  Each point draws p and the edge k at the target's normal
quantile, then solves for the p0 at which the tail is the target
(scipy's betaincinv).  ``_tail(k, n, p0, lower)`` is then compared with the
tail of Binomial(n, p0) at that exact float p0, summed in 50-digit mpmath
arithmetic from the pmf at k outward.  Prints the largest relative error
per decade and exits 1 if any exceeds ``_ALPHA_MARGIN / 10``.

A second section checks the Bernstein screen itself
(``exact_test._tails_below``).  For each decade, level in ``ALPHAS`` and
side of the screen's decision boundary it places ``--per-decade`` seeded
cells: n and p0 <= 1/2 are drawn as above, and the distance t from the
mean is the boundary's, moved to one side by a relative 1e-12 to 1e-2
(log-uniform, half the cells) or 1e-2 to 0.5 (uniform, the others), so
that a screen which decides too near the mean is caught too.
Wherever the screen returns True, each tail the kernel would then sum
(P(X <= floor(mu - t)) at the kernel's 1 - fl(1 - p0), and P(X >= ceil(mu
+ t)) at p0, with mu = fl(n * p0)) must be below level/4 by the 50-digit
sum; the script prints the largest tail / (level/4) per decade and exits
1 if any reaches 1.  Run from the repository root:

    PYTHONPATH=src python3 tests/check_betainc.py --per-decade 2
"""
from __future__ import annotations

import argparse
import itertools
import sys

import mpmath
import numpy as np
from scipy import special

from crossnorm.exact_test import _ALPHA_MARGIN, _MEAN_ERR, _tail, _tails_below

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


def screen_boundary(n: float, p0: float, level: float) -> float:
    """The distance t at which _tails_below's t'^2 = 2 log(4/level) (var +
    err + t'/3), t' = t - err, err = n * _MEAN_ERR, changes sides."""
    log_ratio, err = np.log(4.0 / level), n * _MEAN_ERR
    b = 2.0 * log_ratio / 3.0
    return float((b + np.sqrt(b * b + 8.0 * log_ratio * (n * p0 * (1.0 - p0) + err))) / 2.0 + err)


def screen_cell(rng, decade: int, level: float, side: int) -> tuple[float, float, float]:
    """A distance t, count n and p0 <= 1/2 on one ``side`` (-1 or +1) of the
    screen's boundary."""
    n = float(np.floor(10.0 ** rng.uniform(decade, decade + 1)))
    p0 = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
    if rng.random() < 0.5:
        shift = float(np.exp(rng.uniform(np.log(1e-12), np.log(1e-2))))
    else:
        shift = rng.uniform(1e-2, 0.5)
    return screen_boundary(n, p0, level) * (1.0 + side * shift), n, p0


def screened_tails(t: float, n: float, p0: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The two tails the kernel sums at distance t, as 50-digit sums."""
    mu = n * p0
    lo, hi = np.floor(mu - t), np.ceil(mu + t)
    lower = exact_tail(lo, n, 1.0 - (1.0 - p0), True) if lo >= 0.0 else mpmath.mpf(0)
    upper = exact_tail(hi, n, p0, False) if hi <= n else mpmath.mpf(0)
    return lower, upper


def check_screen(rng, per_decade: int) -> bool:
    """Print the screen section's table; False if a screened tail reaches level/4."""
    worst: dict[int, tuple[float, tuple]] = {}
    screened = cells = 0
    for decade, level, side in itertools.product(DECADES, ALPHAS, (-1, 1)):
        for _ in range(per_decade):
            t, n, p0 = screen_cell(rng, decade, level, side)
            cells += 1
            if not _tails_below(np.array([t]), np.array([n]), np.array([p0]), level)[0]:
                continue
            screened += 1
            ratio = float(max(screened_tails(t, n, p0)) / (level / 4.0))
            if ratio > worst.get(decade, (-1.0,))[0]:
                worst[decade] = (ratio, (t, n, p0, level))
    print("decade  max tail / (level/4)  at (t, n, p0, level)")
    for decade in DECADES:
        ratio, at = worst.get(decade, (0.0, None))
        print(f"1e{decade}     {ratio:.3e}             {at}")
    ratio, at = max(worst.values())
    print(f"{screened} of {cells} cells screened; the largest tail is {ratio:.3e} of level/4")
    if ratio >= 1.0:
        print(f"error: a screened tail reaches level/4 at {at}", file=sys.stderr)
        return False
    return True


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
    screen_ok = check_screen(rng, args.per_decade)
    return 0 if error <= LIMIT and screen_ok else 1


if __name__ == "__main__":
    sys.exit(main())
