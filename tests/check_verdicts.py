#!/usr/bin/env python3
"""Compare crossnorm.exact_test._interval_verdicts with the every-tail reference.

``_interval_verdicts(x1, n, p_lo, p_hi, alpha)`` decides SCBN grid runs
from tail bounds at a run's two ends, evaluating a tail only where it can
change a verdict; ``reference_tails._reference_interval_verdicts`` evaluates
every tail of every bound.  Their verdicts must be equal on every row.
Draws ``--count`` seeded rows in chunks, each chunk half of each kind:

- sided rows, given in the p0 <= 1/2 frame or in its mirror image: n from
  2 to 2**52, q2/q1 from a hair to 10**4, and x 0.5-40 sd beyond the near
  end's null mean, or at 0 or n;
- random runs of round-0 grids, from one cell to the whole window, for
  genes whose null mean sits near x1 at the grid center (8 sd, or 40 sd
  and at 0 or n for a fifth of them), with a tie case that hits p0 = 1/2.

Every chunk is checked at each level in ``LEVELS``.  Exits 1 and names the
first row whose verdicts differ.  Run from the repository root:

    PYTHONPATH=src python3 tests/check_verdicts.py --count 1000000
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from crossnorm.exact_test import _interval_verdicts, _p0
from reference_tails import _reference_interval_verdicts

CHUNK = 100_000
LEVELS = (1e-6, 1e-3, 0.05, 0.5)
RUN_ROWS = 16  # runs drawn per gene of a round-0 grid


def mismatch(x1, n, p_lo, p_hi) -> str | None:
    """The first row where _interval_verdicts and the reference disagree, described."""
    for level in LEVELS:
        got = _interval_verdicts(x1, n, p_lo, p_hi, level)
        want = _reference_interval_verdicts(x1, n, p_lo, p_hi, level)
        bad = np.flatnonzero(got != want)
        if bad.size:
            i = bad[0]
            return (f"x1={x1[i]!r} n={n[i]!r} p_lo={p_lo[i]!r} p_hi={p_hi[i]!r} "
                    f"level={level!r}: verdict {got[i]}, reference {want[i]}")
    return None


def sided_rows(rng, size):
    n = np.floor(np.exp(rng.uniform(np.log(2.0), np.log(2.0**52), size)))
    q1 = np.exp(rng.uniform(np.log(1e-9), np.log(0.49), size))
    hair = rng.random(size) < 0.2
    ratio = np.where(hair, 1.0 + 10.0 ** rng.uniform(-12.0, -4.0, size),
                     10.0 ** rng.uniform(0.0, 4.0, size))
    q2 = np.minimum(0.5 - 1e-9, q1 * ratio)
    below = rng.random(size) < 0.5
    near = np.where(below, q1, q2)
    mu = n * near
    step = rng.uniform(0.5, 40.0, size) * np.sqrt(mu * (1.0 - near))
    x = np.where(below, np.floor(mu - step), np.ceil(mu + step))
    at_end = rng.random(size) < 0.1
    x[at_end] = np.where(below, 0.0, n)[at_end]
    x = np.clip(x, 0.0, n)
    mirrored = rng.random(size) < 0.5
    return (np.where(mirrored, n - x, x), n, np.where(mirrored, 1.0 - q2, q1),
            np.where(mirrored, 1.0 - q1, q2))


def round0_runs(rng, size):
    genes = -(-size // RUN_ROWS)
    tie = rng.random(genes) < 0.1
    center = np.where(tie, 1.0, np.exp(rng.uniform(np.log(0.1), np.log(10.0), genes)))
    f = np.where(tie, 0.5, rng.uniform(0.02, 0.98, genes))
    n = np.floor(np.exp(rng.uniform(0.0, np.log(2.0**42), genes)))
    deep = rng.random(genes) < 0.2
    z = np.where(deep, rng.uniform(-40.0, 40.0, genes), rng.uniform(-8.0, 8.0, genes))
    x1 = np.clip(np.round(n * f + z * np.sqrt(n * f * (1.0 - f))), 0.0, n)
    at_end = deep & (rng.random(genes) < 0.5)
    x1[at_end] = np.where(rng.random(genes) < 0.5, 0.0, n)[at_end]
    l1n1 = np.floor(rng.uniform(1.0, 1e10, genes))
    l2n2 = np.where(tie, l1n1, l1n1 * (center * (1.0 - f) / f))
    # One round-0 grid per gene: points log-spaced over [center/span,
    # center*span], the middle one exactly at the center for odd counts.
    span = rng.uniform(1.01, 30.0, genes)
    points = rng.integers(10, 1001, genes)
    gene = np.repeat(np.arange(genes), RUN_ROWS)[:size]
    left, right = np.sort(np.floor(rng.random((2, size)) * points[gene]), axis=0)

    def p0_at(index):
        t = 2.0 * index / (points[gene] - 1) - 1.0
        c = center[gene] * np.exp(np.log(span[gene]) * t)
        return _p0(c, l1n1[gene], l2n2[gene])

    return x1[gene], n[gene], p0_at(left), p0_at(right)


def batches(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        yield tuple(np.concatenate(pair) for pair in zip(sided_rows(rng, size // 2),
                                                         round0_runs(rng, size - size // 2)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    checked = 0
    for x1, n, p_lo, p_hi in batches(args.count, args.seed):
        problem = mismatch(x1, n, p_lo, p_hi)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 1
        checked += x1.size
    print(f"_interval_verdicts match the every-tail reference on {checked} rows "
          f"at {len(LEVELS)} levels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
