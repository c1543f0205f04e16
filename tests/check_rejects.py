#!/usr/bin/env python3
"""Compare crossnorm.exact_test._rejects with the p-value kernel on many cells.

``_rejects(x1, n, p0, level)`` must equal ``binom_twosided_pvalues(x1, n,
p0) < level`` exactly: it is how the SCBN grid counts rejections.  Checks
every combination of the edge classes (n = 0, tiny n and n next to 2**40;
x1 at 0, at n and next to the null mean; p0 at the clip floor, at 1/2 and at
the clip ceiling) at levels from 1e-6 to 0.99, then ``--count`` seeded random
cells, each chunk at three levels.  A fifth of the random cells are deep:
x1 at 0 or n, or 8-40 sd from the null mean.  Exits 1 and names the first
cell where the two disagree.  Run from the repository root:

    PYTHONPATH=src python3 tests/check_rejects.py --count 2000000
"""
from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from crossnorm.exact_test import _MAX_P0, _MIN_P, _rejects, binom_twosided_pvalues

CHUNK = 100_000
LEVELS = (1e-6, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.99)
EDGE_N = (0, 1, 2, 3, 10, 1000, 2**40 - 1, 2**40, 2**40 + 1)
EDGE_P0 = (_MIN_P, 1e-300, 1e-9, 0.3, float(np.nextafter(0.5, 0.0)), 0.5,
           float(np.nextafter(0.5, 1.0)), 0.7, 1.0 - 1e-9, _MAX_P0)
HUGE_SHARE = 0.001  # random cells with n next to 2**40, where betainc is slow
DEEP_SHARE = 0.2    # random cells far in a tail (see deep_counts)


def mismatch(x1, n, p0, levels) -> str | None:
    """The first cell where _rejects and the kernel disagree, described."""
    p = binom_twosided_pvalues(x1, n, p0)
    for level in levels:
        got = _rejects(x1, n, p0, level)
        bad = np.flatnonzero(got != (p < level))
        if bad.size:
            i = bad[0]
            return (f"x1={x1[i]!r} n={n[i]!r} p0={p0[i]!r} level={level!r}: p={p[i]!r}, "
                    f"_rejects says {bool(got[i])}")
    return None


def deep_counts(rng, n, p0):
    """x1 at 0 or n, or 8-40 sd from the null mean on either side."""
    size = n.size
    mu = n * p0
    far = mu + rng.choice([-1.0, 1.0], size) * rng.uniform(8.0, 40.0, size) * np.sqrt(
        mu * (1.0 - p0))
    return np.where(rng.random(size) < 0.3, np.where(rng.random(size) < 0.5, 0.0, n),
                    np.round(far))


def edge_cells():
    cells = []
    for n, p0 in itertools.product(EDGE_N, EDGE_P0):
        mu = np.floor(n * p0)
        for x1 in {0, n, mu - 1, mu, mu + 1, mu + 2}:
            if 0 <= x1 <= n:
                cells.append((x1, n, p0))
    return tuple(np.array(column, dtype=np.float64) for column in zip(*cells))


def random_cells(rng, size):
    n = np.floor(np.exp(rng.uniform(0.0, np.log(1e5), size)))
    tiny = rng.random(size) < 0.1
    n[tiny] = rng.integers(0, 11, int(tiny.sum()))
    huge = rng.random(size) < HUGE_SHARE
    n[huge] = 2.0**40 + rng.integers(-50, 51, int(huge.sum()))
    # p0 log-uniform down to 1e-12 on either side of 1/2, some at the edges.
    p0 = np.exp(rng.uniform(np.log(1e-12), np.log(0.5), size))
    p0 = np.where(rng.random(size) < 0.5, 1.0 - p0, p0)
    at_edge = rng.random(size) < 0.02
    p0[at_edge] = rng.choice(EDGE_P0, int(at_edge.sum()))
    mu = n * p0
    near = np.round(mu + rng.uniform(-6.0, 6.0, size) * np.sqrt(mu * (1.0 - p0)))
    anywhere = np.floor(rng.random(size) * (n + 1))
    ends = np.choose(rng.integers(0, 4, size), [np.zeros(size), n, np.floor(mu), np.ceil(mu)])
    kind = rng.random(size)
    x1 = np.where(kind < 0.6, near, np.where(kind < 0.8, anywhere, ends))
    deep = rng.random(size) < DEEP_SHARE
    x1[deep] = deep_counts(rng, n[deep], p0[deep])
    return np.clip(x1, 0.0, n), n, p0


def batches(count: int, seed: int):
    yield edge_cells(), LEVELS
    rng = np.random.default_rng(seed)
    for index, start in enumerate(range(0, count, CHUNK)):
        size = min(CHUNK, count - start)
        levels = (LEVELS[index % len(LEVELS)],
                  *np.exp(rng.uniform(np.log(1e-6), np.log(0.99), 2)).tolist())
        yield random_cells(rng, size), levels


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    checked = 0
    for (x1, n, p0), levels in batches(args.count, args.seed):
        problem = mismatch(x1, n, p0, levels)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 1
        checked += x1.size
    print(f"_rejects matches the kernel on {checked} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
