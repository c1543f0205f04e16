#!/usr/bin/env python3
"""Check that the blocked whole-table passes equal one whole-table pass.

Two checks, each exits 1 naming the first difference:

* ``binom_twosided_pvalues``, which runs the kernel on blocks of
  ``exact_test._ROWS`` cells, against one ``_two_sided`` call on each chunk
  of ``--count`` seeded cells, bit for bit: n log-uniform up to 2**52 (with
  n = 0 and tiny n), p0 log-uniform toward both ends of (0, 1) and at 1/2,
  and x1 near the null mean, anywhere in [0, n] or at 0 or n.
* results.tsv of a seeded 50,000-gene table with non-ASCII ids of 1 to 40
  characters and NA, 1.0 and tiny p- and q-values, written at the default
  block size and as one block, byte for byte.

Run from the repository root:

    PYTHONPATH=src python3 tests/check_blocks.py --count 1000000
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from crossnorm import exact_test, pipeline
from crossnorm.core import ScalingFactor, validate_table

CHUNK = 100_000
GENES = 50_000
ID_CHARS = "gène基因🧬αβ_0123456789"


def random_cells(rng, size):
    n = np.floor(np.exp(rng.uniform(0.0, np.log(2.0**52), size)))
    tiny = rng.random(size) < 0.05
    n[tiny] = rng.integers(0, 4, int(tiny.sum()))
    p0 = np.exp(rng.uniform(np.log(1e-12), np.log(0.5), size))
    p0 = np.where(rng.random(size) < 0.5, 1.0 - p0, p0)
    p0[rng.random(size) < 0.02] = 0.5
    mu = n * p0
    near = np.round(mu + rng.uniform(-8.0, 8.0, size) * np.sqrt(mu * (1.0 - p0)))
    anywhere = np.floor(rng.random(size) * (n + 1))
    ends = np.where(rng.random(size) < 0.5, 0.0, n)
    kind = rng.random(size)
    x1 = np.where(kind < 0.6, near, np.where(kind < 0.9, anywhere, ends))
    return np.clip(x1, 0.0, n), n, p0


def pvalue_mismatch(count: int, seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        x1, n, p0 = random_cells(rng, min(CHUNK, count - start))
        blocked = exact_test.binom_twosided_pvalues(x1, n, p0)
        whole = exact_test._two_sided(x1, n, p0, np.inf)
        bad = np.flatnonzero(blocked.view(np.uint64) != whole.view(np.uint64))
        if bad.size:
            i = bad[0]
            return (f"x1={x1[i]!r} n={n[i]!r} p0={p0[i]!r}: blocked p={blocked[i]!r}, "
                    f"whole p={whole[i]!r}")
    return None


def seeded_calls(seed: int) -> pipeline.DEResult:
    rng = np.random.default_rng(seed)
    chars = np.array(list(ID_CHARS))
    lengths = rng.integers(1, 41, GENES)
    ids = [f"{i}:" + "".join(rng.choice(chars, size)) for i, size in enumerate(lengths)]
    length = rng.integers(100, 10_000, (2, GENES))
    counts = rng.negative_binomial(2, rng.uniform(0.001, 0.5, (2, GENES)))
    counts[:, rng.random(GENES) < 0.05] = 0  # untestable genes: NA p- and q-values
    table = validate_table(ids, length[0], length[1], counts[0], counts[1])
    return pipeline.call_de(table, ScalingFactor(float(rng.uniform(0.5, 2.0))), 1e-3)


def results_mismatch(seed: int) -> str | None:
    calls = seeded_calls(seed)
    blocked = b"".join(pipeline._results_tsv(calls))
    saved = pipeline._ROWS, pipeline._BLOCK_BYTES
    pipeline._ROWS, pipeline._BLOCK_BYTES = GENES, 2**62
    try:
        whole = b"".join(pipeline._results_tsv(calls))
    finally:
        pipeline._ROWS, pipeline._BLOCK_BYTES = saved
    if blocked == whole:
        return None
    at = next(i for i, (a, b) in enumerate(zip(blocked, whole)) if a != b)
    line = blocked[:at].count(b"\n") + 1
    return f"results.tsv line {line} differs between the blocked and the one-block writer"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for problem in (pvalue_mismatch(args.count, args.seed), results_mismatch(args.seed)):
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 1
    print(f"blocked p-values match one whole call on {args.count} cells; "
          f"blocked results.tsv matches one block on {GENES} genes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
