#!/usr/bin/env python3
"""Compare crossnorm.floattext.pq_text with repr on many float64 values.

Checks every power of two and of ten in (0, 1] with both neighbours, then
``--count`` seeded random bit patterns in (0, 1].  Exits 1 and names the
first value whose text differs from ``repr``.  Run from the repository
root:

    PYTHONPATH=src python3 tests/check_pq_text.py --count 5000000
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from crossnorm.floattext import WIDTH, pq_text

ONE_BITS = 0x3FF0000000000000  # the bit pattern of 1.0
CHUNK = 250_000


def mismatch(values: np.ndarray) -> str | None:
    """The first value whose text is not its repr, described; else None."""
    chars = np.empty((values.size, WIDTH + 1), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    pq_text(values, chars[:, :WIDTH], keep[:, :WIDTH])
    chars[:, WIDTH], keep[:, WIDTH] = ord("\n"), True
    expected = [repr(v) for v in values.tolist()]
    if chars[keep].tobytes() == ("\n".join(expected) + "\n").encode():
        return None
    for value, row, kept, text in zip(values.tolist(), chars, keep, expected):
        got = row[kept].tobytes().decode()[:-1]
        if got != text:
            return f"{value.hex()}: pq_text wrote {got!r}, repr is {text!r}"
    raise AssertionError("the joined texts differ but no row does")


def edge_values() -> np.ndarray:
    centres = [2.0**-k for k in range(1, 1075)] + [float(f"1e-{k}") for k in range(324)]
    values = np.array(centres + [1.0])
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 2.0)])
    return values[(values > 0.0) & (values <= 1.0)]


def batches(count: int, seed: int):
    yield edge_values()
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        yield rng.integers(1, ONE_BITS, size=size, dtype=np.uint64,
                           endpoint=True).view(np.float64)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=5_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    checked = 0
    for values in batches(args.count, args.seed):
        problem = mismatch(values)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 1
        checked += values.size
    print(f"pq_text matches repr on {checked} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
