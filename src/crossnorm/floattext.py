"""The text of p- and q-values in results.tsv, for whole arrays.

A value in (0, 1] is written as Python's ``repr``: the shortest decimal
that reads back as the same float64, and of those the nearest to it.  NaN
is written ``NA``.  :func:`pq_text` finds the text of every entry of an
array at once with Ryu (Adams, "Ryu: fast float-to-string conversion",
PLDI 2018), restricted to (0, 1].

The restriction makes Ryu small.  A value in (0, 1) has a binary exponent
``e2 < 0``, so only Ryu's ``5**i`` branch is needed, with ``i`` in
[18, 325] and a product shift ``j`` in [118, 121].  One 55-bit by 125-bit
product is formed from 32-bit limbs in uint64, and both bounds follow from
its low bits.  The decimal exponent ``q`` is at least 36, so neither
bound is exact and the digits to remove are all those where the two
bounds still differ.  The value itself can be exact, and an exact tie
rounds to even, as in ``repr``.  1.0 and NaN have fixed texts.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["WIDTH", "pq_text"]

_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)  # all below 2**64
_DIGITS = 17  # a shortest double has at most 17 significant digits

# Each value's text is picked from a row of WIDTH bytes: "d." (the
# scientific lead), "0." (the fixed lead), three zeros, the digits
# d0..d16 from byte 7, "NA", "e-" and a four-digit exponent.  Bytes 8-23
# and 28-31 are four-byte words, filled from _WORDS.  The lead digit is
# "1" until a conversion writes it, for the text "1.0".
WIDTH = 32
_TEMPLATE = np.frombuffer(b"1.0.000" + b"?" * 17 + b"NAe-0000", dtype=np.uint8)
# _WORDS[k] is the four ASCII digits of k, as one native uint32.
_WORDS = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
                              + np.uint8(ord("0"))).view(np.uint32).ravel()


def _layouts() -> np.ndarray:
    """The bytes each layout keeps, by code = 17 * kind + ndigits - 1.

    kind 0-3: ``0.`` with that many zeros, then the digits; kind 4 and 5:
    ``d.ddd`` then ``e-`` and a two- or three-digit exponent; kind 6:
    ``1.0``; kind 7: ``NA``.
    """
    col = np.arange(WIDTH)
    nd = np.arange(1, _DIGITS + 1)[:, None]
    zeros = np.arange(4)[:, None, None]
    fixed = (((col == 2) | (col == 3) | ((col >= 4) & (col < 4 + zeros)))
             | ((col >= 7) & (col < 7 + nd)))
    exponent = np.array([2, 3])[:, None, None]
    scientific = (((col == 0) | ((col == 1) & (nd > 1)) | ((col >= 8) & (col < 7 + nd)))
                  | (col == 26) | (col == 27) | (col >= 32 - exponent))
    one = np.broadcast_to((col == 0) | (col == 1) | (col == 4), (1, _DIGITS, WIDTH))
    na = np.broadcast_to((col == 24) | (col == 25), (1, _DIGITS, WIDTH))
    return np.concatenate([fixed, scientific, one, na]).reshape(-1, WIDTH)


_KEEP = _layouts()
# One text row as a single value, for whole-row gathers and scatters.
_ROW = np.dtype((np.void, WIDTH))
_ONE, _NA = 6 * _DIGITS, 7 * _DIGITS  # 1.0 and NaN keep _TEMPLATE's "1.0" and "NA"


class _Exponents(NamedTuple):
    """Ryu's quantities that depend only on the biased exponent b < 1023,
    as arrays indexed by b."""

    hidden: np.ndarray    # the implicit leading bit: 2**52, or 0 when subnormal
    full_gap: np.ndarray  # 1 where the gap below is a full step at fraction 0
    limbs: np.ndarray     # 5**i scaled to 125 bits: four rows of 32-bit limbs
    shift: np.ndarray     # the product shift j, less 96
    e10: np.ndarray       # the decimal exponent of vr's last digit
    below_q: np.ndarray   # 2**q - 1, capped at 2**63 - 1


@functools.cache
def _exponents() -> _Exponents:
    b = np.arange(1023)
    # Ryu's step 1: x = mv * 2**e2, with two spare bits for the bounds.
    e2 = np.maximum(b, 1) - (1023 + 52 + 2)
    q = ((-e2 * 732923) >> 20) - 1  # floor(log10(5**-e2)) - 1, exact this far
    i = -e2 - q
    limbs = np.empty((4, 326), dtype=np.uint64)
    scale = np.empty(326, dtype=np.int64)
    power = 1
    for k in range(326):  # 5**k scaled to 125 bits, for every i
        scale[k] = excess = power.bit_length() - 125
        scaled = power >> excess if excess >= 0 else power << -excess
        limbs[:, k] = [(scaled >> s) & 0xFFFFFFFF for s in (0, 32, 64, 96)]
        power *= 5
    return _Exponents(
        hidden=np.where(b > 0, np.uint64(2**52), np.uint64(0)),
        full_gap=(b <= 1).astype(np.uint64),
        limbs=limbs.take(i, axis=1),
        shift=(q - scale.take(i) - 96).astype(np.uint64),
        e10=q + e2,
        below_q=(np.uint64(1) << np.minimum(q, 63).astype(np.uint64)) - np.uint64(1),
    )


def _products(mv: np.ndarray, mm_shift: np.ndarray, limbs: np.ndarray,
              shift: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryu's vr, vp and vm: floor(m * p / 2**j) for m = mv, mv + 2 and
    mv - 1 - mm_shift, where mv < 2**55, p has 125 bits and j = 96 + shift
    is in [118, 121]."""
    p0, p1, p2, p3 = limbs
    m0, m1 = mv & _U32, mv >> _S32
    # x = mv * p as the 32-bit limbs x0..x3 and the bits from 128 up.  A
    # column's partial products are added in 32-bit halves, so no sum
    # overflows.
    product = m0 * p0
    x = [product & _U32]
    carry = product >> _S32
    for low, high in ((p1, p0), (p2, p1), (p3, p2)):
        a, b = m0 * low, m1 * high
        column = (a & _U32) + (b & _U32) + carry
        x.append(column & _U32)
        carry = (a >> _S32) + (b >> _S32) + (column >> _S32)
    top = m1 * p3 + carry
    vr = (top << (_S32 - shift)) | (x[3] >> shift)
    # floor((x + d) / 2**j) = vr + floor((x % 2**j + d) / 2**j): add d = 2p
    # to the low j bits for vp, and subtract (1 + mm_shift) p, with
    # borrows in int64, for vm.
    x[3] &= (np.uint64(1) << shift) - np.uint64(1)
    total = x[0] + (p0 << np.uint64(1))
    for xk, pk in ((x[1], p1), (x[2], p2)):
        total = xk + (pk << np.uint64(1)) + (total >> _S32)
    vp = vr + ((x[3] + (p3 << np.uint64(1)) + (total >> _S32)) >> shift)
    xs = [xk.view(np.int64) for xk in x]
    ps = [(pk << mm_shift).view(np.int64) for pk in limbs]
    total = xs[0] - ps[0]
    for k in (1, 2):
        total = xs[k] - ps[k] + (total >> 32)
    vm = vr + ((xs[3] - ps[3] + (total >> 32)) >> shift.view(np.int64)).view(np.uint64)
    return vr, vp, vm


def _decimal_zeros(x: np.ndarray) -> np.ndarray:
    """The number of trailing decimal zeros of each x in [1, 2**53), at most 15."""
    # float64 holds x and every x // 10**t exactly: x is a multiple of
    # 10**t exactly when rounding x / 10**t and scaling back gives x.
    x = x.astype(np.float64)
    zeros = np.zeros(x.shape, dtype=np.int64)
    for step in (8, 4, 2, 1):
        power = 10.0**step
        reduced = np.rint(x / power)
        whole = reduced * power == x
        x = np.where(whole, reduced, x)
        zeros += step * whole
    return zeros


def _convert(values: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """Fill chars with the text rows of values in (0, 1); return their layout codes."""
    bits = values.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.intp)
    fraction = bits & np.uint64(2**52 - 1)
    table = _exponents()
    mv = (fraction | table.hidden.take(biased)) << np.uint64(2)
    # The gap below is half a step where the fraction is 0 (but b > 1).
    mm_shift = table.full_gap.take(biased) | (fraction != 0)
    # Steps 2 and 3: the value and both bounds times 10**-e10.
    vr, vp, vm = _products(mv, mm_shift, table.limbs.take(biased, axis=1),
                           table.shift.take(biased))
    # vr is exact when 2**q divides mv (q >= 36, mv < 2**55).
    exact = (mv & table.below_q.take(biased)) == 0

    # Step 4: remove the last k digits wherever a multiple of 10**k lies in
    # (vm, vp], that is, where vp % 10**k < vp - vm.  The bounds are
    # (3 + mm_shift) * p / 2**j apart, with p / 2**j in [8, 128), so
    # vp - vm lies in [23, 513]: one digit always goes, and for k >= 3 the
    # multiple is there when vp % 1000 is below vp - vm and 10**(k - 3)
    # divides vp // 1000.
    width = vp - vm
    thousands = vp // np.uint64(1000)
    low3 = (vp - thousands * np.uint64(1000)) < width
    low2 = (vp - vp // np.uint64(100) * np.uint64(100)) < width
    removed = 1 + low2 + low3
    further = np.flatnonzero(low3)
    removed[further] += _decimal_zeros(thousands[further])
    p10 = _POW10.take(removed)
    digits = vr // p10
    rest = vr - digits * p10
    half = p10 >> np.uint64(1)
    # Round half up, but half to even where vr is exact; and round up
    # where the truncated value is not above the lower bound.
    round_up = (rest > half) | ((rest == half) & ~(exact & ((digits & np.uint64(1)) == 0)))
    digits += (vm >= digits * p10) | round_up

    # Layout: 0.000ddd while the point is above -4, else d.ddde-XX.
    ndigits = np.searchsorted(_POW10[1:_DIGITS], digits, side="right") + 1
    point = table.e10.take(biased) + removed + ndigits  # x = 0.ddd * 10**point
    kind = np.where(point > -4, -point, 4 + (point <= -99))

    chars[:] = _TEMPLATE
    words = chars.view(np.uint32)
    left = digits * _POW10.take(_DIGITS - ndigits)  # d0 d1 ... d16
    lead = left // _POW10[16]
    chars[:, 0] = chars[:, 7] = lead + np.uint64(ord("0"))
    left -= lead * _POW10[16]
    for word, power in zip(range(2, 6), _POW10[12::-4]):
        chunk = left // power
        words[:, word] = _WORDS.take(chunk)
        left -= chunk * power
    words[:, 7] = _WORDS.take(1 - point)
    return kind * _DIGITS + ndigits - 1


def pq_text(values: np.ndarray, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write the text of each float64 in (0, 1] or NaN into chars and keep.

    ``chars`` (uint8) and ``keep`` (bool) have the shape of ``values`` plus
    a last axis of WIDTH, which must be contiguous: ``chars[r][keep[r]]``
    becomes the ASCII text of ``repr(values[r])``, or ``NA`` for NaN, at
    every index r.  Other values give meaningless text.
    """
    values = np.asarray(values, dtype=np.float64)
    # 1.0 (common among q-values) and NaN (untestable genes) have fixed texts.
    code = np.where(np.isnan(values), _NA, _ONE)
    chars[...] = _TEMPLATE
    rows = chars.view(_ROW)[..., 0]
    inside = np.nonzero(values < 1.0)
    text = np.empty((inside[0].size, WIDTH), dtype=np.uint8)
    code[inside] = _convert(values[inside], text)
    rows[inside] = text.view(_ROW)[:, 0]
    keep.view(_ROW)[..., 0] = _KEEP.view(_ROW)[:, 0].take(code)
