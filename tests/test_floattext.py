import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnorm import floattext
from crossnorm.floattext import WIDTH, pq_text

_ONE_BITS = 0x3FF0000000000000  # the bit pattern of 1.0; 1..this are (0, 1]


def _texts(values):
    values = np.asarray(values, dtype=np.float64)
    chars = np.empty((values.size, WIDTH), dtype=np.uint8)
    keep = np.empty((values.size, WIDTH), dtype=bool)
    pq_text(values, chars, keep)
    return [row[kept].tobytes().decode("ascii") for row, kept in zip(chars, keep)]


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [repr(v) for v in values.tolist()]
    mismatches = [(e, t) for e, t in zip(expected, _texts(values)) if e != t]
    assert mismatches == []


@given(st.lists(st.integers(1, _ONE_BITS), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_text_is_repr_for_any_bit_pattern_in_the_unit_interval(patterns):
    _assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def _neighbours(x):
    return [x, np.nextafter(x, 0.0), np.nextafter(x, 2.0)]


def test_text_is_repr_at_the_edges():
    smallest_normal = 2.0**-1022
    values = [5e-324, 1e-323, smallest_normal, np.nextafter(smallest_normal, 0.0), 1.0,
              0.1, 0.2, 0.3, 0.5, 0.25, 0.05, 0.001, 0.0001, 1e-05, 9.999999999999999e-05]
    for k in range(1, 1075):  # every power of two in (0, 1], so every exponent
        values += _neighbours(2.0**-k)
    for k in range(324):
        values += _neighbours(float(f"1e-{k}"))
    # Short decimals, and values of 1 to 17 significant digits at every scale.
    values += [d / 10**e for d in range(1, 100) for e in range(2, 12)]
    rng = np.random.default_rng(20240611)
    for digits in range(1, 18):
        mantissas = rng.integers(10**(digits - 1), 10**digits, size=120)
        exponents = rng.integers(digits, 330, size=120)
        values += [float(f"{m}e-{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    values = [v for v in values if 0.0 < v <= 1.0]
    assert len(values) > 5000
    _assert_repr(values)


def test_text_of_every_significant_digit_count():
    values = [float("0." + "1234567891234567"[:k]) for k in range(1, 17)]
    values += [0.1 + 0.2, 1e-5 + 2e-21, 2.0**-60, 1 / 3]
    significant = {len(repr(v).split("e")[0].replace(".", "").lstrip("0")) for v in values}
    assert significant == set(range(1, 18))
    _assert_repr(values)


def test_nan_is_na_and_rows_may_be_views():
    values = np.array([math.nan, 0.5, 1.0, math.nan, 5e-324])
    chars = np.zeros((5, WIDTH + 8), dtype=np.uint8)
    keep = np.zeros((5, WIDTH + 8), dtype=bool)
    pq_text(values, chars[:, 4:4 + WIDTH], keep[:, 4:4 + WIDTH])
    assert not keep[:, :4].any() and not keep[:, 4 + WIDTH:].any()
    texts = [row[kept].tobytes().decode() for row, kept in zip(chars, keep)]
    assert texts == ["NA", "0.5", "1.0", "NA", "5e-324"]


def test_values_of_any_shape_fill_the_rows_of_a_strided_view():
    # A (3, 2) array of values into (3, 2, WIDTH) text rows one byte apart,
    # as results.tsv's p and q slots are laid out.
    values = np.array([[0.5, math.nan], [1.0, 5e-324], [0.1 + 0.2, 1e-05]])
    chars = np.zeros((3, 2 * (WIDTH + 1)), dtype=np.uint8)
    keep = np.zeros(chars.shape, dtype=bool)
    slots, slot_keep = chars.reshape(3, 2, WIDTH + 1), keep.reshape(3, 2, WIDTH + 1)
    pq_text(values, slots[..., 1:], slot_keep[..., 1:])
    assert not slot_keep[..., 0].any()
    texts = [row[kept].tobytes().decode() for row, kept in zip(slots.reshape(6, -1),
                                                               slot_keep.reshape(6, -1))]
    assert texts == ["0.5", "NA", "1.0", "5e-324", "0.30000000000000004", "1e-05"]


def test_exponent_table_keeps_the_products_in_range():
    # The limb arithmetic takes p with exactly 125 bits and j in [118, 121],
    # so that p / 2**j lies in [8, 128) and vp - vm in [23, 513].
    table = floattext._exponents()
    assert (table.shift.min(), table.shift.max()) == (22, 25)
    assert ((table.limbs[3] >> np.uint64(28)) == 1).all()
    assert (table.limbs < 2**32).all()
