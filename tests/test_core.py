import dataclasses

import numpy as np
import pytest

from crossnorm.core import (ConservedSet, InvalidRow, ScalingFactor, _build_table,
                            validate_table)
from crossnorm.pipeline import load_conserved_list
from rowtable import table_of


def _rows():
    return [
        ("g1", 100, 200, 5, 2),
        ("g2", 300, 300, 0, 1),
        ("g3", 150, 120, 7, 7),
    ]


def test_totals_are_exact_sums():
    table = table_of(_rows())
    assert table.total_sp1 == 12
    assert table.total_sp2 == 10


def test_columns_are_read_only_int64():
    table = table_of(_rows())
    assert table.gene_ids == ("g1", "g2", "g3")
    assert table.count_sp1.tolist() == [5, 0, 7]
    assert table.length_sp2.tolist() == [200, 300, 120]
    for column in (table.length_sp1, table.length_sp2, table.count_sp1, table.count_sp2):
        assert column.dtype == np.int64
        with pytest.raises(ValueError):
            column[0] = 1
    with pytest.raises(ValueError):
        table.testable[0] = False


def test_totals_are_exact_python_ints_beyond_int64():
    # 2,000 counts just below 2**53 sum past 2**63, where an int64 sum wraps.
    big = 2**53 - 1
    n = 2000
    table = validate_table([f"g{i}" for i in range(n)], [1] * n, [1] * n, [big] * n,
                           [big - 1] * n)
    assert type(table.total_sp1) is int and type(table.total_sp2) is int
    assert table.total_sp1 == n * big
    assert table.total_sp2 == n * (big - 1)


@pytest.mark.parametrize("extra", [0, 1], ids=["int64-sum", "python-sum"])
def test_totals_are_exact_at_the_int64_edge(extra):
    # 2**63 - 1 = 3577 * top.  With every species-1 count at top, max * rows
    # is exactly 2**63 - 1 and the int64 sum is the int64 maximum; one more
    # read per gene would wrap an int64 sum, so that total is Python's.
    rows = 3577
    top = (2**63 - 1) // rows
    assert top * rows == 2**63 - 1 and top < 2**53
    counts = [top + extra] * rows
    table = validate_table([f"g{i}" for i in range(rows)], [1] * rows, [1] * rows, counts,
                           list(range(rows)))
    assert type(table.total_sp1) is int and type(table.total_sp2) is int
    assert table.total_sp1 == sum(counts) == 2**63 - 1 + extra * rows
    assert table.total_sp2 == sum(range(rows))


def test_genes_whose_counts_sum_to_2_pow_53_are_untestable():
    # The exact test's n = x1 + x2 must be exact in float64.
    table = validate_table(["g1", "g2", "g3", "g4"], [1] * 4, [1] * 4,
                           [2**53 - 1, 2**53 - 2, 2**53 - 1, 0], [1, 1, 2**53 - 1, 0])
    assert table.testable.tolist() == [False, True, False, False]


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("value", [2**53, 2**63, 2**64])
def test_values_at_or_above_2_pow_53_rejected_with_row(column, value):
    values = [[100, 100], [100, 100], [5, 5], [5, 5]]
    values[column][1] = value
    with pytest.raises(InvalidRow, match=r"'g2'.*2\*\*53") as info:
        validate_table(["g1", "g2"], *values)
    assert info.value.row == 1


def test_first_offending_row_is_reported():
    with pytest.raises(InvalidRow) as info:
        validate_table(["a", "b", "c", "b"], [5, 5, 0, 5], [5] * 4, [1, 1, 1, -1], [1] * 4)
    assert info.value.row == 2
    assert "length_sp1" in str(info.value)


@pytest.mark.parametrize("gene_id", ["a\tb", "a\nb", "a\r", "\x0cb", "a\x1cb", "a\x85b",
                                     "a\u2028b", "\u2029"])
def test_gene_id_with_a_tab_or_line_break_rejected_with_row(gene_id):
    rows = [("g1", 10, 10, 1, 1), (gene_id, 10, 10, 1, 1), ("g\t3", 10, 10, 1, 1)]
    with pytest.raises(InvalidRow, match="gene_id must not contain a tab or line break") as info:
        table_of(rows)
    assert info.value.row == 1


def test_a_table_keeps_the_id_set_its_id_rules_built(tmp_path):
    # load_conserved_list tests membership against it instead of hashing the ids again.
    ids = ("g1", "g2", "g3")
    columns = ([10] * 3, [10] * 3, [1, 0, 2], [1, 1, 0])
    checked = validate_table(ids, *columns)
    assert vars(checked)["_id_set"] == frozenset(ids)
    unchecked = _build_table(ids, *columns, check_ids=False)
    assert "_id_set" not in vars(unchecked)  # built on first use
    path = tmp_path / "conserved.txt"
    path.write_text("g3\ngX\ng1\ng3\n", encoding="utf-8")
    for table in (checked, unchecked):
        assert load_conserved_list(path, table) == (ConservedSet(frozenset({"g1", "g3"})), 1)
    assert unchecked._id_set == frozenset(ids)


def test_mismatched_column_lengths_rejected():
    with pytest.raises(ValueError, match="same length"):
        validate_table(["g1", "g2"], [1, 1], [1, 1], [1], [1, 1])


def test_duplicate_gene_id_rejected_by_name():
    with pytest.raises(ValueError, match="g1"):
        table_of([("g1", 10, 10, 1, 1), ("g1", 20, 20, 2, 2)])


def test_nonpositive_length_rejected_by_name():
    with pytest.raises(InvalidRow, match=r"'bad'.*length_sp2 must be >= 1"):
        table_of([("ok", 100, 100, 1, 1), ("bad", 100, 0, 1, 1)])


def test_negative_count_rejected():
    with pytest.raises(InvalidRow, match=r"'g1'.*counts must be >= 0"):
        table_of([("g1", 100, 100, -1, 0), ("g2", 100, 100, 1, 1)])


def test_all_zero_totals_rejected():
    with pytest.raises(ValueError):
        table_of([("g1", 10, 10, 0, 0)])


def test_zero_count_gene_retained_but_untestable():
    table = table_of(_rows() + [("g4", 50, 60, 0, 0)])
    assert len(table) == 4
    assert table.total_sp1 == 12  # the all-zero gene adds nothing
    flags = {r.gene_id: r.testable for r in table.records}
    assert table.testable.tolist() == [True, True, True, False]
    assert flags == {"g1": True, "g2": True, "g3": True, "g4": False}


def test_validate_table_is_idempotent():
    table = table_of(_rows())
    again = validate_table(table.gene_ids, table.length_sp1, table.length_sp2,
                           table.count_sp1, table.count_sp2)
    assert again == table


def test_records_are_immutable():
    rec = table_of(_rows()).records[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.count_sp1 = 5


def test_conserved_set_requires_known_ids(tmp_path):
    # Ids from outside the program meet the table in load_conserved_list,
    # which drops and counts the unknown ones.
    table = table_of(_rows())
    assert ConservedSet(frozenset(["g1", "g3"])).m == 2
    path = tmp_path / "conserved.txt"
    path.write_text("g1\ngX\n", encoding="utf-8")
    conserved, unknown = load_conserved_list(path, table)
    assert conserved.gene_ids == frozenset({"g1"})
    assert unknown == 1
    path.write_text("gX\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_conserved_list(path, table)
    with pytest.raises(ValueError):
        ConservedSet(frozenset())


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
def test_scaling_factor_must_be_positive_finite(value):
    with pytest.raises(ValueError):
        ScalingFactor(value)


@pytest.mark.parametrize("value", [True, "1.5", None,
                                   pytest.param(10**400, id="10**400")])
def test_scaling_factor_must_be_a_number(value):
    with pytest.raises(ValueError, match="^scaling factor must be a number, got "):
        ScalingFactor(value)


def test_scaling_factor_float_conversion():
    assert float(ScalingFactor(1.5)) == 1.5
