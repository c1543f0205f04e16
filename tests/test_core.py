import dataclasses
import numbers

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnorm.core import (ConservedSet, InvalidRow, ScalingFactor, _build_table,
                            validate_table)
from crossnorm.normalization import GridConfig
from crossnorm.pipeline import RunConfig, load_conserved_list
from crossnorm.simulation import SimConfig
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


# Every number field of the four checked types: (type, field, the label its
# messages use, its kind).  The other fields take the values below.
_NUMBER_FIELDS = [
    *((GridConfig, name, label, kind) for name, label, kind in [
        ("alpha", "alpha", float), ("center", "grid center", float), ("span", "span", float),
        ("coarse_points", "coarse_points", int), ("refine_rounds", "refine_rounds", int)]),
    *((RunConfig, name, label, kind) for name, label, kind in [
        ("alpha", "alpha", float), ("cutoff", "cutoff", float),
        ("grid_center", "grid center", float), ("grid_span", "span", float),
        ("grid_points", "coarse_points", int)]),
    *((SimConfig, name, name, int) for name in [
        "n_orthologs", "conserved_size", "n_unique_sp1", "n_unique_sp2", "n_unmapped_sp1",
        "n_unmapped_sp2", "length_min", "length_max", "seed"]),
    *((SimConfig, name, name, float) for name in [
        "de_rate", "fold", "up_rate_sp2", "noise_rate", "depth_sp1", "depth_sp2"]),
    (ScalingFactor, "c", "scaling factor", float),
]
_OTHER_FIELDS = {RunConfig: {"counts_path": "counts.tsv", "conserved_path": "conserved.txt"},
                 SimConfig: {"n_orthologs": 200, "conserved_size": 20}}
_OPTIONAL = {(GridConfig, "center"), (RunConfig, "grid_center")}


def test_the_number_fields_listed_are_every_number_field():
    classes = (GridConfig, RunConfig, SimConfig, ScalingFactor)
    annotated = {(cls, f.name): f.type for cls in classes for f in dataclasses.fields(cls)}
    kinds = {"int": int, "float": float, "float | None": float}
    assert {(cls, name, kind) for cls, name, _, kind in _NUMBER_FIELDS} == {
        (*key, kinds[kind]) for key, kind in annotated.items() if kind in kinds}
    assert _OPTIONAL == {key for key, kind in annotated.items() if kind == "float | None"}


def _numbers(value):
    """``value`` as a Python number and as each numpy scalar type whose range holds it."""
    kinds = [type(value), np.float64]
    if not abs(value) > 1e38:
        kinds.append(np.float32)
    if isinstance(value, int):
        kinds += [np.int32] * (-(2**31) <= value < 2**31) + [np.uint64] * (0 <= value < 2**64)
    return st.sampled_from(kinds).map(lambda kind: kind(value))


_VALUES = st.one_of(
    st.sampled_from([0, 1, 3, 10, 20, 200, 1000, 10200, -1, 2**53, 2**63, 0.0, 0.05, 0.5, 1.5,
                     2.0, 10.0, 1e6, 1e-6, 1e100, 1e300, -0.5, float("inf"), float("nan")])
    .flatmap(_numbers),
    st.booleans(), st.just(np.True_), st.none(), st.text(max_size=3),
    st.sampled_from([10**400, -(10**400), 2**1024]),  # ints too large for a float
)


def _type_error(label, kind, value, optional):
    """The message of the type rule ``value`` breaks, or None."""
    if value is None and optional:
        return None
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            return f"{label} must be an integer, got {value!r}"
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{label} must be a number, got {value!r}"
    try:
        float(value)
    except OverflowError:
        return f"{label} must be a number, got one too large for a float"
    return None


@pytest.mark.parametrize("cls, name, label, kind", _NUMBER_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in _NUMBER_FIELDS])
@settings(max_examples=60, deadline=None)
@given(value=_VALUES)
def test_every_config_number_is_checked_and_stored_as_a_python_number(cls, name, label, kind,
                                                                       value):
    # One rule for every config: a value of the wrong type raises the field's
    # type message; any other value either breaks a range rule or is stored
    # as a Python int or float equal to it (a numpy scalar never is).
    optional = (cls, name) in _OPTIONAL
    expected = _type_error(label, kind, value, optional)
    try:
        config = cls(**{**_OTHER_FIELDS.get(cls, {}), name: value})
    except ValueError as exc:
        if expected is not None:
            assert str(exc) == expected
        else:
            assert " must be an integer, got " not in str(exc)
            assert " must be a number, got " not in str(exc)
        return
    assert expected is None
    stored = getattr(config, name)
    if value is None:
        assert stored is None
    else:
        assert type(stored) is kind
        assert stored == kind(value)
