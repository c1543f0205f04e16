import json
import math
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossnorm import exact_test, pipeline
from crossnorm.cli import main
from crossnorm.core import ConservedSet, InvalidRow, ScalingFactor, validate_table
from crossnorm.exact_test import binom_twosided_pvalues, null_prob_values
from crossnorm.floattext import pq_text
from crossnorm.normalization import (
    GridConfig,
    MedianScaleResult,
    empirical_type1_deviation,
    median_scaling_factor,
    scbn_scaling_factor,
)
from crossnorm.pipeline import (
    DEResult,
    Report,
    RunConfig,
    bh_adjust,
    call_de,
    load_conserved_list,
    load_counts_tsv,
    run_pipeline,
    summary_dict,
    write_counts_tsv,
    write_report,
)
from crossnorm.pipeline import testable_calls as de_calls_for
from crossnorm.simulation import SimConfig, evaluate_run, generate_dataset, run_study
from rowtable import table_of

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _write_counts(path, rows, header="gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_dataset(tmp_path, dataset):
    counts = tmp_path / "counts.tsv"
    write_counts_tsv(dataset.table, counts)
    conserved = tmp_path / "conserved.txt"
    conserved.write_text(
        "\n".join(sorted(dataset.reported_conserved.gene_ids)) + "\n", encoding="utf-8"
    )
    return counts, conserved


def bh_oracle(pvalues):
    """Quadratic-time step-up rule, straight from the definition."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    q = [None] * m
    for rank_pos, i in enumerate(order):
        best = min(
            pvalues[order[j]] * m / (j + 1) for j in range(rank_pos, m)
        )
        q[i] = min(best, 1.0)
    return q


# ---------------------------------------------------------------------------
# Count-table ingestion
# ---------------------------------------------------------------------------


def test_load_counts_roundtrip(tmp_path):
    path = _write_counts(
        tmp_path / "c.tsv",
        ["g1\t100\t5\t200\t2", "g2\t300\t0\t300\t1", "g3\t150\t7\t120\t7"],
    )
    table = load_counts_tsv(path)
    assert len(table) == 3
    assert table.total_sp1 == 12
    assert table.total_sp2 == 10
    assert table.records[0].gene_id == "g1"


def test_load_counts_rejects_float_count(tmp_path):
    path = _write_counts(tmp_path / "c.tsv", ["g1\t100\t3.5\t200\t2"])
    with pytest.raises(ValueError, match="line 2"):
        load_counts_tsv(path)


def test_load_counts_rejects_bad_header(tmp_path):
    path = _write_counts(tmp_path / "c.tsv", ["g1\t100\t5\t200\t2"], header="id\tl1\tc1\tl2\tc2")
    with pytest.raises(ValueError, match="line 1"):
        load_counts_tsv(path)


def test_load_counts_rejects_empty_file(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_counts_tsv(path)


def test_load_counts_reports_duplicate_and_bad_length(tmp_path):
    dup = _write_counts(tmp_path / "d.tsv", ["g1\t100\t5\t200\t2", "g1\t100\t5\t200\t2"])
    with pytest.raises(ValueError, match="g1"):
        load_counts_tsv(dup)
    zero = _write_counts(tmp_path / "z.tsv", ["g1\t100\t5\t0\t2"])
    with pytest.raises(ValueError, match="line 2"):
        load_counts_tsv(zero)


def test_load_counts_wrong_field_count(tmp_path):
    path = _write_counts(tmp_path / "c.tsv", ["g1\t100\t5\t200"])
    with pytest.raises(ValueError, match="line 2"):
        load_counts_tsv(path)


@pytest.mark.parametrize("field", range(1, 5))
@pytest.mark.parametrize("value", [2**53, 2**64, 10**30])
def test_load_counts_rejects_values_from_2_pow_53_with_line(tmp_path, field, value):
    row = ["g2", "100", "5", "200", "2"]
    row[field] = str(value)
    # The blank line still counts toward the reported line number.
    path = _write_counts(tmp_path / "c.tsv", ["g1\t100\t5\t200\t2", "", "\t".join(row)])
    with pytest.raises(ValueError, match=r"c\.tsv: line 4: gene 'g2': .*2\*\*53"):
        load_counts_tsv(path)


_GOOD_ROW = "g1\t100\t5\t200\t2"


@pytest.mark.parametrize("rows, message", [
    (["", _GOOD_ROW, "", "g2\t100\tx\t200\t2", "g3\t1\t2\t3\t4\t5"],
     "line 5: lengths and counts must be integers"),
    ([_GOOD_ROW, "", "", "g2\t1\t2\t3\t4\t5", "g3\t100\tx\t200\t2"],
     "line 5: expected 5 tab-separated fields"),
    # One field short, then one too many: the body's tab total still adds up.
    (["", "g1\t100\t5\t200", "g2\t100\t5\t200\t2\t7"],
     "line 3: expected 5 tab-separated fields"),
    (["", "", _GOOD_ROW, f"g2\t100\t{-2**64}\t200\t2"], "line 5: gene 'g2': counts must be >= 0"),
], ids=["bad-integer", "six-fields", "short-then-long", "below-int64"])
def test_load_counts_names_the_first_bad_line_after_blank_lines(tmp_path, rows, message):
    path = _write_counts(tmp_path / "c.tsv", rows)
    with pytest.raises(ValueError, match=rf"^{path}: {message}$"):
        load_counts_tsv(path)


def test_load_counts_accepts_zero_padded_and_signed_zero_integers(tmp_path):
    padded_five = "0" * 24 + "5"
    rows = ["g0\t0012\t0\t200\t2", "g1\t100\t-0\t200\t2", f"g2\t{padded_five}\t3\t200\t2"]
    table = load_counts_tsv(_write_counts(tmp_path / "c.tsv", rows))
    assert table.length_sp1.tolist() == [12, 100, 5]
    assert table.count_sp1.tolist() == [0, 0, 3]


# Everything outside the grammar -?[0-9]+, including the forms int() accepts.
@pytest.mark.parametrize("value", ["1__0", "0x10", "1e3", "", "1.0", "_1", "12a",
                                   " 12", "12 ", "+7", "1_000", "\u0661\u0662",
                                   "+" + "0" * 24 + "5", "x" + "0" * 24 + "5",
                                   # A bad byte before a long field's last 18 digits.
                                   "1x" + "0" * 20, "--" + "0" * 20, "\u0663" + "0" * 20])
def test_load_counts_rejects_what_int_rejects(tmp_path, value):
    path = _write_counts(tmp_path / "c.tsv", [_GOOD_ROW, f"g2\t100\t{value}\t200\t2"])
    with pytest.raises(ValueError, match=rf"^{path}: line 3: lengths and counts must be integers$"):
        load_counts_tsv(path)


def _reference_load_counts(path):
    """Line by line: the field count, then -?[0-9]+ and int(), then validate_table."""
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    assert lines[0] == "gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2"
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"{path}: line {lineno}: expected 5 tab-separated fields")
        if not all(re.fullmatch(r"-?[0-9]+", field) for field in fields[1:]):
            raise ValueError(f"{path}: line {lineno}: lengths and counts must be integers")
        rows.append((lineno, fields[0], *map(int, fields[1:])))
    linenos, ids, l1, x1, l2, x2 = zip(*rows) if rows else ((),) * 6
    try:
        return validate_table(ids, length_sp1=l1, length_sp2=l2, count_sp1=x1, count_sp2=x2)
    except InvalidRow as exc:
        raise ValueError(f"{path}: line {linenos[exc.row]}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_VALUES = st.one_of(
    st.integers(0, 10**6).map(str),
    # Zero-padded, at times past the 18 digits summed in int64.
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.sampled_from([1, 17, 24]),
              st.integers(0, 2**70)),
    st.integers(2**53 - 2, 2**70).map(str),
    st.integers(-2**70, -1).map(str),
)
_STRAYS = st.one_of(
    st.text(alphabet="0123456789-+ _\u0663.x", max_size=4),
    st.builds(lambda affix, value: affix[0] + value + affix[1],
              st.sampled_from([("+", ""), (" ", ""), ("", " "), ("", "_0"), ("\u0663", ""),
                               ("x", ""), ("", ".0"), ("-", ""), ("", "\u0663")]),
              _VALUES),
    # A long value with a bad byte anywhere, often before its last 18 digits.
    st.builds(lambda digits, at, stray: digits[:at] + stray + digits[at:],
              st.text(alphabet="0123456789", min_size=20, max_size=25), st.integers(0, 25),
              st.sampled_from(["x", "-", "+", " ", "_", ".", "\u0663"])),
)


def _line(gene_id, values, stray, at):
    if stray is not None:
        values[at % len(values)] = stray
    return "\t".join([gene_id, *values])


_LINES = st.one_of(
    st.just(""),
    st.builds(lambda i, values: "\t".join([f"r{i}", *values]), st.integers(0, 10**6),
              st.lists(st.integers(1, 500).map(str), min_size=4, max_size=4)),
    st.builds(_line, st.sampled_from(["g1", "g2", "\u00e9", ""]),
              st.lists(_VALUES, min_size=4, max_size=4) | st.lists(_VALUES, min_size=3, max_size=5),
              st.none() | _STRAYS, st.integers(0, 4)),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=8))
def test_load_counts_matches_a_line_by_line_reference(tmp_path_factory, lines):
    _check_against_the_reference_loader(tmp_path_factory, lines)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINES, max_size=8))
def test_load_counts_in_blocks_of_3_lines_matches_a_line_by_line_reference(tmp_path_factory,
                                                                           lines):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_ROWS", 3)
        _check_against_the_reference_loader(tmp_path_factory, lines)


def _check_against_the_reference_loader(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "reference-load.tsv"
    path.write_text("\n".join(["gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2", *lines]),
                    encoding="utf-8")
    try:
        want = _reference_load_counts(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            load_counts_tsv(path)
        assert str(info.value) == str(exc)
    else:
        got = load_counts_tsv(path)
        assert got == want
        assert (got.total_sp1, got.total_sp2) == (want.total_sp1, want.total_sp2)


_BLOCK_ROWS = [f"g{i}\t{i + 1}\t{i}\t{i + 2}\t{2 * i}" for i in range(1, 11)]


@pytest.mark.parametrize("rows", [3, pipeline._ROWS])
def test_load_counts_of_a_header_only_file_needs_a_mapped_read(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(pipeline, "_ROWS", rows)
    path = _write_counts(tmp_path / "c.tsv", [])
    with pytest.raises(ValueError, match=rf"^{path}: each species needs at least one mapped read$"):
        load_counts_tsv(path)


@pytest.mark.parametrize("rows, message", [
    # Body lines 7-9 are the third block of 3; blank lines are not body lines.
    ([*_BLOCK_ROWS[:6], "g7\t1\tx\t1\t1"], "line 8: lengths and counts must be integers"),
    ([*_BLOCK_ROWS[:3], "", "", *_BLOCK_ROWS[3:7], "g9\t1\t1\t1"],
     "line 11: expected 5 tab-separated fields"),
    ([*_BLOCK_ROWS[:3], "", "", *_BLOCK_ROWS[3:6], "g9\t1\t1\t0\t1"],
     "line 10: gene 'g9': length_sp2 must be >= 1"),
    ([*_BLOCK_ROWS[:6], "", f"g7\t1\t{10**30}\t1\t1"],
     "line 9: gene 'g7': lengths and counts must be < 2\\*\\*53"),
], ids=["third-block", "blank-lines-then-fields", "blank-lines-then-length", "long-field"])
def test_load_counts_in_blocks_names_the_bad_line(tmp_path, monkeypatch, rows, message):
    monkeypatch.setattr(pipeline, "_ROWS", 3)
    path = _write_counts(tmp_path / "c.tsv", rows)
    with pytest.raises(ValueError, match=rf"^{path}: {message}$"):
        load_counts_tsv(path)


_SIX_FIELDS = "g8\t1\t2\t3\t4\t5"
_BAD_INTEGER = "g9\t1\tx\t3\t4"


# With 3-line blocks, one good line puts both bad lines in the first block,
# and two good lines put them on either side of its edge.
@pytest.mark.parametrize("good", [1, 2], ids=["one-block", "block-edge"])
@pytest.mark.parametrize("first, second, message", [
    (_BAD_INTEGER, _SIX_FIELDS, "lengths and counts must be integers"),
    (_SIX_FIELDS, _BAD_INTEGER, "expected 5 tab-separated fields"),
], ids=["bad-integer-first", "six-fields-first"])
def test_load_counts_names_the_earlier_of_two_bad_lines(tmp_path, monkeypatch, good, first,
                                                       second, message):
    monkeypatch.setattr(pipeline, "_ROWS", 3)
    path = _write_counts(tmp_path / "c.tsv", [*_BLOCK_ROWS[:good], first, second])
    with pytest.raises(ValueError, match=rf"^{path}: line {good + 2}: {message}$"):
        load_counts_tsv(path)


def test_load_counts_in_blocks_reads_blank_lines_and_long_fields_across_block_edges(
        tmp_path, monkeypatch):
    rows = [*_BLOCK_ROWS[:2], "", "", *_BLOCK_ROWS[2:6], "", "g7\t1\t" + "0" * 24 + "5\t1\t1"]
    want = load_counts_tsv(_write_counts(tmp_path / "whole.tsv", rows))
    monkeypatch.setattr(pipeline, "_ROWS", 3)
    got = load_counts_tsv(_write_counts(tmp_path / "blocks.tsv", rows))
    assert got == want and got.count_sp1.tolist()[-1] == 5
    assert (got.total_sp1, got.total_sp2) == (want.total_sp1, want.total_sp2)


def test_load_counts_ignores_byte_order_mark(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("\ufeffgene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2\n"
                    "g1\t100\t5\t200\t2\n", encoding="utf-8")
    table = load_counts_tsv(path)
    assert table.gene_ids == ("g1",)


def test_write_counts_then_load_gives_an_equal_table(tmp_path):
    ds = generate_dataset(
        SimConfig(n_orthologs=200, conserved_size=40, n_unique_sp1=10, n_unique_sp2=20,
                  seed=8, depth_sp1=2e4, depth_sp2=2e4)
    )
    path = tmp_path / "counts.tsv"
    write_counts_tsv(ds.table, path)
    assert load_counts_tsv(path) == ds.table
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2"
    r = ds.table.records[0]
    assert lines[1] == f"{r.gene_id}\t{r.length_sp1}\t{r.count_sp1}\t{r.length_sp2}\t{r.count_sp2}"


# ---------------------------------------------------------------------------
# Conserved-list ingestion
# ---------------------------------------------------------------------------


def _small_table():
    return table_of([(f"g{i}", 100, 100, 5 + i, 6 + i) for i in range(10)])


def test_conserved_list_with_comments_and_unknowns(tmp_path):
    table = _small_table()
    path = tmp_path / "cons.txt"
    path.write_text(
        "# curated list\ng1\ng2\n\ng3\nmissing1\nmissing2\n", encoding="utf-8"
    )
    conserved, unknown = load_conserved_list(path, table)
    assert conserved.m == 3
    assert unknown == 2


def test_conserved_list_ignores_byte_order_mark(tmp_path):
    table = _small_table()
    path = tmp_path / "cons.txt"
    path.write_text("\ufeffg1\ng2\n", encoding="utf-8")
    conserved, unknown = load_conserved_list(path, table)
    assert conserved.gene_ids == frozenset({"g1", "g2"})
    assert unknown == 0


def test_conserved_list_splits_lines_as_the_count_table_does(tmp_path):
    path = tmp_path / "cons.txt"
    path.write_text("g0\x0cg1\u2028g2\r\ng3\n", encoding="utf-8")
    conserved, unknown = load_conserved_list(path, _small_table())
    assert conserved.gene_ids == frozenset({"g0", "g1", "g2", "g3"})
    assert unknown == 0


def test_conserved_list_all_unknown_errors(tmp_path):
    table = _small_table()
    path = tmp_path / "cons.txt"
    path.write_text("nope1\nnope2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_conserved_list(path, table)


def test_conserved_list_empty_errors(tmp_path):
    table = _small_table()
    path = tmp_path / "cons.txt"
    path.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_conserved_list(path, table)


# ---------------------------------------------------------------------------
# Benjamini-Hochberg
# ---------------------------------------------------------------------------


def test_bh_constant_vector():
    assert bh_adjust(np.array([0.2, 0.2, 0.2])).tolist() == [0.2, 0.2, 0.2]


def test_bh_hand_computed_staircase():
    qs = bh_adjust(np.array([0.01, 0.02, 0.03, 0.04]))
    assert qs.dtype == np.float64
    assert qs.tolist() == pytest.approx([0.04, 0.04, 0.04, 0.04])


def test_bh_single_value():
    assert bh_adjust(np.array([0.2])).tolist() == [0.2]


def test_bh_nan_passthrough():
    qs = bh_adjust(np.array([0.01, np.nan, 0.02, np.nan]))
    assert np.isnan(qs[1]) and np.isnan(qs[3])
    # the two testable entries use m = 2
    assert qs[0] == pytest.approx(0.02)
    assert qs[2] == pytest.approx(0.02)


def test_bh_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"got 0\.0"):
        bh_adjust(np.array([0.5, np.nan, 0.0]))
    with pytest.raises(ValueError, match=r"got 1\.5"):
        bh_adjust(np.array([1.5]))
    with pytest.raises(ValueError, match=r"got inf"):
        bh_adjust(np.array([np.inf, -1.0]))


def test_bh_all_untestable():
    assert np.isnan(bh_adjust(np.array([np.nan, np.nan]))).all()
    assert bh_adjust(np.array([])).shape == (0,)


def test_bh_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 60))
        p = rng.uniform(1e-8, 1.0, m).tolist()
        if rng.random() < 0.3:  # inject ties
            p[: m // 2] = [p[0]] * (m // 2)
        got = bh_adjust(np.array(p))
        expected = bh_oracle(p)
        assert got.tolist() == pytest.approx(expected, abs=1e-12)


def _stable_sort_bh(p):
    """Reference: bh_adjust with every tested p-value ranked by a stable sort."""
    tested = np.flatnonzero(~np.isnan(p))
    pt = p[tested]
    m = pt.size
    order = np.argsort(pt, kind="stable")
    scaled = pt[order] * (m / np.arange(1, m + 1))
    q = np.full(p.shape, np.nan)
    q[tested[order]] = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    return q


def test_bh_ties_adjust_as_under_a_stable_sort():
    # Heavy ties, in runs long enough for the unstable sort to reorder them,
    # with NaN entries among them.
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(1, 3000))
        p = rng.choice(rng.uniform(1e-12, 1.0, int(rng.integers(1, 12))), m)
        p[rng.random(m) < 0.2] = 1.0
        p[rng.random(m) < 0.05] = np.nan
        assert bh_adjust(p).tobytes() == _stable_sort_bh(p).tobytes()


@given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=80))
@settings(max_examples=150, deadline=None)
def test_bh_monotone_and_dominates_p(pvalues):
    qs = bh_adjust(np.array(pvalues)).tolist()
    for p, q in zip(pvalues, qs):
        assert q >= p - 1e-15
        assert q <= 1.0
    ordered = sorted(zip(pvalues, qs))
    for (_, q1), (_, q2) in zip(ordered, ordered[1:]):
        assert q1 <= q2 + 1e-15


@given(st.lists(st.one_of(st.floats(min_value=1e-9, max_value=1.0), st.none()), max_size=80))
@settings(max_examples=150, deadline=None)
def test_bh_nan_entries_between_pvalues(entries):
    # NaN entries neither count as tests nor move the other entries' values.
    p = np.array([np.nan if v is None else v for v in entries], dtype=np.float64)
    qs = bh_adjust(p)
    tested = [v for v in entries if v is not None]
    assert np.array_equal(np.isnan(qs), np.isnan(p))
    assert qs[~np.isnan(p)].tolist() == bh_adjust(np.array(tested)).tolist()
    assert qs[~np.isnan(p)].tolist() == pytest.approx(bh_oracle(tested), abs=1e-12)


# ---------------------------------------------------------------------------
# DE calling
# ---------------------------------------------------------------------------


def test_call_de_balanced_gene_not_called():
    table = table_of([("bal", 500, 500, 3, 3), ("pad", 500, 500, 10, 10)])
    results = call_de(table, ScalingFactor(1.0), cutoff=1e-6).records
    r = results[0]
    assert r.p_value == 1.0
    assert not r.de_call
    assert r.direction == "none"


def test_call_de_extreme_gene_called_with_direction():
    rows = [("hot", 500, 500, 50, 0)] + [
        (f"b{i}", 500, 500, 10, 11) for i in range(50)
    ]
    table = table_of(rows)
    # equalize totals so p0 = 1/2 for every gene at c = 1
    assert table.total_sp1 == 550
    assert table.total_sp2 == 550
    results = {r.gene_id: r for r in call_de(table, ScalingFactor(1.0), cutoff=1e-6).records}
    hot = results["hot"]
    assert hot.de_call
    assert hot.direction == "higher_sp1"
    assert hot.p_value == pytest.approx(2.0**-49, rel=1e-12)


def test_call_de_untestable_gene_excluded_from_ranking():
    rows = [
        ("z", 100, 100, 0, 0),
        ("a", 100, 100, 8, 2),
        ("b", 100, 100, 3, 9),
    ]
    table = table_of(rows)
    results = {r.gene_id: r for r in call_de(table, ScalingFactor(1.0), cutoff=1e-6).records}
    assert results["z"].p_value is None
    assert results["z"].q_value is None
    assert not results["z"].de_call
    # q-values computed over the two testable genes only
    testable_p = [results["a"].p_value, results["b"].p_value]
    expected_q = bh_oracle(testable_p)
    assert [results["a"].q_value, results["b"].q_value] == pytest.approx(expected_q)


def test_call_de_q_dominates_p():
    ds = generate_dataset(
        SimConfig(n_orthologs=400, conserved_size=100, de_rate=0.2, seed=6,
                  depth_sp1=5e4, depth_sp2=5e4)
    )
    for r in call_de(ds.table, ds.true_c, cutoff=1e-6).records:
        if r.p_value is not None:
            assert r.q_value >= r.p_value
            assert r.q_value <= 1.0


def test_call_de_direction_antisymmetric_under_species_swap():
    ds = generate_dataset(
        SimConfig(n_orthologs=300, conserved_size=80, de_rate=0.3, fold=2.5,
                  seed=10, depth_sp1=1e5, depth_sp2=1e5)
    )
    c = ds.true_c.c
    swapped = table_of(
        (r.gene_id, r.length_sp2, r.length_sp1, r.count_sp2, r.count_sp1)
        for r in ds.table.records
    )
    fwd = {r.gene_id: r for r in call_de(ds.table, ScalingFactor(c), cutoff=1e-6).records}
    rev = {r.gene_id: r for r in call_de(swapped, ScalingFactor(1.0 / c), cutoff=1e-6).records}
    flip = {"higher_sp1": "higher_sp2", "higher_sp2": "higher_sp1", "none": "none"}
    for gid, f in fwd.items():
        r = rev[gid]
        if f.p_value is None:
            assert r.p_value is None
            continue
        assert abs(f.p_value - r.p_value) < 1e-12
        assert r.direction == flip[f.direction]
        assert r.de_call == f.de_call


# N1 is about 1e15 and L1 = 1000, so c*L1*N1 overflows at c = 1e300.
_OVERFLOW_ENTRY_POINTS = {
    "call_de": lambda table, c: call_de(table, ScalingFactor(c), 0.01),
    "testable_calls": lambda table, c: de_calls_for(table, ScalingFactor(c), 0.01),
    "empirical_type1_deviation": lambda table, c: empirical_type1_deviation(
        table, ConservedSet(frozenset(table.gene_ids)), ScalingFactor(c)),
    "null_prob_values": lambda table, c: null_prob_values(
        c, table.length_sp1, table.length_sp2, table.total_sp1, table.total_sp2),
    "gene_pvalues": lambda table, c: exact_test.gene_pvalues(
        table.count_sp1, table.count_sp2, table.length_sp1, table.length_sp2,
        table.total_sp1, table.total_sp2, c),
}


@pytest.mark.parametrize("entry_point", _OVERFLOW_ENTRY_POINTS.values(),
                         ids=_OVERFLOW_ENTRY_POINTS.keys())
def test_a_factor_that_overflows_the_null_probability_is_one_value_error(entry_point):
    table = validate_table(("g1", "g2", "g3"), length_sp1=[1000] * 3, length_sp2=[1000] * 3,
                           count_sp1=[10**15 - 20, 10, 10], count_sp2=[10, 10, 10])
    entry_point(table, 1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^c\*L1\*N1 \+ L2\*N2 is not finite at "
                                             r"scaling factor 1e\+300$"):
            entry_point(table, 1e300)


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry_point", [
    lambda: RunConfig("counts.tsv", "conserved.txt", method="tmm"),
    lambda: pipeline.estimate_factor(table_of([("g1", 1, 1, 5, 5)]),
                                     ConservedSet(frozenset({"g1"})), "tmm", GridConfig()),
    lambda: run_study(SimConfig(n_orthologs=100, conserved_size=10), {}, ["tmm"], replicates=1,
                      cutoff=0.01),
], ids=["RunConfig", "estimate_factor", "run_study"])
def test_every_entry_point_rejects_an_unknown_method_with_one_message(entry_point):
    with pytest.raises(ValueError) as excinfo:
        entry_point()
    assert str(excinfo.value) == "method must be one of scbn, median, got 'tmm'"


def test_19k_gene_scbn_end_to_end_smoke_run(tmp_path):
    # The README's full-size run: 16,330 orthologs plus 3,000 unique genes.
    ds = generate_dataset(SimConfig(
        n_orthologs=16330, conserved_size=1000, de_rate=0.1, fold=1.5, up_rate_sp2=0.9,
        noise_rate=0.1, n_unique_sp1=1000, n_unique_sp2=2000, n_unmapped_sp1=2000,
        n_unmapped_sp2=4000, seed=1,
    ))
    counts, conserved = _write_dataset(tmp_path, ds)
    config = RunConfig(counts_path=str(counts), conserved_path=str(conserved), method="scbn")
    report = run_pipeline(config)

    assert report.n_genes == len(report.results) == 19330
    n = ds.table.count_sp1 + ds.table.count_sp2
    assert report.n_testable == int((n > 0).sum())
    assert report.n_testable == sum(r.p_value is not None for r in report.results)
    called = [r for r in report.results if r.de_call]
    assert report.total_de == len(called) == report.higher_sp1 + report.higher_sp2
    assert report.higher_sp1 == sum(r.direction == "higher_sp1" for r in called)

    first = write_report(report, tmp_path / "a")
    second = write_report(run_pipeline(config), tmp_path / "b")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()

    again = empirical_type1_deviation(
        ds.table, ds.reported_conserved, ScalingFactor(report.scaling_factor), config.alpha)
    assert again == report.objective


def test_run_pipeline_cross_checks_with_evaluate_run(tmp_path):
    ds = generate_dataset(
        SimConfig(n_orthologs=1500, conserved_size=300, de_rate=0.1, fold=1.8,
                  n_unique_sp1=100, n_unique_sp2=200, seed=21,
                  depth_sp1=2e5, depth_sp2=2e5)
    )
    counts, conserved = _write_dataset(tmp_path, ds)
    config = RunConfig(
        counts_path=str(counts), conserved_path=str(conserved),
        method="scbn", cutoff=0.01,
    )
    report = run_pipeline(config)

    calls = {r.gene_id: r.de_call for r in report.results if r.p_value is not None}
    truth = {gid: ds.truth[gid] for gid in calls}
    metrics = evaluate_run(calls, truth)
    null_called = sum(
        1 for r in report.results
        if r.de_call and ds.truth[r.gene_id] == "null"
    )
    assert metrics.false_discoveries == null_called
    assert report.total_de == report.higher_sp1 + report.higher_sp2
    assert report.total_de == sum(calls.values())


def test_run_pipeline_reports_are_byte_identical(tmp_path):
    ds = generate_dataset(
        SimConfig(n_orthologs=300, conserved_size=60, de_rate=0.1, seed=4,
                  depth_sp1=5e4, depth_sp2=5e4)
    )
    counts, conserved = _write_dataset(tmp_path, ds)
    config = RunConfig(counts_path=str(counts), conserved_path=str(conserved),
                       method="scbn", cutoff=1e-6, grid_points=200)
    r1 = run_pipeline(config)
    r2 = run_pipeline(config)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    write_report(r1, out1)
    write_report(r2, out2)
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "results.tsv").read_bytes() == (out2 / "results.tsv").read_bytes()


def test_run_pipeline_eval_list_tally(tmp_path):
    ds = generate_dataset(
        SimConfig(n_orthologs=300, conserved_size=60, de_rate=0.2, fold=3.0,
                  seed=12, depth_sp1=1e5, depth_sp2=1e5)
    )
    counts, conserved = _write_dataset(tmp_path, ds)
    eval_list = tmp_path / "eval.txt"
    eval_ids = [r.gene_id for r in ds.table.records[:50]]
    eval_list.write_text("\n".join(eval_ids) + "\n", encoding="utf-8")
    config = RunConfig(counts_path=str(counts), conserved_path=str(conserved),
                       method="median", cutoff=0.01, eval_list_path=str(eval_list))
    report = run_pipeline(config)
    expected = sum(
        1 for r in report.results if r.de_call and r.gene_id in set(eval_ids)
    )
    assert report.eval_list_de == expected
    assert report.eval_list_size == 50
    summary = summary_dict(report)
    assert summary["eval_list"]["de_called"] == expected
    assert summary["objective"] is None  # median method has no grid objective


def test_summary_echoes_the_grid_refinement_defaults(tmp_path):
    ds = generate_dataset(SimConfig(n_orthologs=200, conserved_size=40, seed=3,
                                    depth_sp1=5e4, depth_sp2=5e4))
    counts, conserved = _write_dataset(tmp_path, ds)
    config = RunConfig(counts_path=str(counts), conserved_path=str(conserved), method="median")
    echoed = summary_dict(run_pipeline(config))["config"]
    grid = GridConfig()
    assert (echoed["grid_refine_rounds"], echoed["grid_refine_shrink"]) == \
        (grid.refine_rounds, grid.refine_shrink) == (3, 0.1)


@pytest.mark.parametrize("name, value", [
    ("alpha", np.float32(0.05)), ("cutoff", np.float32(1e-6)),
    ("grid_center", np.float32(1.2)), ("grid_span", np.float32(10.0)),
    ("grid_points", np.int64(1000)),
])
def test_a_numpy_scalar_config_writes_the_summary_of_its_python_twin(tmp_path, name, value):
    # A numpy scalar used to run the whole pipeline, and then summary.json's
    # echo of the config raised TypeError: JSON holds no numpy scalar.
    ds = generate_dataset(SimConfig(n_orthologs=200, conserved_size=40, seed=3,
                                    depth_sp1=5e4, depth_sp2=5e4))
    counts, conserved = _write_dataset(tmp_path, ds)
    twin = value.item()
    summaries = []
    for setting in (value, twin):
        config = RunConfig(counts_path=str(counts), conserved_path=str(conserved),
                           **{name: setting})
        assert type(getattr(config, name)) is type(twin)
        summary, _ = write_report(run_pipeline(config), tmp_path / type(setting).__name__)
        summaries.append(summary.read_bytes())
    assert summaries[0] == summaries[1]


def test_median_beats_nothing_but_scbn_beats_median_under_noise(tmp_path):
    # At 40 percent conserved-set contamination the scale-search method
    # should make fewer false discoveries than the median baseline on
    # average (20 paired seeds).
    scbn_fd, median_fd = [], []
    for seed in range(20):
        ds = generate_dataset(
            SimConfig(n_orthologs=1000, conserved_size=250, de_rate=0.25, fold=2.0,
                      up_rate_sp2=0.9, noise_rate=0.4, seed=1000 + seed,
                      depth_sp1=3e5, depth_sp2=3e5)
        )
        for method, bucket in (("scbn", scbn_fd), ("median", median_fd)):
            from crossnorm.pipeline import estimate_factor
            from crossnorm.normalization import GridConfig

            factor = estimate_factor(ds.table, ds.reported_conserved, method, GridConfig()).factor
            called, _ = de_calls_for(ds.table, factor, cutoff=0.01)
            tested = [gid for gid, t in zip(ds.table.gene_ids, ds.table.testable) if t]
            calls = dict(zip(tested, called.tolist()))
            truth = {gid: ds.truth[gid] for gid in calls}
            bucket.append(evaluate_run(calls, truth).false_discoveries)
    assert np.mean(scbn_fd) <= np.mean(median_fd)


# ---------------------------------------------------------------------------
# Gene order
# ---------------------------------------------------------------------------


@st.composite
def _tables_with_permutation(draw):
    n = draw(st.integers(min_value=6, max_value=40))
    lengths = st.integers(min_value=1, max_value=5000)
    counts = st.integers(min_value=0, max_value=400)
    columns = [draw(st.lists(lengths, min_size=n, max_size=n)) for _ in range(2)]
    columns += [draw(st.lists(counts, min_size=n, max_size=n)) for _ in range(2)]
    columns[2][0] = columns[3][0] = 1  # both species have reads
    conserved = draw(st.integers(min_value=4, max_value=n))
    perm = draw(st.permutations(range(n)))
    return [f"g{i}" for i in range(n)], columns, conserved, perm


def _outcome(func, *args):
    try:
        return func(*args)
    except ValueError as exc:
        return str(exc)


@given(_tables_with_permutation())
@settings(max_examples=40, deadline=None)
def test_gene_order_permutes_calls_and_keeps_both_estimates(case):
    ids, columns, n_conserved, perm = case
    table = validate_table(ids, *columns)
    shuffled = validate_table([ids[i] for i in perm], *([col[i] for i in perm] for col in columns))
    conserved = ConservedSet(frozenset(ids[:n_conserved]))

    assert _outcome(median_scaling_factor, table, conserved) == \
        _outcome(median_scaling_factor, shuffled, conserved)
    grid = GridConfig(coarse_points=100, refine_rounds=2)
    assert _outcome(scbn_scaling_factor, table, conserved, grid) == \
        _outcome(scbn_scaling_factor, shuffled, conserved, grid)

    c = ScalingFactor(0.8)
    results = call_de(table, c, cutoff=0.05).records
    assert call_de(shuffled, c, cutoff=0.05).records == tuple(results[i] for i in perm)


# ---------------------------------------------------------------------------
# Species swap
# ---------------------------------------------------------------------------


_FLIP = {"higher_sp1": "higher_sp2", "higher_sp2": "higher_sp1", "none": "none"}


@given(_tables_with_permutation(), st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_species_swap_with_inverted_factor(case, c):
    ids, (l1, l2, x1, x2), n_conserved, _ = case
    table = validate_table(ids, l1, l2, x1, x2)
    swapped = validate_table(ids, l2, l1, x2, x1)
    conserved = ConservedSet(frozenset(ids[:n_conserved]))

    forward = call_de(table, ScalingFactor(c), cutoff=0.05).records
    for f, r in zip(forward, call_de(swapped, ScalingFactor(1.0 / c), cutoff=0.05).records):
        if f.p_value is None:
            assert r.p_value is None
            continue
        assert abs(f.p_value - r.p_value) <= 1e-12
        assert r.direction == _FLIP[f.direction]
        assert r.de_call == f.de_call

    median = _outcome(median_scaling_factor, table, conserved)
    median_swapped = _outcome(median_scaling_factor, swapped, conserved)
    if isinstance(median, str):
        assert median_swapped == median
    else:
        assert abs(median.factor.c * median_swapped.factor.c - 1.0) <= 4 * math.ulp(1.0)

    for alpha in (0.01, 0.05, 0.5):
        assert empirical_type1_deviation(table, conserved, ScalingFactor(c), alpha) == \
            empirical_type1_deviation(swapped, conserved, ScalingFactor(1.0 / c), alpha)


# ---------------------------------------------------------------------------
# Columnar DE results and the results.tsv writer
# ---------------------------------------------------------------------------


def _call_de_loop(table, c, cutoff):
    """Reference: (p, called, direction) per gene, one gene at a time."""
    p0 = null_prob_values(c, table.length_sp1, table.length_sp2,
                          table.total_sp1, table.total_sp2).tolist()
    rows = []
    for x1, x2, q0 in zip(table.count_sp1.tolist(), table.count_sp2.tolist(), p0):
        n = x1 + x2
        p = float(binom_twosided_pvalues(x1, n, q0)) if n > 0 else None
        called = p is not None and p < cutoff
        direction = 0
        if called:
            direction = 1 if x1 > n * q0 else -1 if x1 < n * q0 else 0
        rows.append((p, called, direction))
    return rows


def _check_columns_against_loop(table, c, cutoff):
    result = call_de(table, ScalingFactor(c), cutoff)
    assert result.gene_ids == table.gene_ids
    assert (result.p_value.dtype, result.q_value.dtype, result.direction.dtype,
            result.de_call.dtype) == (np.float64, np.float64, np.int8, np.bool_)
    for column in (result.p_value, result.q_value, result.direction, result.de_call):
        assert not column.flags.writeable
    rows = _call_de_loop(table, c, cutoff)
    assert [None if np.isnan(v) else v for v in result.p_value.tolist()] == [p for p, _, _ in rows]
    assert result.de_call.tolist() == [called for _, called, _ in rows]
    assert result.direction.tolist() == [d for _, _, d in rows]
    tested = [p for p, _, _ in rows if p is not None]
    assert np.array_equal(np.isnan(result.q_value), np.isnan(result.p_value))
    q = result.q_value[~np.isnan(result.q_value)].tolist()
    assert q == pytest.approx(bh_oracle(tested), abs=1e-12)
    return result


@given(_tables_with_permutation(), st.floats(min_value=0.2, max_value=5.0),
       st.sampled_from([1e-6, 0.05, 0.5]))
@settings(max_examples=60, deadline=None)
def test_call_de_columns_match_a_per_gene_loop(case, c, cutoff):
    ids, columns, _, _ = case
    _check_columns_against_loop(validate_table(ids, *columns), c, cutoff)


@given(_tables_with_permutation(), st.sets(st.integers(min_value=1, max_value=39)),
       st.floats(min_value=0.2, max_value=5.0), st.sampled_from([1e-6, 0.05, 0.5]))
@settings(max_examples=60, deadline=None)
def test_testable_calls_are_call_de_sliced_to_the_testable_genes(case, zeroed, c, cutoff):
    ids, (l1, l2, x1, x2), _, _ = case
    # Genes at the drawn rows get no reads in either species: untestable.
    x1, x2 = ([0 if i in zeroed else v for i, v in enumerate(x)] for x in (x1, x2))
    table = validate_table(ids, l1, l2, x1, x2)
    result = call_de(table, ScalingFactor(c), cutoff)
    called, direction = de_calls_for(table, ScalingFactor(c), cutoff)
    for got, want in ((called, result.de_call), (direction, result.direction)):
        assert got.dtype == want.dtype
        assert got.tolist() == want[table.testable].tolist()
    with pytest.raises(ValueError, match=r"^cutoff must lie in \(0, 1\)$"):
        de_calls_for(table, ScalingFactor(c), 1.0)


def test_testable_calls_decide_without_p_values(monkeypatch):
    # A simulated table with deep fold-change genes: every call is made by
    # exact_test._rejects, and no p-value is computed.
    table = generate_dataset(SimConfig(n_orthologs=3000, conserved_size=300, fold=4.0,
                                       seed=8)).table
    factor = ScalingFactor(1.1)
    want = {cutoff: call_de(table, factor, cutoff) for cutoff in (1e-6, 0.01, 0.5)}

    def no_p_values(*args):
        raise AssertionError("testable_calls computed p-values")

    monkeypatch.setattr(pipeline, "binom_twosided_pvalues", no_p_values)
    monkeypatch.setattr(exact_test, "binom_twosided_pvalues", no_p_values)
    for cutoff, result in want.items():
        called, direction = de_calls_for(table, factor, cutoff)
        assert called.any() and not called.all()
        assert called.tolist() == result.de_call[table.testable].tolist()
        assert direction.tolist() == result.direction[table.testable].tolist()


# Equal lengths and equal totals give p0 = 1/2 at c = 1.
_EDGE_ROWS = [
    ("zero", 100, 100, 0, 0),        # untestable
    ("bal", 500, 500, 3, 3),         # p == 1
    ("deep1", 500, 500, 5000, 0),    # p clipped to 5e-324
    ("deep2", 500, 500, 0, 5000),
    ("hot", 500, 500, 50, 0),        # called, both directions
    ("cold", 500, 500, 0, 50),
] + [(f"t{i}", 500, 500, 10 + i % 2, 11 - i % 2) for i in range(8)]  # tied q


def _result_line(r):
    # The row-by-row results.tsv writer, kept as the reference.
    p = "NA" if r.p_value is None else repr(r.p_value)
    q = "NA" if r.q_value is None else repr(r.q_value)
    return f"{r.gene_id}\t{p}\t{q}\t{r.direction}\t{'true' if r.de_call else 'false'}"


def _report_of(calls):
    config = RunConfig(counts_path="counts.tsv", conserved_path="conserved.txt")
    fit = MedianScaleResult(ScalingFactor(1.0), iqr_filtered=True, kept_genes=1)
    return Report(method="median", fit=fit,
                  n_genes=len(calls.gene_ids), n_testable=0, total_de=0, higher_sp1=0,
                  higher_sp2=0, calls=calls, config=config, conserved_size=1,
                  conserved_unknown=0)


def _deresult(ids, p, direction, called):
    p = np.array(p, dtype=np.float64)
    return DEResult(tuple(ids), p, bh_adjust(p), np.array(direction, dtype=np.int8),
                    np.array(called, dtype=bool))


def _expected_results_tsv(calls):
    return ("gene_id\tp_value\tq_value\tdirection\tde_call\n" + "".join(
        _result_line(r) + "\n" for r in calls.records)).encode("utf-8")


def test_results_tsv_of_edge_rows_and_a_simulated_table(tmp_path):
    edge = _check_columns_against_loop(table_of(_EDGE_ROWS), 1.0, 1e-6)
    p, q = edge.p_value, edge.q_value
    assert np.isnan(p[0]) and p[1] == 1.0 and p[2] == p[3] == 5e-324
    assert np.unique(q[1:]).size < q[1:].size
    assert edge.direction[edge.de_call].tolist() == [1, -1, 1, -1]
    ds = generate_dataset(
        SimConfig(n_orthologs=400, conserved_size=100, de_rate=0.2, n_unique_sp1=20,
                  n_unique_sp2=40, seed=6, depth_sp1=5e4, depth_sp2=5e4)
    )
    simulated = _check_columns_against_loop(ds.table, ds.true_c.c, 0.01)
    assert np.isnan(simulated.p_value).any() and simulated.de_call.any()

    for name, calls in (("edge", edge), ("simulated", simulated)):
        _, path = write_report(_report_of(calls), tmp_path / name)
        assert path.read_bytes() == _expected_results_tsv(calls)


# Gene ids of any characters but lone surrogates (which UTF-8 cannot
# encode) and "\n" (which ends an id in the writer), with some non-ASCII
# ones drawn often.  validate_table accepts neither.
_GENE_IDS = st.text(st.one_of(st.sampled_from(["g", "è", "\u2028", "\U0001f9ec", "\t"]),
                              st.characters(blacklist_categories=("Cs",),
                                            blacklist_characters="\n")),
                    min_size=1, max_size=8)
# P-values with the edges drawn often; shared values give tied q-values.
_P_VALUES = st.one_of(st.sampled_from([math.nan, 1.0, 5e-324, 0.5, 1e-05, 0.03]),
                      st.floats(min_value=5e-324, max_value=1.0))
# (direction, de_call): not called, or called in either direction.
_CALLS = st.sampled_from([(0, False), (1, True), (-1, True)])


@given(st.lists(st.tuples(_GENE_IDS, _P_VALUES, _CALLS), min_size=1, max_size=40,
                unique_by=lambda row: row[0]))
@settings(max_examples=100, deadline=None)
def test_results_tsv_matches_the_row_by_row_writer(tmp_path_factory, rows):
    ids, p, call = zip(*rows)
    calls = _deresult(ids, p, *zip(*call))
    _, path = write_report(_report_of(calls), tmp_path_factory.mktemp("report"))
    assert path.read_bytes() == _expected_results_tsv(calls)


def test_write_report_rejects_an_id_holding_a_line_feed(tmp_path):
    # validate_table accepts no such id, and the writer ends each id at its "\n".
    calls = _deresult(["g1", "a\nb", "c\n"], [0.5, 0.5, math.nan], [0, 0, 0], [False] * 3)
    with pytest.raises(ValueError) as excinfo:
        write_report(_report_of(calls), tmp_path)
    assert str(excinfo.value) == "gene_id must not contain '\\n', got 'a\\nb'"
    assert not (tmp_path / "results.tsv").exists()


def test_results_tsv_is_written_in_blocks_of_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_ROWS", 7)
    ids = [f"gène{i}" + "x" * (i % 7) * 60 for i in range(300)]
    p = np.linspace(1e-300, 1.0, 300)
    p[::17] = np.nan
    calls = _deresult(ids, p, [1, -1, 0] * 100, [True, True, False] * 100)
    _, path = write_report(_report_of(calls), tmp_path)
    assert path.read_bytes() == _expected_results_tsv(calls)


def test_results_tsv_blocks_hold_at_most_the_block_bytes(tmp_path, monkeypatch):
    # A long id shortens its block, to one line where that line alone is over
    # the bound, instead of widening every row of a _ROWS-line block.
    monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 4000)
    blocks = []

    def recording_pq_text(values, chars, keep):
        blocks.append(chars.base.shape)  # the block's rows: lines, bytes per row
        pq_text(values, chars, keep)

    monkeypatch.setattr(pipeline, "pq_text", recording_pq_text)
    ids = [f"g{i}" if i % 50 != 7 else "é" * (100 * i) for i in range(300)]
    p = np.geomspace(1e-300, 1.0, 300)
    calls = _deresult(ids, p, [1, -1, 0] * 100, [True, True, False] * 100)
    _, path = write_report(_report_of(calls), tmp_path)
    assert path.read_bytes() == _expected_results_tsv(calls)
    # Each block is as wide as its longest id, and as long as the bound allows.
    id_bytes = [len(gene_id.encode()) for gene_id in ids]
    start = 0
    for lines, width in blocks:
        end = start + lines
        assert width == max(id_bytes[start:end]) + pipeline._TAIL
        assert lines * width <= 4000 or lines == 1
        assert end == 300 or (lines + 1) * max(width, id_bytes[end] + pipeline._TAIL) > 4000
        start = end
    assert start == 300 and 1 in {lines for lines, _ in blocks}


# A tab and every character str.splitlines splits at: no gene id holds one.
_UNREADABLE = frozenset("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
# Gene ids of any characters but lone surrogates, with characters that a
# reader rule touches drawn often.
_ANY_IDS = st.text(st.one_of(st.sampled_from(["g", " ", "#", "\ufeff", "è", "\t", "\x0c",
                                              "\u2028"]),
                             st.characters(exclude_categories=("Cs",))),
                   min_size=1, max_size=8)
_LENGTHS = st.one_of(st.sampled_from([1, 2**53 - 1]), st.integers(1, 2**53 - 1))
_COUNTS = st.one_of(st.sampled_from([0, 1, 2**53 - 1]), st.integers(0, 2**53 - 1))


def _id_rule_broken(gene_id):
    """The id rule validate_table names for ``gene_id``, or None."""
    if _UNREADABLE & set(gene_id):
        return "gene_id must not contain a tab or line break"
    if gene_id != gene_id.strip():
        return "gene_id must not begin or end with whitespace"
    if gene_id.startswith(("#", "\ufeff")):
        return "gene_id must not begin with '#' or U+FEFF"
    return None


@given(st.lists(st.tuples(_ANY_IDS, _LENGTHS, _LENGTHS, _COUNTS, _COUNTS), min_size=1,
                max_size=30, unique_by=lambda row: row[0]))
# Counts summing past 2**53, where betainc returned NaN for a testable gene.
@example(rows=[("g", 1, 1, 2**53 - 1, 4_503_599_627_370_491)])
@settings(max_examples=50, deadline=None)
def test_every_table_validate_table_accepts_reads_back(tmp_path_factory, rows):
    broken = [_id_rule_broken(row[0]) for row in rows]
    readable = [row for row, rule in zip(rows, broken) if rule is None]
    if len(readable) < len(rows):
        with pytest.raises(InvalidRow, match=re.escape(next(filter(None, broken)))):
            table_of(rows)
    if not readable:
        return
    gene_id, l1, l2, x1, x2 = readable[0]
    readable[0] = (gene_id, l1, l2, x1 or 1, x2 or 1)  # both species have reads
    table = table_of(readable)
    out = tmp_path_factory.mktemp("roundtrip")
    write_counts_tsv(table, out / "counts.tsv")
    assert load_counts_tsv(out / "counts.tsv") == table
    listed = out / "conserved.txt"
    listed.write_text("".join(f"{g}\n" for g in table.gene_ids), encoding="utf-8")
    assert load_conserved_list(listed, table) == (ConservedSet(frozenset(table.gene_ids)), 0)
    _, results = write_report(_report_of(call_de(table, ScalingFactor(1.0), 0.5)), out)
    truth = out / "truth.tsv"
    truth.write_text("gene_id\tlabel\n" + "".join(f"{g}\tnull\n" for g in table.gene_ids),
                     encoding="utf-8")
    result = CliRunner().invoke(main, ["evaluate", "--results", str(results),
                                       "--truth", str(truth)])
    assert result.exit_code == 0, result.output
    scores = json.loads(result.output)
    assert (scores["tested_genes"], scores["untested_genes"]) == \
        (int(table.testable.sum()), int((~table.testable).sum()))


def test_a_gene_id_padded_with_whitespace_is_rejected(tmp_path):
    # Padded ids used to load, and then a conserved list, whose lines are
    # stripped, could not name them.
    rows = [(" g1", 10, 10, 1, 1), ("g2 ", 10, 10, 1, 1), ("g3", 10, 10, 1, 1)]
    with pytest.raises(InvalidRow) as info:
        table_of(rows)
    assert info.value.row == 0
    assert str(info.value) == "gene ' g1': gene_id must not begin or end with whitespace"
    path = _write_counts(tmp_path / "counts.tsv", ["\t".join(map(str, row)) for row in rows])
    with pytest.raises(ValueError) as info:
        load_counts_tsv(path)
    assert str(info.value) == \
        f"{path}: line 2: gene ' g1': gene_id must not begin or end with whitespace"
    assert load_counts_tsv(_write_counts(tmp_path / "inner.tsv", ["g 1\t10\t1\t10\t1"])
                           ).gene_ids == ("g 1",)


def test_an_empty_gene_id_is_rejected_at_its_row(tmp_path):
    # A count line that starts with a tab holds an empty id.  The rule is
    # tested on the id set validate_table builds, and names the first empty id.
    rows = [("g1", 10, 10, 1, 1), ("", 10, 10, 1, 1), ("g3", 10, 10, 1, 1), ("", 10, 10, 1, 1)]
    with pytest.raises(InvalidRow) as info:
        table_of(rows)
    assert info.value.row == 1
    assert str(info.value) == "gene '': gene_id must be a non-empty string"
    path = _write_counts(tmp_path / "counts.tsv", ["\t".join(map(str, row)) for row in rows])
    with pytest.raises(ValueError) as info:
        load_counts_tsv(path)
    assert str(info.value) == f"{path}: line 3: gene '': gene_id must be a non-empty string"


def test_an_id_a_conserved_list_cannot_name_is_rejected(tmp_path):
    # A list line that begins with '#' is a comment, and U+FEFF at the start
    # of its first line a byte-order mark: "#g2" used to load and then be
    # dropped from a conserved list silently.
    for gene_id in ("#g2", "\ufeffg2"):
        rows = [("g1", 10, 10, 1, 1), (gene_id, 10, 10, 1, 1), ("g3", 10, 10, 1, 1)]
        with pytest.raises(InvalidRow) as info:
            table_of(rows)
        assert info.value.row == 1
        assert str(info.value) == f"gene {gene_id!r}: gene_id must not begin with '#' or U+FEFF"
        path = _write_counts(tmp_path / "counts.tsv", ["\t".join(map(str, row)) for row in rows])
        with pytest.raises(ValueError) as info:
            load_counts_tsv(path)
        assert str(info.value) == \
            f"{path}: line 3: gene {gene_id!r}: gene_id must not begin with '#' or U+FEFF"
    table = load_counts_tsv(_write_counts(tmp_path / "inner.tsv", ["g#1\t10\t1\t10\t1",
                                                                  "g\ufeff2\t10\t1\t10\t1"]))
    assert table.gene_ids == ("g#1", "g\ufeff2")


@pytest.mark.parametrize("gene_id", ["g\udcff", "\ud800", "a\udfffb"])
def test_an_id_utf8_cannot_encode_is_rejected_before_any_writer(tmp_path, gene_id):
    # A lone surrogate passed every id rule, and then both writers raised
    # UnicodeEncodeError; now every table validate_table builds can be written.
    rows = [("g1", 10, 10, 1, 1), (gene_id, 10, 10, 1, 1), ("g\udcfe", 10, 10, 1, 1)]
    for write in (lambda table: write_counts_tsv(table, tmp_path / "counts.tsv"),
                  lambda table: write_report(_report_of(call_de(table, ScalingFactor(1.0), 0.5)),
                                             tmp_path / "run")):
        with pytest.raises(InvalidRow) as info:
            write(table_of(rows))
        assert info.value.row == 1
        assert str(info.value) == f"gene {gene_id!r}: gene_id must be encodable as UTF-8"
    assert not (tmp_path / "counts.tsv").exists() and not (tmp_path / "run").exists()
    table = table_of(rows[:1])
    write_counts_tsv(table, tmp_path / "counts.tsv")
    assert load_counts_tsv(tmp_path / "counts.tsv") == table
    _, results = write_report(_report_of(call_de(table, ScalingFactor(1.0), 0.5)), tmp_path)
    assert results.read_bytes().splitlines()[1].startswith(b"g1\t")


@pytest.mark.parametrize("column, value", [
    ("p_value", 1.5), ("p_value", -0.0), ("p_value", 0.0), ("q_value", math.inf),
    ("q_value", -1e-300),
])
def test_write_report_rejects_p_and_q_outside_the_unit_interval(tmp_path, column, value):
    calls = _deresult(["g1", "g2"], [0.5, math.nan], [0, 0], [False, False])
    columns = {"p_value": calls.p_value.copy(), "q_value": calls.q_value.copy()}
    columns[column][0] = value
    bad = DEResult(calls.gene_ids, columns["p_value"], columns["q_value"], calls.direction,
                   calls.de_call)
    with pytest.raises(ValueError) as excinfo:
        write_report(_report_of(bad), tmp_path)
    assert str(excinfo.value) == f"{column} must be NaN or lie in (0, 1], got {value!r}"
