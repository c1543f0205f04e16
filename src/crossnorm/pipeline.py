"""File ingestion, multiple-testing adjustment, DE calling, and reports.

File formats
------------
Count table: UTF-8 TSV, header ``gene_id length_sp1 count_sp1 length_sp2
count_sp2`` (tab-separated), one gene per line, integer lengths and counts
below 2**53.  A length or count is written ``-?[0-9]+``: ASCII digits with
an optional minus sign, leading zeros allowed; ``+``, spaces, ``_`` and
non-ASCII digits are errors.  One parse (:func:`_numeric_columns`) reads
good lines and names the first bad one: ``line N: expected 5
tab-separated fields`` or ``line N: lengths and counts must be integers``.
It and ``validate_table`` raise ``core.InvalidRow`` with a body row, and
:func:`load_counts_tsv` maps every such row to its file line in one place.

Conserved list: plain text, one gene id per line, ``#`` comments allowed.

Both, and ``crossnorm evaluate``'s tables, are read by :func:`_read_lines`:
UTF-8 that may start with a byte-order mark, which is ignored, split into
lines and numbered by ``str.splitlines``.  A byte that is not valid UTF-8
raises ``<path>: line N: not valid UTF-8``.  Gene ids hold no tab and no
such line break, so every table written here reads back.

Reports: a JSON summary (method, factor, tallies, config echo) plus a
per-gene TSV ``gene_id  p_value  q_value  direction  de_call`` where
untestable genes carry NA in the p/q columns.  Non-p/q floats are printed
with 6 significant digits (:func:`_sig6_text`).  p and q are written
exactly as ``repr`` writes them (the shortest round-trip decimal), computed
by :func:`crossnorm.floattext.pq_text`; a p or q outside (0, 1] that is not
NaN raises ValueError, and so does a gene id holding ``\n`` (which
``validate_table`` never accepts): the writer finds each id's end at the
``\n`` after it in the ids joined by ``\n``.  results.tsv is a list of byte
blocks that :func:`_write_file` writes one after another, never joined
into one buffer.  :func:`load_counts_tsv` parses the body, and results.tsv
is built, in blocks of ``_ROWS`` (4096) lines.  That is for page faults,
not arithmetic: whole-table temporaries go back to the OS when freed, and
each pass would fault their pages in again.  Every file the package
writes, the CLI's included, is written by :func:`_write_file` (UTF-8,
``\n`` line ends), and every JSON report is rendered by :func:`_json_text`
(2-space indents, sorted keys, a final newline).

DE results are columnar: :func:`call_de` returns a :class:`DEResult` whose
``p_value`` and ``q_value`` are float64 arrays in table order, with NaN for
untestable genes (see ``OrthologTable.testable``).  :func:`bh_adjust` follows
the same convention: NaN entries stay NaN and do not count as tests.
``DEResult.records`` is a row view of :class:`TestResult` objects, built on
first access, for inspection only.  :func:`testable_calls` gives the
``de_call`` and ``direction`` columns of the testable genes for scoring:
it decides each call with ``exact_test._rejects`` and computes neither
p-values nor q-values.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import METHODS
from .core import (ConservedSet, InvalidRow, OrthologTable, ScalingFactor, _store_numbers,
                   require_number, validate_table)
from .exact_test import _checked_p0, _gene_inputs, _rejects, binom_twosided_pvalues
from .floattext import WIDTH, pq_text
from .normalization import (
    GridConfig,
    MedianScaleResult,
    ObjectiveValue,
    ScbnResult,
    median_scaling_factor,
    scbn_scaling_factor,
)

__all__ = [
    "COUNTS_HEADER",
    "METHODS",
    "TestResult",
    "DEResult",
    "RunConfig",
    "Report",
    "load_counts_tsv",
    "write_counts_tsv",
    "load_conserved_list",
    "bh_adjust",
    "call_de",
    "estimate_factor",
    "testable_calls",
    "run_pipeline",
    "write_report",
]

COUNTS_HEADER = ("gene_id", "length_sp1", "count_sp1", "length_sp2", "count_sp2")
_HEADER_LINE = "\t".join(COUNTS_HEADER)
# Every body line's separators: four tabs, then the line end.
_ROW_SEPARATORS = np.frombuffer(b"\t\t\t\t\n", dtype=np.uint8)
# Fields of up to this many digits are summed in int64 without overflow;
# longer ones go through int().
_FAST_DIGITS = 18
_INT64_MAX = np.iinfo(np.int64).max

DIRECTION_SP1 = "higher_sp1"
DIRECTION_SP2 = "higher_sp2"
DIRECTION_NONE = "none"
# DEResult.direction codes -1, 0 and +1 index this tuple at code + 1.
_DIRECTION_NAMES = (DIRECTION_SP2, DIRECTION_NONE, DIRECTION_SP1)
_RESULTS_HEADER = b"gene_id\tp_value\tq_value\tdirection\tde_call\n"
# results.tsv's direction and de_call fields and the line end, at
# 3 * de_call + direction + 1: row r's bytes are _CALL_CHARS[r][_CALL_KEEP[r]].
_CALL_FIELDS = [f"\t{name}\t{flag}\n".encode() for flag in ("false", "true")
                for name in _DIRECTION_NAMES]
_CALL_CHARS = np.array(_CALL_FIELDS, dtype="S18").view(np.uint8).reshape(6, 18)
_CALL_KEEP = _CALL_CHARS != 0
_ROWS = 4096  # lines per block of a count table or results.tsv (see the module docstring)
# results.tsv's fixed columns after the id: a tab and a text, twice, and
# the call fields.  A block's rows hold at most _BLOCK_BYTES, so that a
# long id shortens its block instead of widening _ROWS rows.
_TAIL = 2 * (WIDTH + 1) + _CALL_CHARS.shape[1]
_BLOCK_BYTES = 128 * _ROWS


@dataclass(frozen=True)
class TestResult:
    """One row of a :class:`DEResult`; p and q are None for untestable genes."""

    gene_id: str
    p_value: float | None
    q_value: float | None
    direction: str
    de_call: bool


def _direction_names(direction: np.ndarray) -> list[str]:
    """The direction labels of an int8 direction column."""
    return np.asarray(_DIRECTION_NAMES, dtype=object)[direction + 1].tolist()


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _nan_to_none(values: np.ndarray) -> list[float | None]:
    return [None if v != v else v for v in values.tolist()]


@dataclass(frozen=True, eq=False)
class DEResult:
    """Per-gene test outcomes as read-only columns, in table order.

    ``p_value`` and ``q_value`` are float64, NaN for untestable genes.
    ``direction`` is int8: +1 where the species-1 count exceeds its null
    share (``higher_sp1``), -1 where it falls short (``higher_sp2``), and 0
    for genes not called.  ``de_call`` is bool.
    """

    gene_ids: tuple[str, ...]
    p_value: np.ndarray
    q_value: np.ndarray
    direction: np.ndarray
    de_call: np.ndarray

    @cached_property
    def records(self) -> tuple[TestResult, ...]:
        """The result as rows, built on first access."""
        columns = (_nan_to_none(self.p_value), _nan_to_none(self.q_value),
                   _direction_names(self.direction), self.de_call.tolist())
        return tuple(TestResult(*row) for row in zip(self.gene_ids, *columns))


@dataclass(frozen=True)
class RunConfig:
    """End-to-end pipeline settings: ``method`` and ``cutoff`` are checked
    first, then the rest by the :class:`GridConfig` that ``grid()`` returns,
    and each number is stored as a Python int or float for summary.json."""

    counts_path: str
    conserved_path: str
    method: str = "scbn"
    alpha: float = 0.05
    cutoff: float = 1e-6
    eval_list_path: str | None = None
    grid_center: float | None = None
    grid_span: float = 10.0
    grid_points: int = 1000

    def __post_init__(self) -> None:
        _check_method(self.method)
        _check_cutoff(self.cutoff)
        object.__setattr__(self, "_grid", GridConfig(
            alpha=self.alpha, center=self.grid_center, span=self.grid_span,
            coarse_points=self.grid_points))
        _store_numbers(self)

    def grid(self) -> GridConfig:
        return self._grid


@dataclass(frozen=True)
class Report:
    """Pipeline output: the fit, per-gene results, and summary tallies."""

    method: str
    fit: ScbnResult | MedianScaleResult
    n_genes: int
    n_testable: int
    total_de: int
    higher_sp1: int
    higher_sp2: int
    calls: DEResult
    config: RunConfig
    conserved_size: int
    conserved_unknown: int
    eval_list_size: int | None = None
    eval_list_de: int | None = None

    @property
    def scaling_factor(self) -> float:
        return self.fit.factor.c

    @property
    def objective(self) -> ObjectiveValue | None:
        """The scbn fit's objective; None for the median method."""
        return self.fit.objective if isinstance(self.fit, ScbnResult) else None

    @property
    def results(self) -> tuple[TestResult, ...]:
        """The per-gene results as rows (``calls.records``)."""
        return self.calls.records


def _write_file(path: str | Path, data: str | list[bytes | np.ndarray]) -> Path:
    """Write one output file, every one the package writes: text as UTF-8,
    untranslated, so its ``\n`` line ends stay ``\n`` on every platform, or
    a list of byte blocks (results.tsv's), one after another."""
    path = Path(path)
    with path.open("wb") as out:
        out.writelines([data.encode("utf-8")] if isinstance(data, str) else data)
    return path


def _json_text(value) -> str:
    """The text of every JSON report: 2-space indents, sorted keys, a final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _tsv_text(rows) -> str:
    """Rows of text fields as TSV lines, each ending in ``\n``."""
    return "".join("\t".join(row) + "\n" for row in rows)


def _sig6_text(value: float) -> str:
    """A float other than a p- or q-value, as every report writes it."""
    return f"{value:.6g}"


def _sig6(value: float) -> float:
    return float(_sig6_text(value))


def _read_text(path: Path) -> str:
    """The file's text, decoded as UTF-8 with an optional byte-order mark."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the data after the byte-order mark; lines are counted
        # as _read_lines splits them.
        head = exc.object[:exc.start].decode("utf-8")
        lineno = len((head + "x").splitlines())
        raise ValueError(f"{path}: line {lineno}: not valid UTF-8") from None


def _read_lines(path: Path) -> list[str]:
    """The file's lines: every text table is split and numbered this way."""
    return _read_text(path).splitlines()


def load_counts_tsv(path: str | Path) -> OrthologTable:
    """Parse and validate a count table, reporting offending line numbers."""
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"{path}: file is empty")
    header = tuple(lines[0].split("\t"))
    if header != COUNTS_HEADER:
        raise ValueError(
            f"{path}: line 1: expected header {_HEADER_LINE!r}, got {lines[0]!r}"
        )
    body = list(filter(None, lines[1:]))  # blank lines are skipped
    gene_ids = [line.partition("\t")[0] for line in body]
    try:
        # At least one block: a header-only file parses to (4, 0) columns.
        blocks = [_numeric_columns(body[start:start + _ROWS], start)
                  for start in range(0, max(len(body), 1), _ROWS)]
        l1, x1, l2, x2 = np.concatenate(blocks, axis=1)
        return validate_table(gene_ids, length_sp1=l1, length_sp2=l2,
                              count_sp1=x1, count_sp2=x2)
    except InvalidRow as exc:
        lineno = [i for i, line in enumerate(lines[1:], start=2) if line][exc.row]
        raise ValueError(f"{path}: line {lineno}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _numeric_columns(body: list[str], first_row: int) -> np.ndarray:
    """The four numeric columns of the body lines, as the rows of a
    (4, lines) int64 array.  Raises InvalidRow(first_row + row) at the first
    line with other than 5 fields or a length or count outside ``-?[0-9]+``.

    One pass over the body's UTF-8 bytes: the tab and newline positions
    bound every field, and the digits are summed one digit position at a
    time across all fields, right-aligned at the field ends.  Values beyond
    int64 are clamped into it, which keeps every validate_table verdict.
    """
    buf = np.frombuffer("\n".join([*body, ""]).encode(), dtype=np.uint8)
    seps = np.flatnonzero((buf == ord("\t")) | (buf == ord("\n")))
    if seps.size != 5 * len(body) or not (buf[seps].reshape(-1, 5) == _ROW_SEPARATORS).all():
        # Each line's separators, its tabs and its newline, are the gap
        # between its newline's index among them and the previous one's.
        # The lines before the first bad one have their integers checked first.
        ends = np.flatnonzero(buf[seps] == ord("\n"))
        row = int(np.argmax(np.diff(ends, prepend=-1) != 5))
        _numeric_columns(body[:row], first_row)
        raise InvalidRow(first_row + row, "expected 5 tab-separated fields")
    seps = seps.reshape(-1, 5)
    first, end = seps[:, :4] + 1, seps[:, 1:]
    negative = buf[first] == ord("-")
    width = end - first
    width -= negative
    bad = width < 1
    digits = min(int(width.max(initial=0)), _FAST_DIGITS)
    value = np.zeros(width.shape, dtype=np.int64)
    pos = end - digits
    for place in range(digits, 0, -1):
        digit = buf.take(pos, mode="clip") - np.uint8(ord("0"))  # wraps below "0"
        digit *= width >= place
        bad |= digit > 9
        value *= 10
        value += digit
        pos += 1
    for k in np.flatnonzero(width > _FAST_DIGITS):
        field = buf[first.flat[k]:end.flat[k]].tobytes().removeprefix(b"-")
        if field.isdigit():  # ASCII digits only
            # Without leading zeros, 20 digits already exceed int64.
            value.flat[k] = min(int(field.lstrip(b"0")[:20] or b"0"), _INT64_MAX)
        else:
            bad.flat[k] = True
    if bad.any():
        raise InvalidRow(first_row + int(bad.any(axis=1).argmax()),
                         "lengths and counts must be integers")
    np.negative(value, out=value, where=negative)
    return value.T


def write_counts_tsv(table: OrthologTable, path: str | Path) -> None:
    """Write a count table in the format :func:`load_counts_tsv` reads."""
    columns = (table.gene_ids, table.length_sp1.tolist(), table.count_sp1.tolist(),
               table.length_sp2.tolist(), table.count_sp2.tolist())
    _write_file(path, _tsv_text([COUNTS_HEADER, *(map(str, row) for row in zip(*columns))]))


def load_conserved_list(path: str | Path, table: OrthologTable) -> tuple[ConservedSet, int]:
    """Load a conserved-gene list restricted to the table.

    Returns the set plus the number of listed ids absent from the table
    (reported to the caller as a warning count; an empty intersection is an
    error).
    """
    path = Path(path)
    wanted: list[str] = []
    for line in _read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        wanted.append(line)
    if not wanted:
        raise ValueError(f"{path}: no gene ids in file")
    listed = set(wanted)
    present = table._id_set & listed
    if not present:
        raise ValueError(f"{path}: none of the {len(wanted)} listed ids occur in the table")
    return ConservedSet(present), len(listed) - len(present)


def bh_adjust(pvalues: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted values, in input order.

    Takes and returns a 1-D float64 array.  NaN marks an untestable entry:
    it stays NaN and does not count toward the number of tests.  Every other
    entry must lie in (0, 1].
    """
    p = np.asarray(pvalues, dtype=np.float64)
    tested = np.flatnonzero(~np.isnan(p))
    pt = p[tested]
    bad = ~((pt > 0.0) & (pt <= 1.0))
    if bad.any():
        raise ValueError(f"p-values must lie in (0, 1], got {float(pt[bad.argmax()])!r}")
    m = pt.size
    # Tied p-values get equal q in any order: fl(p * (m/rank)) never rises
    # with the rank, so a run of ties takes the value at its last rank.
    order = np.argsort(pt)
    # p * (m/rank) keeps the top rank's factor at exactly 1, so a constant
    # vector adjusts to itself.
    scaled = pt[order] * (m / np.arange(1, m + 1))
    q = np.full(p.shape, np.nan)
    q[tested[order]] = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    return q


def _check_method(method) -> None:
    """The normalization method rule: one of :data:`METHODS`."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {', '.join(METHODS)}, got {method!r}")


def _check_cutoff(cutoff) -> None:
    """The DE-calling threshold rule: a number strictly inside (0, 1)."""
    require_number("cutoff", cutoff)
    if not (0.0 < cutoff < 1.0):
        raise ValueError("cutoff must lie in (0, 1)")


def _directions(x1, n, p0, called) -> np.ndarray:
    """The direction column: the sign of x1 - n*p0 where a gene is called,
    else 0.  Counts below 2**53 are exact in float64, so each compares
    exactly with the null mean."""
    mu = n * p0
    sign = (x1 > mu).astype(np.int8) - (x1 < mu)
    return np.where(called, sign, np.int8(0))


def call_de(table: OrthologTable, c: ScalingFactor, cutoff: float) -> DEResult:
    """Test every gene at factor c, adjust, and call DE below the cutoff.

    Direction is reported only for called genes: the species whose count
    exceeds its null share.  Untestable genes carry NaN p/q, are never
    called, and are left out of the q-value ranking.  A factor at which
    c*L1*N1 + L2*N2 overflows raises ValueError, here and in
    :func:`testable_calls`.
    """
    _check_cutoff(cutoff)
    x1, n, *products = _gene_inputs(table)
    p0 = _checked_p0(c.c, *products)
    with np.errstate(invalid="ignore"):
        p = binom_twosided_pvalues(x1, n, p0)
    p = np.where(table.testable, p, np.nan)
    called = p < cutoff  # False at NaN
    direction = _directions(x1, n, p0, called)
    q = bh_adjust(p)
    return DEResult(table.gene_ids, *map(_read_only, (p, q, direction, called)))


def estimate_factor(
    table: OrthologTable,
    conserved: ConservedSet,
    method: str,
    grid: GridConfig,
) -> ScbnResult | MedianScaleResult:
    """Run the requested normalization method; ``grid`` is used by scbn only."""
    _check_method(method)
    if method == "scbn":
        return scbn_scaling_factor(table, conserved, grid)
    return median_scaling_factor(table, conserved)


def testable_calls(
    table: OrthologTable, c: ScalingFactor, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ``de_call`` and ``direction`` columns of :func:`call_de`, testable genes only.

    Each call is the decision p < cutoff, made by ``exact_test._rejects``
    without computing the p-value, and no q-values are computed.
    """
    _check_cutoff(cutoff)
    x1, n, *products = _gene_inputs(table, table.testable)
    p0 = _checked_p0(c.c, *products)
    called = _rejects(x1, n, p0, cutoff)
    return called, _directions(x1, n, p0, called)


def run_pipeline(config: RunConfig) -> Report:
    """Normalize, test, call, and tally one dataset end to end."""
    table = load_counts_tsv(config.counts_path)
    conserved, unknown = load_conserved_list(config.conserved_path, table)

    fit = estimate_factor(table, conserved, config.method, config.grid())
    calls = call_de(table, fit.factor, config.cutoff)

    eval_size = eval_de = None
    if config.eval_list_path is not None:
        eval_set, _ = load_conserved_list(config.eval_list_path, table)
        eval_size = eval_set.m
        called_ids = itertools.compress(calls.gene_ids, calls.de_call.tolist())
        eval_de = sum(1 for gene_id in called_ids if gene_id in eval_set.gene_ids)

    return Report(
        method=config.method,
        fit=fit,
        n_genes=len(table),
        n_testable=int(table.testable.sum()),
        total_de=int(calls.de_call.sum()),
        higher_sp1=int((calls.direction > 0).sum()),
        higher_sp2=int((calls.direction < 0).sum()),
        calls=calls,
        config=config,
        conserved_size=conserved.m,
        conserved_unknown=unknown,
        eval_list_size=eval_size,
        eval_list_de=eval_de,
    )


def _objective_dict(objective: ObjectiveValue) -> dict:
    return {"deviation": _sig6(objective.deviation),
            "rejection_rate": _sig6(objective.rejection_rate)}


def summary_dict(report: Report) -> dict:
    cfg = report.config
    summary = {
        "method": report.method,
        "scaling_factor": _sig6(report.scaling_factor),
        "objective": None if report.objective is None else _objective_dict(report.objective),
        "genes": {
            "total": report.n_genes,
            "testable": report.n_testable,
            "untestable": report.n_genes - report.n_testable,
        },
        "tallies": {
            "total_de": report.total_de,
            "higher_sp1": report.higher_sp1,
            "higher_sp2": report.higher_sp2,
        },
        "conserved": {
            "used": report.conserved_size,
            "unknown_ids": report.conserved_unknown,
        },
        "config": {
            "alpha": _sig6(cfg.alpha),
            "cutoff": cfg.cutoff,
            "grid_center": None if cfg.grid_center is None else _sig6(cfg.grid_center),
            "grid_span": _sig6(cfg.grid_span),
            "grid_points": cfg.grid_points,
            "grid_refine_rounds": cfg.grid().refine_rounds,
            "grid_refine_shrink": _sig6(cfg.grid().refine_shrink),
        },
    }
    if report.eval_list_size is not None:
        summary["eval_list"] = {
            "matched": report.eval_list_size,
            "de_called": report.eval_list_de,
        }
    return summary


def _results_tsv(calls: DEResult) -> list[bytes | np.ndarray]:
    """results.tsv as byte blocks, the header and then up to _ROWS lines each."""
    for name, values in (("p_value", calls.p_value), ("q_value", calls.q_value)):
        bad = ~((values > 0.0) & (values <= 1.0) | np.isnan(values))
        if bad.any():
            raise ValueError(f"{name} must be NaN or lie in (0, 1], "
                             f"got {float(values[bad][0])!r}")
    ids = calls.gene_ids
    # Each id's bytes end at its "\n" in the joined UTF-8: a byte 10 is that
    # character and no part of another.
    id_bytes = np.frombuffer("\n".join([*ids, ""]).encode("utf-8"), dtype=np.uint8)
    id_ends = np.flatnonzero(id_bytes == ord("\n"))
    if id_ends.size != len(ids):
        gene_id = next(gene_id for gene_id in ids if "\n" in gene_id)
        raise ValueError(f"gene_id must not contain '\\n', got {gene_id!r}")
    id_length = np.diff(id_ends, prepend=-1) - 1
    call_code = 3 * calls.de_call + calls.direction + 1

    # A line is the kept bytes of a row of fixed columns: the id's bytes,
    # then two slots, each a tab and a text (p, then q), then the call fields.
    blocks = [_RESULTS_HEADER]
    start = 0
    while start < len(ids):
        # The most lines whose rows, as wide as their longest id's, fit _BLOCK_BYTES.
        width = np.maximum.accumulate(id_length[start:start + _ROWS]) + _TAIL
        rows = slice(start, start + max(1, np.count_nonzero(
            width * np.arange(1, width.size + 1) <= _BLOCK_BYTES)))
        code, length = call_code[rows], id_length[rows]
        at = int(length.max())
        call_at = at + 2 * (WIDTH + 1)
        chars = np.empty((code.size, at + _TAIL), dtype=np.uint8)
        keep = np.empty(chars.shape, dtype=bool)
        column = np.arange(at)
        chars[:, :at] = id_bytes.take((id_ends[rows] - length)[:, None] + column, mode="clip")
        keep[:, :at] = column < length[:, None]
        slots = chars[:, at:call_at].reshape(-1, 2, WIDTH + 1)
        slot_keep = keep[:, at:call_at].reshape(slots.shape)
        slots[..., 0] = ord("\t")
        slot_keep[..., 0] = True
        pq_text(np.stack((calls.p_value[rows], calls.q_value[rows]), axis=1), slots[..., 1:],
                slot_keep[..., 1:])
        chars[:, call_at:] = _CALL_CHARS.take(code, axis=0)
        keep[:, call_at:] = _CALL_KEEP.take(code, axis=0)
        blocks.append(chars[keep])
        start = rows.stop
    return blocks


def write_report(report: Report, out_dir: str | Path) -> tuple[Path, Path]:
    """Write summary.json and results.tsv; byte-identical for equal inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return (_write_file(out / "summary.json", _json_text(summary_dict(report))),
            _write_file(out / "results.tsv", _results_tsv(report.calls)))
