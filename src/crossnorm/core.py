"""Domain types for two-species orthologous-gene count data.

An :class:`OrthologTable` is columnar: a tuple of gene ids plus read-only
int64 columns ``length_sp1``, ``length_sp2``, ``count_sp1`` and
``count_sp2``, the exact per-species read totals as Python ints, and a
``testable`` mask (the ``_testable`` rule, which the exact test shares).
:func:`validate_table` is the one place that builds and checks a table, and
it checks every rule, the simulator's tables included.  A table keeps the
set of its ids that the uniqueness rule builds (``table._id_set``), for
membership tests.  :class:`GeneRecord` is the row type of the cached,
read-only ``table.records`` view.

All types are immutable after construction.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import get_type_hints

import numpy as np

__all__ = [
    "GeneRecord",
    "InvalidRow",
    "OrthologTable",
    "ConservedSet",
    "ScalingFactor",
    "validate_table",
]

# Column names in GeneRecord field order.
_COLUMNS = ("length_sp1", "length_sp2", "count_sp1", "count_sp2")

# Lengths and counts must stay below 2**53, where float64 (and so the exact
# test's kernel) still represents every integer exactly.
_VALUE_LIMIT = 2**53
_INT64 = np.iinfo(np.int64)


def require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integral number (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_number(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a real number (numpy's too), not a
    bool, that a float can hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number, got one too large for a float") from None


@cache
def _field_types(cls) -> dict:
    """Each field of the dataclass ``cls`` and its annotation, resolved once per class."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _store_numbers(config, **labels: str) -> None:
    """Every config's number rule: check each ``int``, ``float`` or non-None ``float | None``
    field of ``config`` in order, under its label (else its name); store a Python number."""
    for name, kind in _field_types(type(config)).items():
        value = getattr(config, name)
        if kind == float | None and value is not None:
            kind = float
        if kind in (int, float):
            (require_integer if kind is int else require_number)(labels.get(name, name), value)
            object.__setattr__(config, name, kind(value))


@dataclass(frozen=True)
class GeneRecord:
    """One row of a validated table: per-species gene length (bases), mapped
    reads, and the table's ``testable`` flag."""

    gene_id: str
    length_sp1: int
    length_sp2: int
    count_sp1: int
    count_sp2: int
    testable: bool


class InvalidRow(ValueError):
    """A table rule broken by one gene; ``row`` is its 0-based position."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class OrthologTable:
    """The one-to-one ortholog set plus exact per-species read totals.

    Build it with :func:`validate_table`.  Totals are exact integer sums
    over all genes; all-zero genes stay in the table (so totals match the
    input file) but are flagged untestable in ``testable``, as are genes
    whose two counts sum to 2**53 or more.
    """

    gene_ids: tuple[str, ...]
    length_sp1: np.ndarray
    length_sp2: np.ndarray
    count_sp1: np.ndarray
    count_sp2: np.ndarray
    total_sp1: int
    total_sp2: int
    testable: np.ndarray
    _id_set: frozenset[str] = field(repr=False)  # the gene ids, for membership tests

    def __len__(self) -> int:
        return len(self.gene_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrthologTable):
            return NotImplemented
        return self.gene_ids == other.gene_ids and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    @cached_property
    def records(self) -> tuple[GeneRecord, ...]:
        """The table as rows, built on first access."""
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return tuple(GeneRecord(*row)
                     for row in zip(self.gene_ids, *columns, self.testable.tolist()))


def _int64_column(values) -> np.ndarray:
    try:
        column = np.array(values, dtype=np.int64)
    except OverflowError:
        # A Python int beyond int64: clamping keeps every rule's verdict.
        column = np.array([min(max(v, _INT64.min), _INT64.max) for v in values],
                          dtype=np.int64)
    column.flags.writeable = False
    return column


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a tab or a character ``str.splitlines`` splits at."""
    return "\t" in text or len((text + ".").splitlines()) > 1


def _encodable(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: it holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _testable(n):
    """n > 0 and n < 2**53: the exact test conditions on the count sum n, which float64
    (and so betainc) holds exactly only below 2**53; beyond it betainc can return NaN."""
    return (n > 0) & (n < _VALUE_LIMIT)


def validate_table(gene_ids, length_sp1, length_sp2, count_sp1, count_sp2) -> OrthologTable:
    """Check the columns and build an :class:`OrthologTable`.

    Every id must be a unique non-empty string that UTF-8 can encode,
    without a tab or a line break (a character ``str.splitlines`` splits
    at), so that a table can be written and read back, and without
    whitespace at either end (as ``str.strip`` sees it), so that a
    conserved list, whose lines are stripped, can name it; for the same
    reason it must not begin with ``#`` or U+FEFF.  Lengths must be
    >= 1, counts >= 0, and every length and count < 2**53.  A broken rule
    raises :class:`InvalidRow` for the first offending gene; a species
    without any reads raises ValueError.  Idempotent: validating a valid
    table's columns reproduces an equal table.
    """
    ids = tuple(gene_ids)
    columns = [_int64_column(values) for values in (length_sp1, length_sp2, count_sp1, count_sp2)]
    if any(column.shape != (len(ids),) for column in columns):
        raise ValueError("gene ids and the four columns must have the same length")
    l1, l2, x1, x2 = columns

    failures = [
        (int(mask.argmax()), message)
        for mask, message in (
            (l1 < 1, "length_sp1 must be >= 1"),
            (l2 < 1, "length_sp2 must be >= 1"),
            ((x1 < 0) | (x2 < 0), "counts must be >= 0"),
            (np.any([column >= _VALUE_LIMIT for column in columns], axis=0),
             "lengths and counts must be < 2**53"),
        )
        if mask.any()
    ]
    id_set = frozenset(ids)
    failures += _id_failures(ids, id_set)
    if failures:
        row, message = min(failures, key=lambda failure: failure[0])
        raise InvalidRow(row, f"gene {ids[row]!r}: {message}")

    # Exact totals: an int64 sum where max * rows cannot overflow, else Python ints.
    total_sp1, total_sp2 = (int(x.sum()) if int(x.max(initial=0)) * x.size <= _INT64.max
                            else sum(x.tolist()) for x in (x1, x2))
    if total_sp1 <= 0 or total_sp2 <= 0:
        raise ValueError("each species needs at least one mapped read")
    testable = _testable(x1 + x2)
    testable.flags.writeable = False
    return OrthologTable(ids, l1, l2, x1, x2, total_sp1, total_sp2, testable, id_set)


def _id_failures(ids: tuple[str, ...], id_set: frozenset[str]) -> list[tuple[int, str]]:
    """The first row breaking each of validate_table's id rules, with its
    message; ``id_set`` is ``frozenset(ids)``."""
    failures = []
    if "" in id_set:
        failures.append((ids.index(""), "gene_id must be a non-empty string"))
    joined = "".join(ids)
    if _breaks_line(joined):
        row = next(row for row, gene_id in enumerate(ids) if _breaks_line(gene_id))
        failures.append((row, "gene_id must not contain a tab or line break"))
    padded = (row for row, gene_id in enumerate(ids) if gene_id != gene_id.strip())
    # One scan of the joined ids first: the ids are stripped only if one holds whitespace.
    if joined.split(None, 1) != [joined] and (row := next(padded, None)) is not None:
        failures.append((row, "gene_id must not begin or end with whitespace"))
    # A conserved list reads a line that begins with '#' as a comment, and
    # U+FEFF at the start of its first line as a byte-order mark.
    marked = (row for row, gene_id in enumerate(ids) if gene_id.startswith(("#", "\ufeff")))
    if ("#" in joined or "\ufeff" in joined) and (row := next(marked, None)) is not None:
        failures.append((row, "gene_id must not begin with '#' or U+FEFF"))
    if not _encodable(joined):
        row = next(row for row, gene_id in enumerate(ids) if not _encodable(gene_id))
        failures.append((row, "gene_id must be encodable as UTF-8"))
    if len(id_set) < len(ids):
        seen: set[str] = set()
        for row, gene_id in enumerate(ids):
            if gene_id in seen:
                failures.append((row, "duplicate gene_id"))
                break
            seen.add(gene_id)
    return failures


@dataclass(frozen=True)
class ConservedSet:
    """Gene ids presumed non-differentially expressed between the species."""

    gene_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not self.gene_ids:
            raise ValueError("a conserved set needs at least one gene")

    @property
    def m(self) -> int:
        return len(self.gene_ids)


@dataclass(frozen=True)
class ScalingFactor:
    """The between-species scale c (total output sp2 / sp1), a positive finite float."""

    c: float

    def __post_init__(self) -> None:
        _store_numbers(self, c="scaling factor")
        if not (0.0 < self.c < np.inf):
            raise ValueError(f"scaling factor must be positive and finite, got {self.c!r}")

    def __float__(self) -> float:
        return self.c
