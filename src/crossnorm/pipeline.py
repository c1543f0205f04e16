"""File ingestion, multiple-testing adjustment, DE calling, and reports.

File formats
------------
Count table: UTF-8 TSV, header ``gene_id length_sp1 count_sp1 length_sp2
count_sp2`` (tab-separated), one gene per line, integer lengths and counts
below 2**53.

Conserved list: plain text, one gene id per line, ``#`` comments allowed.

Both input formats may start with a UTF-8 byte-order mark, which is ignored.

Reports: a JSON summary (method, factor, tallies, config echo) plus a
per-gene TSV ``gene_id  p_value  q_value  direction  de_call`` where
untestable genes carry NA in the p/q columns.  Non-p/q floats are printed
with 6 significant digits; p and q keep their full round-trip form.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import ConservedSet, InvalidRow, OrthologTable, ScalingFactor, validate_table
from .exact_test import binom_twosided_pvalues, null_prob_values
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

# Normalization methods, in the order the CLI lists them.
METHODS = ("scbn", "median")

DIRECTION_SP1 = "higher_sp1"
DIRECTION_SP2 = "higher_sp2"
DIRECTION_NONE = "none"


@dataclass(frozen=True)
class TestResult:
    """Per-gene test outcome; p and q are None for untestable genes."""

    gene_id: str
    p_value: float | None
    q_value: float | None
    direction: str
    de_call: bool


@dataclass(frozen=True)
class RunConfig:
    """End-to-end pipeline settings."""

    counts_path: str
    conserved_path: str
    method: str = "scbn"
    alpha: float = 0.05
    cutoff: float = 1e-6
    eval_list_path: str | None = None
    grid_center: float | None = None
    grid_span: float = 10.0
    grid_points: int = 1000
    grid_refine_rounds: int = 3
    grid_refine_shrink: float = 0.1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}, got {self.method!r}")
        if not (0.0 < self.cutoff < 1.0):
            raise ValueError("cutoff must lie in (0, 1)")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")

    def grid(self) -> GridConfig:
        return GridConfig(
            alpha=self.alpha,
            center=self.grid_center,
            span=self.grid_span,
            coarse_points=self.grid_points,
            refine_rounds=self.grid_refine_rounds,
            refine_shrink=self.grid_refine_shrink,
        )


@dataclass(frozen=True)
class Report:
    """Pipeline output: the factor, per-gene results, and summary tallies."""

    method: str
    scaling_factor: float
    objective: ObjectiveValue | None
    n_genes: int
    n_testable: int
    total_de: int
    higher_sp1: int
    higher_sp2: int
    results: tuple[TestResult, ...]
    config: RunConfig
    conserved_size: int
    conserved_unknown: int
    eval_list_size: int | None = None
    eval_list_de: int | None = None
    # ScbnResult.window_edge of the fit; not written to the reports.
    window_edge: bool = False


def load_counts_tsv(path: str | Path) -> OrthologTable:
    """Parse and validate a count table, reporting offending line numbers."""
    path = Path(path)
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: file is empty")
    header = tuple(lines[0].split("\t"))
    if header != COUNTS_HEADER:
        raise ValueError(
            f"{path}: line 1: expected header {_HEADER_LINE!r}, got {lines[0]!r}"
        )
    gene_ids: list[str] = []
    values: list[tuple[int, ...]] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"{path}: line {lineno}: expected 5 tab-separated fields")
        try:
            values.append(tuple(map(int, fields[1:])))
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: lengths and counts must be integers"
            ) from None
        gene_ids.append(fields[0])
        linenos.append(lineno)
    l1, x1, l2, x2 = zip(*values) if values else ((),) * 4
    try:
        return validate_table(gene_ids, length_sp1=l1, length_sp2=l2, count_sp1=x1, count_sp2=x2)
    except InvalidRow as exc:
        raise ValueError(f"{path}: line {linenos[exc.row]}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_counts_tsv(table: OrthologTable, path: str | Path) -> None:
    """Write a count table in the format :func:`load_counts_tsv` reads."""
    columns = (table.gene_ids, table.length_sp1.tolist(), table.count_sp1.tolist(),
               table.length_sp2.tolist(), table.count_sp2.tolist())
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(_HEADER_LINE + "\n")
        fh.writelines("\t".join(map(str, row)) + "\n" for row in zip(*columns))


def load_conserved_list(path: str | Path, table: OrthologTable) -> tuple[ConservedSet, int]:
    """Load a conserved-gene list restricted to the table.

    Returns the set plus the number of listed ids absent from the table
    (reported to the caller as a warning count; an empty intersection is an
    error).
    """
    path = Path(path)
    wanted: list[str] = []
    with path.open("r", encoding="utf-8-sig") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            wanted.append(line)
    if not wanted:
        raise ValueError(f"{path}: no gene ids in file")
    known = set(table.gene_ids)
    present = [g for g in wanted if g in known]
    unknown = len(set(wanted)) - len(set(present))
    if not present:
        raise ValueError(f"{path}: none of the {len(wanted)} listed ids occur in the table")
    return ConservedSet(frozenset(present)), unknown


def bh_adjust(pvalues: Sequence[float | None]) -> list[float | None]:
    """Benjamini-Hochberg step-up adjusted values, in input order.

    Untestable entries (None) pass through untouched and do not count
    toward the number of tests.
    """
    idx = [i for i, p in enumerate(pvalues) if p is not None]
    for i in idx:
        p = pvalues[i]
        if not (0.0 < p <= 1.0):
            raise ValueError(f"p-values must lie in (0, 1], got {p!r}")
    out: list[float | None] = [None] * len(pvalues)
    if not idx:
        return out
    p = np.asarray([pvalues[i] for i in idx], dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    # p * (m/rank) keeps the top rank's factor at exactly 1, so a constant
    # vector adjusts to itself.
    scaled = p[order] * (m / np.arange(1, m + 1))
    q_sorted = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    q = np.empty(m)
    q[order] = q_sorted
    for j, i in enumerate(idx):
        out[i] = float(q[j])
    return out


def call_de(table: OrthologTable, c: ScalingFactor, cutoff: float) -> list[TestResult]:
    """Test every gene at factor c, adjust, and call DE below the cutoff.

    Direction is reported only for called genes: the species whose count
    exceeds its null share.  Untestable genes carry None p/q and are left
    out of the q-value ranking.
    """
    if not (0.0 < cutoff < 1.0):
        raise ValueError("cutoff must lie in (0, 1)")
    x1 = table.count_sp1
    n = x1 + table.count_sp2
    p0 = null_prob_values(c.c, table.length_sp1, table.length_sp2,
                          table.total_sp1, table.total_sp2)
    with np.errstate(invalid="ignore"):
        p = binom_twosided_pvalues(x1, n, p0)
    pvalues = [pv if ok else None for pv, ok in zip(p.tolist(), table.testable.tolist())]
    qvalues = bh_adjust(pvalues)

    rows = zip(table.gene_ids, x1.tolist(), (n * p0).tolist(), pvalues, qvalues)
    results = []
    for gene_id, x, mu, pv, q in rows:
        called = pv is not None and pv < cutoff
        direction = DIRECTION_NONE
        if called:
            if x > mu:
                direction = DIRECTION_SP1
            elif x < mu:
                direction = DIRECTION_SP2
        results.append(
            TestResult(
                gene_id=gene_id,
                p_value=pv,
                q_value=q,
                direction=direction,
                de_call=called,
            )
        )
    return results


def estimate_factor(
    table: OrthologTable,
    conserved: ConservedSet,
    method: str,
    grid: GridConfig,
) -> ScbnResult | MedianScaleResult:
    """Run the requested normalization method; ``grid`` is used by scbn only."""
    if method == "scbn":
        return scbn_scaling_factor(table, conserved, grid)
    if method == "median":
        return median_scaling_factor(table, conserved)
    raise ValueError(f"unknown method {method!r}")


def testable_calls(
    table: OrthologTable, c: ScalingFactor, cutoff: float
) -> tuple[dict[str, bool], dict[str, str]]:
    """DE calls and directions for testable genes, keyed by gene id."""
    results = call_de(table, c, cutoff)
    calls = {r.gene_id: r.de_call for r in results if r.p_value is not None}
    directions = {r.gene_id: r.direction for r in results if r.p_value is not None}
    return calls, directions


def run_pipeline(config: RunConfig) -> Report:
    """Normalize, test, call, and tally one dataset end to end."""
    table = load_counts_tsv(config.counts_path)
    conserved, unknown = load_conserved_list(config.conserved_path, table)

    fit = estimate_factor(table, conserved, config.method, config.grid())
    objective = fit.objective if isinstance(fit, ScbnResult) else None

    results = call_de(table, fit.factor, config.cutoff)
    called = [r for r in results if r.de_call]
    higher_sp1 = sum(1 for r in called if r.direction == DIRECTION_SP1)
    higher_sp2 = sum(1 for r in called if r.direction == DIRECTION_SP2)

    eval_size = eval_de = None
    if config.eval_list_path is not None:
        eval_set, _ = load_conserved_list(config.eval_list_path, table)
        eval_size = eval_set.m
        eval_de = sum(1 for r in called if r.gene_id in eval_set.gene_ids)

    return Report(
        method=config.method,
        scaling_factor=fit.factor.c,
        objective=objective,
        n_genes=len(table),
        n_testable=int(table.testable.sum()),
        total_de=len(called),
        higher_sp1=higher_sp1,
        higher_sp2=higher_sp2,
        results=tuple(results),
        config=config,
        conserved_size=conserved.m,
        conserved_unknown=unknown,
        eval_list_size=eval_size,
        eval_list_de=eval_de,
        window_edge=isinstance(fit, ScbnResult) and fit.window_edge,
    )


def _sig6(value: float) -> float:
    # Reports print non-p/q floats at 6 significant digits.
    return float(f"{value:.6g}")


def summary_dict(report: Report) -> dict:
    cfg = report.config
    summary = {
        "method": report.method,
        "scaling_factor": _sig6(report.scaling_factor),
        "objective": None,
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
            "grid_refine_rounds": cfg.grid_refine_rounds,
            "grid_refine_shrink": _sig6(cfg.grid_refine_shrink),
        },
    }
    if report.objective is not None:
        summary["objective"] = {
            "deviation": _sig6(report.objective.deviation),
            "rejection_rate": _sig6(report.objective.rejection_rate),
        }
    if report.eval_list_size is not None:
        summary["eval_list"] = {
            "matched": report.eval_list_size,
            "de_called": report.eval_list_de,
        }
    return summary


def _result_line(r: TestResult) -> str:
    p = "NA" if r.p_value is None else repr(r.p_value)
    q = "NA" if r.q_value is None else repr(r.q_value)
    return f"{r.gene_id}\t{p}\t{q}\t{r.direction}\t{'true' if r.de_call else 'false'}"


def write_report(report: Report, out_dir: str | Path) -> tuple[Path, Path]:
    """Write summary.json and results.tsv; byte-identical for equal inputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary_path = out / "summary.json"
    results_path = out / "results.tsv"
    with summary_path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with results_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("gene_id\tp_value\tq_value\tdirection\tde_call\n")
        for r in report.results:
            fh.write(_result_line(r) + "\n")
    return summary_path, results_path
