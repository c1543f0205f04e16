"""Scaling-factor estimation and the positive false discovery rate.

Two estimators of the between-species scale live here:

* ``scbn_scaling_factor`` searches for the factor whose conserved-gene
  rejection rate at level alpha is closest to alpha itself.  The objective
  is a piecewise-constant step function of the factor, so the search is a
  log-spaced grid with shrinking refinement windows rather than anything
  derivative-based.

* ``median_scaling_factor`` is the conventional baseline: length- and
  depth-normalized expression per gene, an interquartile filter applied in
  both species, then the ratio of the two medians.  It runs on exact
  rational arithmetic so the documented equivariances hold exactly.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ConservedSet, OrthologTable, ScalingFactor
from .exact_test import _MAX_P0, _MIN_P, binom_twosided_pvalues

__all__ = [
    "GridConfig",
    "ObjectiveValue",
    "ScbnResult",
    "MedianScaleResult",
    "PfdrInputs",
    "empirical_type1_deviation",
    "scbn_scaling_factor",
    "median_scaling_factor",
    "estimate_pfdr",
    "final_grid_log_step",
]

# Grid rows are chunked so the (grid x genes) work arrays stay within a
# few tens of MB regardless of conserved-set size.
_CHUNK_CELLS = 500_000
_WORKERS = min(4, os.cpu_count() or 1)


@dataclass(frozen=True)
class GridConfig:
    """Grid-search settings for the scale estimator.

    The coarse grid spans [center/span, center*span] with log spacing; each
    refinement round re-grids the same number of points over a window whose
    log half-width shrinks by ``refine_shrink`` per round, centered on the
    incumbent.  When ``center`` is unset the median baseline seeds it.
    """

    alpha: float = 0.05
    center: float | None = None
    span: float = 10.0
    coarse_points: int = 1000
    refine_rounds: int = 3
    refine_shrink: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.center is not None and not (self.center > 0.0):
            raise ValueError("grid center must be positive")
        if not (self.span > 1.0):
            raise ValueError("span must exceed 1")
        if self.coarse_points < 10:
            raise ValueError("coarse_points must be >= 10")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if not (0.0 < self.refine_shrink < 1.0):
            raise ValueError("refine_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class ObjectiveValue:
    """Conserved-gene rejection rate and its deviation from the nominal level."""

    deviation: float
    rejection_rate: float


@dataclass(frozen=True)
class ScbnResult:
    factor: ScalingFactor
    objective: ObjectiveValue


@dataclass(frozen=True)
class MedianScaleResult:
    factor: ScalingFactor
    # False when the interquartile filter emptied the gene set and the
    # medians fell back to the unfiltered values.
    iqr_filtered: bool
    kept_genes: int


def final_grid_log_step(grid: GridConfig) -> float:
    """Natural-log spacing of the last refinement grid (tolerance unit)."""
    half_width = np.log(grid.span) * grid.refine_shrink**grid.refine_rounds
    return 2.0 * half_width / (grid.coarse_points - 1)


def _conserved_rows(table: OrthologTable, conserved: ConservedSet) -> np.ndarray:
    """Positions of the testable conserved genes, in table order."""
    wanted = conserved.gene_ids
    in_set = np.fromiter((g in wanted for g in table.gene_ids), dtype=bool, count=len(table))
    return np.flatnonzero(in_set & table.testable)


def _conserved_arrays(table: OrthologTable, conserved: ConservedSet):
    """Testable conserved genes' x1, n, L1*N1 and L2*N2 as float64 arrays."""
    rows = _conserved_rows(table, conserved)
    if rows.size == 0:
        raise ValueError("no testable conserved genes")
    x1 = table.count_sp1[rows].astype(np.float64)
    n = x1 + table.count_sp2[rows]
    l1n1 = table.length_sp1[rows] * float(table.total_sp1)
    l2n2 = table.length_sp2[rows] * float(table.total_sp2)
    return x1, n, l1n1, l2n2


def _deviation_curve(cs, x1, n, l1n1, l2n2, alpha):
    """Rejection rate and |rate - alpha| at every factor in ``cs``.

    Grid points are independent, so chunks run on a small thread pool; each
    lane is the same scalar computation wherever it runs, and chunks are
    written back by position, so the result is bit-identical to a serial
    sweep.
    """
    cs = np.asarray(cs, dtype=np.float64)
    m = x1.size
    rejections = np.empty(cs.size, dtype=np.int64)
    rows = max(1, _CHUNK_CELLS // m)

    def count_block(start: int) -> None:
        block = cs[start : start + rows, None]
        a = block * l1n1
        p0 = np.clip(a / (l2n2 + a), _MIN_P, _MAX_P0)
        p = binom_twosided_pvalues(x1, n, p0)
        rejections[start : start + rows] = (p < alpha).sum(axis=1)

    starts = range(0, cs.size, rows)
    if len(starts) > 1 and _WORKERS > 1:
        with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
            list(pool.map(count_block, starts))
    else:
        for start in starts:
            count_block(start)
    rate = rejections / m
    return rate, np.abs(rate - alpha)


def empirical_type1_deviation(
    table: OrthologTable,
    conserved: ConservedSet,
    c: ScalingFactor,
    alpha: float = 0.05,
) -> ObjectiveValue:
    """Deviation of the conserved-gene rejection rate from alpha at factor c.

    Untestable conserved genes are dropped and the denominator reduced
    accordingly.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    x1, n, l1n1, l2n2 = _conserved_arrays(table, conserved)
    rate, dev = _deviation_curve(np.asarray([c.c]), x1, n, l1n1, l2n2, alpha)
    return ObjectiveValue(deviation=float(dev[0]), rejection_rate=float(rate[0]))


def scbn_scaling_factor(
    table: OrthologTable,
    conserved: ConservedSet,
    grid: GridConfig = GridConfig(),
) -> ScbnResult:
    """Estimate the scale whose conserved rejection rate sits nearest alpha.

    Deterministic for fixed inputs.  The minimizing set of the step-function
    objective is a union of grid intervals; ties break to the (lower) median
    grid point of that set, which is stable under small grid perturbations.
    """
    x1, n, l1n1, l2n2 = _conserved_arrays(table, conserved)

    if grid.center is not None:
        center = grid.center
    else:
        center = median_scaling_factor(table, conserved).factor.c

    log_center = np.log(center)
    half_width = np.log(grid.span)
    best_rate = 0.0
    best_dev = np.inf
    for round_idx in range(grid.refine_rounds + 1):
        h = half_width * grid.refine_shrink**round_idx
        cs = np.exp(np.linspace(log_center - h, log_center + h, grid.coarse_points))
        rate, dev = _deviation_curve(cs, x1, n, l1n1, l2n2, grid.alpha)
        # Distinct rejection counts give deviations at least 1/m apart, so a
        # 1e-12 slack merges only rounding-split exact ties (e.g. counts
        # equidistant from m*alpha on both sides).
        minima = np.flatnonzero(dev <= dev.min() + 1e-12)
        pick = minima[(minima.size - 1) // 2]
        log_center = np.log(cs[pick])
        best_rate = float(rate[pick])
        best_dev = float(dev[pick])

    factor = ScalingFactor(float(np.exp(log_center)))
    return ScbnResult(
        factor=factor,
        objective=ObjectiveValue(deviation=best_dev, rejection_rate=best_rate),
    )


def _quantile(sorted_vals: Sequence[Fraction], prob: Fraction) -> Fraction:
    # Linear interpolation between order statistics (numpy's default rule),
    # on exact rationals.
    pos = (len(sorted_vals) - 1) * prob
    j = int(pos)
    g = pos - j
    if g == 0:
        return sorted_vals[j]
    return sorted_vals[j] * (1 - g) + sorted_vals[j + 1] * g


def _expression(counts: np.ndarray, lengths: np.ndarray, total: int) -> list[Fraction]:
    # count / (length * total) on Python ints (tolist), exact beyond int64.
    return [Fraction(x, length * total) for x, length in zip(counts.tolist(), lengths.tolist())]


def median_scaling_factor(table: OrthologTable, conserved: ConservedSet) -> MedianScaleResult:
    """Median-expression baseline estimate of the scaling factor.

    Per-gene normalized expression is count / (length * depth).  Conserved
    genes whose expression falls inside the interquartile range in BOTH
    species are kept; the factor is median(e1) / median(e2) over the kept
    genes.  All arithmetic is exact until the final float conversion, so
    rescaling every species-1 length by k rescales the result by exactly 1/k.
    """
    rows = _conserved_rows(table, conserved)
    if rows.size < 4:
        raise ValueError(f"median baseline needs >= 4 testable conserved genes, got {rows.size}")
    e1 = _expression(table.count_sp1[rows], table.length_sp1[rows], table.total_sp1)
    e2 = _expression(table.count_sp2[rows], table.length_sp2[rows], table.total_sp2)

    s1 = sorted(e1)
    s2 = sorted(e2)
    q1_1, q3_1 = _quantile(s1, Fraction(1, 4)), _quantile(s1, Fraction(3, 4))
    q1_2, q3_2 = _quantile(s2, Fraction(1, 4)), _quantile(s2, Fraction(3, 4))

    kept = [
        i
        for i in range(len(e1))
        if q1_1 <= e1[i] <= q3_1 and q1_2 <= e2[i] <= q3_2
    ]
    iqr_filtered = True
    med1 = med2 = Fraction(0)
    if kept:
        med1 = _quantile(sorted(e1[i] for i in kept), Fraction(1, 2))
        med2 = _quantile(sorted(e2[i] for i in kept), Fraction(1, 2))
    if not kept or med1 == 0 or med2 == 0:
        # The filter degenerated (nothing kept, or a kept-set median of
        # zero); fall back to the unfiltered medians, flagged.
        kept = list(range(len(e1)))
        iqr_filtered = False
        med1 = _quantile(sorted(e1), Fraction(1, 2))
        med2 = _quantile(sorted(e2), Fraction(1, 2))
    if med1 == 0 or med2 == 0:
        raise ValueError("median conserved expression is zero in one species")
    return MedianScaleResult(
        factor=ScalingFactor(float(med1 / med2)),
        iqr_filtered=iqr_filtered,
        kept_genes=len(kept),
    )


@dataclass(frozen=True)
class PfdrInputs:
    """Known priors plus p-value collections for the null and alternative sets."""

    prior_h0: float
    prior_h1: float
    pvalues_null: tuple[float, ...]
    pvalues_alt: tuple[float, ...]
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.prior_h0 <= 1.0 and 0.0 <= self.prior_h1 <= 1.0):
            raise ValueError("priors must lie in [0, 1]")
        if abs(self.prior_h0 + self.prior_h1 - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1 within 1e-12")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if len(self.pvalues_null) == 0 or len(self.pvalues_alt) == 0:
            raise ValueError("both p-value collections must be non-empty")
        for p in (*self.pvalues_null, *self.pvalues_alt):
            if not (0.0 < p <= 1.0):
                raise ValueError(f"p-values must lie in (0, 1], got {p!r}")


def estimate_pfdr(inputs: PfdrInputs) -> float | None:
    """Positive false discovery rate from empirical rejection probabilities.

    Returns None when nothing is rejected in either set (the rate is then
    undefined rather than zero).
    """
    null = np.asarray(inputs.pvalues_null, dtype=np.float64)
    alt = np.asarray(inputs.pvalues_alt, dtype=np.float64)
    r0 = float((null < inputs.alpha).mean())
    r1 = float((alt < inputs.alpha).mean())
    numerator = inputs.prior_h0 * r0
    denominator = numerator + inputs.prior_h1 * r1
    if denominator == 0.0:
        return None
    return numerator / denominator
