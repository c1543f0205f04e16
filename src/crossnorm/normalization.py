"""Scaling-factor estimation.

Two estimators of the between-species scale live here:

* ``scbn_scaling_factor`` searches for the factor whose conserved-gene
  rejection rate at level alpha is closest to alpha itself.  The objective
  is a piecewise-constant step function of the factor, so the search is a
  log-spaced grid with shrinking refinement windows rather than anything
  derivative-based.  Each round counts rejections without testing every
  (gene, factor) cell: a run of grid points whose end-point bounds
  (``exact_test._interval_verdicts``) both fall on one side of alpha adds
  its whole count at once; any other run is split in four, and runs of at
  most four points are tested cell by cell (``exact_test._rejects``).  The
  splitting is a branch-and-bound: the proven and still-open genes bound
  every grid point's count, and the deviation |count/m - alpha| is
  V-shaped in the count, so a point whose deviation is bound to exceed
  some other point's, or the exact deviation of the one point counted
  early next to the window's center, by more than the fit's tie slack can
  never be picked, and its open runs are dropped.  Every other point gets
  the count a dense sweep gives, so the fit equals that of counting every
  point exactly, and betainc runs mainly on the few cells near a gene's
  decision change at the points that can hold the minimum.  How the tails
  are evaluated, and why each run bound and cell decision is the kernel's
  own, is set out in ``exact_test``.  The objective the fit reports at its
  pick, and ``empirical_type1_deviation`` at any one factor, are both
  ``_objective`` of an exact count.

* ``median_scaling_factor`` is the conventional baseline: length- and
  depth-normalized expression per gene, an interquartile filter applied in
  both species, then the ratio of the two medians.  Its result is that of
  exact rational arithmetic, so the documented equivariances hold exactly,
  but it sorts no rationals: genes are ordered by a float64 count/length
  key, and exact ``Fraction``s are built only to settle float ties, for the
  genes whose key ties a needed order statistic or a quartile's float.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .core import ConservedSet, OrthologTable, ScalingFactor, _store_numbers
from .exact_test import (_MAX_BOUNDED_N, _MAX_P0, _checked_p0, _gene_inputs, _interval_verdicts,
                         _p0, _rejects)

__all__ = [
    "GridConfig",
    "ObjectiveValue",
    "ScbnResult",
    "MedianScaleResult",
    "empirical_type1_deviation",
    "scbn_scaling_factor",
    "median_scaling_factor",
    "final_grid_log_step",
]

# Grid-index intervals at most this many cells wide are tested cell by cell.
_LEAF_WIDTH = 4
# An undecided interval is split into this many parts (at most _LEAF_WIDTH).
_SPLIT = 4
# The fit's minimizing set is every grid point within this deviation of the
# minimum.  Distinct rejection counts give deviations at least 1/m apart, so
# the slack merges only rounding-split exact ties (e.g. counts equidistant
# from m*alpha on both sides).
_MERGE_SLACK = 1e-12
# The most grid points a round may have.  A round holds about 120 bytes per
# grid point (measured on a 40-gene table), so this keeps it near 120 MB.
MAX_COARSE_POINTS = 10**6


@dataclass(frozen=True)
class GridConfig:
    """Grid-search settings for the scale estimator.

    The coarse grid spans [center/span, center*span] with log spacing; each
    refinement round re-grids the same number of points over a window whose
    log half-width shrinks by the constant ``refine_shrink`` per round,
    centered on the incumbent.  When ``center`` is unset the median
    baseline seeds it.
    Types are checked before ranges (``core._store_numbers``):
    ``coarse_points`` and ``refine_rounds`` take integral numbers, the other
    fields real ones (numpy scalars pass, bools do not), stored as Python
    numbers.  ``coarse_points`` lies in [10, MAX_COARSE_POINTS].
    """

    alpha: float = 0.05
    center: float | None = None
    span: float = 10.0
    coarse_points: int = 1000
    refine_rounds: int = 3
    refine_shrink: ClassVar[float] = 0.1

    def __post_init__(self) -> None:
        _store_numbers(self, center="grid center")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.center is not None and not (0.0 < self.center < np.inf):
            raise ValueError("grid center must be positive and finite")
        if not (1.0 < self.span < np.inf):
            raise ValueError("span must exceed 1 and be finite")
        if self.coarse_points < 10:
            raise ValueError("coarse_points must be >= 10")
        if self.coarse_points > MAX_COARSE_POINTS:
            raise ValueError(f"coarse_points must be <= {MAX_COARSE_POINTS}")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")


@dataclass(frozen=True)
class ObjectiveValue:
    """Conserved-gene rejection rate and its deviation from the nominal level."""

    deviation: float
    rejection_rate: float


@dataclass(frozen=True)
class ScbnResult:
    factor: ScalingFactor
    objective: ObjectiveValue
    # True when the coarse round's minimizing set reaches its first or last
    # grid point: the optimum may then lie outside [center/span, center*span].
    window_edge: bool


@dataclass(frozen=True)
class MedianScaleResult:
    factor: ScalingFactor
    # False when the interquartile filter emptied the gene set and the
    # medians fell back to the unfiltered values.
    iqr_filtered: bool
    kept_genes: int


def _half_widths(grid: GridConfig) -> list[float]:
    """The natural-log half-width of each round's grid, coarse round first."""
    h = np.log(grid.span)
    return [h * grid.refine_shrink**k for k in range(grid.refine_rounds + 1)]


def final_grid_log_step(grid: GridConfig) -> float:
    """Natural-log spacing of the last refinement grid (tolerance unit)."""
    return 2.0 * _half_widths(grid)[-1] / (grid.coarse_points - 1)


def _check_window(log_center: float, grid: GridConfig, l1n1, l2n2) -> None:
    """Raise ValueError unless c > 0 and c*L1*N1 + L2*N2 is finite on every
    round, and round 0 brings some gene's p0 more than 2**-53 (the gap
    between ``_MAX_P0`` and 1) away from 1 and, likewise, away from 0."""
    h = np.log(grid.span)
    reach = sum(_half_widths(grid))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        lo, hi = np.exp([log_center - reach, log_center + reach])
        p_lo, p_hi = _p0(np.exp([[log_center - h], [log_center + h]]), l1n1, l2n2)
        if not (lo > 0.0 and np.isfinite(hi * l1n1.max() + l2n2.max())
                and p_lo.min() < _MAX_P0 and p_hi.max() > 1.0 - _MAX_P0):
            raise ValueError("the grid window overflows or pins every conserved gene's null "
                             "probability at 0 or 1; narrow the span or move the center")


def _conserved_rows(table: OrthologTable, conserved: ConservedSet) -> np.ndarray:
    """Positions of the testable conserved genes, in table order."""
    wanted = conserved.gene_ids
    in_set = np.fromiter(map(wanted.__contains__, table.gene_ids), dtype=bool, count=len(table))
    return np.flatnonzero(in_set & table.testable)


def _conserved_arrays(table: OrthologTable, rows: np.ndarray):
    """``exact_test._gene_inputs`` at ``rows`` (see _conserved_rows), not empty."""
    if rows.size == 0:
        raise ValueError("no testable conserved genes")
    return _gene_inputs(table, rows)


def _deviation(counts, m, alpha):
    """The fit's objective |count/m - alpha| in float64.  fl(k/m) - alpha
    is monotone in k, so the result is V-shaped in k."""
    return np.abs(counts / m - alpha)


def _objective(count, m, alpha) -> ObjectiveValue:
    """The objective at a factor where ``count`` of ``m`` conserved genes reject."""
    return ObjectiveValue(float(_deviation(count, m, alpha)), float(count / m))


def _coverage(left, right, points):
    """Number of the index intervals [left, right] that cover each cell."""
    ends = np.bincount(left, minlength=points + 1) - np.bincount(right + 1, minlength=points + 1)
    return np.cumsum(ends[:-1])


def _rejection_counts(cs, x1, n, l1n1, l2n2, alpha):
    """Number of genes with p < alpha at each factor of the ascending ``cs``
    that can hold the minimum of the fit's deviation, and the mask of those
    cells.  Counts at the other cells are only lower bounds.

    Each gene starts with the whole grid as one interval of grid indices.
    An interval its end-point bounds decide adds its whole run to the
    proven counts; any other interval is split into _SPLIT parts.
    Intervals at most _LEAF_WIDTH wide are counted cell by cell with
    _rejects, the kernel's p < alpha, on the same p0 expression, so a kept
    cell's count equals a dense sweep's.

    The splitting is a branch-and-bound over cells.  Before each level,
    a cell's count lies in [lo, hi]: lo is its proven count, and every open
    (gene, interval) pair that covers it adds 1 to hi.  The fit's float
    deviation is V-shaped in the count (see _deviation), so on [lo, hi] it
    is at most the larger of its two end values, and at least the smaller
    one; when alpha*m lies within one count of [lo, hi] the lower bound is
    taken as 0 instead, so rounding in k/m cannot matter.  The smallest
    upper bound is at least the minimum deviation, and so is the exact
    deviation of any one cell: the incumbent, points // 2, next to the
    grid's center, is counted exactly after the first level by testing the
    genes still open there.  scbn_scaling_factor keeps every cell within
    _MERGE_SLACK of that minimum, by the same float expressions.  A cell
    whose lower bound exceeds the smaller of the two plus _MERGE_SLACK can
    therefore never join the minimizing set: it is dropped, with every open
    pair that covers only dropped cells.  Bounds only tighten, so a dropped
    cell stays dropped, and every kept cell ends with its exact count.  A
    grid of at most _LEAF_WIDTH points is counted cell by cell at the first
    level, with no pruning and no incumbent, so every cell is kept and its
    count exact.
    """
    points, m = cs.size, x1.size
    proven = np.zeros(points, dtype=np.int64)
    kept = np.ones(points, dtype=bool)
    gene = np.arange(m)
    left = np.zeros(m, dtype=np.int64)
    right = np.full(m, points - 1, dtype=np.int64)
    incumbent, level = np.inf, 0
    while gene.size:
        if level == 1:
            # Level 0 gives every cell the same bounds and drops nothing, so
            # the proven count plus the open genes' tests is mid's count.
            mid = points // 2
            at = gene[(left <= mid) & (mid <= right)]
            rejects = _rejects(x1[at], n[at], _p0(cs[mid], l1n1[at], l2n2[at]), alpha)
            incumbent = _deviation(proven[mid] + np.count_nonzero(rejects), m, alpha)
        level += 1
        hi = proven + _coverage(left, right, points)
        d_lo, d_hi = _deviation(proven, m, alpha), _deviation(hi, m, alpha)
        straddles = (proven - 1 <= alpha * m) & (alpha * m <= hi + 1)
        lower = np.where(straddles, 0.0, np.minimum(d_lo, d_hi))
        kept &= lower <= min(np.maximum(d_lo, d_hi)[kept].min(), incumbent) + _MERGE_SLACK
        live = np.concatenate(([0], np.cumsum(kept)))
        covers = live[right + 1] > live[left]
        gene, left, right = gene[covers], left[covers], right[covers]

        leaf = right - left < _LEAF_WIDTH
        if leaf.any():
            cell = left[leaf, None] + np.arange(_LEAF_WIDTH)
            inside = cell <= right[leaf, None]
            inside[inside] = kept[cell[inside]]
            at = np.broadcast_to(gene[leaf, None], cell.shape)[inside]
            cell = cell[inside]
            rejects = _rejects(x1[at], n[at], _p0(cs[cell], l1n1[at], l2n2[at]), alpha)
            proven += np.bincount(cell[rejects], minlength=points)

        gene, left, right = gene[~leaf], left[~leaf], right[~leaf]
        if not gene.size:
            break
        verdict = _interval_verdicts(
            x1[gene], n[gene],
            _p0(cs[left], l1n1[gene], l2n2[gene]),
            _p0(cs[right], l1n1[gene], l2n2[gene]),
            alpha,
        )
        verdict[n[gene] >= _MAX_BOUNDED_N] = 0
        run = verdict > 0
        proven += _coverage(left[run], right[run], points)
        split = verdict == 0
        gene, left, right = gene[split], left[split], right[split]
        # Non-leaf intervals hold more than _SPLIT cells, so no part is empty.
        ends = left[:, None] + (right - left + 1)[:, None] * np.arange(_SPLIT + 1) // _SPLIT
        gene = np.repeat(gene, _SPLIT)
        left, right = ends[:, :-1].ravel(), ends[:, 1:].ravel() - 1
    return proven, kept


def empirical_type1_deviation(
    table: OrthologTable,
    conserved: ConservedSet,
    c: ScalingFactor,
    alpha: float = 0.05,
) -> ObjectiveValue:
    """Deviation of the conserved-gene rejection rate from alpha at factor c.

    Untestable conserved genes are dropped and the denominator reduced
    accordingly.  A factor at which c*L1*N1 + L2*N2 overflows raises
    ValueError.
    """
    GridConfig(alpha=alpha)  # the one check of alpha
    x1, n, l1n1, l2n2 = _conserved_arrays(table, _conserved_rows(table, conserved))
    count = np.count_nonzero(_rejects(x1, n, _checked_p0(c.c, l1n1, l2n2), alpha))
    return _objective(count, x1.size, alpha)


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
    return _scbn_fit(table, _conserved_rows(table, conserved), grid)


def _scbn_fit(table: OrthologTable, rows: np.ndarray, grid: GridConfig,
              median: MedianScaleResult | None = None) -> ScbnResult:
    """scbn_scaling_factor over the genes at ``rows`` (see _conserved_rows).
    If ``grid`` sets no center, the center is the factor of ``median``, the
    median fit over the same rows, which is made here first if not given."""
    center = grid.center
    if center is None:
        center = (median or _median_factor(table, rows)).factor.c
    x1, n, l1n1, l2n2 = _conserved_arrays(table, rows)
    log_center = np.log(center)
    _check_window(log_center, grid, l1n1, l2n2)
    minima = []  # each round's minimizing set
    for h in _half_widths(grid):
        cs = np.exp(np.linspace(log_center - h, log_center + h, grid.coarse_points))
        counts, kept = _rejection_counts(cs, x1, n, l1n1, l2n2, grid.alpha)
        dev = np.where(kept, _deviation(counts, x1.size, grid.alpha), np.inf)
        minima.append(np.flatnonzero(dev <= dev.min() + _MERGE_SLACK))
        pick = minima[-1][(minima[-1].size - 1) // 2]
        log_center = np.log(cs[pick])
    return ScbnResult(
        factor=ScalingFactor(np.exp(log_center)),
        objective=_objective(counts[pick], x1.size, grid.alpha),
        window_edge=bool(minima[0][0] == 0 or minima[0][-1] == grid.coarse_points - 1),
    )


class _RankedRatios:
    """One species' count/length ratios, ranked by their float64 values.

    Counts and lengths below 2**53 are exact in float64 and the quotient is
    correctly rounded, so the float key is monotone in the exact ratio: it
    never orders two genes against their ratios, it can only tie them.
    Exact ``Fraction``s are built only to settle such ties.
    """

    def __init__(self, counts: np.ndarray, lengths: np.ndarray) -> None:
        self.counts = counts
        self.lengths = lengths
        self.key = counts / lengths
        self.order = np.argsort(self.key, kind="stable")

    def _exact(self, genes: np.ndarray) -> list[Fraction]:
        # Python ints (tolist), so nothing wraps.
        return list(map(Fraction, self.counts[genes].tolist(), self.lengths[genes].tolist()))

    def quantile(self, prob: Fraction, kept: np.ndarray | None = None) -> Fraction:
        """Exact ``prob`` quantile over the ``kept`` genes (default all): linear
        interpolation between order statistics (numpy's default rule)."""
        ranked = self.order if kept is None else self.order[kept[self.order]]
        ranked_key = self.key[ranked]

        def order_stat(j: int) -> Fraction:
            # Sort only the run of genes whose key ties the j-th one.
            lo = int(np.searchsorted(ranked_key, ranked_key[j], side="left"))
            hi = int(np.searchsorted(ranked_key, ranked_key[j], side="right"))
            return sorted(self._exact(ranked[lo:hi]))[j - lo]

        pos = (ranked.size - 1) * prob
        j = int(pos)
        g = pos - j
        if g == 0:
            return order_stat(j)
        return order_stat(j) * (1 - g) + order_stat(j + 1) * g

    def within(self, low: Fraction, high: Fraction) -> np.ndarray:
        """Genes with low <= count/length <= high, exactly.

        Rounding is monotone, so a key strictly between float(low) and
        float(high) is inside and one strictly beyond either is outside;
        only keys equal to one of the two floats are compared exactly.
        """
        f_low, f_high = float(low), float(high)
        inside = (self.key > f_low) & (self.key < f_high)
        ties = np.flatnonzero((self.key == f_low) | (self.key == f_high))
        inside[ties] = [low <= e <= high for e in self._exact(ties)]
        return inside


def median_scaling_factor(table: OrthologTable, conserved: ConservedSet) -> MedianScaleResult:
    """Median-expression baseline estimate of the scaling factor.

    Per-gene normalized expression is count / (length * depth).  Conserved
    genes whose expression falls inside the interquartile range in BOTH
    species are kept; the factor is median(e1) / median(e2) over the kept
    genes.  All arithmetic is exact until the final float conversion, so
    rescaling every species-1 length by k rescales the result by exactly 1/k.
    The depth is common to a species' genes, so ordering, quartiles and the
    window use count / length; the depths enter only the final ratio.
    """
    return _median_factor(table, _conserved_rows(table, conserved))


def _median_factor(table: OrthologTable, rows: np.ndarray) -> MedianScaleResult:
    """median_scaling_factor over the genes at ``rows`` (see _conserved_rows)."""
    if rows.size < 4:
        raise ValueError(f"median baseline needs >= 4 testable conserved genes, got {rows.size}")
    r1 = _RankedRatios(table.count_sp1[rows], table.length_sp1[rows])
    r2 = _RankedRatios(table.count_sp2[rows], table.length_sp2[rows])

    q1, q3 = Fraction(1, 4), Fraction(3, 4)
    kept = r1.within(r1.quantile(q1), r1.quantile(q3)) & r2.within(r2.quantile(q1), r2.quantile(q3))
    kept_genes = int(kept.sum())
    iqr_filtered = True
    med1 = med2 = Fraction(0)
    if kept_genes:
        med1 = r1.quantile(Fraction(1, 2), kept)
        med2 = r2.quantile(Fraction(1, 2), kept)
    if not kept_genes or med1 == 0 or med2 == 0:
        # The filter degenerated (nothing kept, or a kept-set median of
        # zero); fall back to the unfiltered medians, flagged.
        kept_genes = rows.size
        iqr_filtered = False
        med1 = r1.quantile(Fraction(1, 2))
        med2 = r2.quantile(Fraction(1, 2))
    if med1 == 0 or med2 == 0:
        raise ValueError("median conserved expression is zero in one species")
    return MedianScaleResult(
        factor=ScalingFactor((med1 / table.total_sp1) / (med2 / table.total_sp2)),
        iqr_filtered=iqr_filtered,
        kept_genes=kept_genes,
    )
