import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossnorm import normalization
from crossnorm.core import ConservedSet, ScalingFactor, validate_table
from crossnorm.exact_test import (
    _ALPHA_MARGIN,
    _MAX_BOUNDED_N,
    _MAX_P0,
    _MIN_P,
    _P0_WIDEN,
    _interval_verdicts,
    _mirror,
    _p0,
    _tail_edges,
    binom_twosided_pvalues,
    null_prob_values,
)
from crossnorm.normalization import (
    _LEAF_WIDTH,
    GridConfig,
    MedianScaleResult,
    ObjectiveValue,
    ScbnResult,
    _check_window,
    _conserved_arrays,
    _conserved_rows,
    _rejection_counts,
    empirical_type1_deviation,
    final_grid_log_step,
    median_scaling_factor,
    scbn_scaling_factor,
)
from reference_tails import _binom_cdf, _binom_sf
from rowtable import table_of

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _table_with_conserved(rows, conserved_ids):
    return table_of(rows), ConservedSet(frozenset(conserved_ids))


def _balanced(gene_id, count, length=500):
    return (gene_id, length, length, count, count)


def _extreme(gene_id, count, length=500):
    # all reads in species 1: p-value ~ 2^-(count-1) at p0 = 1/2
    return (gene_id, length, length, count, 0)


def _outcome(fit, *args):
    """The fit's result, or its ValueError message."""
    try:
        return fit(*args)
    except ValueError as exc:
        return str(exc)


def _null_poisson_table(rng, m, c_true, conserved_reads=3.0e5, depth=1.0e6, length=1000):
    """Conserved null genes obeying the mean model at scale c_true, padded with
    filler genes so both species' totals stay near the depth."""
    mu = rng.lognormal(0, 1.5, m)
    lam1 = mu / mu.sum() * conserved_reads
    lam2 = lam1 / c_true
    x1 = rng.poisson(lam1)
    x2 = rng.poisson(lam2)
    nf = 2 * m
    w1 = rng.lognormal(0, 1.5, nf)
    w2 = rng.lognormal(0, 1.5, nf)
    f1 = rng.poisson(w1 / w1.sum() * (depth - conserved_reads))
    f2 = rng.poisson(w2 / w2.sum() * (depth - conserved_reads / c_true))
    records = [
        (f"c{i:05d}", length, length, int(x1[i]), int(x2[i])) for i in range(m)
    ]
    records += [
        (f"f{i:05d}", length, length, int(f1[i]), int(f2[i])) for i in range(nf)
    ]
    return _table_with_conserved(records, [f"c{i:05d}" for i in range(m)])


# ---------------------------------------------------------------------------
# Objective (empirical type-I deviation)
# ---------------------------------------------------------------------------


def test_no_rejections_gives_deviation_alpha():
    records = [_balanced(f"g{i}", 10 + i) for i in range(20)]
    table, conserved = _table_with_conserved(records, [r[0] for r in records])
    value = empirical_type1_deviation(table, conserved, ScalingFactor(1.0), alpha=0.05)
    assert value.rejection_rate == 0.0
    assert value.deviation == 0.05


def test_exact_nominal_rate_gives_zero_deviation():
    # 95 perfectly balanced genes (p = 1) plus 5 one-sided genes (p ~ 2e-12);
    # a filler gene outside the conserved set equalizes the species totals so
    # the null probability is exactly 1/2 at c = 1.
    records = [_balanced(f"b{i}", 12) for i in range(95)]
    records += [_extreme(f"e{i}", 40) for i in range(5)]
    records.append(("filler", 500, 500, 0, 200))
    table, conserved = _table_with_conserved(records, [r[0] for r in records[:-1]])
    value = empirical_type1_deviation(table, conserved, ScalingFactor(1.0), alpha=0.05)
    assert value.rejection_rate == pytest.approx(0.05, abs=1e-15)
    assert value.deviation == pytest.approx(0.0, abs=1e-15)


def test_three_of_ten_rejections():
    records = [_balanced(f"b{i}", 12) for i in range(7)]
    records += [_extreme(f"e{i}", 40) for i in range(3)]
    records.append(("filler", 500, 500, 0, 120))
    table, conserved = _table_with_conserved(records, [r[0] for r in records[:-1]])
    value = empirical_type1_deviation(table, conserved, ScalingFactor(1.0), alpha=0.05)
    assert value.rejection_rate == pytest.approx(0.3, abs=1e-15)
    assert value.deviation == pytest.approx(0.25, abs=1e-15)


def test_untestable_conserved_genes_reduce_m():
    records = [_balanced("b0", 12), _balanced("b1", 12), ("z", 100, 100, 0, 0)]
    table, conserved = _table_with_conserved(records, ["b0", "b1", "z"])
    value = empirical_type1_deviation(table, conserved, ScalingFactor(1.0), alpha=0.05)
    assert value.rejection_rate == 0.0  # z dropped, m = 2


def test_all_untestable_conserved_is_an_error():
    records = [_balanced("b0", 12), ("z", 100, 100, 0, 0)]
    table, conserved = _table_with_conserved(records, ["z"])
    with pytest.raises(ValueError):
        empirical_type1_deviation(table, conserved, ScalingFactor(1.0))


def test_objective_evaluation_is_deterministic():
    rng = np.random.default_rng(12)
    table, conserved = _null_poisson_table(rng, 300, 1.2)
    a = empirical_type1_deviation(table, conserved, ScalingFactor(1.11), alpha=0.05)
    b = empirical_type1_deviation(table, conserved, ScalingFactor(1.11), alpha=0.05)
    assert a == b


def test_deviation_smallest_at_true_factor_in_expectation():
    # Monte Carlo over replicates: the deviation at c_true beats the
    # deviation at 2*c_true and c_true/2 on average.
    c_true = 1.3
    at_true, away = [], []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        table, conserved = _null_poisson_table(
            rng, 200, c_true, conserved_reads=6.0e4, depth=2.0e5
        )
        at_true.append(
            empirical_type1_deviation(table, conserved, ScalingFactor(c_true)).deviation
        )
        away.append(
            min(
                empirical_type1_deviation(table, conserved, ScalingFactor(2 * c_true)).deviation,
                empirical_type1_deviation(table, conserved, ScalingFactor(c_true / 2)).deviation,
            )
        )
    assert np.mean(at_true) < np.mean(away)


# ---------------------------------------------------------------------------
# Rejection counts over a grid, against a dense cell-by-cell sweep
# ---------------------------------------------------------------------------


def _dense_rejection_counts(cs, x1, n, l1n1, l2n2, alpha):
    """Oracle: every (factor, gene) cell through the kernel."""
    p0 = null_prob_values(cs[:, None], l1n1, l2n2, 1, 1)
    return (binom_twosided_pvalues(x1, n, p0) < alpha).sum(axis=1)


@st.composite
def _grid_count_cases(draw, deep=False):
    # Each gene's null mean sits near x1 at the grid center, so decisions
    # change inside the window.  A tie case has equal L*N in both species and
    # its grid hits c = 1 exactly, where p0 is exactly 1/2.  Deep cases put
    # x1 up to 40 sd from the center's null mean, or at 0 or n.
    tie = draw(st.booleans())
    center = 1.0 if tie else draw(st.floats(0.1, 10.0))
    max_n = draw(st.sampled_from([5, 10**7, 2**42]))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        n = draw(st.integers(1, max_n))
        f = 0.5 if tie else draw(st.floats(0.02, 0.98))
        z = draw(st.floats(-40.0, 40.0) if deep else st.floats(-8.0, 8.0))
        x1 = min(n, max(0, round(n * f + z * math.sqrt(n * f * (1 - f)))))
        if deep and draw(st.booleans()):
            x1 = draw(st.sampled_from([0, n]))
        l1n1 = float(draw(st.integers(1, 10**10)))
        rows.append((x1, n, l1n1, l1n1 * (center * (1 - f) / f)))
    columns = tuple(np.asarray(col, dtype=np.float64) for col in zip(*rows))
    points = draw(st.integers(1, 400))
    span = draw(st.floats(1.01, 30.0))
    alpha = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    return columns, center, span, points, alpha


def _assert_counts_match_a_dense_sweep(cs, x1, n, l1n1, l2n2, alpha):
    """Kept cells carry the dense count, a dropped cell's dense deviation is
    above the dense minimum plus the merge slack, and so the minimizing set
    is the dense one.  Returns the dense deviations."""
    want = _dense_rejection_counts(cs, x1, n, l1n1, l2n2, alpha)
    counts, kept = _rejection_counts(cs, x1, n, l1n1, l2n2, alpha)
    assert counts[kept].tolist() == want[kept].tolist()
    dense_dev = np.abs(want / x1.size - alpha)
    assert (dense_dev[~kept] > dense_dev.min() + 1e-12).all()
    got_dev = np.where(kept, np.abs(counts / x1.size - alpha), np.inf)
    assert (np.flatnonzero(got_dev <= got_dev.min() + 1e-12).tolist()
            == np.flatnonzero(dense_dev <= dense_dev.min() + 1e-12).tolist())
    return dense_dev


@given(_grid_count_cases())
@settings(max_examples=150, deadline=None)
def test_rejection_counts_match_a_dense_sweep_on_every_round(case):
    (x1, n, l1n1, l2n2), center, span, points, alpha = case
    grid = GridConfig()
    for round_idx in range(grid.refine_rounds + 1):
        h = math.log(span) * grid.refine_shrink**round_idx
        cs = np.exp(np.linspace(math.log(center) - h, math.log(center) + h, points))
        if center == 1.0 and points % 2:
            cs[points // 2] = 1.0
        _assert_counts_match_a_dense_sweep(cs, x1, n, l1n1, l2n2, alpha)


def test_rejection_counts_on_one_point_grids():
    # empirical_type1_deviation's grid: one factor, no pruning, no incumbent.
    table, conserved = _null_poisson_table(np.random.default_rng(4), 40, 1.3)
    arrays = _conserved_arrays(table, _conserved_rows(table, conserved))
    for c in (0.5, 1.0, 1.3, 2.0):
        counts, kept = _rejection_counts(np.array([c]), *arrays, 0.05)
        assert kept.tolist() == [True]
        assert counts.tolist() == _dense_rejection_counts(np.array([c]), *arrays, 0.05).tolist()


def test_interval_verdicts_never_receive_zero_intervals(monkeypatch):
    # A level whose intervals were all leaves ends the loop: the one-point
    # and four-point grids are all leaves at the first level, and every fit
    # counts its last leaves at some level.
    sizes = []

    def recorded(x1, *args):
        sizes.append(x1.size)
        return _interval_verdicts(x1, *args)

    monkeypatch.setattr(normalization, "_interval_verdicts", recorded)
    table, conserved = _null_poisson_table(np.random.default_rng(5), 200, 1.2)
    arrays = _conserved_arrays(table, _conserved_rows(table, conserved))
    for points in (1, _LEAF_WIDTH):
        _rejection_counts(np.linspace(1.0, 1.4, points), *arrays, 0.05)
    empirical_type1_deviation(table, conserved, ScalingFactor(1.2))
    assert sizes == []
    for grid in (GridConfig(), GridConfig(center=1.0, span=1.2, coarse_points=10)):
        want = _reference_scbn_scaling_factor(table, conserved, grid)
        assert scbn_scaling_factor(table, conserved, grid) == want
    assert sizes and min(sizes) > 0


def _reference_two_tail_bound(x, n, below, q_obs, q_far):
    """Observed tail at q_obs plus the far tail, each side on its own boolean
    subset with its own _binom_cdf/_binom_sf pair, both tails on every row."""
    _, lo, hi = _tail_edges(x, n, q_obs)
    bound = np.empty(x.size)
    b, a = below, ~below
    bound[b] = _binom_cdf(x[b], n[b], 1.0 - q_obs[b]) + np.where(
        hi[b] <= n[b], _binom_sf(hi[b], n[b], q_far[b]), 0.0)
    bound[a] = _binom_sf(x[a], n[a], q_obs[a]) + np.where(
        lo[a] >= 0.0, _binom_cdf(np.clip(lo[a], 0.0, None), n[a], 1.0 - q_far[a]), 0.0)
    return bound


def _reference_interval_verdicts(x1, n, p_lo, p_hi, alpha):
    """Reference: _interval_verdicts evaluating every tail of every bound, with
    the kernel's _mirror at both ends."""
    p_lo = np.clip(p_lo * (1.0 - _P0_WIDEN), _MIN_P, _MAX_P0)
    p_hi = np.clip(p_hi * (1.0 + _P0_WIDEN), _MIN_P, _MAX_P0)
    accept_at = alpha * (1.0 + _ALPHA_MARGIN)
    reject_at = alpha * (1.0 - _ALPHA_MARGIN)
    verdict = np.zeros(x1.size, dtype=np.int8)
    x, qa = _mirror(x1, n, p_lo)
    _, qb = _mirror(x1, n, p_hi)
    q1, q2 = np.minimum(qa, qb), np.maximum(qa, qb)
    below = n * q1 - x >= 1.0
    is_sided = ((p_hi < 0.5) | (p_lo > 0.5)) & (below | (x - n * q2 >= 1.0))
    sided = np.flatnonzero(is_sided)
    x, n_s, below = x[sided], n[sided], below[sided]
    near = np.where(below, q1[sided], q2[sided])
    far = np.where(below, q2[sided], q1[sided])
    lower = _reference_two_tail_bound(x, n_s, below, far, near)
    verdict[sided[lower >= accept_at]] = -1
    open_ = lower < accept_at
    upper = _reference_two_tail_bound(x[open_], n_s[open_], below[open_], near[open_],
                                      far[open_])
    verdict[sided[open_][upper < reject_at]] = 1
    rest = np.flatnonzero(~is_sided)
    lower = np.minimum(_binom_cdf(x1[rest], n[rest], 1.0 - p_hi[rest]),
                       _binom_sf(x1[rest], n[rest], p_lo[rest]))
    verdict[rest[lower >= accept_at]] = -1
    return verdict


@st.composite
def _round0_intervals(draw, deep=False):
    # Random index intervals of a round-0 grid, from single cells to the
    # whole window, for every gene; counts reach past _MAX_BOUNDED_N.
    (x1, n, l1n1, l2n2), center, span, points, alpha = draw(_grid_count_cases(deep))
    h = math.log(span)
    cs = np.exp(np.linspace(math.log(center) - h, math.log(center) + h, points))
    if center == 1.0 and points % 2:
        cs[points // 2] = 1.0
    gene = np.repeat(np.arange(x1.size), 16)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left, right = np.sort(rng.integers(0, points, (2, gene.size)), axis=0)
    return (x1[gene], n[gene], _p0(cs[left], l1n1[gene], l2n2[gene]),
            _p0(cs[right], l1n1[gene], l2n2[gene]), alpha)


@st.composite
def _sided_intervals(draw):
    # Sided intervals from a hair wide to q2/q1 = 10**4 in the mirrored
    # frame [q1, q2] on the p0 <= 1/2 side, with x 1-40 sd beyond the near
    # end's null mean on either side, or at 0 or n; each row is given in
    # that frame or in its mirror image (x1 = n - x, p0 = 1 - q).
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.one_of(st.sampled_from([2, 10, 2**40 - 1]), st.integers(2, 10**6)))
        q1 = draw(st.floats(1e-9, 0.49))
        q2 = min(0.5 - 1e-9, q1 * 10.0 ** draw(st.floats(0.0, 4.0)))
        below = draw(st.booleans())
        near = q1 if below else q2
        sd = math.sqrt(n * near * (1 - near))
        step = draw(st.floats(1.0, 40.0)) * sd
        x = draw(st.sampled_from([math.floor(n * near - max(1.0, step)), 0] if below
                                 else [math.ceil(n * near + max(1.0, step)), n]))
        if 0 <= x <= n and (n * q1 - x >= 1.0 if below else x - n * q2 >= 1.0):
            rows.append((n - x, n, 1.0 - q2, 1.0 - q1) if draw(st.booleans())
                        else (x, n, q1, q2))
    if not rows:
        rows.append((0, 10, 0.3, 0.31))
    x1, n, p_lo, p_hi = (np.array(column, dtype=np.float64) for column in zip(*rows))
    return x1, n, p_lo, p_hi, draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.5]))


@given(st.one_of(_round0_intervals(), _round0_intervals(deep=True), _sided_intervals()))
@example((np.array([900.0, 1000.0, 1100.0, 2200.0, 2600.0, 3000.0]), np.full(6, 5000.0),
          np.full(6, 0.30), np.full(6, 0.31), 0.05))  # 10-40 sd deep on either side
@settings(max_examples=400, deadline=None)
def test_interval_verdicts_equal_the_every_tail_reference(args):
    assert _interval_verdicts(*args).tolist() == _reference_interval_verdicts(*args).tolist()


@pytest.mark.parametrize("round_idx", range(3))
def test_rejection_counts_when_the_incumbent_is_outside_the_minimizing_set(round_idx):
    # Round-sized windows around c = 1.1 exclude the true 1.4, so the
    # incumbent, next to the center, is only an upper bound on the minimum.
    # In the narrower windows the first level proves most genes rejected
    # there, so its exact count needs the proven counts too.
    table, conserved = _null_poisson_table(np.random.default_rng(3), 300, 1.4)
    arrays = _conserved_arrays(table, _conserved_rows(table, conserved))
    h = math.log(1.2) * 0.1**round_idx
    cs = 1.1 * np.exp(np.linspace(-h, h, 1000))
    dense_dev = _assert_counts_match_a_dense_sweep(cs, *arrays, 0.05)
    assert dense_dev[cs.size // 2] > dense_dev.min() + 1e-12


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(alpha=0.0)
    with pytest.raises(ValueError):
        GridConfig(span=1.0)
    with pytest.raises(ValueError):
        GridConfig(coarse_points=5)
    with pytest.raises(ValueError):
        GridConfig(center=-2.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="span must exceed 1 and be finite"):
            GridConfig(span=bad)
        with pytest.raises(ValueError, match="grid center must be positive and finite"):
            GridConfig(center=bad)


@pytest.mark.parametrize("field, value", [
    ("coarse_points", 100.5), ("coarse_points", 100.0), ("coarse_points", True),
    ("coarse_points", "100"), ("refine_rounds", 1.5), ("refine_rounds", False),
    ("alpha", True), ("alpha", "0.05"), ("span", None), ("center", True), ("center", "1.0"),
    pytest.param("span", 10**400, id="span-10**400"),
    pytest.param("center", 10**400, id="center-10**400"),
])
def test_grid_config_checks_types_before_ranges(field, value):
    # A float point count or round count used to construct and then crash
    # the fit with a TypeError; an int span or center beyond float range
    # raised OverflowError.
    with pytest.raises(ValueError, match=f"^{field.replace('center', 'grid center')} must be "
                                         "(an integer|a number), got "):
        GridConfig(**{field: value})


def test_grid_config_takes_numpy_scalars():
    grid = GridConfig(alpha=np.float64(0.05), center=np.float64(1.5), span=np.int64(3),
                      coarse_points=np.int64(10), refine_rounds=np.int32(1))
    table, conserved = _null_poisson_table(np.random.default_rng(2), 60, 1.5)
    assert scbn_scaling_factor(table, conserved, grid) == scbn_scaling_factor(
        table, conserved, GridConfig(center=1.5, span=3.0, coarse_points=10, refine_rounds=1))


def test_grid_config_runs_numpy_scalars_at_float64():
    # A float32 center used to run the fit's logs at float32.
    grid = GridConfig(center=np.float32(1.5), span=np.float32(3), coarse_points=10,
                      refine_rounds=np.int32(1))
    assert [type(getattr(grid, name)) for name in ("alpha", "center", "span", "coarse_points",
                                                    "refine_rounds")] == [float] * 3 + [int] * 2
    table, conserved = _null_poisson_table(np.random.default_rng(2), 60, 1.5)
    assert scbn_scaling_factor(table, conserved, grid) == scbn_scaling_factor(
        table, conserved, GridConfig(center=1.5, span=3.0, coarse_points=10, refine_rounds=1))


def test_scbn_recovers_known_scale():
    # 1000 conserved null genes at c_true = 1.4, equal lengths, totals ~1e6:
    # the median estimate over 20 replicates lands within +-5 percent.
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        table, conserved = _null_poisson_table(rng, 1000, 1.4)
        fit = scbn_scaling_factor(table, conserved)
        ratios.append(fit.factor.c / 1.4)
    median_ratio = float(np.median(ratios))
    assert 0.95 <= median_ratio <= 1.05


def test_scbn_swap_symmetry():
    rng = np.random.default_rng(77)
    table, conserved = _null_poisson_table(rng, 400, 1.25)
    swapped = table_of(
        (r.gene_id, r.length_sp2, r.length_sp1, r.count_sp2, r.count_sp1)
        for r in table.records
    )
    grid = GridConfig()
    fit = scbn_scaling_factor(table, conserved, grid)
    fit_swapped = scbn_scaling_factor(swapped, conserved, grid)
    step = final_grid_log_step(grid)
    assert abs(math.log(fit.factor.c * fit_swapped.factor.c)) <= step + 1e-12


def test_scbn_flags_an_optimum_pinned_to_the_window_edge():
    rng = np.random.default_rng(3)
    table, conserved = _null_poisson_table(rng, 1000, 1.4)
    # [1/1.2, 1.2] excludes the true 1.4: the coarse round picks its last point.
    pinned = scbn_scaling_factor(table, conserved, GridConfig(center=1.0, span=1.2))
    assert pinned.window_edge
    assert pinned.factor.c < 1.25
    fit = scbn_scaling_factor(table, conserved)
    assert not fit.window_edge
    assert abs(fit.factor.c / 1.4 - 1.0) < 0.05


def test_scbn_stable_across_alpha_levels():
    rng = np.random.default_rng(5)
    table, conserved = _null_poisson_table(rng, 600, 1.15)
    c_05 = scbn_scaling_factor(table, conserved, GridConfig(alpha=0.05)).factor.c
    c_01 = scbn_scaling_factor(table, conserved, GridConfig(alpha=0.01)).factor.c
    assert abs(c_01 - c_05) / c_05 < 0.10


def test_scbn_deterministic_and_grid_center_override():
    rng = np.random.default_rng(9)
    table, conserved = _null_poisson_table(rng, 300, 1.1)
    fit1 = scbn_scaling_factor(table, conserved)
    fit2 = scbn_scaling_factor(table, conserved)
    assert fit1 == fit2
    pinned = scbn_scaling_factor(table, conserved, GridConfig(center=1.1, span=2.0))
    assert 0.9 < pinned.factor.c / fit1.factor.c < 1.1


# ---------------------------------------------------------------------------
# The fit against a full-count reference
# ---------------------------------------------------------------------------


def _full_rejection_counts(cs, x1, n, l1n1, l2n2, alpha):
    """Reference: the interval bisection without pruning, which counts every
    grid cell exactly."""
    points = cs.size
    runs = np.zeros(points + 1, dtype=np.int64)
    gene = np.arange(x1.size)
    left = np.zeros(x1.size, dtype=np.int64)
    right = np.full(x1.size, points - 1, dtype=np.int64)
    leaves = []
    while gene.size:
        leaf = right - left < _LEAF_WIDTH
        leaves.append((gene[leaf], left[leaf], right[leaf]))
        gene, left, right = gene[~leaf], left[~leaf], right[~leaf]
        verdict = _interval_verdicts(
            x1[gene], n[gene],
            _p0(cs[left], l1n1[gene], l2n2[gene]),
            _p0(cs[right], l1n1[gene], l2n2[gene]),
            alpha,
        )
        verdict[n[gene] >= _MAX_BOUNDED_N] = 0
        run = verdict > 0
        runs += np.bincount(left[run], minlength=points + 1)
        runs -= np.bincount(right[run] + 1, minlength=points + 1)
        split = verdict == 0
        gene, left, right = gene[split], left[split], right[split]
        mid = (left + right) // 2
        gene = np.concatenate([gene, gene])
        left, right = np.concatenate([left, mid + 1]), np.concatenate([mid, right])

    gene, left, right = (np.concatenate(parts) for parts in zip(*leaves))
    cell = left[:, None] + np.arange(_LEAF_WIDTH)
    inside = cell <= right[:, None]
    gene = np.broadcast_to(gene[:, None], cell.shape)[inside]
    cell = cell[inside]
    p = binom_twosided_pvalues(x1[gene], n[gene], _p0(cs[cell], l1n1[gene], l2n2[gene]))
    return np.cumsum(runs[:-1]) + np.bincount(cell[p < alpha], minlength=points)


def _reference_scbn_scaling_factor(table, conserved, grid):
    """Reference: the round loop on every grid cell's full count."""
    x1, n, l1n1, l2n2 = _conserved_arrays(table, _conserved_rows(table, conserved))
    center = grid.center
    if center is None:
        center = median_scaling_factor(table, conserved).factor.c
    log_center = np.log(center)
    _check_window(log_center, grid, l1n1, l2n2)
    half_width = np.log(grid.span)
    for round_idx in range(grid.refine_rounds + 1):
        h = half_width * grid.refine_shrink**round_idx
        cs = np.exp(np.linspace(log_center - h, log_center + h, grid.coarse_points))
        rate = _full_rejection_counts(cs, x1, n, l1n1, l2n2, grid.alpha) / x1.size
        dev = np.abs(rate - grid.alpha)
        minima = np.flatnonzero(dev <= dev.min() + 1e-12)
        pick = minima[(minima.size - 1) // 2]
        if round_idx == 0:
            window_edge = bool(minima[0] == 0 or minima[-1] == cs.size - 1)
        log_center = np.log(cs[pick])
        best_rate, best_dev = float(rate[pick]), float(dev[pick])
    return ScbnResult(
        factor=ScalingFactor(float(np.exp(log_center))),
        objective=ObjectiveValue(deviation=best_dev, rejection_rate=best_rate),
        window_edge=window_edge,
    )


@st.composite
def _scbn_cases(draw):
    # null: conserved genes drawn from the mean model at a known scale, so
    # the objective has a clear minimum and most cells get dropped.  random:
    # unrelated counts and lengths, with wide and flat minimizing sets.
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        table, conserved = _null_poisson_table(
            rng, draw(st.integers(4, 200)), draw(st.floats(0.5, 2.0)),
            conserved_reads=draw(st.sampled_from([3.0e3, 3.0e5])))
    else:
        m = draw(st.integers(4, 60))

        def column(top):
            return [draw(st.integers(1, top)) for _ in range(m)] + [draw(st.integers(1, 10**4))]

        table = validate_table([f"g{i}" for i in range(m + 1)], column(5000), column(5000),
                               column(400), column(400))
        conserved = ConservedSet(frozenset(f"g{i}" for i in range(m)))
    grid = GridConfig(
        alpha=draw(st.sampled_from([0.01, 0.05, 0.2])),
        center=draw(st.none() | st.floats(0.1, 10.0)),
        span=draw(st.floats(1.5, 100.0)),
        coarse_points=draw(st.sampled_from([10, 37, 100, 1000])),
    )
    return table, conserved, grid


@given(_scbn_cases())
@settings(max_examples=100, deadline=None)
def test_scbn_fit_equals_the_full_count_reference(case):
    table, conserved, grid = case
    want = _outcome(_reference_scbn_scaling_factor, table, conserved, grid)
    assert _outcome(scbn_scaling_factor, table, conserved, grid) == want


def _flat_objective_case():
    # Three reads per gene split evenly: no p0 in [1/1.5, 1.5] brings a p-value
    # below alpha, so every grid point has rate 0 and deviation alpha.
    records = [_balanced(f"g{i}", 3) for i in range(20)]
    table, conserved = _table_with_conserved(records, [r[0] for r in records])
    return table, conserved, GridConfig(center=1.0, span=1.5)


def _window_edge_case():
    # [1/1.2, 1.2] excludes the true 1.4: the minimum is the last grid point.
    table, conserved = _null_poisson_table(np.random.default_rng(3), 300, 1.4)
    return table, conserved, GridConfig(center=1.0, span=1.2)


@pytest.mark.parametrize("build", [_flat_objective_case, _window_edge_case],
                         ids=["flat-objective", "window-edge"])
def test_scbn_fit_equals_the_full_count_reference_at_the_edges(build):
    table, conserved, grid = build()
    want = _reference_scbn_scaling_factor(table, conserved, grid)
    assert want.window_edge
    assert scbn_scaling_factor(table, conserved, grid) == want


def _rounding_split_tie_case():
    # 15 genes at alpha 0.2: 1 always rejected, 10 never, and 4 identical
    # genes rejected from some c on.  Counts 1 and 5 are equidistant from
    # alpha*m = 3, and more than one count from it, but their float
    # deviations differ in the last bit: only the merge slack keeps both
    # plateaus in the minimizing set.
    records = [_balanced(f"b{i}", 3) for i in range(10)]
    records.append(_extreme("e", 40))
    records += [(f"s{i}", 500, 500, 10, 20) for i in range(4)]
    records.append(("filler", 500, 500, 1, 1))
    table, conserved = _table_with_conserved(records, [r[0] for r in records[:-1]])
    return table, conserved, GridConfig(alpha=0.2, center=1.0, span=2.0)


def test_scbn_fit_merges_a_rounding_split_tie_like_the_reference():
    table, conserved, grid = _rounding_split_tie_case()
    cs = np.exp(np.linspace(-math.log(2.0), math.log(2.0), grid.coarse_points))
    arrays = _conserved_arrays(table, _conserved_rows(table, conserved))
    counts = _full_rejection_counts(cs, *arrays, grid.alpha)
    assert set(counts.tolist()) == {1, 5}
    assert abs(1 / 15 - 0.2) != abs(5 / 15 - 0.2)
    assert scbn_scaling_factor(table, conserved, grid) == _reference_scbn_scaling_factor(
        table, conserved, grid)


def _null_case(seed):
    table, conserved = _null_poisson_table(np.random.default_rng(seed), 200, 1.3)
    return table, conserved, GridConfig()


@pytest.mark.parametrize("build", [
    pytest.param(_flat_objective_case, id="flat-objective"),
    pytest.param(_window_edge_case, id="window-edge"),
    pytest.param(_rounding_split_tie_case, id="rounding-split-tie"),
    *(pytest.param(lambda seed=seed: _null_case(seed), id=f"null-seed{seed}")
      for seed in range(20)),
])
def test_scbn_objective_is_the_objective_at_the_returned_factor(build):
    # The fit reports the objective at its last round's pick, and
    # empirical_type1_deviation at exp(log(pick)): the same value unless
    # that round trip moves the factor across some gene's decision change.
    table, conserved, grid = build()
    fit = scbn_scaling_factor(table, conserved, grid)
    assert fit.objective == empirical_type1_deviation(table, conserved, fit.factor, grid.alpha)


@pytest.mark.parametrize("grid", [
    GridConfig(center=1.3, span=10.0, coarse_points=10, refine_rounds=0),
    GridConfig(center=1.0, span=2.0, coarse_points=11, refine_rounds=1),
    GridConfig(center=0.7, span=5.0, coarse_points=100, refine_rounds=3),
    GridConfig(span=10.0, coarse_points=1000, refine_rounds=3),
], ids=["rounds-0", "rounds-1", "rounds-3", "median-center"])
def test_scbn_rounds_follow_one_schedule(monkeypatch, grid):
    # Every round re-grids around the previous round's pick, and the last
    # grid's spacing is final_grid_log_step.
    table, conserved = _null_poisson_table(np.random.default_rng(8), 100, 1.3)
    rounds = []

    def recorded(cs, x1, *args):
        counts, kept = _rejection_counts(cs, x1, *args)
        dev = np.where(kept, np.abs(counts / x1.size - grid.alpha), np.inf)
        minima = np.flatnonzero(dev <= dev.min() + 1e-12)
        rounds.append((cs, cs[minima[(minima.size - 1) // 2]]))
        return counts, kept

    monkeypatch.setattr(normalization, "_rejection_counts", recorded)
    fit = scbn_scaling_factor(table, conserved, grid)
    assert len(rounds) == grid.refine_rounds + 1
    assert fit.factor.c == float(np.exp(np.log(rounds[-1][1])))
    for (_, pick), (cs, _) in zip(rounds, rounds[1:]):
        assert cs.size == grid.coarse_points
        assert math.isclose(math.log(cs[0]) + math.log(cs[-1]), 2.0 * math.log(pick),
                            rel_tol=0.0, abs_tol=1e-12)
    # Each end's log is off from its linspace value by one rounding of exp
    # and one of log, and each end of the linspace by one of its own.
    ends = np.log(rounds[-1][0][[0, -1]])
    width = (grid.coarse_points - 1) * final_grid_log_step(grid)
    assert abs((ends[1] - ends[0]) - width) <= 4 * np.spacing(max(1.0, *np.abs(ends)))


# ---------------------------------------------------------------------------
# Median baseline
# ---------------------------------------------------------------------------


def test_median_identity():
    records = [
        (f"g{i}", 100, 100, x, x) for i, x in enumerate([9, 14, 23, 37, 51])
    ]
    table, conserved = _table_with_conserved(records, [r[0] for r in records])
    result = median_scaling_factor(table, conserved)
    assert result.factor.c == 1.0
    assert result.iqr_filtered


def test_median_constant_expressions():
    # e1 = {2,2,2,2} and e2 = {1,1,1,1} in count/(length*total) units
    records = [(f"g{i}", 1, 2, 8, 4) for i in range(4)]
    table, conserved = _table_with_conserved(records, [r[0] for r in records])
    result = median_scaling_factor(table, conserved)
    assert result.factor.c == 2.0


def test_median_seven_gene_hand_computation():
    # Hand-worked case (exact rational arithmetic):
    #   counts sp1: 10 20 30 40 50 600 24, lengths 100, total 774
    #   counts sp2: 12 22 32 42 52 26 602, lengths 150, total 788
    #   sp1 quartiles [22, 45] keep {g3, g4, g7}; sp2 quartiles [24, 47]
    #   keep {g3, g4, g6}; intersection {g3, g4}.
    #   c = median(30,40)/77400 over median(32,42)/118200 = 6895/4773.
    counts = [(10, 12), (20, 22), (30, 32), (40, 42), (50, 52), (600, 26), (24, 602)]
    records = [
        (f"g{i+1}", 100, 150, a, b) for i, (a, b) in enumerate(counts)
    ]
    table, conserved = _table_with_conserved(records, [r[0] for r in records])
    result = median_scaling_factor(table, conserved)
    assert result.factor.c == float(Fraction(6895, 4773))
    assert result.iqr_filtered
    assert result.kept_genes == 2


def test_median_length_equivariance_is_exact():
    counts = [(10, 12), (20, 22), (30, 32), (40, 42), (50, 52), (600, 26), (24, 602)]
    for k in (2, 10):
        records = [
            (f"g{i+1}", 100 * k, 150, a, b) for i, (a, b) in enumerate(counts)
        ]
        table, conserved = _table_with_conserved(records, [r[0] for r in records])
        result = median_scaling_factor(table, conserved)
        assert result.factor.c == float(Fraction(6895, 4773) / k)


def test_median_stays_exact_when_length_times_total_exceeds_int64():
    # Totals past 2**63: an int64 sum or length * total product would wrap.
    # Each gene's two counts sum below 2**53, so every gene is testable.
    n = 2100
    counts = [2**52 - 1 - i for i in range(n)]
    table = validate_table([f"g{i}" for i in range(n)], [3] * n, [5] * n, counts, counts)
    conserved = ConservedSet(frozenset(table.gene_ids))
    result = median_scaling_factor(table, conserved)
    assert result.factor.c == float(Fraction(5, 3))


def test_median_needs_four_testable_genes():
    records = [_balanced(f"g{i}", 5) for i in range(3)]
    table, conserved = _table_with_conserved(records, [r[0] for r in records])
    with pytest.raises(ValueError):
        median_scaling_factor(table, conserved)


def test_scbn_without_testable_conserved_genes_names_the_rule_it_breaks():
    # A gene with no reads is untestable.  The default grid center is the
    # median fit, which needs four testable genes; a set center needs one.
    table, conserved = _table_with_conserved([("g0", 100, 100, 0, 0), _balanced("g1", 5)],
                                             ["g0"])
    with pytest.raises(ValueError, match="needs >= 4 testable conserved genes, got 0"):
        scbn_scaling_factor(table, conserved)
    with pytest.raises(ValueError, match="^no testable conserved genes$"):
        scbn_scaling_factor(table, conserved, GridConfig(center=1.0))


def test_median_zero_expression_is_an_error():
    # species-2 counts all zero among conserved genes; a filler gene keeps
    # the table total positive
    records = [(f"g{i}", 100, 100, 5 + i, 0) for i in range(4)]
    records.append(("filler", 100, 100, 1, 50))
    table, conserved = _table_with_conserved(records, [f"g{i}" for i in range(4)])
    with pytest.raises(ValueError):
        median_scaling_factor(table, conserved)


def test_median_fallback_when_filter_empties():
    # Disjoint interquartile memberships: the genes inside the sp1 IQR
    # ({10, 11} middle counts) are exactly the sp2 extremes, and vice versa,
    # so the intersection is empty and the flagged fallback applies.
    counts = [(10, 1), (11, 1000), (1, 10), (1000, 11)]
    records = [(f"g{i}", 10, 10, a, b) for i, (a, b) in enumerate(counts)]
    table, conserved = _table_with_conserved(records, [r[0] for r in records])
    result = median_scaling_factor(table, conserved)
    assert not result.iqr_filtered
    assert result.kept_genes == 4
    assert result.factor.c == 1.0  # matching totals and mirrored medians


def _reference_median_scaling_factor(table, conserved):
    """Oracle: one Fraction per gene, sorted, with quantiles and the
    interquartile window taken on the sorted Fraction lists."""

    def quantile(sorted_vals, prob):
        pos = (len(sorted_vals) - 1) * prob
        j = int(pos)
        g = pos - j
        if g == 0:
            return sorted_vals[j]
        return sorted_vals[j] * (1 - g) + sorted_vals[j + 1] * g

    def expression(counts, lengths, total):
        return [Fraction(x, length * total) for x, length in zip(counts.tolist(), lengths.tolist())]

    rows = _conserved_rows(table, conserved)
    if rows.size < 4:
        raise ValueError(f"median baseline needs >= 4 testable conserved genes, got {rows.size}")
    e1 = expression(table.count_sp1[rows], table.length_sp1[rows], table.total_sp1)
    e2 = expression(table.count_sp2[rows], table.length_sp2[rows], table.total_sp2)
    s1, s2 = sorted(e1), sorted(e2)
    q1_1, q3_1 = quantile(s1, Fraction(1, 4)), quantile(s1, Fraction(3, 4))
    q1_2, q3_2 = quantile(s2, Fraction(1, 4)), quantile(s2, Fraction(3, 4))
    kept = [i for i in range(len(e1)) if q1_1 <= e1[i] <= q3_1 and q1_2 <= e2[i] <= q3_2]
    iqr_filtered = True
    med1 = med2 = Fraction(0)
    if kept:
        med1 = quantile(sorted(e1[i] for i in kept), Fraction(1, 2))
        med2 = quantile(sorted(e2[i] for i in kept), Fraction(1, 2))
    if not kept or med1 == 0 or med2 == 0:
        kept = list(range(len(e1)))
        iqr_filtered = False
        med1 = quantile(s1, Fraction(1, 2))
        med2 = quantile(s2, Fraction(1, 2))
    if med1 == 0 or med2 == 0:
        raise ValueError("median conserved expression is zero in one species")
    return MedianScaleResult(
        factor=ScalingFactor(float(med1 / med2)), iqr_filtered=iqr_filtered, kept_genes=len(kept))


_B = 2**40


@st.composite
def _median_tables(draw):
    # near-tie: lengths near 2**40 and counts a few reads off a multiple of
    # the length, so distinct ratios round to one float64.  tiny: counts 0-3
    # and lengths 1-3, exact ties and zero medians.  ordinary: wide ranges,
    # whose interquartile windows often miss each other (the fallback).
    kind = draw(st.sampled_from(["near-tie", "tiny", "ordinary"]))
    m = draw(st.integers(4, 12))

    def column():
        if kind == "near-tie":
            lengths = [_B + draw(st.integers(0, 6)) for _ in range(m)]
            counts = [draw(st.integers(0, 3)) * length + draw(st.integers(0, 6))
                      for length in lengths]
        elif kind == "tiny":
            lengths = [draw(st.integers(1, 3)) for _ in range(m)]
            counts = [draw(st.integers(0, 3)) for _ in range(m)]
        else:
            lengths = [draw(st.integers(1, 5000)) for _ in range(m)]
            counts = [draw(st.integers(0, 400)) for _ in range(m)]
        return lengths, counts

    (l1, x1), (l2, x2) = column(), column()
    # One non-conserved filler gene keeps both totals positive and apart
    # from the conserved sums.
    filler = draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))
    table = validate_table([f"g{i}" for i in range(m + 1)], l1 + [1], l2 + [1],
                           x1 + [filler[0]], x2 + [filler[1]])
    return table, ConservedSet(frozenset(f"g{i}" for i in range(m)))


@given(_median_tables())
@settings(max_examples=300, deadline=None)
def test_median_matches_a_fraction_sort_reference(case):
    table, conserved = case
    want = _outcome(_reference_median_scaling_factor, table, conserved)
    assert _outcome(median_scaling_factor, table, conserved) == want


def test_median_settles_float_ties_exactly():
    # Genes g0-g4 of species 1 have distinct ratios (B+k+1)/(B+k) that all
    # round to one float64 key; with 3 and 1/B for g5 and g6 that makes 3
    # distinct keys and 7 distinct exact ratios.  Both species-1 quartiles
    # lie inside the tied run and round to that same key, and the exact
    # window keeps g1-g3 of it.  Species 2 keeps g2-g4, so 2 genes remain.
    x1 = [_B + 1, _B + 2, _B + 3, _B + 4, _B + 5, 3 * _B, 1]
    l1 = [_B, _B + 1, _B + 2, _B + 3, _B + 4, _B, _B]
    x2 = list(range(5, 12))
    table = validate_table([f"g{i}" for i in range(7)], l1, [10] * 7, x1, x2)
    conserved = ConservedSet(frozenset(table.gene_ids))
    result = median_scaling_factor(table, conserved)
    assert result == _reference_median_scaling_factor(table, conserved)
    assert result.iqr_filtered
    assert result.kept_genes == 2
