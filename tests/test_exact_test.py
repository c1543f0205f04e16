import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, gammaln

from crossnorm import exact_test
from crossnorm.core import validate_table
from crossnorm.exact_test import (
    _MAX_P0,
    _MIN_P,
    _interval_verdicts,
    _rejects,
    _tail,
    binom_twosided_pvalues,
    gene_pvalues,
    null_prob_values,
)
from reference_tails import twosided_pvalues

# ---------------------------------------------------------------------------
# Independent oracle: membership decided on exact integers, mass by log-gamma
# ---------------------------------------------------------------------------


def oracle_pvalues(n: int, num: int, den: int) -> np.ndarray:
    """Enumeration p-values for every x1 in [0, n] at p0 = num/den.

    Membership |k - n*p0| >= |x1 - n*p0| is decided with exact integer
    arithmetic (scaled by den); masses come from per-term log-gamma pmf.
    """
    p0 = num / den
    ks = np.arange(n + 1)
    logpmf = (
        gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
        + ks * np.log(p0) + (n - ks) * np.log1p(-p0)
    )
    pmf = np.exp(logpmf)
    dist = np.abs(den * ks - n * num)
    member = dist[None, :] >= dist[:, None]
    return member @ pmf


def _p(x1, n, p0):
    # One gene through the vectorized kernel.
    return float(binom_twosided_pvalues(x1, n, p0))


# ---------------------------------------------------------------------------
# Spec examples
# ---------------------------------------------------------------------------


def test_center_case_gives_one():
    # threshold is 0, so every outcome qualifies
    assert _p(5, 10, 0.5) == 1.0


def test_two_trials_zero_successes():
    # qualifying outcomes {0, 2}: 0.25 + 0.25
    assert _p(0, 2, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_four_of_four():
    # qualifying outcomes {0, 4}: 2/16
    assert _p(4, 4, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_skewed_null_only_one_outcome_qualifies():
    # threshold 2, only X=0 qualifies
    assert _p(0, 3, 2 / 3) == pytest.approx((1 / 3) ** 3, rel=1e-12)


def test_empty_total_gives_one():
    assert _p(0, 0, 0.5) == 1.0


def test_null_success_prob_examples():
    assert null_prob_values(1.0, 100, 100, 1000, 1000) == 0.5
    assert null_prob_values(2.0, 100, 100, 1000, 1000) == 2 / 3
    assert null_prob_values(1.0, 1000, 500, 10**6, 2 * 10**6) == 0.5


def test_null_success_prob_increasing_in_c():
    values = null_prob_values(np.array([0.5, 1.0, 2.0, 4.0]), 300, 700, 10**6, 2 * 10**6)
    assert list(values) == sorted(values)
    assert all(0.0 < v < 1.0 for v in values)


@pytest.mark.parametrize("p0", [np.nan, -0.1, 1.5, -np.inf, np.inf, [0.5, np.nan]])
def test_a_p0_outside_the_unit_interval_is_one_value_error(p0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^p0 must lie in \[0, 1\], got "):
            binom_twosided_pvalues(5, 10, p0)


def test_gene_pvalue_examples():
    # Genes: balanced, all reads in species 2, and silent (untestable).
    p = gene_pvalues([3, 0, 0], [3, 2, 0], [500] * 3, [500] * 3, 10**6, 10**6, 1.0)
    assert p[0] == 1.0
    assert p[1] == pytest.approx(0.5, abs=1e-15)
    assert math.isnan(p[2])
    # n >= 2**53 is untestable too, as validate_table flags it.
    assert math.isnan(gene_pvalues([2**53 - 1], [5], [1], [1], 10**16, 10**16, 1.0)[0])


@pytest.mark.parametrize("x2", [0, 1], ids=["n-2**53-1", "n-2**53"])
def test_gene_pvalues_and_validate_table_share_the_testable_rule(x2):
    # A gene with n = 2**53 - 1 is the last testable one; a silent gene is untestable too.
    table = validate_table(["big", "small", "silent"], [1, 1, 1], [1, 1, 1],
                           [2**53 - 1, 1, 0], [x2, 1, 0])
    p = gene_pvalues(table.count_sp1, table.count_sp2, table.length_sp1, table.length_sp2,
                     table.total_sp1, table.total_sp2, 1.0)
    assert table.testable.tolist() == [x2 == 0, True, False]
    assert np.isnan(p).tolist() == (~table.testable).tolist()


def test_gene_pvalue_matches_composition():
    p0 = null_prob_values(1.7, 812, 1377, 2_000_000, 3_500_000)
    direct = binom_twosided_pvalues(41, 54, p0)
    assert gene_pvalues(41, 13, 812, 1377, 2_000_000, 3_500_000, 1.7) == direct


# ---------------------------------------------------------------------------
# Oracle equivalence (reduced scale; the acceptance suite covers n <= 200)
# ---------------------------------------------------------------------------


def test_matches_enumeration_oracle_small_n():
    worst = 0.0
    for n in range(0, 61):
        ks = np.arange(n + 1)
        for num in range(1, 20):
            expected = oracle_pvalues(n, num, 20)
            got = binom_twosided_pvalues(ks, n, num / 20)
            worst = max(worst, float(np.max(np.abs(got - expected))))
    assert worst < 1e-12


def test_matches_enumeration_oracle_large_n_spot():
    # The oracle's own summation error grows with the number of terms, so
    # the comparison tolerance scales with n (checked against 50-digit
    # arithmetic: the implementation side stays below 1e-13 here).
    for n, num in [(500, 7), (2000, 13), (20000, 10)]:
        ks = np.linspace(0, n, 37).astype(int)
        expected = oracle_pvalues(n, num, 20)[ks]
        got = binom_twosided_pvalues(ks, n, num / 20)
        assert np.max(np.abs(got - expected)) < 1e-12 * max(1.0, n / 10.0)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@given(
    n=st.integers(min_value=0, max_value=400),
    x_frac=st.floats(min_value=0.0, max_value=1.0),
    p0=st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_swap_symmetry_is_exact(n, x_frac, p0):
    # Pairs are anchored at the upper complement: q = 1 - p0 is then the
    # float the mirrored call actually receives.
    x1 = round(x_frac * n)
    q = 1.0 - p0
    if q <= 0.0:
        return
    assert _p(x1, n, p0) == _p(n - x1, n, q)


@given(
    n=st.integers(min_value=1, max_value=300),
    x_frac=st.floats(min_value=0.0, max_value=1.0),
    p0=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
@settings(max_examples=300, deadline=None)
def test_pvalue_range(n, x_frac, p0):
    x1 = round(x_frac * n)
    p = _p(x1, n, p0)
    assert 0.0 < p <= 1.0


def test_monotone_in_distance_from_null_mean():
    for n, p0 in [(30, 0.5), (41, 0.35), (200, 0.7), (17, 0.05)]:
        mu = n * p0
        xs = sorted(range(n + 1), key=lambda x: abs(x - mu))
        ps = [_p(x, n, p0) for x in xs]
        for earlier, later in zip(ps, ps[1:]):
            assert later <= earlier + 1e-12


def test_conditional_calibration_by_exhaustive_summation():
    # P(p <= alpha) can exceed alpha by at most the largest outcome mass.
    for n, num in [(25, 10), (80, 3), (150, 13), (200, 10)]:
        p0 = num / 20
        ks = np.arange(n + 1)
        pmf = np.exp(
            gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)
            + ks * np.log(p0) + (n - ks) * np.log1p(-p0)
        )
        pvals = binom_twosided_pvalues(ks, n, p0)
        for alpha in (0.01, 0.05, 0.2):
            attained = float(pmf[pvals <= alpha].sum())
            assert attained <= alpha + float(pmf.max()) + 1e-12


def test_underflow_clamps_to_positive():
    p = _p(0, 100_000, 0.5)
    assert p > 0.0


def test_vectorized_matches_scalar_bitwise():
    rng = np.random.default_rng(3)
    n = rng.integers(1, 500, size=64)
    x1 = (rng.random(64) * (n + 1)).astype(int).clip(max=n)
    p0 = rng.uniform(0.01, 0.99, size=64)
    vec = binom_twosided_pvalues(x1, n, p0)
    for i in range(64):
        assert vec[i] == _p(int(x1[i]), int(n[i]), float(p0[i]))


def test_broadcast_grid_matches_row_by_row_bitwise():
    # A factors x genes p0 grid against gene columns, as the benchmark's
    # kernel batch is called, equals one 1-D call per factor byte for byte.
    rng = np.random.default_rng(4)
    n = rng.integers(0, 10**5, size=200).astype(np.float64)
    n[:4] = [0.0, 1.0, 2.0, 2.0**40]
    x1 = np.floor(rng.random(200) * (n + 1))
    x1[4:8] = [0.0, 0.0, n[6], n[7]]
    p0 = null_prob_values(np.geomspace(0.2, 5.0, 9)[:, None], rng.integers(200, 5000, 200),
                          rng.integers(200, 5000, 200), 10**6, 2 * 10**6)
    grid = binom_twosided_pvalues(x1, n, p0)
    assert grid.shape == p0.shape
    for row, row_p0 in zip(grid, p0):
        assert row.tobytes() == binom_twosided_pvalues(x1, n, row_p0).tobytes()


def test_gene_pvalues_vector_matches_gene_pvalue():
    rng = np.random.default_rng(5)
    m = 40
    l1 = rng.integers(200, 5000, m)
    l2 = rng.integers(200, 5000, m)
    x1 = rng.integers(0, 300, m)
    x2 = rng.integers(0, 300, m)
    x1[7] = x2[7] = 0  # untestable lane
    c = 1.31
    vec = gene_pvalues(x1, x2, l1, l2, 10**6, 2 * 10**6, c)
    for i in range(m):
        n = int(x1[i] + x2[i])
        if n == 0:
            assert math.isnan(vec[i])
            continue
        p0 = float(null_prob_values(c, int(l1[i]), int(l2[i]), 10**6, 2 * 10**6))
        assert vec[i] == _p(int(x1[i]), n, p0)


# ---------------------------------------------------------------------------
# The one tail function against exact sums
# ---------------------------------------------------------------------------

# Every tail of these p0 for n <= 60 is a normal float, so betainc's error
# stays relative.
_EXACT_P0 = (1e-3, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0 - 1e-3)


@pytest.mark.parametrize("p0", _EXACT_P0)
def test_tail_matches_exact_binomial_sums(p0):
    # Every edge from -1 to n + 1 of both kinds in one call, n up to 60,
    # against math.comb sums at the float p0 itself: an empty tail is
    # exactly 0, a whole one exactly 1, any other within 1e-12 relative.
    num, den = Fraction(p0).as_integer_ratio()
    for n in range(61):
        total = den**n
        # cdf[k] = P(X <= k) * total, exactly.
        cdf = list(itertools.accumulate(math.comb(n, j) * num**j * (den - num)**(n - j)
                                        for j in range(n + 1)))
        edges = list(range(-1, n + 2))
        lower = np.repeat([True, False], len(edges))
        got = _tail(np.tile(np.array(edges, dtype=np.float64), 2), float(n), p0, lower)
        want = ([0 if k < 0 else cdf[min(k, n)] for k in edges]
                + [0 if k > n else total - (cdf[k - 1] if k > 0 else 0) for k in edges])
        for k, kind, value, exact in zip(edges * 2, lower.tolist(), got.tolist(), want):
            where = f"n={n} edge={k} lower={kind}"
            if exact in (0, total):
                assert value == exact / total, where
            else:
                assert abs(Fraction(value) * total - exact) <= Fraction(exact, 10**12), where


# ---------------------------------------------------------------------------
# The SCBN count's decision helper: p < level, observed tail first
# ---------------------------------------------------------------------------

# The clip floor, exactly 1/2, the clip ceiling and their mirror images.
_EDGE_P0 = [_MIN_P, 1.0 - _MAX_P0, float(np.nextafter(0.5, 0.0)), 0.5,
            float(np.nextafter(0.5, 1.0)), _MAX_P0]
_LEVELS = st.one_of(st.sampled_from([1e-6, 0.01, 0.05, 0.5, 0.99]), st.floats(1e-6, 0.99))


@st.composite
def _decision_cells(draw, big=(2**40 - 1, 2**40, 2**40 + 1)):
    # Empty and tiny tables, counts next to SCBN's 2**40 bound (or other
    # ``big`` counts), and x1 at both ends, on either side of the null mean
    # and a few sd from it.
    cells = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.one_of(st.sampled_from([0, 1, 2, *big]), st.integers(0, 10**5)))
        p0 = draw(st.one_of(st.sampled_from(_EDGE_P0), st.floats(_MIN_P, _MAX_P0)))
        mu = n * p0
        spread = round(draw(st.floats(-8.0, 8.0)) * math.sqrt(mu * (1.0 - p0)))
        x1 = draw(st.one_of(
            st.sampled_from([0, n, math.floor(mu), min(n, math.ceil(mu))]),
            st.just(min(n, max(0, math.floor(mu) + spread))),
            st.integers(0, n),
        ))
        cells.append((x1, n, p0))
    return tuple(np.array(column, dtype=np.float64) for column in zip(*cells))


@st.composite
def _deep_cells(draw):
    # Deep cells: x1 at 0 or n, or 3-40 sd from the null mean, with n up to
    # next to 2**40 and p0 at its clip edges.
    cells = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.one_of(st.sampled_from([1, 2, 10, 2**40 - 1, 2**40, 2**40 + 1]),
                           st.integers(1, 10**6)))
        p0 = draw(st.one_of(st.sampled_from(_EDGE_P0), st.floats(_MIN_P, _MAX_P0)))
        mu = n * p0
        spread = draw(st.floats(3.0, 40.0)) * math.sqrt(mu * (1.0 - p0))
        x1 = draw(st.sampled_from([0, n, min(n, math.floor(mu + spread)),
                                   max(0, math.ceil(mu - spread))]))
        cells.append((x1, n, p0))
    return tuple(np.array(column, dtype=np.float64) for column in zip(*cells))


# Cells for the kernel's blocks: n = 0, tiny and large n, x1 anywhere in
# [0, n], p0 at 1/2 and its clip edges, and p0 in both mirror frames.
_BLOCK_CELLS = st.lists(st.builds(
    lambda n, share, p0, mirror: (math.floor(share * n), n,
                                  min(1.0 - p0, _MAX_P0) if mirror else p0),
    st.one_of(st.sampled_from([0, 1, 2, 2**40, 2**52]), st.integers(0, 10**6)),
    st.floats(0.0, 1.0),
    st.one_of(st.sampled_from([0.5, *_EDGE_P0]), st.floats(_MIN_P, 0.5)),
    st.booleans(),
), max_size=40)


@given(_BLOCK_CELLS)
@settings(max_examples=200, deadline=None)
def test_pvalue_blocks_equal_one_whole_array_call(cells):
    x1, n, p0 = np.array(cells, dtype=np.float64).reshape(-1, 3).T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_test, "_ROWS", 7)
        blocked = binom_twosided_pvalues(x1, n, p0)
    assert blocked.tobytes() == exact_test._two_sided(x1, n, p0, np.inf).tobytes()


def test_pvalue_blocks_keep_scalar_and_broadcast_shapes(monkeypatch):
    monkeypatch.setattr(exact_test, "_ROWS", 7)
    one = exact_test._two_sided(np.array([3.0]), np.array([10.0]), np.array([0.25]), np.inf)
    scalar = binom_twosided_pvalues(3, 10, 0.25)
    assert type(scalar) is np.float64 and scalar == one[0]
    assert binom_twosided_pvalues([3], 10, 0.25).shape == (1,)
    # A (9, 1) p0 column against 20 genes: 180 cells in 26 blocks.
    n = np.arange(1.0, 21.0)
    x1 = np.floor(n / 3.0)
    p0 = np.linspace(0.05, 0.95, 9)[:, None]
    grid = binom_twosided_pvalues(x1, n, p0)
    whole = exact_test._two_sided(*(np.broadcast_to(v, (9, 20)).ravel() for v in (x1, n, p0)),
                                  np.inf)
    assert grid.shape == (9, 20) and grid.tobytes() == whole.tobytes()


@given(st.one_of(_decision_cells(), _deep_cells()), _LEVELS)
@settings(max_examples=300, deadline=None)
def test_rejects_is_the_kernel_p_value_below_the_level(cells, level):
    x1, n, p0 = cells
    want = binom_twosided_pvalues(x1, n, p0) < level
    assert _rejects(x1, n, p0, level).tolist() == want.tolist()


@given(st.one_of(_decision_cells(), _decision_cells(big=(2**52 + 1, 2**53 - 1))))
@settings(max_examples=300, deadline=None)
def test_kernel_is_bit_identical_to_the_two_function_tails(cells):
    # Each tail of binom_twosided_pvalues through _tail equals the tests'
    # own _binom_cdf/_binom_sf formulation bit for bit, counts up to 2**53.
    assert binom_twosided_pvalues(*cells).tobytes() == twosided_pvalues(*cells).tobytes()


def _count_betainc(monkeypatch):
    """A list that gets the size of each of exact_test's betainc calls."""
    evaluated = []

    class Counting:
        @staticmethod
        def betainc(a, b, x):
            evaluated.append(np.size(x))
            return betainc(a, b, x)

    monkeypatch.setattr(exact_test, "special", Counting())
    return evaluated


def test_rejects_takes_a_far_tail_only_where_the_observed_one_is_below_the_level(monkeypatch):
    # Every observed tail here is above 0.05, so one betainc element per cell
    # decides them all, but for x1 = 50 at the null mean, whose p = 1 takes
    # none; at level 0.5 most cells need their far tail too.
    evaluated = _count_betainc(monkeypatch)
    x1, n, p0 = np.arange(43.0, 58.0), np.full(15, 100.0), np.full(15, 0.5)
    assert not _rejects(x1, n, p0, 0.05).any()
    assert evaluated == [14]
    evaluated.clear()
    assert _rejects(x1, n, p0, 0.5).tolist() == (binom_twosided_pvalues(x1, n, p0) < 0.5).tolist()
    assert sum(evaluated) > 15


def test_interval_verdicts_take_the_upper_bound_first(monkeypatch):
    # Five sided runs 11-14 sd deep, below the mean and (mirrored) above it:
    # the upper bound rejects them all from their observed and far tails,
    # two betainc elements a row, and no lower bound is evaluated.
    evaluated = _count_betainc(monkeypatch)
    x1, n = np.array([100.0, 120.0, 140.0, 900.0, 880.0]), np.full(5, 1000.0)
    p_lo, p_hi = np.array([0.3] * 3 + [0.69] * 2), np.array([0.31] * 3 + [0.7] * 2)
    assert _interval_verdicts(x1, n, p_lo, p_hi, 0.05).tolist() == [1] * 5
    assert sum(evaluated) == 10
