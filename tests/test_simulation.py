import ast
import dataclasses
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.special  # noqa: F401 - imported here, not inside the timed study runs below
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import crossnorm
from crossnorm import core, normalization, pipeline, simulation
from crossnorm.normalization import GridConfig, empirical_type1_deviation
from crossnorm.simulation import (
    DE_LABELS,
    LABEL_DE_UP_SP1,
    LABEL_DE_UP_SP2,
    LABEL_NULL,
    LABEL_UNIQUE_SP1,
    LABEL_UNIQUE_SP2,
    MAX_SIM_GENES,
    MAX_STUDY_TASKS,
    Metrics,
    SimConfig,
    evaluate_run,
    generate_dataset,
    run_study,
)


def _study1_config(**overrides):
    base = dict(
        n_orthologs=1200,
        conserved_size=200,
        de_rate=0.1,
        fold=1.2,
        up_rate_sp2=0.9,
        n_unique_sp1=120,
        n_unique_sp2=240,
        n_unmapped_sp1=240,
        n_unmapped_sp2=480,
        depth_sp1=2e5,
        depth_sp2=2e5,
        seed=3,
    )
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_same_seed_is_bit_identical():
    cfg = _study1_config()
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert a.table == b.table
    assert a.truth == b.truth
    assert a.reported_conserved == b.reported_conserved
    assert a.true_c.c == b.true_c.c


@st.composite
def _small_configs(draw):
    # Small tables at low depth, so some conserved genes are untestable.
    fields = dict(
        n_orthologs=draw(st.integers(1, 60)),
        conserved_size=draw(st.integers(1, 20)),
        de_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        up_rate_sp2=draw(st.sampled_from([0.0, 0.9])),
        noise_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        n_unique_sp1=draw(st.integers(0, 5)),
        n_unique_sp2=draw(st.integers(0, 5)),
        n_unmapped_sp1=draw(st.integers(0, 5)),
        n_unmapped_sp2=draw(st.integers(0, 5)),
        depth_sp1=draw(st.sampled_from([30.0, 1e5])),
        depth_sp2=draw(st.sampled_from([30.0, 1e5])),
        rate_source=draw(st.none() | st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5)),
        seed=draw(st.integers(0, 2**32)),
    )
    try:
        return SimConfig(**fields)
    except ValueError:  # a conserved pool too small for the set
        assume(False)


# Explicit examples: no unique or unmapped genes; noise 1 with a rate table;
# both at a depth that leaves conserved genes untestable.
@given(_small_configs())
@settings(max_examples=100, deadline=None)
@example(SimConfig(n_orthologs=60, conserved_size=20, depth_sp1=30.0, depth_sp2=30.0, seed=1))
@example(SimConfig(n_orthologs=60, conserved_size=20, de_rate=0.5, noise_rate=1.0,
                   depth_sp1=30.0, depth_sp2=30.0, rate_source=(1.0, 2.0), seed=2))
@example(SimConfig(n_orthologs=30, conserved_size=10, noise_rate=1.0, n_unique_sp1=6,
                   n_unique_sp2=4, n_unmapped_sp1=3, n_unmapped_sp2=2, seed=3))
def test_the_row_draw_is_the_drawn_dataset(config):
    ds = generate_dataset(config)
    table, labels, conserved, true_c, unmapped = simulation._draw(config, ds.table.gene_ids)
    assert table == ds.table
    assert (table.total_sp1, table.total_sp2) == (ds.table.total_sp1, ds.table.total_sp2)
    assert [simulation._LABELS[k] for k in labels.tolist()] == \
        [ds.truth[g] for g in table.gene_ids]
    assert list(ds.truth) == list(table.gene_ids)
    assert conserved.tolist() == sorted(set(conserved.tolist()))
    assert {table.gene_ids[r] for r in conserved.tolist()} == ds.reported_conserved.gene_ids
    assert conserved[table.testable[conserved]].tolist() == \
        normalization._conserved_rows(ds.table, ds.reported_conserved).tolist()
    assert true_c == ds.true_c
    assert unmapped == (ds.meta["unmapped_reads_sp1"], ds.meta["unmapped_reads_sp2"])


def test_different_seed_differs():
    a = generate_dataset(_study1_config(seed=1))
    b = generate_dataset(_study1_config(seed=2))
    assert a.table != b.table


def test_label_accounting():
    cfg = _study1_config()
    ds = generate_dataset(cfg)
    counts = {}
    for label in ds.truth.values():
        counts[label] = counts.get(label, 0) + 1
    n_de = int(round(cfg.de_rate * cfg.n_orthologs))
    assert counts[LABEL_NULL] + counts.get(LABEL_DE_UP_SP1, 0) + counts.get(
        LABEL_DE_UP_SP2, 0
    ) == cfg.n_orthologs
    assert counts.get(LABEL_DE_UP_SP1, 0) + counts.get(LABEL_DE_UP_SP2, 0) == n_de
    assert counts.get(LABEL_DE_UP_SP2, 0) == int(round(cfg.up_rate_sp2 * n_de))
    assert counts[LABEL_UNIQUE_SP1] == cfg.n_unique_sp1
    assert counts[LABEL_UNIQUE_SP2] == cfg.n_unique_sp2
    assert len(ds.table) == cfg.n_orthologs + cfg.n_unique_sp1 + cfg.n_unique_sp2


def test_unique_genes_silent_in_the_other_species():
    ds = generate_dataset(_study1_config())
    by_id = {r.gene_id: r for r in ds.table.records}
    for gid, label in ds.truth.items():
        if label == LABEL_UNIQUE_SP1:
            assert by_id[gid].count_sp2 == 0
        elif label == LABEL_UNIQUE_SP2:
            assert by_id[gid].count_sp1 == 0


def test_conserved_noise_fraction():
    for noise in (0.0, 0.25, 0.5):
        ds = generate_dataset(_study1_config(noise_rate=noise, conserved_size=100))
        labels = [ds.truth[g] for g in ds.reported_conserved.gene_ids]
        n_noise = sum(1 for v in labels if v != LABEL_NULL)
        assert ds.reported_conserved.m == 100
        assert n_noise == math.floor(noise * 100)


def test_true_c_matches_generator_sums():
    ds = generate_dataset(_study1_config(seed=9))
    assert 0.5 < ds.true_c.c < 2.0  # symmetric rates, modest DE tilt


def test_unmapped_reads_inflate_species_totals_only():
    cfg = _study1_config()
    ds = generate_dataset(cfg)
    assert ds.meta["unmapped_reads_sp1"] > 0
    assert ds.meta["unmapped_reads_sp2"] > 0
    assert ds.meta["total_reads_sp1"] == ds.table.total_sp1 + ds.meta["unmapped_reads_sp1"]
    assert ds.meta["total_reads_sp2"] == ds.table.total_sp2 + ds.meta["unmapped_reads_sp2"]


def test_degenerate_configs_error():
    with pytest.raises(ValueError):
        SimConfig(n_orthologs=0, conserved_size=10)
    with pytest.raises(ValueError):
        SimConfig(n_orthologs=100, conserved_size=10, fold=1.0)
    # conserved set larger than the null pool
    with pytest.raises(ValueError):
        generate_dataset(SimConfig(n_orthologs=50, conserved_size=60, seed=1))
    # noise demands more DE genes than exist
    with pytest.raises(ValueError):
        generate_dataset(
            SimConfig(n_orthologs=100, conserved_size=50, de_rate=0.1, noise_rate=0.5, seed=1)
        )
    with pytest.raises(ValueError, match=r"^n_unique_sp1 must be >= 0$"):
        SimConfig(n_orthologs=100, conserved_size=10, n_unique_sp1=-1)
    with pytest.raises(ValueError, match=r"^conserved_size must be >= 1$"):
        SimConfig(n_orthologs=100, conserved_size=0)
    with pytest.raises(ValueError, match=r"^need 1 <= length_min <= length_max$"):
        SimConfig(n_orthologs=100, conserved_size=10, length_min=500, length_max=400)


_INTEGER_FIELDS = ["n_orthologs", "conserved_size", "n_unique_sp1", "n_unique_sp2",
                   "n_unmapped_sp1", "n_unmapped_sp2", "length_min", "length_max", "seed"]
_FLOAT_FIELDS = ["de_rate", "fold", "up_rate_sp2", "noise_rate", "depth_sp1", "depth_sp2"]


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in _INTEGER_FIELDS for value in (True, 2.5, "5")),
    *((name, value) for name in _FLOAT_FIELDS for value in (True, "x")),
])
def test_sim_config_rejects_a_field_of_the_wrong_type(name, value):
    fields = dict(n_orthologs=100, conserved_size=10)
    fields[name] = value
    kind = "an integer" if name in _INTEGER_FIELDS else "a number"
    with pytest.raises(ValueError) as excinfo:
        SimConfig(**fields)
    assert str(excinfo.value) == f"{name} must be {kind}, got {value!r}"


def test_sim_config_takes_numpy_scalars_and_stores_rates_as_floats():
    config = SimConfig(n_orthologs=np.int64(200), conserved_size=np.int32(40),
                       de_rate=np.float32(0.1), noise_rate=np.float64(0.1),
                       rate_source=np.arange(1, 50), seed=np.uint8(3))
    assert config.rate_source == tuple(float(v) for v in range(1, 50))
    assert all(type(v) is float for v in config.rate_source)
    generate_dataset(config)


def test_sim_config_stores_numpy_scalars_as_python_numbers():
    # A float32 fold used to meet the 1e100 bound at float32, where it overflows.
    numbers = dict(n_orthologs=200, conserved_size=20, de_rate=0.25, fold=1.5, seed=2**63)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = SimConfig(n_orthologs=np.int32(200), conserved_size=20,
                           de_rate=np.float32(0.25), fold=np.float32(1.5), seed=np.uint64(2**63))
        table = generate_dataset(config).table
    assert {name: type(getattr(config, name)) for name in numbers} == {
        name: int if name in _INTEGER_FIELDS else float for name in numbers}
    assert config == SimConfig(**numbers)
    assert table == generate_dataset(SimConfig(**numbers)).table


@pytest.mark.parametrize("rate_source, message", [
    ("abc", "rate_source must be a list of numbers, got 'abc'"),
    ([1.0, True], "a rate_source entry must be a number, got True"),
    ([], "rate_source must contain positive values with a finite sum"),
    ([1.0, 0.0], "rate_source must contain positive values with a finite sum"),
    ([1.0, 10**400], "a rate_source entry must be a number, got one too large for a float"),
], ids=["string", "bool-entry", "empty", "zero-entry", "int-beyond-float"])
def test_sim_config_rejects_a_bad_rate_source(rate_source, message):
    with pytest.raises(ValueError) as excinfo:
        SimConfig(n_orthologs=100, conserved_size=10, rate_source=rate_source)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("fields, message", [
    (dict(fold=1e308, de_rate=0.5), "fold must exceed 1 and be at most 1e+100"),
    (dict(fold=math.inf), "fold must exceed 1 and be at most 1e+100"),
    (dict(depth_sp1=1e300), "depth_sp1 must be positive and at most 2**52"),
    (dict(depth_sp1=1e18), "depth_sp1 must be positive and at most 2**52"),
    (dict(depth_sp2=math.nan), "depth_sp2 must be positive and at most 2**52"),
    (dict(length_max=2**60), "length_max must be < 2**53"),
], ids=["fold-1e308", "fold-inf", "depth-1e300", "depth-1e18", "depth-nan", "length-2**60"])
def test_sim_config_rejects_values_whose_draws_would_overflow(fields, message):
    with pytest.raises(ValueError) as excinfo:
        SimConfig(n_orthologs=200, conserved_size=50, **fields)
    assert str(excinfo.value) == message


def test_sim_config_at_its_limits_generates_without_overflow():
    config = SimConfig(n_orthologs=200, conserved_size=50, de_rate=0.5, fold=1e100,
                       depth_sp1=2.0**52, depth_sp2=2.0**52, length_max=2**53 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = generate_dataset(config).table
    assert max(table.count_sp1.max(), table.count_sp2.max(), table.length_sp1.max()) < 2**53


@pytest.mark.parametrize("seed", range(20))
def test_long_unmapped_genes_at_the_largest_depth_are_drawn(seed):
    # One table gene leaves the unmapped genes' Poisson means unbounded; at
    # seed 15 one passes numpy's limit, and the sum passes int64 at most seeds.
    config = SimConfig(n_orthologs=1, conserved_size=1, n_unmapped_sp1=1000, length_min=1,
                       length_max=2**53 - 1, depth_sp1=2.0**52, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = generate_dataset(config)
    unmapped = ds.meta["unmapped_reads_sp1"]
    assert type(unmapped) is int and unmapped > 0
    assert ds.meta["total_reads_sp1"] == ds.table.total_sp1 + unmapped


def test_from_mapping_names_unknown_and_missing_fields():
    with pytest.raises(ValueError, match=r"^unknown simulation field\(s\): bogus$"):
        SimConfig.from_mapping({"n_orthologs": 10, "conserved_size": 2, "bogus": 1})
    with pytest.raises(ValueError, match=r"^missing simulation field\(s\): conserved_size$"):
        SimConfig.from_mapping({"n_orthologs": 10})
    with pytest.raises(ValueError, match=r"^a simulation spec must be a JSON object of SimConfig "
                                         r"fields$"):
        SimConfig.from_mapping([])
    assert SimConfig.from_mapping({"n_orthologs": 10, "conserved_size": 2, "rate_source": [1, 2]}) \
        == SimConfig(n_orthologs=10, conserved_size=2, rate_source=(1.0, 2.0))


def test_rate_source_sampling():
    ds = generate_dataset(_study1_config(rate_source=tuple(float(v) for v in range(1, 200))))
    assert ds.meta["rate_model"] == "reference_table"
    assert ds.table.total_sp1 > 0


def test_calibration_at_true_factor():
    # Truth-null conserved genes tested at c_true reject at most alpha plus
    # sampling slack (the exact test is conservative).
    cfg = SimConfig(n_orthologs=5000, conserved_size=5000, de_rate=0.0,
                    depth_sp1=1e6, depth_sp2=1e6, seed=123)
    ds = generate_dataset(cfg)
    value = empirical_type1_deviation(ds.table, ds.reported_conserved, ds.true_c, alpha=0.05)
    bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 5000)
    assert value.rejection_rate <= bound


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_perfect_calls():
    truth = {"a": LABEL_NULL, "b": LABEL_DE_UP_SP2, "c": LABEL_UNIQUE_SP1}
    calls = {"a": False, "b": True, "c": True}
    m = evaluate_run(calls, truth)
    assert m == Metrics(false_discoveries=0, precision=1.0, sensitivity=1.0, f_score=1.0)


def test_hand_computed_confusion():
    # TP=3, FP=1, FN=2
    truth = {
        "t1": LABEL_DE_UP_SP1, "t2": LABEL_DE_UP_SP2, "t3": LABEL_UNIQUE_SP2,
        "m1": LABEL_DE_UP_SP2, "m2": LABEL_DE_UP_SP1,
        "n1": LABEL_NULL, "n2": LABEL_NULL, "n3": LABEL_NULL,
    }
    calls = {
        "t1": True, "t2": True, "t3": True,
        "m1": False, "m2": False,
        "n1": True, "n2": False, "n3": False,
    }
    m = evaluate_run(calls, truth)
    assert m.false_discoveries == 1
    assert m.precision == pytest.approx(0.75)
    assert m.sensitivity == pytest.approx(0.6)
    assert m.f_score == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_no_calls_with_de_present():
    truth = {"a": LABEL_DE_UP_SP2, "b": LABEL_NULL}
    calls = {"a": False, "b": False}
    m = evaluate_run(calls, truth)
    assert m.precision is None
    assert m.sensitivity == 0.0
    assert m.f_score == 0.0
    assert m.false_discoveries == 0


def test_mismatched_gene_sets_error():
    with pytest.raises(ValueError):
        evaluate_run({"a": True}, {"a": LABEL_NULL, "b": LABEL_NULL})


def test_metric_bounds_random():
    rng = np.random.default_rng(8)
    labels = [LABEL_NULL, LABEL_DE_UP_SP1, LABEL_DE_UP_SP2, LABEL_UNIQUE_SP1]
    truth = {f"g{i}": labels[rng.integers(len(labels))] for i in range(200)}
    calls = {g: bool(rng.integers(2)) for g in truth}
    m = evaluate_run(calls, truth)
    for value in (m.precision, m.sensitivity, m.f_score):
        if value is not None:
            assert 0.0 <= value <= 1.0
    if m.precision == 0.0 or m.sensitivity == 0.0:
        assert m.f_score == 0.0


def _per_gene_metrics(called, is_de):
    # Reference: the confusion counts one gene at a time.
    tp = fp = fn = 0
    for c, d in zip(called, is_de):
        if c and d:
            tp += 1
        elif c and not d:
            fp += 1
        elif not c and d:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else None
    sensitivity = tp / (tp + fn) if tp + fn else None
    f_score = 0.0
    if precision and sensitivity:
        f_score = 2.0 * precision * sensitivity / (precision + sensitivity)
    return Metrics(fp, precision, sensitivity, f_score)


_LABELS = sorted(DE_LABELS | {LABEL_NULL})


@given(st.lists(st.tuples(st.booleans(), st.sampled_from(_LABELS)), max_size=40))
@settings(max_examples=200, deadline=None)
def test_column_scorer_and_evaluate_run_match_a_per_gene_loop(rows):
    called = [c for c, _ in rows]
    labels = [label for _, label in rows]
    is_de = [label in DE_LABELS for label in labels]
    want = _per_gene_metrics(called, is_de)
    assert simulation._score(np.array(called, dtype=bool), np.array(is_de, dtype=bool)) == want
    ids = [f"g{i}" for i in range(len(rows))]
    # The truth dict in another order: evaluate_run aligns by gene id.
    truth = dict(reversed(list(zip(ids, labels))))
    got = evaluate_run(dict(zip(ids, called)), truth)
    assert got == want
    # crossnorm evaluate writes these to JSON.
    assert type(got.false_discoveries) is int and type(got.f_score) is float
    assert all(v is None or type(v) is float for v in (got.precision, got.sensitivity))


# ---------------------------------------------------------------------------
# Study runner
# ---------------------------------------------------------------------------


def test_run_study_deterministic_and_complete():
    base = _study1_config(n_orthologs=600, conserved_size=120, n_unique_sp1=60,
                          n_unique_sp2=120, n_unmapped_sp1=100, n_unmapped_sp2=200,
                          depth_sp1=1e5, depth_sp2=1e5)
    kwargs = dict(
        sweep={"noise_rate": [0.0, 0.3]},
        methods=["scbn", "median"],
        replicates=1,
        cutoff=0.01,
        master_seed=17,
    )
    first = run_study(base, **kwargs)
    second = run_study(base, **kwargs)
    assert first == second
    assert len(first) == 4  # 2 cells x 2 methods
    for cell in first:
        assert cell.replicates == 1
        assert cell.mean_scaling_factor > 0
        assert cell.mean_overlap_genes is not None
        assert cell.mean_overlap_directional <= cell.mean_overlap_genes


def test_run_study_single_method_has_no_overlap():
    base = _study1_config(n_orthologs=400, conserved_size=80, n_unique_sp1=0,
                          n_unique_sp2=0, n_unmapped_sp1=0, n_unmapped_sp2=0,
                          depth_sp1=5e4, depth_sp2=5e4)
    cells = run_study(base, {}, ["median"], replicates=2, cutoff=0.01, master_seed=1)
    assert len(cells) == 1
    assert cells[0].mean_overlap_genes is None


def _use_cpus(monkeypatch, n: int) -> None:
    """Make run_study see ``n`` usable CPUs: serial for 1, forked workers above."""
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: n)


def _assert_no_child_process_left() -> None:
    # waitpid(-1) raises once this process has no child, running or unreaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("center", [None, 1.1], ids=["median-seed", "set-center"])
def test_run_study_cells_are_identical_serially_and_in_worker_processes(monkeypatch, center):
    base = _study1_config(n_orthologs=400, conserved_size=80, n_unique_sp1=40,
                          n_unique_sp2=80, n_unmapped_sp1=0, n_unmapped_sp2=0,
                          depth_sp1=5e4, depth_sp2=5e4)
    drawn = []
    original = simulation._draw

    def recorded_draw(cfg, gene_ids):
        drawn.append(cfg.seed)
        return original(cfg, gene_ids)

    monkeypatch.setattr(simulation, "_draw", recorded_draw)
    runs = {}
    seeds = {}
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        drawn.clear()
        cells = run_study(base, {"noise_rate": [0.0, 0.15, 0.3]}, ["scbn", "median"],
                          replicates=3, cutoff=0.01, master_seed=5,
                          grid=GridConfig(center=center, coarse_points=200))
        runs[cpus] = [dataclasses.asdict(cell) for cell in cells]
        seeds[cpus] = list(drawn)  # the replicates drawn in this process
    # Serially every task's replicate is drawn here, in task order; with W
    # CPUs this process draws every W-th task from task 0 (0, 2, 4, 6 and 8
    # with two, 0, 3 and 6 with three), and W-1 workers the rest.
    assert len(seeds[1]) == 9
    for w in (2, 3):
        assert seeds[w] == seeds[1][0::w]
    assert len(runs[1]) == 3 * 2
    assert runs[1] == runs[2] == runs[3]
    _assert_no_child_process_left()


# In a fresh interpreter: a 4-task study on two CPUs, whose worker prints
# whether scipy.special was loaded when it started, then the same study run
# serially; prints whether scipy was loaded before the study and whether the
# two grids are equal.
_POOL = """
import dataclasses
import sys
from crossnorm import simulation
from crossnorm.simulation import SimConfig, run_study


def scipy_loaded():
    return "scipy.special._ufuncs" in sys.modules


def send_outcomes(tasks, sender):
    print(("worker", scipy_loaded()), flush=True)
    original(tasks, sender)


original, simulation._send_outcomes = simulation._send_outcomes, send_outcomes
print(("start", scipy_loaded()), flush=True)
base = SimConfig(n_orthologs=300, conserved_size=60, de_rate=0.1, fold=2.0,
                 depth_sp1=5e4, depth_sp2=5e4)
grids = []
for cpus in (2, 1):
    simulation._usable_cpus = lambda: cpus
    cells = run_study(base, {"noise_rate": [0.0, 0.3]}, ["scbn", "median"], replicates=2,
                      cutoff=0.01)
    grids.append([dataclasses.asdict(cell) for cell in cells])
print(("serial", grids[0] == grids[1]), flush=True)
"""


def test_the_study_pool_loads_scipy_once_before_forking():
    # The worker inherits scipy.special from this process instead of importing
    # it again, and the grid is the serial run's.
    env = dict(os.environ, PYTHONPATH=str(os.path.dirname(os.path.dirname(crossnorm.__file__))))
    done = subprocess.run([sys.executable, "-c", _POOL], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [ast.literal_eval(line) for line in done.stdout.splitlines()]
    assert lines == [("start", False), ("worker", True), ("serial", True)]


def test_a_failing_replicate_raises_the_serial_runs_first_error_from_workers(monkeypatch):
    # Every replicate fails; the three cells fail with three different messages.
    # The slow first cell runs in this process, so the workers' errors, from
    # the later cells, are sent first.
    original = simulation._draw

    def slow_first_cell(cfg, gene_ids):
        if cfg.conserved_size == 3:
            time.sleep(0.3)
        return original(cfg, gene_ids)

    monkeypatch.setattr(simulation, "_draw", slow_first_cell)
    base = SimConfig(n_orthologs=100, conserved_size=3)
    raised = {}
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError) as info:
            run_study(base, {"conserved_size": [3, 2, 1]}, ["median"], replicates=1,
                      cutoff=0.01)
        raised[cpus] = (type(info.value), str(info.value))
    assert raised[1] == (ValueError, "median baseline needs >= 4 testable conserved genes, got 3")
    assert raised[2] == raised[3] == raised[1]


def test_a_worker_that_dies_raises_child_process_error(monkeypatch):
    # The worker exits at once, while each of this process's 8 tasks sleeps
    # 0.4 s: the run ends after this process's first task or two, not after
    # its whole 3.2 s share.
    caller = os.getpid()
    original = simulation._draw

    def exit_in_worker(cfg, gene_ids):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.4)
        return original(cfg, gene_ids)

    monkeypatch.setattr(simulation, "_draw", exit_in_worker)
    _use_cpus(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(ChildProcessError, match="ended with exit code 3 before sending"):
        run_study(SimConfig(n_orthologs=100, conserved_size=20), {}, ["median"],
                  replicates=16, cutoff=0.01)
    assert time.perf_counter() - start < 2.0
    _assert_no_child_process_left()


@pytest.mark.parametrize("sizes, slow_size, seconds, message", [
    # Task 0 fails here at once while the worker sleeps in task 1: no later
    # task can fail first, so the worker is stopped instead of waited for.
    ([3, 4], 4, 10.0, "got 3"),
    # Task 2 fails here at once; the worker's task 1 fails later but first
    # in task order, so its error is the one raised.
    ([20, 2, 3], 2, 0.3, "got 2"),
    # Task 2 fails here while the worker has 16 tasks of 0.4 s each: only
    # its task 1 precedes the failure, so the rest of its share is not run.
    ([20, 20, 3] + [20] * 30, 20, 0.4, "got 3"),
], ids=["own-first-task", "worker-earlier-task", "own-later-task"])
def test_a_failure_in_this_processs_share_raises_the_serial_runs_first_error(
        monkeypatch, sizes, slow_size, seconds, message):
    original = simulation._draw

    def sleep_in_one_cell(cfg, gene_ids):
        if cfg.conserved_size == slow_size:
            time.sleep(seconds)
        return original(cfg, gene_ids)

    monkeypatch.setattr(simulation, "_draw", sleep_in_one_cell)
    base = SimConfig(n_orthologs=100, conserved_size=20)
    raised = {}
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            run_study(base, {"conserved_size": sizes}, ["median"], replicates=1, cutoff=0.01)
        raised[cpus] = str(info.value)
        assert time.perf_counter() - start < 5.0
    assert raised[1] == f"median baseline needs >= 4 testable conserved genes, {message}"
    assert raised[2] == raised[1]
    _assert_no_child_process_left()


def test_a_worker_that_dies_after_the_first_failure_does_not_mask_it(monkeypatch):
    # The worker reports task 1, then dies in task 3 (size 21), while this
    # process's task 2 fails: the serial run's error, from task 2, is raised.
    caller = os.getpid()
    original = simulation._draw

    def exit_in_worker_task_3(cfg, gene_ids):
        if cfg.conserved_size == 21 and os.getpid() != caller:
            os._exit(3)
        return original(cfg, gene_ids)

    monkeypatch.setattr(simulation, "_draw", exit_in_worker_task_3)
    base = SimConfig(n_orthologs=100, conserved_size=20)
    raised = {}
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError) as info:
            run_study(base, {"conserved_size": [20, 20, 3, 21]}, ["median"], replicates=1,
                      cutoff=0.01)
        raised[cpus] = str(info.value)
    assert raised[1] == "median baseline needs >= 4 testable conserved genes, got 3"
    assert raised[2] == raised[1]
    _assert_no_child_process_left()


def test_run_study_fits_the_median_once_per_replicate(monkeypatch):
    base = _study1_config(n_orthologs=400, conserved_size=80, n_unique_sp1=40,
                          n_unique_sp2=80, n_unmapped_sp1=0, n_unmapped_sp2=0,
                          depth_sp1=5e4, depth_sp2=5e4)
    kwargs = dict(sweep={"noise_rate": [0.0, 0.3]}, replicates=2, cutoff=0.01, master_seed=4)

    # Both the median method and SCBN's default grid center call it.
    calls = []
    original = normalization._median_factor

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(normalization, "_median_factor", counted)
    _use_cpus(monkeypatch, 1)  # the calls are counted in this process

    def run_counted(methods, grid, median_calls):
        calls.clear()
        cells = run_study(base, methods=methods, grid=grid, **kwargs)
        assert len(calls) == median_calls
        return cells

    # A grid that sets its center needs no median fit for SCBN alone.
    for grid, scbn_calls in ((None, 2 * 2), (GridConfig(center=1.0), 0)):  # cells x replicates
        separate = {"median": run_counted(["median"], grid, 2 * 2),
                    "scbn": run_counted(["scbn"], grid, scbn_calls)}
        both = run_counted(["scbn", "median"], grid, 2 * 2)
        for cell in both:
            alone = next(c for c in separate[cell.method] if c.params == cell.params)
            assert cell.mean_scaling_factor == alone.mean_scaling_factor
            assert cell.mean_f_score == alone.mean_f_score


def test_a_replicate_without_testable_conserved_genes_reports_the_median_rule():
    # The median fit runs first whenever it runs, also when the grid sets
    # SCBN's center; SCBN alone reports its own rule.
    base = SimConfig(n_orthologs=100, conserved_size=4, depth_sp1=20.0, depth_sp2=20.0)
    kwargs = dict(sweep={}, replicates=1, cutoff=0.01, master_seed=1,
                  grid=GridConfig(center=1.0))
    for methods in (["scbn", "median"], ["median", "scbn"]):
        with pytest.raises(ValueError, match=r"^median baseline needs >= 4 testable "
                                             r"conserved genes, got 0$"):
            run_study(base, methods=methods, **kwargs)
    with pytest.raises(ValueError, match="^no testable conserved genes$"):
        run_study(base, methods=["scbn"], **kwargs)


def test_run_study_checks_a_rate_source_once_per_cell(monkeypatch):
    # Each replicate's config is its cell's with a derived seed, not checked
    # again: a rate table is read once per cell, and the grid is the one that
    # configs rebuilt (and checked) per replicate give.
    base = SimConfig(n_orthologs=200, conserved_size=40, de_rate=0.1, fold=2.0,
                     depth_sp1=5e4, depth_sp2=5e4, rate_source=np.arange(1.0, 301.0))
    kwargs = dict(sweep={"noise_rate": [0.0, 0.3]}, methods=["scbn", "median"], replicates=3,
                  cutoff=0.01, master_seed=6)
    calls = []
    original = simulation._rates

    def counted(value):
        calls.append(len(value))
        return original(value)

    monkeypatch.setattr(simulation, "_rates", counted)
    _use_cpus(monkeypatch, 1)  # the calls are counted in this process
    cells = run_study(base, **kwargs)
    assert calls == [300] * 2  # one per cell, none per replicate
    monkeypatch.setattr(simulation, "_with_seed",
                        lambda config, seed: dataclasses.replace(config, seed=seed))
    assert cells == run_study(base, **kwargs)
    assert len(calls) == 2 + 2 * (1 + 3)  # each cell, then each cell and replicate


def test_run_study_rejects_unknown_method():
    base = _study1_config()
    with pytest.raises(ValueError):
        run_study(base, {}, ["tmm"], replicates=1, cutoff=0.01)


@pytest.mark.parametrize("methods, message", [
    ([], "methods must name at least one method"),
    (["median", "median"], "methods must not repeat, got ['median', 'median']"),
], ids=["empty", "repeated"])
def test_run_study_rejects_empty_or_repeated_methods_before_generating(
        monkeypatch, methods, message):
    def no_dataset(cfg, gene_ids):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr(simulation, "_draw", no_dataset)
    with pytest.raises(ValueError) as excinfo:
        run_study(_study1_config(), {}, methods, replicates=2, cutoff=0.01)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("sweep, methods, cutoff, message", [
    ({"noise_rate": [0.0, 1.5]}, ["median"], 0.01, "noise_rate must lie in [0, 1]"),
    ({"fold": [1.5, 2.0], "noise_rate": [0.0, "x"]}, ["median"], 0.01,
     "noise_rate must be a number, got 'x'"),
    ({"noise_rate": []}, ["median"], 0.01, "sweep noise_rate must list at least one value"),
    ({}, ["median"], 2, "cutoff must lie in (0, 1)"),
    ({}, "median", 0.01, "methods must be a list of method names, got 'median'"),
    ({"conserved_size": [200, 1200]}, ["median"], 0.01,
     "conserved_size needs 1200 null orthologs, only 1080 available"),
    ({"fold": [2.0, 1e308]}, ["median"], 0.01, "fold must exceed 1 and be at most 1e+100"),
    ([("noise_rate", [0.0])], ["median"], 0.01,
     "sweep must map simulation fields to lists of values"),
], ids=["second-value-out-of-range", "last-cell-not-a-number", "empty-list", "cutoff-2",
        "methods-a-string", "conserved-set-too-large", "fold-overflows", "sweep-not-a-mapping"])
def test_run_study_draws_no_dataset_for_an_invalid_study(monkeypatch, sweep, methods, cutoff,
                                                          message):
    drawn = []
    monkeypatch.setattr(simulation, "_draw", lambda *args: drawn.append(args))
    with pytest.raises(ValueError) as excinfo:
        run_study(_study1_config(), sweep, methods, replicates=2, cutoff=cutoff)
    assert str(excinfo.value) == message
    assert drawn == []


def test_run_study_rejects_a_grid_of_another_alpha_before_generating(monkeypatch):
    drawn = []
    monkeypatch.setattr(simulation, "_draw", lambda *args: drawn.append(args))
    with pytest.raises(ValueError) as excinfo:
        run_study(_study1_config(), {}, ["scbn"], replicates=2, cutoff=0.01, alpha=0.2,
                  grid=GridConfig(alpha=0.05))
    assert str(excinfo.value) == "grid alpha 0.05 differs from the study alpha 0.2"
    assert drawn == []


@pytest.mark.parametrize("settings, message", [
    (dict(replicates=0), "replicates must be >= 1"),
    (dict(master_seed=-1), "study seed must be >= 0"),
], ids=["no-replicates", "negative-seed"])
def test_run_study_rejects_a_bad_replicate_count_or_seed_before_generating(monkeypatch, settings,
                                                                         message):
    drawn = []
    monkeypatch.setattr(simulation, "_draw", lambda *args: drawn.append(args))
    with pytest.raises(ValueError) as excinfo:
        run_study(_study1_config(), {}, ["median"], cutoff=0.01, **{"replicates": 2, **settings})
    assert str(excinfo.value) == message
    assert drawn == []


def _no_cell(*args, **kwargs):
    raise AssertionError("a cell was built")


_SEVEN_SWEPT = ("de_rate", "fold", "up_rate_sp2", "n_unique_sp1", "n_unique_sp2",
                "noise_rate", "length_min")


@pytest.mark.parametrize("sweep, replicates", [
    ({}, MAX_STUDY_TASKS + 1),
    ({}, 10**9),
    ({"noise_rate": [0.0, 0.1]}, MAX_STUDY_TASKS // 2 + 1),
    ({name: list(range(100)) for name in _SEVEN_SWEPT}, 1),
], ids=["one-over", "a-billion-replicates", "two-cells", "seven-fields-of-100"])
def test_run_study_rejects_an_oversized_study_before_building_a_cell(monkeypatch, sweep,
                                                                     replicates):
    monkeypatch.setattr(simulation, "replace", _no_cell)
    with pytest.raises(ValueError) as excinfo:
        run_study(_study1_config(), sweep, ["median"], replicates=replicates, cutoff=0.01)
    tasks = replicates * math.prod(map(len, sweep.values()))
    assert str(excinfo.value) == f"cells x replicates must be <= {MAX_STUDY_TASKS}, got {tasks}"


_TABLE_CAP = f"n_orthologs + n_unique_sp1 + n_unique_sp2 must be <= {MAX_SIM_GENES}, got "


@pytest.mark.parametrize("fields, message", [
    ({"n_orthologs": 10**11}, f"{_TABLE_CAP}{10**11}"),
    ({"n_orthologs": MAX_SIM_GENES + 1}, f"{_TABLE_CAP}{MAX_SIM_GENES + 1}"),
    ({"n_orthologs": MAX_SIM_GENES, "n_unique_sp2": 1}, f"{_TABLE_CAP}{MAX_SIM_GENES + 1}"),
    ({"n_unique_sp1": 10**11}, f"{_TABLE_CAP}{10**11 + 100}"),
    ({"n_unmapped_sp1": 10**11}, f"n_unmapped_sp1 must be <= {MAX_SIM_GENES}, got {10**11}"),
    ({"n_unmapped_sp2": MAX_SIM_GENES + 1},
     f"n_unmapped_sp2 must be <= {MAX_SIM_GENES}, got {MAX_SIM_GENES + 1}"),
    ({"conserved_size": 10**400}, f"conserved_size must be <= {MAX_SIM_GENES}, got {10**400}"),
], ids=["1e11-orthologs", "one-over", "one-unique-over", "1e11-unique", "1e11-unmapped-sp1",
        "one-unmapped-sp2-over", "1e400-conserved"])
def test_sim_config_caps_the_dataset_size(fields, message):
    # A table of 10**11 genes used to construct, and generate_dataset then
    # died with a MemoryError traceback; a conserved size of 10**400 raised
    # OverflowError.  Each case here is rejected before anything is allocated.
    with pytest.raises(ValueError) as excinfo:
        SimConfig(**{"n_orthologs": 100, "conserved_size": 10, **fields})
    assert str(excinfo.value) == message


def test_sim_config_at_the_size_cap_constructs():
    # Construction draws nothing, so a config at the cap costs no memory here.
    config = SimConfig(n_orthologs=MAX_SIM_GENES - 2, conserved_size=10, n_unique_sp1=1,
                       n_unique_sp2=1, n_unmapped_sp1=MAX_SIM_GENES,
                       n_unmapped_sp2=MAX_SIM_GENES)
    assert simulation._table_size(config) == MAX_SIM_GENES


def test_run_study_rejects_an_oversized_cell_before_drawing(monkeypatch):
    base = _study1_config()
    monkeypatch.setattr(simulation, "_gene_ids", _no_cell)
    with pytest.raises(ValueError) as excinfo:
        run_study(base, {"n_orthologs": [1200, 10**11]}, ["median"], replicates=1, cutoff=0.01)
    assert str(excinfo.value) == f"{_TABLE_CAP}{10**11 + base.n_unique_sp1 + base.n_unique_sp2}"


def test_run_study_at_the_task_cap_goes_on_to_build_its_cells(monkeypatch):
    monkeypatch.setattr(simulation, "replace", _no_cell)
    with pytest.raises(AssertionError, match="a cell was built"):
        run_study(_study1_config(), {}, ["median"], replicates=MAX_STUDY_TASKS, cutoff=0.01)


def test_run_study_overlap_and_scores_match_a_recount_from_call_de(monkeypatch):
    base = _study1_config(n_orthologs=400, conserved_size=80, n_unique_sp1=40,
                          n_unique_sp2=80, n_unmapped_sp1=0, n_unmapped_sp2=0,
                          depth_sp1=5e4, depth_sp2=5e4)
    fitted = []
    original = pipeline.testable_calls

    def recorded_calls(table, c, cutoff):
        fitted.append(c.c)
        return original(table, c, cutoff)

    monkeypatch.setattr(pipeline, "testable_calls", recorded_calls)
    _use_cpus(monkeypatch, 1)  # the calls are recorded in this process
    noise_rates = [0.0, 0.3]
    cells = run_study(base, {"noise_rate": noise_rates}, ["scbn", "median"], replicates=3,
                      cutoff=0.01, master_seed=9)
    assert len(fitted) == 2 * 2 * 3

    # The per-gene path: each replicate regenerated by generate_dataset from
    # its derived seed, fitted by estimate_factor, called by call_de, and
    # scored by evaluate_run against the id-keyed truth.
    true_cs, overlaps, refitted = [], [], []
    metrics, factors = {"scbn": [], "median": []}, {"scbn": [], "median": []}
    for cell_index, noise_rate in enumerate(noise_rates):
        for rep in range(3):
            seed = simulation._child_seed(9, cell_index, rep)
            ds = generate_dataset(dataclasses.replace(base, noise_rate=noise_rate, seed=seed))
            true_cs.append(ds.true_c.c)
            called = []
            for method in ("scbn", "median"):
                factor = pipeline.estimate_factor(ds.table, ds.reported_conserved, method,
                                                  GridConfig()).factor
                refitted.append(factor.c)
                factors[method].append(factor.c)
                result = pipeline.call_de(ds.table, factor, 0.01)
                called.append({r.gene_id: r.direction for r in result.records if r.de_call})
                calls = {r.gene_id: r.de_call for r in result.records if r.p_value is not None}
                metrics[method].append(evaluate_run(calls, {g: ds.truth[g] for g in calls}))
            both = called[0].keys() & called[1].keys()
            overlaps.append((len(both), sum(called[0][g] == called[1][g] for g in both)))
    assert fitted == refitted
    assert any(n > 0 for n, _ in overlaps)

    for cell_index, pair in enumerate((cells[0:2], cells[2:4])):
        reps = slice(3 * cell_index, 3 * cell_index + 3)
        for cell in pair:
            scored = metrics[cell.method][reps]
            precisions = [m.precision for m in scored if m.precision is not None]
            sensitivities = [m.sensitivity for m in scored if m.sensitivity is not None]
            assert dataclasses.asdict(cell) == dataclasses.asdict(simulation.StudyCellResult(
                params={"noise_rate": noise_rates[cell_index]},
                method=cell.method,
                replicates=3,
                mean_false_discoveries=float(np.mean([m.false_discoveries for m in scored])),
                mean_precision=float(np.mean(precisions)) if precisions else None,
                precision_undefined=3 - len(precisions),
                mean_sensitivity=float(np.mean(sensitivities)) if sensitivities else None,
                sensitivity_undefined=3 - len(sensitivities),
                mean_f_score=float(np.mean([m.f_score for m in scored])),
                mean_scaling_factor=float(np.mean(factors[cell.method][reps])),
                mean_true_c=float(np.mean(true_cs[reps])),
                mean_overlap_genes=float(np.mean([n for n, _ in overlaps[reps]])),
                mean_overlap_directional=float(np.mean([d for _, d in overlaps[reps]])),
            ))



@pytest.mark.parametrize("size", [0, 1, 10, 8_000, 12_345, 1_000_001])
def test_gene_ids_are_the_zero_padded_row_numbers(size):
    # 1,000,001 rows reach a seven-digit id, past the six-digit padding.
    # The ids break no id rule, so tables are built on them unchecked.
    ids = simulation._gene_ids(size)
    assert ids == tuple(f"g{i:06d}" for i in range(size))
    assert core._id_failures(ids, frozenset(ids)) == []
    if size == 1_000_001:
        assert ids[-1] == "g1000000"
