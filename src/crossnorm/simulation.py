"""Synthetic two-species count generator and benchmark machinery.

The generator draws a per-gene expression rate, plants differential
expression at a configured fold and direction split, adds unique genes
(orthologs expressed in one species only) and unmapped genes (present in
one species only, outside the ortholog table), then draws Poisson counts
whose means follow the between-species mean model: expected reads are
proportional to rate * length * depth / total-output.  The reported
conserved set is contaminated with a configurable fraction of truly-DE
genes to probe normalization robustness.

One scorer counts DE calls against the truth on aligned bool columns:
:func:`run_study` feeds it ``call_de`` columns, :func:`evaluate_run` dicts.

:class:`SimConfig` owns the config rules: its ``int`` fields take integral
numbers and its ``float`` fields real ones (numpy scalars pass, bools do
not).  :func:`run_study` checks every argument and cell before drawing.

:func:`run_study` runs each (cell, replicate) through one function,
``_replicate``, whose result depends only on its seeded task.  With W
usable CPUs (``os.sched_getaffinity``, up to one per task) the calling
process runs every W-th replicate and W-1 ``fork``-started worker
processes run the rest, so workers inherit the loaded modules instead of
importing them again; with one usable CPU, or on a platform that cannot
say, every replicate runs serially in the calling process.  Averaging
happens in the caller in task order, so the result grid is bit-identical
either way.  A worker that dies without sending its results raises
ChildProcessError (one ``error:`` line in the CLI), and no worker outlives
:func:`run_study`, whether it returns or raises.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .core import (ConservedSet, OrthologTable, ScalingFactor, require_integer, require_number,
                   validate_table)

__all__ = [
    "LABEL_NULL",
    "LABEL_DE_UP_SP1",
    "LABEL_DE_UP_SP2",
    "LABEL_UNIQUE_SP1",
    "LABEL_UNIQUE_SP2",
    "DE_LABELS",
    "SimConfig",
    "SimulatedDataset",
    "Metrics",
    "StudyCellResult",
    "generate_dataset",
    "evaluate_run",
    "run_study",
]

LABEL_NULL = "null"
LABEL_DE_UP_SP1 = "de_up_sp1"
LABEL_DE_UP_SP2 = "de_up_sp2"
LABEL_UNIQUE_SP1 = "unique_sp1"
LABEL_UNIQUE_SP2 = "unique_sp2"

# Genes counted as genuinely differentially expressed when scoring calls.
# Unique genes are expressed in one species only, the strongest possible
# difference, so calling them is a true positive rather than an error.
DE_LABELS = frozenset({LABEL_DE_UP_SP1, LABEL_DE_UP_SP2, LABEL_UNIQUE_SP1, LABEL_UNIQUE_SP2})

_LOGNORMAL_SIGMA = 1.5  # fallback rate model when no reference table is given


@dataclass(frozen=True)
class SimConfig:
    """Generator settings for one synthetic dataset.

    Types are checked before ranges: an ``int`` field takes an integral
    number and a ``float`` field a real one (numpy scalars pass, bools do
    not); ``rate_source`` is None or a sequence of positive numbers, stored
    as a tuple of floats.  A config that constructs can be generated.
    """

    n_orthologs: int
    conserved_size: int
    de_rate: float = 0.0
    fold: float = 1.5
    up_rate_sp2: float = 0.9
    n_unique_sp1: int = 0
    n_unique_sp2: int = 0
    n_unmapped_sp1: int = 0
    n_unmapped_sp2: int = 0
    noise_rate: float = 0.0
    depth_sp1: float = 1e6
    depth_sp2: float = 1e6
    length_min: int = 200
    length_max: int = 10200
    rate_source: tuple[float, ...] | None = None
    seed: int = 0

    @classmethod
    def from_mapping(cls, spec) -> SimConfig:
        """Build a config from a mapping of field names, such as a JSON object."""
        if not isinstance(spec, Mapping):
            raise ValueError("a simulation spec must be a JSON object of SimConfig fields")
        _check_field_names(spec)
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in spec]
        if missing:
            raise ValueError(f"missing simulation field(s): {', '.join(missing)}")
        return cls(**spec)

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is int:
                require_integer(name, value)
            elif kind is float:
                require_number(name, value)
            elif value is not None:
                object.__setattr__(self, name, _rates(value))
        if self.n_orthologs <= 0:
            raise ValueError("n_orthologs must be positive")
        for name in ("de_rate", "up_rate_sp2", "noise_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if not (1.0 < self.fold < math.inf):
            raise ValueError("fold must exceed 1 and be finite")
        for name in ("n_unique_sp1", "n_unique_sp2", "n_unmapped_sp1", "n_unmapped_sp2", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.conserved_size < 1:
            raise ValueError("conserved_size must be >= 1")
        if not (0.0 < self.depth_sp1 < math.inf and 0.0 < self.depth_sp2 < math.inf):
            raise ValueError("depths must be positive and finite")
        if not (1 <= self.length_min <= self.length_max):
            raise ValueError("need 1 <= length_min <= length_max")
        n_de, n_keep_null, n_keep_noise = _conserved_split(self)
        if n_keep_null > self.n_orthologs - n_de:
            raise ValueError(f"conserved_size needs {n_keep_null} null orthologs, "
                             f"only {self.n_orthologs - n_de} available")
        if n_keep_noise > n_de + self.n_unique_sp1 + self.n_unique_sp2:
            raise ValueError(f"conserved noise needs {n_keep_noise} non-null orthologs, only "
                             f"{n_de + self.n_unique_sp1 + self.n_unique_sp2} available")


# Each field's annotation (int, float, or rate_source's) is its type rule.
_FIELD_TYPES = get_type_hints(SimConfig)


def _check_field_names(names) -> None:
    unknown = set(names) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown simulation field(s): {', '.join(sorted(unknown))}")


def _rates(value) -> tuple[float, ...]:
    if isinstance(value, str) or not isinstance(value, (Sequence, np.ndarray)):
        raise ValueError(f"rate_source must be a list of numbers, got {value!r}")
    for entry in value:
        require_number("a rate_source entry", entry)
    rates = tuple(map(float, value))
    if not rates or min(rates) <= 0 or not math.isfinite(sum(rates)):
        raise ValueError("rate_source must contain positive values with a finite sum")
    return rates


def _conserved_split(config: SimConfig) -> tuple[int, int, int]:
    """Planted DE orthologs, and the reported conserved set's null and non-null genes."""
    n_de = int(round(config.de_rate * config.n_orthologs))
    n_keep_null = math.ceil((1.0 - config.noise_rate) * config.conserved_size)
    return n_de, n_keep_null, config.conserved_size - n_keep_null


@dataclass(frozen=True)
class SimulatedDataset:
    """Labeled synthetic dataset plus the generator's own ground truth."""

    table: OrthologTable
    truth: dict[str, str]
    reported_conserved: ConservedSet
    true_c: ScalingFactor
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Metrics:
    """Classification quality of a set of DE calls against the truth labels."""

    false_discoveries: int
    precision: float | None
    sensitivity: float | None
    f_score: float


def _draw_rates(rng: np.random.Generator, size: int, source: tuple[float, ...] | None):
    if size == 0:
        return np.zeros(0)
    if source is None:
        return rng.lognormal(mean=0.0, sigma=_LOGNORMAL_SIGMA, size=size)
    ref = np.asarray(source, dtype=np.float64)
    return rng.choice(ref / ref.sum(), size=size, replace=True)


def generate_dataset(config: SimConfig) -> SimulatedDataset:
    """Draw one dataset; the same config (including seed) is bit-reproducible."""
    rng = np.random.default_rng(config.seed)
    n_orth = config.n_orthologs

    # Expression rates and DE assignment for the shared orthologs.
    mu1 = _draw_rates(rng, n_orth, config.rate_source)
    n_de, n_keep_null, n_keep_noise = _conserved_split(config)
    n_null = n_orth - n_de
    order = rng.permutation(n_orth)
    de_idx = order[:n_de]
    n_up2 = int(round(config.up_rate_sp2 * n_de))
    mu2 = mu1.copy()
    mu2[de_idx[:n_up2]] *= config.fold
    mu2[de_idx[n_up2:]] /= config.fold

    labels = np.full(n_orth, LABEL_NULL, dtype=object)
    labels[de_idx[:n_up2]] = LABEL_DE_UP_SP2
    labels[de_idx[n_up2:]] = LABEL_DE_UP_SP1

    # Unique genes: expressed in one species, zero in the other.
    uniq1 = _draw_rates(rng, config.n_unique_sp1, config.rate_source)
    uniq2 = _draw_rates(rng, config.n_unique_sp2, config.rate_source)
    mu_sp1 = np.concatenate([mu1, uniq1, np.zeros(config.n_unique_sp2)])
    mu_sp2 = np.concatenate([mu2, np.zeros(config.n_unique_sp1), uniq2])
    n_table = mu_sp1.size

    len_sp1 = rng.integers(config.length_min, config.length_max + 1, size=n_table)
    len_sp2 = rng.integers(config.length_min, config.length_max + 1, size=n_table)

    # Total expression output over the ortholog table defines the true scale.
    s1 = float(np.sum(mu_sp1 * len_sp1))
    s2 = float(np.sum(mu_sp2 * len_sp2))

    counts_sp1 = rng.poisson(mu_sp1 * len_sp1 * (config.depth_sp1 / s1))
    counts_sp2 = rng.poisson(mu_sp2 * len_sp2 * (config.depth_sp2 / s2))

    # Unmapped genes exist in one species only; their reads inflate that
    # species' sequencing total but never enter the ortholog table.
    unm1_mu = _draw_rates(rng, config.n_unmapped_sp1, config.rate_source)
    unm1_len = rng.integers(config.length_min, config.length_max + 1, size=config.n_unmapped_sp1)
    unm2_mu = _draw_rates(rng, config.n_unmapped_sp2, config.rate_source)
    unm2_len = rng.integers(config.length_min, config.length_max + 1, size=config.n_unmapped_sp2)
    unmapped_reads_sp1 = int(rng.poisson(unm1_mu * unm1_len * (config.depth_sp1 / s1)).sum())
    unmapped_reads_sp2 = int(rng.poisson(unm2_mu * unm2_len * (config.depth_sp2 / s2)).sum())

    ids = [f"g{i:06d}" for i in range(n_table)]
    table = validate_table(ids, length_sp1=len_sp1, length_sp2=len_sp2,
                           count_sp1=counts_sp1, count_sp2=counts_sp2)

    truth = dict(zip(ids, labels.tolist() + [LABEL_UNIQUE_SP1] * config.n_unique_sp1
                     + [LABEL_UNIQUE_SP2] * config.n_unique_sp2))

    # Reported conserved set: mostly nulls, contaminated at the noise rate.
    # The contaminant pool is every non-null ortholog (planted fold-change
    # and unique genes); SimConfig has checked both pools are large enough.
    null_pool = np.flatnonzero(labels == LABEL_NULL)
    noise_pool = np.concatenate([de_idx, np.arange(n_orth, n_table)])
    chosen = list(rng.choice(null_pool, size=n_keep_null, replace=False))
    if n_keep_noise:
        chosen.extend(rng.choice(noise_pool, size=n_keep_noise, replace=False))
    conserved = ConservedSet(frozenset(ids[i] for i in chosen))

    meta = {
        "n_null": int(n_null),
        "n_de": int(n_de),
        "rate_model": "reference_table" if config.rate_source is not None else
                      f"lognormal(0, {_LOGNORMAL_SIGMA})",
        "unmapped_reads_sp1": unmapped_reads_sp1,
        "unmapped_reads_sp2": unmapped_reads_sp2,
        "total_reads_sp1": table.total_sp1 + unmapped_reads_sp1,
        "total_reads_sp2": table.total_sp2 + unmapped_reads_sp2,
        "seed": config.seed,
    }
    return SimulatedDataset(
        table=table,
        truth=truth,
        reported_conserved=conserved,
        true_c=ScalingFactor(s2 / s1),
        meta=meta,
    )


def _de_mask(truth: Mapping[str, str], gene_ids) -> np.ndarray:
    """Bool column: whether each gene's truth label is a DE label."""
    return np.fromiter((truth[g] in DE_LABELS for g in gene_ids), dtype=bool,
                       count=len(gene_ids))


def _score(called: np.ndarray, is_de: np.ndarray) -> Metrics:
    """Score aligned bool columns of DE calls and of true DE status.

    Called nulls are the false discoveries.  Precision (or sensitivity) is
    None when its denominator is empty, and such runs are excluded from
    sweep averages rather than coerced to 0.
    """
    tp = int(np.count_nonzero(called & is_de))
    fp = int(np.count_nonzero(called & ~is_de))
    fn = int(np.count_nonzero(~called & is_de))
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    sensitivity = tp / (tp + fn) if (tp + fn) > 0 else None
    if precision and sensitivity:
        f_score = 2.0 * precision * sensitivity / (precision + sensitivity)
    else:
        f_score = 0.0
    return Metrics(
        false_discoveries=fp,
        precision=precision,
        sensitivity=sensitivity,
        f_score=f_score,
    )


def evaluate_run(calls: Mapping[str, bool], truth: Mapping[str, str]) -> Metrics:
    """Score per-gene DE calls against truth labels.

    ``calls`` and ``truth`` must cover the same genes.  DE and unique genes
    count as real positives; see :func:`_score` for the metrics.
    """
    if set(calls) != set(truth):
        raise ValueError("calls and truth must cover the same genes")
    called = np.fromiter(calls.values(), dtype=bool, count=len(calls))
    return _score(called, _de_mask(truth, calls.keys()))


@dataclass(frozen=True)
class StudyCellResult:
    """Replicate-averaged metrics for one (configuration, method) pair."""

    params: dict
    method: str
    replicates: int
    mean_false_discoveries: float
    mean_precision: float | None
    precision_undefined: int
    mean_sensitivity: float | None
    sensitivity_undefined: int
    mean_f_score: float
    mean_scaling_factor: float
    mean_true_c: float
    # Mean size of the called-gene overlap between the two methods, with and
    # without requiring the direction to agree; None unless both ran.
    mean_overlap_genes: float | None = None
    mean_overlap_directional: float | None = None


def _child_seed(master_seed: int, cell_index: int, rep: int) -> int:
    seq = np.random.SeedSequence([master_seed, cell_index, rep])
    return int(seq.generate_state(1, np.uint64)[0])


def _replicate(task) -> tuple[float, dict[str, tuple[Metrics, float]], tuple[int, int] | None]:
    """Draw, fit, call and score one study replicate.

    ``task`` is the seeded cell config, the methods, the cutoff and the
    grid.  Returns the true factor, each method's metrics and fitted
    factor, and the scbn/median overlap (called genes, and those called in
    the same direction), or None unless both methods ran.
    """
    from .pipeline import estimate_factor, testable_calls

    cell, methods, cutoff, grid = task
    ds = generate_dataset(cell)
    is_de = _de_mask(ds.truth, ds.table.gene_ids)[ds.table.testable]
    calls_by_method = {}
    fits = {}
    fit_grid = grid  # read by scbn only
    if grid.center is None:
        # The median fit is SCBN's default grid center: compute it once.
        fits["median"] = estimate_factor(ds.table, ds.reported_conserved, "median", grid)
        fit_grid = replace(grid, center=fits["median"].factor.c)
    outcomes = {}
    for method in methods:
        if method not in fits:
            fits[method] = estimate_factor(ds.table, ds.reported_conserved, method, fit_grid)
        factor = fits[method].factor
        called, direction = testable_calls(ds.table, factor, cutoff)
        outcomes[method] = (_score(called, is_de), factor.c)
        calls_by_method[method] = (called, direction)
    overlap = None
    if "scbn" in calls_by_method and "median" in calls_by_method:
        called_a, dir_a = calls_by_method["scbn"]
        called_b, dir_b = calls_by_method["median"]
        both = called_a & called_b
        overlap = (int(both.sum()), int((both & (dir_a == dir_b)).sum()))
    return ds.true_c.c, outcomes, overlap


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(tasks) -> tuple[list, Exception | None]:
    """:func:`_replicate` over ``tasks`` in order, up to the first that raises.

    Returns the results before that task and its exception, or every result
    and None.
    """
    results = []
    for task in tasks:
        try:
            results.append(_replicate(task))
        except Exception as exc:  # reported to the caller in task order
            return results, exc
    return results, None


def _send_share(tasks, sender) -> None:
    """Body of a worker process: run its share and send it to the caller."""
    with sender:
        sender.send(_run_share(tasks))


def _receive_share(child, receiver) -> tuple[list, Exception | None]:
    """A worker's :func:`_run_share` result; ChildProcessError if it ended without one."""
    try:
        return receiver.recv()
    except EOFError:
        child.join()
        raise ChildProcessError(f"a study worker process ended with exit code {child.exitcode} "
                                "before sending its results") from None


def _map_replicates(tasks: list) -> list:
    """:func:`_replicate` over ``tasks``, in order.

    W = one worker per usable CPU, up to one per task.  With W = 1 the tasks
    run serially in this process.  Otherwise this process runs every W-th
    task (``tasks[0::W]``) and W-1 forked processes, which inherit the loaded
    modules instead of importing them again, run ``tasks[w::W]`` each and
    send their results back over a pipe.  Each share stops at its first
    failing task, and the failure with the lowest task index is raised, the
    exception a serial run raises first.  A worker that ends without sending
    its share raises ChildProcessError.  Every worker is joined, and
    terminated first if it is still running, before this returns or raises.
    """
    workers = min(_usable_cpus(), len(tasks))
    if workers <= 1:
        return list(map(_replicate, tasks))
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []  # (process, receiving end) running tasks[w::workers], w = 1, 2, ...
    try:
        for w in range(1, workers):
            receiver, sender = context.Pipe(duplex=False)
            with sender:  # once started, the child holds the only open copy
                child = context.Process(target=_send_share, args=(tasks[w::workers], sender))
                child.start()
            children.append((child, receiver))
        shares = []
        first, error = len(tasks), None  # the lowest failing task index and its exception
        for w in range(workers):
            if first < w:
                break  # this share and the later ones start after a known failure
            results, failure = (_run_share(tasks[::workers]) if w == 0
                                else _receive_share(*children[w - 1]))
            if failure is not None and w + workers * len(results) < first:
                first, error = w + workers * len(results), failure
            shares.append(results)
        if error is not None:
            raise error
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()
            child.close()
    outcomes = [None] * len(tasks)
    for w, results in enumerate(shares):
        outcomes[w::workers] = results
    return outcomes


def run_study(
    base: SimConfig,
    sweep: Mapping[str, Sequence],
    methods: Sequence[str],
    replicates: int,
    cutoff: float,
    alpha: float = 0.05,
    master_seed: int = 0,
    grid=None,
) -> list[StudyCellResult]:
    """Generate/normalize/test/score over a configuration sweep.

    Every argument and every cell's config are checked before the first
    dataset is drawn.  Each (cell, replicate) gets an independent derived
    seed, and all methods see the same dataset within a replicate; when
    more than one CPU is usable, this process and forked workers share the
    replicates, with results identical to a serial run.  Results are averaged per cell
    and method; replicates with an undefined metric are excluded from that
    metric's average with the exclusion counted.
    """
    from .normalization import GridConfig
    from .pipeline import METHODS, _check_cutoff

    if not isinstance(sweep, Mapping):
        raise ValueError("sweep must map simulation fields to lists of values")
    _check_field_names(sweep)
    if "rate_source" in sweep:
        raise ValueError("sweep rate_source: only numeric simulation fields can be swept")
    if "seed" in sweep:
        raise ValueError("sweep seed: each replicate's seed derives from the study seed")
    for name, values in sweep.items():
        if isinstance(values, str) or not isinstance(values, (Sequence, np.ndarray)):
            raise ValueError(f"sweep {name} must be a list of values, got {values!r}")
        if len(values) == 0:
            raise ValueError(f"sweep {name} must list at least one value")
    cells = [dict(zip(sweep, combo)) for combo in itertools.product(*sweep.values())]
    cells = [(overrides, replace(base, **overrides)) for overrides in cells]
    if isinstance(methods, str) or not (
            isinstance(methods, Sequence) and all(isinstance(m, str) for m in methods)):
        raise ValueError(f"methods must be a list of method names, got {methods!r}")
    if not methods:
        raise ValueError("methods must name at least one method")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat, got {list(methods)!r}")
    require_integer("replicates", replicates)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    _check_cutoff(cutoff)
    require_number("alpha", alpha)
    require_integer("study seed", master_seed)
    if master_seed < 0:
        raise ValueError("study seed must be >= 0")
    if grid is None:
        grid = GridConfig(alpha=alpha)

    tasks = [(replace(cell, seed=_child_seed(master_seed, cell_index, rep)), methods, cutoff, grid)
             for cell_index, (_, cell) in enumerate(cells) for rep in range(replicates)]
    outcomes = _map_replicates(tasks)

    results: list[StudyCellResult] = []
    for cell_index, (overrides, _) in enumerate(cells):
        reps = outcomes[cell_index * replicates:(cell_index + 1) * replicates]
        true_cs = [true_c for true_c, _, _ in reps]
        overlaps = [overlap for _, _, overlap in reps if overlap is not None]
        overlap_any = [n for n, _ in overlaps]
        overlap_dir = [d for _, d in overlaps]
        for method in methods:
            metrics = [fits[method][0] for _, fits, _ in reps]
            factors = [fits[method][1] for _, fits, _ in reps]
            precisions = [m.precision for m in metrics if m.precision is not None]
            sensitivities = [m.sensitivity for m in metrics if m.sensitivity is not None]
            results.append(
                StudyCellResult(
                    params=dict(overrides),
                    method=method,
                    replicates=replicates,
                    mean_false_discoveries=float(
                        np.mean([m.false_discoveries for m in metrics])
                    ),
                    mean_precision=float(np.mean(precisions)) if precisions else None,
                    precision_undefined=len(metrics) - len(precisions),
                    mean_sensitivity=float(np.mean(sensitivities)) if sensitivities else None,
                    sensitivity_undefined=len(metrics) - len(sensitivities),
                    mean_f_score=float(np.mean([m.f_score for m in metrics])),
                    mean_scaling_factor=float(np.mean(factors)),
                    mean_true_c=float(np.mean(true_cs)),
                    mean_overlap_genes=float(np.mean(overlap_any)) if overlap_any else None,
                    mean_overlap_directional=float(np.mean(overlap_dir)) if overlap_dir else None,
                )
            )
    return results
