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
:func:`run_study` feeds it ``testable_calls`` columns, :func:`evaluate_run`
dicts.

Study replicates run on row columns.  ``_draw`` is the one seeded draw:
it returns the table, a per-row label code column and the conserved rows,
and :func:`generate_dataset` adds the id-keyed ``truth`` dict and
:class:`~crossnorm.core.ConservedSet` to it.  A replicate fits, calls and
scores on rows, with no per-gene ids, dicts, sets or q-values, and its
result equals that of the per-gene path.  :func:`run_study` builds the
gene ids once per distinct table size and passes them with each task.

:func:`run_study` checks every argument, and every cell's :class:`SimConfig`,
before drawing.

:func:`run_study` runs each (cell, replicate) through one function,
``_replicate``, whose result depends only on its seeded task.  With W
usable CPUs (``os.sched_getaffinity``, up to one per task) the calling
process runs every W-th replicate and W-1 ``fork``-started worker
processes run the rest, so workers inherit the loaded modules instead of
importing them again; with one usable CPU, or on a platform that cannot
say, every replicate runs in the calling process.  A worker sends each
replicate's outcome, its result or its exception, as soon as the
replicate ends, and stops after its first failure.  The caller runs its
own replicates and reads the workers' in one loop in task order, and
averages in that order, so the result grid is bit-identical either way,
and the first failure met, on either side, is the one a serial run hits
first.  A worker that dies before reporting a replicate fails at that
replicate with ChildProcessError (one ``error:`` line in the CLI), and no
worker outlives :func:`run_study`, whether it returns or raises.
"""
from __future__ import annotations

import copy
import itertools
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import normalization, pipeline
from .core import (_VALUE_LIMIT, ConservedSet, OrthologTable, ScalingFactor, _build_table,
                   _field_types, _store_numbers, require_integer, require_number)

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
# A drawn table's label column holds indices into _LABELS.
_LABELS = (LABEL_NULL, LABEL_DE_UP_SP1, LABEL_DE_UP_SP2, LABEL_UNIQUE_SP1, LABEL_UNIQUE_SP2)
_LABEL_IS_DE = np.array([label in DE_LABELS for label in _LABELS])

_LOGNORMAL_SIGMA = 1.5  # fallback rate model when no reference table is given
# An ortholog-table gene's Poisson mean is its share of its species' depth,
# so with depths up to 2**52 every table count stays below the 2**53 limit.
# Unmapped genes are scaled by the table genes' total output, so their
# means are not bounded this way; they are capped at _MAX_POISSON_MEAN.
_MAX_DEPTH = 2.0**52
# numpy's largest Poisson mean (a larger one raises "lam value too large").
_MAX_POISSON_MEAN = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
# Rates (at most about 1e9 from the lognormal, 1 from a rate table) times
# the fold, lengths below 2**53 and any gene count stay far inside float64
# with folds up to 1e100, in both directions of the fold.
_MAX_FOLD = 1e100
# At most this many (cell, replicate) tasks per study: a task holds about 400
# bytes and a two-method result about 1,100, so a study stays near 150 MB.
MAX_STUDY_TASKS = 10**5
# At most this many table, conserved and per-species unmapped genes: per 10**5 table
# genes ``crossnorm simulate`` peaks 48 MB higher (19 MB in the draw), per 10**5 unmapped 7 MB.
MAX_SIM_GENES = 10**6


@dataclass(frozen=True)
class SimConfig:
    """Generator settings for one synthetic dataset.

    Types are checked before ranges (``core._store_numbers``): ``int`` fields take
    integral numbers, ``float`` fields real ones (numpy scalars pass, bools do not),
    stored as Python numbers; ``rate_source`` takes None or positive numbers, stored
    as a tuple of floats.  The table, the conserved set and each species' unmapped
    genes hold at most ``MAX_SIM_GENES``.  A config that constructs can be generated.
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
        _store_numbers(self)
        if self.rate_source is not None:
            object.__setattr__(self, "rate_source", _rates(self.rate_source))
        if self.n_orthologs <= 0:
            raise ValueError("n_orthologs must be positive")
        for name in ("de_rate", "up_rate_sp2", "noise_rate"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if not (1.0 < self.fold <= _MAX_FOLD):
            raise ValueError(f"fold must exceed 1 and be at most {_MAX_FOLD:g}")
        for name in ("n_unique_sp1", "n_unique_sp2", "n_unmapped_sp1", "n_unmapped_sp2", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name, genes in (("n_orthologs + n_unique_sp1 + n_unique_sp2", _table_size(self)),
                            ("n_unmapped_sp1", self.n_unmapped_sp1),
                            ("n_unmapped_sp2", self.n_unmapped_sp2),
                            ("conserved_size", self.conserved_size)):
            if genes > MAX_SIM_GENES:
                raise ValueError(f"{name} must be <= {MAX_SIM_GENES}, got {genes}")
        if self.conserved_size < 1:
            raise ValueError("conserved_size must be >= 1")
        for name in ("depth_sp1", "depth_sp2"):
            if not (0.0 < getattr(self, name) <= _MAX_DEPTH):
                raise ValueError(f"{name} must be positive and at most 2**52")
        if not (1 <= self.length_min <= self.length_max):
            raise ValueError("need 1 <= length_min <= length_max")
        if self.length_max >= _VALUE_LIMIT:
            raise ValueError("length_max must be < 2**53")
        n_de, n_keep_null, n_keep_noise = _conserved_split(self)
        if n_keep_null > self.n_orthologs - n_de:
            raise ValueError(f"conserved_size needs {n_keep_null} null orthologs, "
                             f"only {self.n_orthologs - n_de} available")
        if n_keep_noise > n_de + self.n_unique_sp1 + self.n_unique_sp2:
            raise ValueError(f"conserved noise needs {n_keep_noise} non-null orthologs, only "
                             f"{n_de + self.n_unique_sp1 + self.n_unique_sp2} available")


# Each field's annotation: int, float, or rate_source's.
_FIELD_TYPES = _field_types(SimConfig)


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


def _gene_ids(size: int) -> tuple[str, ...]:
    """The generator's gene ids for a table of ``size`` genes: ``g`` and the
    row number, zero-padded to six digits (``g000000``, ..., ``g1000000``)."""
    # One %-format over all rows and one split: faster than an f-string each.
    return tuple(("g%06d\n" * size % tuple(range(size))).split())


def _table_size(config: SimConfig) -> int:
    return config.n_orthologs + config.n_unique_sp1 + config.n_unique_sp2


def _draw(config: SimConfig, gene_ids: tuple[str, ...]):
    """The one seeded draw of a dataset, on rows.

    ``gene_ids`` are the table's ids (``_gene_ids`` of its size), which
    break no id rule, so the table is built without checking them.  Returns
    the validated table, each row's truth label as an int8 index into
    ``_LABELS``, the sorted rows of the reported conserved set (testable or
    not), the true factor, and the two species' unmapped read totals.
    """
    rng = np.random.default_rng(config.seed)
    n_orth = config.n_orthologs

    # Expression rates and DE assignment for the shared orthologs.
    mu1 = _draw_rates(rng, n_orth, config.rate_source)
    n_de, n_keep_null, n_keep_noise = _conserved_split(config)
    order = rng.permutation(n_orth)
    de_idx = order[:n_de]
    n_up2 = int(round(config.up_rate_sp2 * n_de))
    mu2 = mu1.copy()
    mu2[de_idx[:n_up2]] *= config.fold
    mu2[de_idx[n_up2:]] /= config.fold

    # Unique genes: expressed in one species, zero in the other.
    uniq1 = _draw_rates(rng, config.n_unique_sp1, config.rate_source)
    uniq2 = _draw_rates(rng, config.n_unique_sp2, config.rate_source)
    mu_sp1 = np.concatenate([mu1, uniq1, np.zeros(config.n_unique_sp2)])
    mu_sp2 = np.concatenate([mu2, np.zeros(config.n_unique_sp1), uniq2])
    n_table = mu_sp1.size

    labels = np.full(n_table, _LABELS.index(LABEL_NULL), dtype=np.int8)
    labels[de_idx[:n_up2]] = _LABELS.index(LABEL_DE_UP_SP2)
    labels[de_idx[n_up2:]] = _LABELS.index(LABEL_DE_UP_SP1)
    labels[n_orth:n_orth + config.n_unique_sp1] = _LABELS.index(LABEL_UNIQUE_SP1)
    labels[n_orth + config.n_unique_sp1:] = _LABELS.index(LABEL_UNIQUE_SP2)

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
    unmapped_reads_sp1 = _unmapped_reads(rng, unm1_mu * unm1_len * (config.depth_sp1 / s1))
    unmapped_reads_sp2 = _unmapped_reads(rng, unm2_mu * unm2_len * (config.depth_sp2 / s2))

    table = _build_table(gene_ids, len_sp1, len_sp2, counts_sp1, counts_sp2, check_ids=False)

    # Reported conserved set: mostly nulls, contaminated at the noise rate.
    # The contaminant pool is every non-null ortholog (planted fold-change
    # and unique genes); SimConfig has checked both pools are large enough.
    # The two pools are disjoint, so no row is chosen twice.
    null_pool = np.flatnonzero(labels[:n_orth] == _LABELS.index(LABEL_NULL))
    noise_pool = np.concatenate([de_idx, np.arange(n_orth, n_table)])
    chosen = [rng.choice(null_pool, size=n_keep_null, replace=False)]
    if n_keep_noise:
        chosen.append(rng.choice(noise_pool, size=n_keep_noise, replace=False))
    conserved = np.sort(np.concatenate(chosen))
    return (table, labels, conserved, ScalingFactor(s2 / s1),
            (unmapped_reads_sp1, unmapped_reads_sp2))


def generate_dataset(config: SimConfig) -> SimulatedDataset:
    """Draw one dataset; the same config (including seed) is bit-reproducible."""
    gene_ids = _gene_ids(_table_size(config))
    table, labels, conserved, true_c, unmapped = _draw(config, gene_ids)
    n_de = _conserved_split(config)[0]
    meta = {
        "n_null": config.n_orthologs - n_de,
        "n_de": n_de,
        "rate_model": "reference_table" if config.rate_source is not None else
                      f"lognormal(0, {_LOGNORMAL_SIGMA})",
        "unmapped_reads_sp1": unmapped[0],
        "unmapped_reads_sp2": unmapped[1],
        "total_reads_sp1": table.total_sp1 + unmapped[0],
        "total_reads_sp2": table.total_sp2 + unmapped[1],
        "seed": config.seed,
    }
    return SimulatedDataset(
        table=table,
        truth=dict(zip(gene_ids, [_LABELS[k] for k in labels.tolist()])),
        reported_conserved=ConservedSet(frozenset(gene_ids[i] for i in conserved.tolist())),
        true_c=true_c,
        meta=meta,
    )


def _unmapped_reads(rng: np.random.Generator, means: np.ndarray) -> int:
    """The total of one Poisson draw per unmapped gene, as an exact int.

    Each mean is capped at numpy's limit, which leaves every draw that
    would otherwise succeed unchanged; the sum is taken over Python ints,
    so it cannot wrap.
    """
    return sum(rng.poisson(np.minimum(means, _MAX_POISSON_MEAN)).tolist())


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


def _with_seed(config: SimConfig, seed: int) -> SimConfig:
    """The checked ``config`` with ``seed`` set, not checked again as ``replace``
    would (all of ``rate_source`` too): a :func:`_child_seed` is a valid seed."""
    seeded = copy.copy(config)
    object.__setattr__(seeded, "seed", seed)
    return seeded


def _replicate(task) -> tuple[float, dict[str, tuple[Metrics, float]], tuple]:
    """Draw, fit, call and score one study replicate, on row columns.

    ``task`` is the seeded cell config, its table's gene ids, the methods,
    the cutoff and the grid.  Returns the true factor, each method's
    metrics and fitted factor, and the scbn/median overlap (called genes,
    and those called in the same direction), or (None, None) unless both
    methods ran.  The median fit is made once: when both methods run and
    ``grid`` sets no center, it is also SCBN's grid center.  The result
    equals that of the per-gene path: generate_dataset, estimate_factor,
    call_de and evaluate_run.
    """
    cell, gene_ids, methods, cutoff, grid = task
    table, labels, conserved, true_c, _ = _draw(cell, gene_ids)
    rows = conserved[table.testable[conserved]]
    is_de = _LABEL_IS_DE[labels][table.testable]
    fits = {"median": normalization._median_factor(table, rows)} if "median" in methods else {}
    if "scbn" in methods:
        fits["scbn"] = normalization._scbn_fit(table, rows, grid, fits.get("median"))
    # Each method's (de_call, direction) columns over the testable genes.
    calls = {method: pipeline.testable_calls(table, fits[method].factor, cutoff)
             for method in methods}
    overlap = (None, None)
    if "scbn" in calls and "median" in calls:
        (called_a, dir_a), (called_b, dir_b) = calls["scbn"], calls["median"]
        both = called_a & called_b
        overlap = (int(both.sum()), int((both & (dir_a == dir_b)).sum()))
    return true_c.c, {method: (_score(called, is_de), fits[method].factor.c)
                      for method, (called, _) in calls.items()}, overlap


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _outcome(task) -> tuple:
    """``(_replicate(task), None)``, or ``(None, exc)`` if it raises ``exc``."""
    try:
        return _replicate(task), None
    except Exception as exc:  # reported to the caller in task order
        return None, exc


def _send_outcomes(tasks, sender) -> None:
    """Body of a worker process: send each task's :func:`_outcome` as soon as
    it ends, and stop after the first failure."""
    with sender:
        for task in tasks:
            outcome = _outcome(task)
            sender.send(outcome)
            if outcome[1] is not None:
                return


def _map_replicates(tasks: list) -> list:
    """:func:`_replicate` over ``tasks``, in order.

    W = one worker per usable CPU, up to one per task.  This process runs
    every W-th task (``tasks[0::W]``), and W-1 forked processes, which
    inherit the loaded modules instead of importing them again, run
    ``tasks[w::W]`` each and send each task's outcome over a pipe as soon
    as it ends; with W = 1 there are none, and every task runs here.  The
    outcomes are read in task order: task ``i`` runs here if ``i % W == 0``
    and is received from worker ``i % W`` otherwise.  So the first failure
    met is the one a serial run raises, and it is raised as soon as every
    task before it has reported.  Every process stops at its first failing
    task, and a worker that ends before reporting a task fails at that task
    with ChildProcessError.  Every worker is joined, and terminated first
    if it is still running, before this returns or raises.
    """
    workers = min(_usable_cpus(), len(tasks))
    children = []  # (receiving end, process) running tasks[w::workers], w = 1, 2, ...
    try:
        if workers > 1:
            import multiprocessing

            import scipy.special  # noqa: F401 - once here, not again in each forked worker (about 0.3 s)

            context = multiprocessing.get_context("fork")
            for w in range(1, workers):
                receiver, sender = context.Pipe(duplex=False)
                with sender:  # once started, the child holds the only open copy
                    child = context.Process(target=_send_outcomes, args=(tasks[w::workers], sender))
                    child.start()
                children.append((receiver, child))
        results = []
        for i, task in enumerate(tasks):
            if i % workers == 0:
                result, error = _outcome(task)
            else:
                receiver, child = children[i % workers - 1]
                try:
                    result, error = receiver.recv()
                except EOFError:
                    child.join()
                    result, error = None, ChildProcessError(
                        f"a study worker process ended with exit code {child.exitcode} "
                        "before sending its results")
            if error is not None:
                raise error
            results.append(result)
        return results
    finally:
        for receiver, child in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()
            child.close()


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
    dataset is drawn.  Each (cell, replicate) gets an independent seed
    derived from ``master_seed``; ``base.seed`` is not used.  All methods
    see the same dataset within a replicate; when more than one CPU is
    usable, this process and forked workers share the replicates, with
    results identical to a serial run.  Results are averaged per cell
    and method; replicates with an undefined metric are excluded from that
    metric's average with the exclusion counted.  ``grid`` defaults to
    ``GridConfig(alpha=alpha)``; a given grid must have the same alpha.
    """
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
    require_integer("replicates", replicates)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    n_tasks = replicates * math.prod(map(len, sweep.values()))
    if n_tasks > MAX_STUDY_TASKS:
        raise ValueError(f"cells x replicates must be <= {MAX_STUDY_TASKS}, got {n_tasks}")
    cells = [dict(zip(sweep, combo)) for combo in itertools.product(*sweep.values())]
    cells = [(overrides, replace(base, **overrides)) for overrides in cells]
    if isinstance(methods, str) or not (
            isinstance(methods, Sequence) and all(isinstance(m, str) for m in methods)):
        raise ValueError(f"methods must be a list of method names, got {methods!r}")
    if not methods:
        raise ValueError("methods must name at least one method")
    for method in methods:
        pipeline._check_method(method)
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat, got {list(methods)!r}")
    pipeline._check_cutoff(cutoff)
    require_number("alpha", alpha)
    require_integer("study seed", master_seed)
    if master_seed < 0:
        raise ValueError("study seed must be >= 0")
    if grid is None:
        grid = normalization.GridConfig(alpha=alpha)
    elif grid.alpha != alpha:
        raise ValueError(f"grid alpha {grid.alpha!r} differs from the study alpha {alpha!r}")

    # One id tuple per table size, shared by the tasks of every cell of that size.
    gene_ids = {size: _gene_ids(size) for size in {_table_size(cell) for _, cell in cells}}
    tasks = [(_with_seed(cell, _child_seed(master_seed, cell_index, rep)),
              gene_ids[_table_size(cell)], methods, cutoff, grid)
             for cell_index, (_, cell) in enumerate(cells) for rep in range(replicates)]
    outcomes = _map_replicates(tasks)

    results: list[StudyCellResult] = []
    for cell_index, (overrides, _) in enumerate(cells):
        reps = outcomes[cell_index * replicates:(cell_index + 1) * replicates]
        mean_true_c = _mean_defined([true_c for true_c, _, _ in reps])[0]
        overlap_genes, overlap_directional = (
            _mean_defined(column)[0] for column in zip(*(overlap for _, _, overlap in reps)))
        for method in methods:
            metrics = [scored[method][0] for _, scored, _ in reps]
            precision, precision_undefined = _mean_defined([m.precision for m in metrics])
            sensitivity, sensitivity_undefined = _mean_defined([m.sensitivity for m in metrics])
            results.append(StudyCellResult(
                params=dict(overrides),
                method=method,
                replicates=replicates,
                mean_false_discoveries=_mean_defined([m.false_discoveries for m in metrics])[0],
                mean_precision=precision,
                precision_undefined=precision_undefined,
                mean_sensitivity=sensitivity,
                sensitivity_undefined=sensitivity_undefined,
                mean_f_score=_mean_defined([m.f_score for m in metrics])[0],
                mean_scaling_factor=_mean_defined([scored[method][1] for _, scored, _ in reps])[0],
                mean_true_c=mean_true_c,
                mean_overlap_genes=overlap_genes,
                mean_overlap_directional=overlap_directional,
            ))
    return results


def _mean_defined(values: Sequence) -> tuple[float | None, int]:
    """The mean of the values that are not None (None if all are), and how many are None."""
    defined = [value for value in values if value is not None]
    return (float(np.mean(defined)) if defined else None), len(values) - len(defined)
