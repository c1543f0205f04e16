#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for crossnorm.

Run from the repository root:

    python3 perfbench/run.py --workload test-scbn-19k --seed 1 --seconds 30 --trace 0

Workloads, their parameters and the reason each exists are in
``perfbench/spec.json``.  Inputs are generated in-process from ``--seed``;
the program only sees the generated files (``test-*``) or ``SimConfig``
objects (``study-*``).  Every workload is a closed loop: one client, each
operation starting after the previous one ends.  The program's own SCBN
thread pool is the only concurrency; the benchmark adds none beyond the
fresh interpreters that time ``import crossnorm.cli`` during set-up.

``--trace 0`` times operations untraced and reports the end-to-end
metrics; their times are divided by the host's slowdown, read with fixed
kernels after each operation (see ``HostReference``).  ``--trace 1`` is a
separate run: it interleaves untraced and traced operations (spans recorded
around calls into the public functions of each module), then probes every
layer once on the workload's dataset, and reports the per-layer metrics.  Spans are kept in memory and written to
``.perfbench_out/`` at the end.

Every operation's outputs are checked; a check that fails or raises counts
the operation as failed.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the full report (all metrics, environment, and the
output digests and fit that ``spec.json`` records as references).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = Path(__file__).resolve().parent / "spec.json"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_IMPORTS = 5        # fresh interpreters timed for setup_s
MIN_OPS = 3              # operations measured even if --seconds runs out
ORACLE_CELLS = 64        # p-values checked against enumeration per test run
ORACLE_MAX_N = 1000
BATCH_FACTORS = (0.5, 0.63, 0.8, 1.0, 1.25, 1.6, 2.0)  # kernel batch for cells_per_s
BATCH_REPEATS = 5
ROUND_REPEATS = 3
REFERENCE_CPUS = 4       # the SCBN pool's cap: min(4, cpu_count)

if not (SRC / "crossnorm" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'crossnorm'} not found; run from a crossnorm checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import gammaln  # noqa: E402

import crossnorm  # noqa: E402
from crossnorm import exact_test, normalization, pipeline, simulation  # noqa: E402
from crossnorm.core import ScalingFactor  # noqa: E402

if not Path(crossnorm.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported crossnorm from {crossnorm.__file__}, not from {SRC}")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "study_fits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "de_f_score": "ratio",
}
# Reported in the full report line but not in the result line:
# error_rate is 0 by design (the result line carries attempted/failed) and
# c_log_err is a per-dataset estimation error whose spread across seeds far
# exceeds any regression bound.
REPORT_ONLY_UNITS = {"c_log_err": "ln", "error_rate": "ratio"}

ROUNDS = range(4)
# Layers with wrapped callees; for the others the span duration is the self time.
SELF_TIMED = (
    "pipeline.run_pipeline",
    "simulation.run_study",
    "pipeline.load_counts_tsv",
    "normalization.scbn_scaling_factor",
    "pipeline.call_de",
    "pipeline.estimate_factor",
    "pipeline.testable_calls",
)
SPAN_TIMED = (
    "normalization.scbn_scaling_factor",
    "normalization.median_scaling_factor",
    "exact_test.binom_twosided_pvalues",
    "pipeline.load_counts_tsv",
    "core.validate_table",
    "pipeline.load_conserved_list",
    "pipeline.call_de",
    "pipeline.bh_adjust",
    "pipeline.write_report",
    "simulation.generate_dataset",
    "simulation.evaluate_run",
)
PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_TIMED},
    **{f"normalization.scbn.round{r}.s": "s" for r in ROUNDS},
    **{f"normalization.scbn.round{r}.cells": "count" for r in ROUNDS},
    **{f"normalization.scbn.round{r}.live_gene_share": "ratio" for r in ROUNDS},
    "normalization.scbn_scaling_factor.s_1cpu": "s",
    "normalization.median_scaling_factor.genes": "count",
    "exact_test.binom_twosided_pvalues.cells_per_s": "1/s",
    "exact_test.betainc_evals": "count",
    "pipeline.load_counts_tsv.bytes": "bytes",
    "pipeline.write_report.bytes": "bytes",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    "trace.run_s.traced": "s",
    "trace.run_s.untraced": "s",
    "trace.overhead_ratio": "ratio",
}


# --------------------------------------------------------------------------
# Tracing: spans around calls into the public functions of each module.
# --------------------------------------------------------------------------

# (module, attribute looked up at call time, span name).  Functions are
# patched where their callers look them up, so a call made through
# ``from .x import f`` is traced too.  Calls made on the SCBN worker threads
# are not spanned; the span stack belongs to the main thread.
TRACE_POINTS = (
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "write_report", "pipeline.write_report"),
    (pipeline, "load_counts_tsv", "pipeline.load_counts_tsv"),
    (pipeline, "validate_table", "core.validate_table"),
    (pipeline, "load_conserved_list", "pipeline.load_conserved_list"),
    (pipeline, "scbn_scaling_factor", "normalization.scbn_scaling_factor"),
    (pipeline, "median_scaling_factor", "normalization.median_scaling_factor"),
    (normalization, "median_scaling_factor", "normalization.median_scaling_factor"),
    (pipeline, "call_de", "pipeline.call_de"),
    (pipeline, "bh_adjust", "pipeline.bh_adjust"),
    (pipeline, "binom_twosided_pvalues", "exact_test.binom_twosided_pvalues"),
    (pipeline, "estimate_factor", "pipeline.estimate_factor"),
    (pipeline, "testable_calls", "pipeline.testable_calls"),
    (simulation, "run_study", "simulation.run_study"),
    (simulation, "generate_dataset", "simulation.generate_dataset"),
    (simulation, "evaluate_run", "simulation.evaluate_run"),
)


class BetaincCounter:
    """Stands in for ``crossnorm.exact_test.special``; counts betainc elements."""

    def __init__(self, special):
        self._special = special
        self._lock = threading.Lock()
        self.count = 0

    def betainc(self, *args, **kwargs):
        out = self._special.betainc(*args, **kwargs)
        with self._lock:  # called from the SCBN worker threads
            self.count += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._special, name)


class Tracer:
    """In-memory span recorder; install() patches TRACE_POINTS, uninstall() restores."""

    def __init__(self, workload: str):
        self.workload = workload
        self.run_id = "setup"
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self._originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACE_POINTS]
        self._wrapped = [
            (mod, attr, self._wrap(getattr(mod, attr), name)) for mod, attr, name in TRACE_POINTS
        ]
        self.betainc = BetaincCounter(exact_test.special)

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run": self.run_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    def _wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                return func(*args, **kwargs)
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def install(self) -> None:
        for mod, attr, fn in self._wrapped:
            setattr(mod, attr, fn)
        exact_test.special = self.betainc

    def uninstall(self) -> None:
        for mod, attr, fn in self._originals:
            setattr(mod, attr, fn)
        exact_test.special = self.betainc._special

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [
            s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        ]


# --------------------------------------------------------------------------
# Workload set-up
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Workload:
    name: str
    spec: dict
    seed: int
    work_dir: Path
    grid_points: int
    sim_config: simulation.SimConfig
    dataset: simulation.SimulatedDataset
    reference: dict | None
    first_observed: dict | None = None

    @property
    def counts_path(self) -> Path:
        return self.work_dir / "counts.tsv"

    @property
    def conserved_path(self) -> Path:
        return self.work_dir / "conserved.txt"

    @property
    def flow(self) -> str:
        return self.spec["flow"]

    def run_config(self, method: str) -> pipeline.RunConfig:
        return pipeline.RunConfig(
            counts_path=str(self.counts_path),
            conserved_path=str(self.conserved_path),
            method=method,
            alpha=self.spec["alpha"],
            cutoff=self.spec["cutoff"],
            grid_points=self.grid_points,
        )

    def grid(self) -> normalization.GridConfig:
        return self.run_config("scbn").grid()


def shrink_for_smoke(sim: dict) -> dict:
    """A tenth of every gene count, for the smoke test only."""
    return {k: (max(1, v // 10) if isinstance(v, int) else v) for k, v in sim.items()}


def write_inputs(ds: simulation.SimulatedDataset, counts: Path, conserved: Path) -> None:
    with counts.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(pipeline.COUNTS_HEADER) + "\n")
        for r in ds.table.records:
            fh.write(f"{r.gene_id}\t{r.length_sp1}\t{r.count_sp1}\t{r.length_sp2}\t{r.count_sp2}\n")
    conserved.write_text("".join(f"{g}\n" for g in sorted(ds.reported_conserved.gene_ids)),
                         encoding="utf-8")


def set_up(name: str, spec: dict, seed: int, tiny: bool, trace: int) -> Workload:
    wspec = spec["workloads"][name]
    sim = shrink_for_smoke(wspec["sim"]) if tiny else wspec["sim"]
    if wspec["flow"] == "study":
        # The study's base; the layer probe runs on the sweep's first cell.
        sim = dict(sim, **{k: v[0] for k, v in wspec["sweep"].items()})
    sim_config = simulation.SimConfig(**sim, seed=seed)
    work_dir = OUT_ROOT / f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = Workload(
        name=name, spec=wspec, seed=seed, work_dir=work_dir,
        grid_points=100 if tiny else 1000,
        sim_config=sim_config,
        dataset=simulation.generate_dataset(sim_config),
        reference=spec["reference"].get(name)
        if seed == spec["reference_seed"] and not tiny else None,
    )
    write_inputs(wl.dataset, wl.counts_path, wl.conserved_path)
    return wl


class HostReference:
    """Fixed kernels, independent of the program, timed after every operation.

    The benchmark runs on a few vCPUs of a shared host whose speed drifts
    by up to 2x over minutes with the neighbours' load.  CPU time drifts
    with wall time, so the cores run slower; the process is not waiting.
    Two kernels stand for the two kinds of work the program does: an array
    kernel (betainc over 100,000 elements) and a text kernel (parsing 20,000
    TSV lines, formatting 20,000 values).  Each runs once pinned to each CPU
    the SCBN pool can use, since each vCPU drifts on its own.  The host's
    slowdown is the mean over those CPUs of

        share * array_time / array_nominal + (1 - share) * text_time / text_nominal

    where ``share`` is the share of the operation's time spent in array
    kernels.  Times are reported divided by the slowdown: the seconds they
    would take on a host where the kernels take their nominal times.  The
    kernels call scipy and the standard library, never crossnorm, so a
    change to the program moves the scaled times in full; ``share`` only
    sets how well the drift cancels.
    """

    def __init__(self, array_nominal_s: float, text_nominal_s: float):
        self.array_nominal_s = array_nominal_s
        self.text_nominal_s = text_nominal_s
        rng = np.random.default_rng(20181004)
        self._a = rng.uniform(1.0, 500.0, 100_000)
        self._b = rng.uniform(1.0, 500.0, 100_000)
        self._x = rng.uniform(0.01, 0.99, 100_000)
        self._lines = [f"g{i}\t{i % 997 + 100}\t{i % 53}\t{i % 991 + 80}\t{i % 71}"
                       for i in range(20_000)]
        self._checksum = None

    def slowdown(self, array_share: float) -> float:
        """Time both kernels once on each CPU; return the host's slowdown."""
        cpus = os.sched_getaffinity(0)
        each = []
        try:
            for cpu in sorted(cpus)[:REFERENCE_CPUS]:
                os.sched_setaffinity(0, {cpu})
                array_s, text_s = self._kernels()
                each.append(array_share * array_s / self.array_nominal_s
                            + (1.0 - array_share) * text_s / self.text_nominal_s)
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.fmean(each)

    def _kernels(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        p = scipy.special.betainc(self._a, self._b, self._x)
        t1 = time.perf_counter()
        total = 0
        for line in self._lines:
            fields = line.split("\t")
            total += int(fields[2]) + int(fields[4])
        text = "".join(f"{i}\t{v:.6g}\n" for i, v in enumerate(p[:20_000]))
        t2 = time.perf_counter()
        checksum = (total, len(text), float(p.sum()))
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError("host reference kernels are not deterministic")
        return t1 - t0, t2 - t1


def time_fresh_imports(n: int, ref: HostReference) -> tuple[list[float], list[float]]:
    """Wall times for a fresh interpreter to import crossnorm.cli, each
    followed by a host slowdown reading (returned too).  Importing is
    interpreter and loader work, so the reading uses the text kernel only."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import crossnorm.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    ref.slowdown(0.0)  # warm-up
    times, slowdowns = [], []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
        slowdowns.append(ref.slowdown(0.0))
    return times, slowdowns


# --------------------------------------------------------------------------
# Operations and their output checks
# --------------------------------------------------------------------------


@dataclasses.dataclass
class OpResult:
    seconds: float
    fits: int
    c_log_err: float
    f_score: float
    problems: list[str]
    observed: dict  # output digests and fit, compared with the spec.json reference


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def oracle_pvalue(x: int, n: int, p0: float) -> float:
    """Two-sided p by enumeration: pmf summed over |k - n*p0| >= |x - n*p0| (tie slack)."""
    k = np.arange(n + 1, dtype=np.float64)
    logpmf = (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
              + k * math.log(p0) + (n - k) * math.log1p(-p0))
    mu = n * p0
    slack = min(1e-7 * n, 0.25)
    far = np.abs(k - mu) >= abs(x - mu) - slack
    return min(1.0, float(np.exp(logpmf[far]).sum()))


def check_test_run(wl: Workload, method: str, report, out_dir: Path, op_index: int,
                   reference: dict | None) -> OpResult:
    summary_bytes = (out_dir / "summary.json").read_bytes()
    results_bytes = (out_dir / "results.tsv").read_bytes()
    problems: list[str] = []
    table = wl.dataset.table
    conserved = wl.dataset.reported_conserved

    summary = json.loads(summary_bytes)
    rows = [line.split("\t") for line in results_bytes.decode("utf-8").splitlines()[1:]]
    ids = [r[0] for r in rows]
    if ids != list(table.gene_ids):
        problems.append("results.tsv rows do not follow the table's gene order")
    n = np.asarray([r.count_sp1 + r.count_sp2 for r in table.records])
    tested = [(float(r[1]), float(r[2])) for r in rows if r[1] != "NA"]
    if any(not (0.0 < p <= 1.0 and 0.0 < q <= 1.0 and q >= p) for p, q in tested):
        problems.append("a p or q value lies outside (0, 1] or q < p")
    n_testable = int((n > 0).sum())
    if not (len(tested) == n_testable == summary["genes"]["testable"] == report.n_testable):
        problems.append("testable count differs from the number of genes with n > 0")
    called = [r for r in rows if r[4] == "true"]
    tallies = summary["tallies"]
    sp1 = sum(r[3] == pipeline.DIRECTION_SP1 for r in called)
    sp2 = sum(r[3] == pipeline.DIRECTION_SP2 for r in called)
    none = sum(r[3] == pipeline.DIRECTION_NONE for r in called)
    if (tallies["total_de"], tallies["higher_sp1"], tallies["higher_sp2"]) != (len(called), sp1, sp2) \
            or sp1 + sp2 + none != len(called) \
            or summary["genes"]["total"] != summary["genes"]["testable"] + summary["genes"]["untestable"] \
            or summary["genes"]["total"] != len(rows):
        problems.append("summary tallies do not add up to the per-gene results")

    c = report.scaling_factor
    if method == "scbn":
        again = normalization.empirical_type1_deviation(
            table, conserved, ScalingFactor(c), wl.spec["alpha"])
        if again != report.objective:
            problems.append(f"objective at the chosen c is {again}, report says {report.objective}")

    # Enumeration oracle on a seeded sample of cells with n <= ORACLE_MAX_N.
    small = np.flatnonzero((n > 0) & (n <= ORACLE_MAX_N))
    rng = np.random.default_rng([wl.seed, op_index])
    sample = rng.choice(small, size=min(ORACLE_CELLS, small.size), replace=False)
    l1 = np.asarray([table.records[i].length_sp1 for i in sample])
    l2 = np.asarray([table.records[i].length_sp2 for i in sample])
    p0 = exact_test.null_prob_values(c, l1, l2, table.total_sp1, table.total_sp2)
    for i, q in zip(sample, p0):
        want = oracle_pvalue(table.records[i].count_sp1, int(n[i]), float(q))
        got = float(rows[i][1])
        if abs(got - want) > 1e-9 * max(got, want) + 1e-300:
            problems.append(f"{ids[i]}: p={got!r}, enumeration gives {want!r}")
            break

    fit = [c] + ([report.objective.deviation, report.objective.rejection_rate]
                 if method == "scbn" else [])
    observed = {"summary_sha256": sha256(summary_bytes),
                "results_sha256": sha256(results_bytes), "fit": fit}
    if reference is not None and observed != reference:
        problems.append(f"outputs {observed} differ from the reference {reference}")

    calls = {r.gene_id: r.de_call for r in report.results if r.p_value is not None}
    metrics = simulation.evaluate_run(calls, {g: wl.dataset.truth[g] for g in calls})
    return OpResult(seconds=0.0, fits=1, c_log_err=abs(math.log(c / wl.dataset.true_c.c)),
                    f_score=metrics.f_score, problems=problems, observed=observed)


def test_op(wl: Workload, method: str, out_dir: Path, op_index: int) -> OpResult:
    t0 = time.perf_counter()
    report = pipeline.run_pipeline(wl.run_config(method))
    pipeline.write_report(report, out_dir)
    seconds = time.perf_counter() - t0
    result = check_test_run(wl, method, report, out_dir, op_index, wl.reference)
    result.seconds = seconds
    return result


def study_op(wl: Workload) -> OpResult:
    spec = wl.spec
    t0 = time.perf_counter()
    cells = simulation.run_study(
        wl.sim_config, spec["sweep"], spec["methods"], spec["replicates"], spec["cutoff"],
        alpha=spec["alpha"], master_seed=wl.seed, grid=wl.grid())
    seconds = time.perf_counter() - t0
    problems: list[str] = []
    encoded = json.dumps([dataclasses.asdict(c) for c in cells], sort_keys=True).encode()
    observed = {"study_sha256": sha256(encoded)}
    n_cells = math.prod(len(v) for v in spec["sweep"].values())
    if len(cells) != n_cells * len(spec["methods"]):
        problems.append(f"{len(cells)} study cells, expected {n_cells * len(spec['methods'])}")
    for cell in cells:
        bounded = [cell.mean_f_score, cell.mean_precision, cell.mean_sensitivity]
        if cell.replicates != spec["replicates"] or \
                any(v is not None and not (0.0 <= v <= 1.0) for v in bounded) or \
                not (cell.mean_scaling_factor > 0.0 and cell.mean_true_c > 0.0):
            problems.append(f"study cell {cell.params} {cell.method} out of range")
    if wl.reference is not None and observed != wl.reference:
        problems.append(f"outputs {observed} differ from the reference {wl.reference}")
    # With one replicate per cell the means are the per-fit values.
    errs = [abs(math.log(c.mean_scaling_factor / c.mean_true_c)) for c in cells]
    return OpResult(seconds=seconds, fits=len(cells) * spec["replicates"],
                    c_log_err=statistics.fmean(errs),
                    f_score=statistics.fmean(c.mean_f_score for c in cells),
                    problems=problems, observed=observed)


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def op(self) -> OpResult | None:
        wl = self.wl
        index = self.attempted
        self.attempted += 1
        try:
            if wl.flow == "study":
                result = study_op(wl)
            else:
                result = test_op(wl, wl.spec["method"], wl.work_dir / "report", index)
        except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
            self.fail(f"operation {index} raised {type(exc).__name__}: {exc}")
            return None
        if wl.first_observed is None:
            wl.first_observed = result.observed
        elif result.observed != wl.first_observed:
            result.problems.append("outputs differ from the first repeat in this run")
        if result.problems:
            self.fail(f"operation {index}: " + "; ".join(result.problems))
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)


# --------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# --------------------------------------------------------------------------


def measure_end_to_end(wl: Workload, seconds: float, host: dict
                       ) -> tuple[Runner, dict, dict]:
    ref = HostReference(host["array_nominal_s"], host["text_nominal_s"])
    share = wl.spec["array_share"]
    setup, setup_slowdown = time_fresh_imports(SETUP_IMPORTS, ref)
    runner = Runner(wl)
    runner.op()  # warm-up: caches, lazy imports, first-touch allocation
    timed: list[OpResult] = []
    slowdown: list[float] = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(timed) < MIN_OPS:
        result = runner.op()
        if result is not None:
            timed.append(result)
            slowdown.append(ref.slowdown(share))
    if not timed:
        raise RuntimeError("no operation completed")
    # Time-weighted means, not medians: this host alternates between fast and
    # slow states lasting seconds, so per-run medians jump between the two
    # modes while the mean over the window moves smoothly with their mix.
    # Dividing by the host's mean slowdown, read after each operation,
    # removes most of the drift left from run to run.
    wall = sum(r.seconds for r in timed)
    busy = wall / statistics.fmean(slowdown)
    metrics = {
        "setup_s": statistics.median(setup) / statistics.fmean(setup_slowdown),
        "run_s": busy / len(timed),
        "study_fits_per_s": sum(r.fits for r in timed) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "de_f_score": timed[0].f_score,
        "c_log_err": timed[0].c_log_err,
        "error_rate": runner.failed / runner.attempted,
    }
    extra = {"timed_ops": len(timed),
             "run_s_wall_mean": wall / len(timed),
             "run_s_wall_median": statistics.median(r.seconds for r in timed),
             "run_s_all": [r.seconds for r in timed],
             "setup_s_all": setup,
             "host_slowdown": {"array_share": share, "setup_all": setup_slowdown,
                               "run_all": slowdown},
             "observed": timed[0].observed}
    return runner, metrics, extra


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------


def deviation_grid(center: float, span: float, points: int) -> np.ndarray:
    # The grid scbn_scaling_factor searches with refine_rounds=0.
    h = np.log(span)
    return np.exp(np.linspace(np.log(center) - h, np.log(center) + h, points))


def live_gene_share(wl: Workload, cs: np.ndarray) -> tuple[float, int]:
    """Share of testable conserved genes whose p < alpha decision flips across ``cs``."""
    table = wl.dataset.table
    wanted = wl.dataset.reported_conserved.gene_ids
    recs = [r for r in table.records if r.gene_id in wanted and r.testable]
    x1, x2, l1, l2 = (np.asarray([getattr(r, f) for r in recs], dtype=np.float64)
                      for f in ("count_sp1", "count_sp2", "length_sp1", "length_sp2"))
    ever = np.zeros(len(recs), dtype=bool)
    always = np.ones(len(recs), dtype=bool)
    for start in range(0, cs.size, 100):
        p = exact_test.gene_pvalues(x1, x2, l1, l2, table.total_sp1, table.total_sp2,
                                    cs[start:start + 100, None])
        reject = p < wl.spec["alpha"]
        ever |= reject.any(axis=0)
        always &= reject.all(axis=0)
    return float((ever & ~always).mean()), len(recs)


def probe_layers(wl: Workload, tracer: Tracer, runner: Runner) -> dict:
    """Exercise every layer once on the workload's dataset, traced."""
    metrics: dict = {}
    table, conserved = wl.dataset.table, wl.dataset.reported_conserved
    grid = wl.grid()
    tracer.run_id = "probe"
    tracer.install()
    try:
        again = simulation.generate_dataset(wl.sim_config)
        if again.table != table:
            runner.fail("generate_dataset is not reproducible for a fixed config")
        fits, report_bytes = {}, {}
        for method in ("scbn", "median"):
            runner.attempted += 1
            out_dir = wl.work_dir / f"probe-{method}"
            report = pipeline.run_pipeline(wl.run_config(method))
            pipeline.write_report(report, out_dir)
            checked = check_test_run(wl, method, report, out_dir, runner.attempted, None)
            if checked.problems:
                runner.fail(f"probe {method}: " + "; ".join(checked.problems))
            fits[method] = report.scaling_factor
            report_bytes[method] = sum(
                (out_dir / f).stat().st_size for f in ("summary.json", "results.tsv"))
        # One single-cell, both-method study, so the study layers are traced
        # on every workload.
        simulation.run_study(wl.sim_config, {"noise_rate": [wl.sim_config.noise_rate]},
                             ["scbn", "median"], 1, wl.spec["cutoff"],
                             alpha=wl.spec["alpha"], master_seed=wl.seed, grid=grid)
    finally:
        tracer.uninstall()
    metrics["pipeline.write_report.bytes"] = report_bytes[wl.spec.get("method", "scbn")]
    metrics["pipeline.load_counts_tsv.bytes"] = wl.counts_path.stat().st_size
    metrics["normalization.median_scaling_factor.genes"] = sum(
        1 for r in table.records if r.gene_id in conserved.gene_ids and r.testable)

    # One SCBN round per call, chained through the previous round's pick.
    seed_c = normalization.median_scaling_factor(table, conserved).factor.c
    for _ in range(ROUND_REPEATS):
        center = seed_c
        chain = []
        for r in ROUNDS:
            span = math.exp(math.log(grid.span) * grid.refine_shrink**r)
            one_round = dataclasses.replace(grid, center=center, span=span, refine_rounds=0)
            with tracer.span(f"normalization.scbn.round{r}"):
                fit = normalization.scbn_scaling_factor(table, conserved, one_round)
            chain.append((center, span))
            center = fit.factor.c
    step = normalization.final_grid_log_step(grid)
    if abs(math.log(center / fits["scbn"])) > step:
        runner.fail(f"chained rounds pick {center!r}, one-shot fit {fits['scbn']!r}")
    for r, (center_r, span_r) in zip(ROUNDS, chain):
        share, m = live_gene_share(wl, deviation_grid(center_r, span_r, grid.coarse_points))
        metrics[f"normalization.scbn.round{r}.s"] = statistics.median(
            tracer.durations(f"normalization.scbn.round{r}"))
        metrics[f"normalization.scbn.round{r}.cells"] = grid.coarse_points * m
        metrics[f"normalization.scbn.round{r}.live_gene_share"] = share

    # Single-core baseline of the whole fit.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with tracer.span("normalization.scbn_scaling_factor.1cpu"):
            normalization.scbn_scaling_factor(table, conserved, grid)
        metrics["normalization.scbn_scaling_factor.s_1cpu"] = tracer.durations(
            "normalization.scbn_scaling_factor.1cpu")[0]
    finally:
        os.sched_setaffinity(0, cpus)

    # Kernel throughput on a fixed batch: every testable gene x BATCH_FACTORS.
    recs = [r for r in table.records if r.testable]
    x1 = np.asarray([r.count_sp1 for r in recs], dtype=np.float64)
    n = x1 + np.asarray([r.count_sp2 for r in recs], dtype=np.float64)
    l1 = np.asarray([r.length_sp1 for r in recs], dtype=np.float64)
    l2 = np.asarray([r.length_sp2 for r in recs], dtype=np.float64)
    p0 = exact_test.null_prob_values(np.asarray(BATCH_FACTORS)[:, None], l1, l2,
                                     table.total_sp1, table.total_sp2)
    batch_times = []
    for _ in range(BATCH_REPEATS):
        t0 = time.perf_counter()
        exact_test.binom_twosided_pvalues(x1, n, p0)
        batch_times.append(time.perf_counter() - t0)
    metrics["exact_test.binom_twosided_pvalues.cells_per_s"] = p0.size / statistics.median(batch_times)
    return metrics


def measure_per_layer(wl: Workload, seconds: float) -> tuple[Runner, dict, Tracer]:
    tracer = Tracer(wl.name)
    runner = Runner(wl)
    runner.op()  # warm-up
    untraced: list[float] = []
    traced: list[float] = []
    betainc: list[int] = []
    t_end = time.perf_counter() + seconds
    # Untraced and traced operations alternate so drift hits both alike.
    while time.perf_counter() < t_end or min(len(untraced), len(traced)) < MIN_OPS:
        result = runner.op()
        if result is not None:
            untraced.append(result.seconds)
        tracer.run_id = f"op{runner.attempted}"
        tracer.betainc.count = 0
        tracer.install()
        try:
            result = runner.op()
        finally:
            tracer.uninstall()
        if result is not None:
            traced.append(result.seconds)
            betainc.append(tracer.betainc.count)
    if not traced or not untraced:
        raise RuntimeError("no operation completed")
    if len(set(betainc)) != 1:
        runner.fail(f"betainc element counts differ between repeats: {sorted(set(betainc))}")

    metrics = probe_layers(wl, tracer, runner)
    for name in SPAN_TIMED:
        metrics[f"{name}.s"] = statistics.median(tracer.durations(name))
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = statistics.median(tracer.self_times(name))
    metrics["exact_test.betainc_evals"] = betainc[0]
    metrics["trace.run_s.traced"] = statistics.fmean(traced)
    metrics["trace.run_s.untraced"] = statistics.fmean(untraced)
    metrics["trace.overhead_ratio"] = metrics["trace.run_s.traced"] / metrics["trace.run_s.untraced"]
    return runner, metrics, tracer


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def environment() -> dict:
    l3 = None
    if shutil.which("getconf"):
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, check=False).stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "scbn_workers": getattr(normalization, "_WORKERS", None),
        "l3_cache_bytes": l3,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "crossnorm": crossnorm.__version__,
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, default=spec["reference_seed"])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a tenth of the genes and a 100-point grid (smoke test only)")
    args = ap.parse_args(argv)

    wl = set_up(args.workload, spec, args.seed, args.tiny, args.trace)
    if args.trace:
        runner, values, tracer = measure_per_layer(wl, args.seconds)
        units, extra = PER_LAYER_UNITS, {"spans": len(tracer.spans)}
        spans_path = wl.work_dir / "spans.jsonl"
        spans_path.write_text("".join(json.dumps(s) + "\n" for s in tracer.spans),
                              encoding="utf-8")
    else:
        runner, values, extra = measure_end_to_end(wl, args.seconds, spec["host_reference"])
        units = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        **extra,
    }
    (wl.work_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                             encoding="utf-8")
    for k, u in units.items():
        print(f"{k:50s} {values[k]!r:>24} {u}")
    print(json.dumps({"report": report}))
    result_units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in result_units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
