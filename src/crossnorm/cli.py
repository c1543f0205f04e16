"""Command-line interface.

Subcommands map one-to-one onto the toolkit's activities: ``normalize``
estimates the scaling factor, ``test`` runs the full per-gene pipeline,
``simulate`` draws a labeled synthetic dataset, ``study`` runs a
configuration sweep, and ``evaluate`` scores calls against truth labels.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import click

from . import __version__
from .normalization import GridConfig, ScbnResult
from .pipeline import (
    METHODS,
    RunConfig,
    estimate_factor,
    load_conserved_list,
    load_counts_tsv,
    run_pipeline,
    write_counts_tsv,
    write_report,
)
from .simulation import (DE_LABELS, LABEL_NULL, SimConfig, StudyCellResult, evaluate_run,
                         generate_dataset, run_study)


def _fmt6(value: float) -> str:
    return f"{value:.6g}"


_WINDOW_EDGE_WARNING = (
    "warning: the scbn optimum is at the edge of the grid window, so the best "
    "factor may lie outside it; widen --grid-span or move --grid-center"
)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


_grid_options = [
    click.option("--alpha", type=float, default=0.05, show_default=True,
                 help="Significance level for the rejection-rate objective."),
    click.option("--grid-center", type=float, default=None,
                 help="Grid center (defaults to the median baseline estimate)."),
    click.option("--grid-span", type=float, default=10.0, show_default=True,
                 help="Grid spans [center/span, center*span]."),
    click.option("--grid-points", type=int, default=1000, show_default=True),
]


def _add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


@click.group()
@click.version_option(version=__version__, prog_name="crossnorm")
def main() -> None:
    """Cross-species RNA-seq normalization and exact DE testing."""


@main.command()
@click.option("--counts", "counts_path", required=True, type=click.Path(exists=True))
@click.option("--conserved", "conserved_path", required=True, type=click.Path(exists=True))
@click.option("--method", type=click.Choice(METHODS), default="scbn",
              show_default=True)
@_add_options(_grid_options)
@click.option("--output", "output_path", type=click.Path(), default=None,
              help="Optional JSON file for the estimate.")
def normalize(counts_path, conserved_path, method, alpha, grid_center, grid_span,
              grid_points, output_path) -> None:
    """Estimate the between-species scaling factor."""
    try:
        table = load_counts_tsv(counts_path)
        conserved, unknown = load_conserved_list(conserved_path, table)
        if unknown:
            click.echo(f"warning: {unknown} conserved id(s) not in the count table", err=True)
        grid = GridConfig(alpha=alpha, center=grid_center, span=grid_span,
                          coarse_points=grid_points)
        fit = estimate_factor(table, conserved, method, grid)
        payload = {"method": method, "conserved_used": conserved.m,
                   "scaling_factor": float(_fmt6(fit.factor.c))}
        click.echo(f"scaling_factor\t{_fmt6(fit.factor.c)}")
        if isinstance(fit, ScbnResult):
            payload["objective"] = {
                "deviation": float(_fmt6(fit.objective.deviation)),
                "rejection_rate": float(_fmt6(fit.objective.rejection_rate)),
            }
            click.echo(f"rejection_rate\t{_fmt6(fit.objective.rejection_rate)}")
            click.echo(f"deviation\t{_fmt6(fit.objective.deviation)}")
            if fit.window_edge:
                click.echo(_WINDOW_EDGE_WARNING, err=True)
        else:
            payload["iqr_filtered"] = fit.iqr_filtered
            payload["kept_genes"] = fit.kept_genes
            if not fit.iqr_filtered:
                click.echo("warning: IQR filter kept no genes; used all conserved genes",
                           err=True)
        if output_path:
            Path(output_path).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
    except (ValueError, OSError) as exc:
        _fail(str(exc))


@main.command(name="test")
@click.option("--counts", "counts_path", required=True, type=click.Path(exists=True))
@click.option("--conserved", "conserved_path", required=True, type=click.Path(exists=True))
@click.option("--method", type=click.Choice(METHODS), default="scbn",
              show_default=True)
@_add_options(_grid_options)
@click.option("--cutoff", type=float, default=1e-6, show_default=True,
              help="DE-calling p-value threshold.")
@click.option("--eval-list", "eval_list_path", type=click.Path(exists=True), default=None,
              help="Gene list whose DE tally is reported separately.")
@click.option("--output", "output_dir", required=True, type=click.Path(),
              help="Directory for summary.json and results.tsv.")
def test_cmd(counts_path, conserved_path, method, alpha, grid_center, grid_span,
             grid_points, cutoff, eval_list_path, output_dir) -> None:
    """Run the full pipeline: normalize, test every gene, call DE, report."""
    try:
        config = RunConfig(
            counts_path=counts_path,
            conserved_path=conserved_path,
            method=method,
            alpha=alpha,
            cutoff=cutoff,
            eval_list_path=eval_list_path,
            grid_center=grid_center,
            grid_span=grid_span,
            grid_points=grid_points,
        )
        report = run_pipeline(config)
        if report.conserved_unknown:
            click.echo(
                f"warning: {report.conserved_unknown} conserved id(s) not in the count table",
                err=True,
            )
        if report.window_edge:
            click.echo(_WINDOW_EDGE_WARNING, err=True)
        summary_path, results_path = write_report(report, output_dir)
        click.echo(f"scaling_factor\t{_fmt6(report.scaling_factor)}")
        click.echo(f"total_de\t{report.total_de}")
        click.echo(f"higher_sp1\t{report.higher_sp1}")
        click.echo(f"higher_sp2\t{report.higher_sp2}")
        click.echo(f"summary\t{summary_path}")
        click.echo(f"results\t{results_path}")
    except (ValueError, OSError) as exc:
        _fail(str(exc))


# JSON specs arrive untyped; SimConfig compares and computes with its fields.
_SIM_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _spec_integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _spec_number(name: str, value) -> float:
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_sim_fields(names) -> None:
    unknown = set(names) - set(_SIM_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown simulation field(s): {', '.join(sorted(unknown))}")


def _check_sim_value(name: str, value) -> None:
    if name == "rate_source":
        if value is not None and not (
            isinstance(value, list) and all(map(_is_number, value))
        ):
            raise ValueError(f"rate_source must be a list of numbers, got {value!r}")
    elif _SIM_FIELD_TYPES[name] == "int":
        _spec_integer(name, value)
    else:
        _spec_number(name, value)


def _sim_config_from_spec(spec) -> SimConfig:
    if not isinstance(spec, dict):
        raise ValueError("a simulation spec must be a JSON object of SimConfig fields")
    _check_sim_fields(spec)
    for name, value in spec.items():
        _check_sim_value(name, value)
    if spec.get("rate_source") is not None:
        spec = dict(spec)
        spec["rate_source"] = tuple(float(v) for v in spec["rate_source"])
    return SimConfig(**spec)


def _study_sweep(sweep) -> dict:
    if not isinstance(sweep, dict):
        raise ValueError("sweep must be a JSON object mapping fields to lists of values")
    _check_sim_fields(sweep)
    if "rate_source" in sweep:
        raise ValueError("sweep rate_source: only numeric simulation fields can be swept")
    for name, values in sweep.items():
        if not isinstance(values, list):
            raise ValueError(f"sweep {name} must be a list of values, got {values!r}")
        for value in values:
            _check_sim_value(name, value)
    return sweep


def _load_rate_table(path: str) -> tuple[float, ...]:
    table = load_counts_tsv(path)
    reads = table.count_sp1 + table.count_sp2
    # A loaded table always has reads, so some gene is expressed.
    return tuple(map(float, reads[table.testable].tolist()))


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
              help="JSON file with SimConfig fields (flags are ignored if given).")
@click.option("--n-orthologs", type=int, default=None)
@click.option("--conserved-size", type=int, default=1000, show_default=True)
@click.option("--de-rate", type=float, default=0.1, show_default=True)
@click.option("--fold", type=float, default=1.5, show_default=True)
@click.option("--up-rate-sp2", type=float, default=0.9, show_default=True)
@click.option("--unique-sp1", type=int, default=0, show_default=True)
@click.option("--unique-sp2", type=int, default=0, show_default=True)
@click.option("--unmapped-sp1", type=int, default=0, show_default=True)
@click.option("--unmapped-sp2", type=int, default=0, show_default=True)
@click.option("--noise-rate", type=float, default=0.0, show_default=True)
@click.option("--depth-sp1", type=float, default=1e6, show_default=True)
@click.option("--depth-sp2", type=float, default=1e6, show_default=True)
@click.option("--rate-table", type=click.Path(exists=True), default=None,
              help="Count table supplying the empirical rate distribution.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "output_dir", required=True, type=click.Path())
def simulate(spec_path, n_orthologs, conserved_size, de_rate, fold, up_rate_sp2,
             unique_sp1, unique_sp2, unmapped_sp1, unmapped_sp2, noise_rate,
             depth_sp1, depth_sp2, rate_table, seed, output_dir) -> None:
    """Write a synthetic dataset: counts.tsv, conserved.txt, truth.tsv, meta.json."""
    try:
        if spec_path is not None:
            config = _sim_config_from_spec(json.loads(Path(spec_path).read_text("utf-8")))
        else:
            if n_orthologs is None:
                raise ValueError("either --spec or --n-orthologs is required")
            config = SimConfig(
                n_orthologs=n_orthologs,
                conserved_size=conserved_size,
                de_rate=de_rate,
                fold=fold,
                up_rate_sp2=up_rate_sp2,
                n_unique_sp1=unique_sp1,
                n_unique_sp2=unique_sp2,
                n_unmapped_sp1=unmapped_sp1,
                n_unmapped_sp2=unmapped_sp2,
                noise_rate=noise_rate,
                depth_sp1=depth_sp1,
                depth_sp2=depth_sp2,
                rate_source=_load_rate_table(rate_table) if rate_table else None,
                seed=seed,
            )
        dataset = generate_dataset(config)
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_counts_tsv(dataset.table, out / "counts.tsv")
        with (out / "conserved.txt").open("w", encoding="utf-8", newline="\n") as fh:
            for gid in sorted(dataset.reported_conserved.gene_ids):
                fh.write(gid + "\n")
        with (out / "truth.tsv").open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("gene_id\tlabel\n")
            for gene_id in dataset.table.gene_ids:
                fh.write(f"{gene_id}\t{dataset.truth[gene_id]}\n")
        meta = dict(dataset.meta)
        meta["true_c"] = float(_fmt6(dataset.true_c.c))
        with (out / "meta.json").open("w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"true_c\t{_fmt6(dataset.true_c.c)}")
        click.echo(f"output\t{out}")
    except (ValueError, OSError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True),
              help="JSON study spec: base config, sweep, methods, replicates.")
@click.option("--output", "output_dir", required=True, type=click.Path())
def study(spec_path, output_dir) -> None:
    """Run a simulation sweep and write the replicate-averaged result grid."""
    try:
        spec = json.loads(Path(spec_path).read_text("utf-8"))
        if not isinstance(spec, dict):
            raise ValueError("a study spec must be a JSON object")
        if "base" not in spec:
            raise ValueError("a study spec needs a base object of simulation fields")
        base = _sim_config_from_spec(spec["base"])
        sweep = _study_sweep(spec.get("sweep", {}))
        methods = spec.get("methods", list(METHODS))
        if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
            raise ValueError(f"methods must be a list of method names, got {methods!r}")
        replicates = _spec_integer("replicates", spec.get("replicates", 100))
        cutoff = _spec_number("cutoff", spec.get("cutoff", 1e-6))
        alpha = _spec_number("alpha", spec.get("alpha", 0.05))
        master_seed = _spec_integer("seed", spec.get("seed", 0))
        cells = run_study(base, sweep, methods, replicates, cutoff,
                          alpha=alpha, master_seed=master_seed)
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        sweep_fields = list(sweep.keys())
        columns = [f.name for f in dataclasses.fields(StudyCellResult) if f.name != "params"]
        grid_path = out / "grid.tsv"
        with grid_path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("\t".join(sweep_fields + columns) + "\n")
            for cell in cells:
                row = [_fmt6(float(cell.params[f])) for f in sweep_fields]
                for col in columns:
                    value = getattr(cell, col)
                    if value is None:
                        row.append("NA")
                    elif isinstance(value, float):
                        row.append(_fmt6(value))
                    else:
                        row.append(str(value))
                fh.write("\t".join(row) + "\n")
        click.echo(f"cells\t{len(cells)}")
        click.echo(f"grid\t{grid_path}")
    except (ValueError, OSError) as exc:
        _fail(str(exc))


def _tsv_rows(path, fh, width: int):
    """Split the data lines after a header into ``width`` fields each, and
    yield them with their line numbers; the first field (the gene id) must
    not repeat."""
    seen: set[str] = set()
    for lineno, line in enumerate(fh, start=2):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} tab-separated fields")
        if fields[0] in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate gene_id {fields[0]!r}")
        seen.add(fields[0])
        yield lineno, fields


@main.command()
@click.option("--results", "results_path", required=True, type=click.Path(exists=True))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True))
@click.option("--output", "output_path", type=click.Path(), default=None)
def evaluate(results_path, truth_path, output_path) -> None:
    """Score a results.tsv against simulation truth labels."""
    try:
        calls: dict[str, bool] = {}
        with Path(results_path).open("r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:1] != ["gene_id"] or not {"de_call", "p_value"} <= set(header):
                raise ValueError(f"{results_path}: not a results table")
            de_col = header.index("de_call")
            p_col = header.index("p_value")
            for lineno, fields in _tsv_rows(results_path, fh, len(header)):
                if fields[de_col] not in ("true", "false"):
                    raise ValueError(f"{results_path}: line {lineno}: de_call must be true "
                                     f"or false, got {fields[de_col]!r}")
                if fields[p_col] == "NA":
                    continue
                calls[fields[0]] = fields[de_col] == "true"
        truth: dict[str, str] = {}
        with Path(truth_path).open("r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if header != ["gene_id", "label"]:
                raise ValueError(f"{truth_path}: expected header 'gene_id\\tlabel'")
            for lineno, (gid, label) in _tsv_rows(truth_path, fh, 2):
                if label not in DE_LABELS and label != LABEL_NULL:
                    raise ValueError(f"{truth_path}: line {lineno}: unknown label {label!r}")
                truth[gid] = label
        tested_truth = {gid: truth[gid] for gid in calls if gid in truth}
        if set(tested_truth) != set(calls):
            missing = len(set(calls) - set(truth))
            raise ValueError(f"{missing} tested gene(s) missing from the truth table")
        metrics = evaluate_run(calls, tested_truth)
        payload = {
            "false_discoveries": metrics.false_discoveries,
            "precision": None if metrics.precision is None else float(_fmt6(metrics.precision)),
            "sensitivity": None if metrics.sensitivity is None
                           else float(_fmt6(metrics.sensitivity)),
            "f_score": float(_fmt6(metrics.f_score)),
            "tested_genes": len(calls),
            "untested_genes": len(truth) - len(calls),
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        click.echo(text)
        if output_path:
            Path(output_path).write_text(text + "\n", encoding="utf-8")
    except (ValueError, OSError) as exc:
        _fail(str(exc))


if __name__ == "__main__":
    main()
