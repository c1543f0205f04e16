"""Command-line interface.

Subcommands map one-to-one onto the toolkit's activities: ``normalize``
estimates the scaling factor, ``test`` runs the full per-gene pipeline,
``simulate`` draws a labeled synthetic dataset, ``study`` runs a
configuration sweep, and ``evaluate`` scores calls against truth labels.

Every file a subcommand reads, JSON specs included, is decoded by
``pipeline._read_text``: UTF-8 with an optional byte-order mark, where a
bad byte is an error naming the file and line.
"""
from __future__ import annotations

import dataclasses
import io
import json
import sys
from pathlib import Path

import click

from . import __version__
from .normalization import ScbnResult
from .pipeline import (
    METHODS,
    RunConfig,
    _read_text,
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
_IQR_FALLBACK_WARNING = "warning: IQR filter kept no genes; used all conserved genes"


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load_spec(path: str):
    """The JSON value in a spec file; a decode error names the file and position."""
    try:
        return json.loads(_read_text(Path(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _run_options(func):
    """The options ``normalize`` and ``test`` share, named after RunConfig's fields."""
    for option in reversed([
        click.option("--counts", "counts_path", required=True, type=click.Path(exists=True)),
        click.option("--conserved", "conserved_path", required=True,
                     type=click.Path(exists=True)),
        click.option("--method", type=click.Choice(METHODS), default="scbn", show_default=True),
        click.option("--alpha", type=float, default=0.05, show_default=True,
                     help="Significance level for the rejection-rate objective."),
        click.option("--grid-center", type=float, default=None,
                     help="Grid center (defaults to the median baseline estimate)."),
        click.option("--grid-span", type=float, default=10.0, show_default=True,
                     help="Grid spans [center/span, center*span]."),
        click.option("--grid-points", type=int, default=1000, show_default=True),
    ]):
        func = option(func)
    return func


@click.group()
@click.version_option(version=__version__, prog_name="crossnorm")
def main() -> None:
    """Cross-species RNA-seq normalization and exact DE testing."""


@main.command()
@_run_options
@click.option("--output", "output_path", type=click.Path(), default=None,
              help="Optional JSON file for the estimate.")
def normalize(output_path, **settings) -> None:
    """Estimate the between-species scaling factor."""
    try:
        config = RunConfig(**settings)
        table = load_counts_tsv(config.counts_path)
        conserved, unknown = load_conserved_list(config.conserved_path, table)
        if unknown:
            click.echo(f"warning: {unknown} conserved id(s) not in the count table", err=True)
        fit = estimate_factor(table, conserved, config.method, config.grid())
        payload = {"method": config.method, "conserved_used": conserved.m,
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
                click.echo(_IQR_FALLBACK_WARNING, err=True)
        if output_path:
            Path(output_path).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
    except (ValueError, OSError) as exc:
        _fail(str(exc))


@main.command(name="test")
@_run_options
@click.option("--cutoff", type=float, default=1e-6, show_default=True,
              help="DE-calling p-value threshold.")
@click.option("--eval-list", "eval_list_path", type=click.Path(exists=True), default=None,
              help="Gene list whose DE tally is reported separately.")
@click.option("--output", "output_dir", required=True, type=click.Path(),
              help="Directory for summary.json and results.tsv.")
def test_cmd(output_dir, **settings) -> None:
    """Run the full pipeline: normalize, test every gene, call DE, report."""
    try:
        config = RunConfig(**settings)
        report = run_pipeline(config)
        if report.conserved_unknown:
            click.echo(
                f"warning: {report.conserved_unknown} conserved id(s) not in the count table",
                err=True,
            )
        if report.window_edge:
            click.echo(_WINDOW_EDGE_WARNING, err=True)
        if report.iqr_fallback:
            click.echo(_IQR_FALLBACK_WARNING, err=True)
        summary_path, results_path = write_report(report, output_dir)
        click.echo(f"scaling_factor\t{_fmt6(report.scaling_factor)}")
        click.echo(f"total_de\t{report.total_de}")
        click.echo(f"higher_sp1\t{report.higher_sp1}")
        click.echo(f"higher_sp2\t{report.higher_sp2}")
        click.echo(f"summary\t{summary_path}")
        click.echo(f"results\t{results_path}")
    except (ValueError, OSError) as exc:
        _fail(str(exc))


def _grid_text(value) -> str:
    if value is None:
        return "NA"
    return _fmt6(value) if isinstance(value, float) else str(value)


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
@click.option("--unique-sp1", "n_unique_sp1", type=int, default=0, show_default=True)
@click.option("--unique-sp2", "n_unique_sp2", type=int, default=0, show_default=True)
@click.option("--unmapped-sp1", "n_unmapped_sp1", type=int, default=0, show_default=True)
@click.option("--unmapped-sp2", "n_unmapped_sp2", type=int, default=0, show_default=True)
@click.option("--noise-rate", type=float, default=0.0, show_default=True)
@click.option("--depth-sp1", type=float, default=1e6, show_default=True)
@click.option("--depth-sp2", type=float, default=1e6, show_default=True)
@click.option("--rate-table", type=click.Path(exists=True), default=None,
              help="Count table supplying the empirical rate distribution.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "output_dir", required=True, type=click.Path())
def simulate(spec_path, rate_table, output_dir, **fields) -> None:
    """Write a synthetic dataset: counts.tsv, conserved.txt, truth.tsv, meta.json."""
    try:
        if spec_path is not None:
            config = SimConfig.from_mapping(_load_spec(spec_path))
        elif fields["n_orthologs"] is None:
            raise ValueError("either --spec or --n-orthologs is required")
        else:
            config = SimConfig(**fields, rate_source=rate_table and _load_rate_table(rate_table))
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


_STUDY_SPEC_KEYS = {"seed", "replicates", "methods", "alpha", "cutoff", "base", "sweep"}


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True),
              help="JSON study spec: base config, sweep, methods, replicates.")
@click.option("--output", "output_dir", required=True, type=click.Path())
def study(spec_path, output_dir) -> None:
    """Run a simulation sweep and write the replicate-averaged result grid."""
    try:
        spec = _load_spec(spec_path)
        if not isinstance(spec, dict):
            raise ValueError("a study spec must be a JSON object")
        unknown = set(spec) - _STUDY_SPEC_KEYS
        if unknown:
            raise ValueError(f"unknown study spec key(s): {', '.join(sorted(unknown))}")
        if "base" not in spec:
            raise ValueError("a study spec needs a base object of simulation fields")
        sweep = spec.get("sweep", {})
        cells = run_study(SimConfig.from_mapping(spec["base"]), sweep,
                          spec.get("methods", list(METHODS)), spec.get("replicates", 100),
                          spec.get("cutoff", 1e-6), alpha=spec.get("alpha", 0.05),
                          master_seed=spec.get("seed", 0))
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        columns = [f.name for f in dataclasses.fields(StudyCellResult) if f.name != "params"]
        grid_path = out / "grid.tsv"
        with grid_path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("\t".join([*sweep, *columns]) + "\n")
            for cell in cells:
                values = [float(cell.params[f]) for f in sweep]
                values += [getattr(cell, col) for col in columns]
                fh.write("\t".join(map(_grid_text, values)) + "\n")
        click.echo(f"cells\t{len(cells)}")
        click.echo(f"grid\t{grid_path}")
    except (ValueError, OSError) as exc:
        _fail(str(exc))


def _text_lines(path: str) -> io.StringIO:
    """The file's lines as the count loaders decode them, with universal newlines."""
    return io.StringIO(_read_text(Path(path)), newline=None)


def _tsv_rows(path, fh, width: int):
    """Split the data lines after a header into ``width`` fields each, and
    yield them with their line numbers; blank lines are skipped, and the
    first field (the gene id) must not repeat."""
    seen: set[str] = set()
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
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
        with _text_lines(results_path) as fh:
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
        with _text_lines(truth_path) as fh:
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
