"""Command-line interface.

Subcommands map one-to-one onto the toolkit's activities: ``normalize``
estimates the scaling factor, ``test`` runs the full per-gene pipeline,
``simulate`` draws a labeled synthetic dataset, ``study`` runs a
configuration sweep, and ``evaluate`` scores calls against truth labels.

Every file a subcommand reads, JSON specs included, is decoded by
``pipeline._read_text``: UTF-8 with an optional byte-order mark, where a
bad byte is an error naming the file and line.  Text tables are split into
numbered lines by ``pipeline._read_lines`` alone.  Every file a subcommand
writes is written by ``pipeline._write_file`` alone, every JSON report
(``evaluate``'s stdout included) is rendered by ``pipeline._json_text``,
and every float but a p- or q-value has 6 significant digits
(``pipeline._sig6_text``).  A ValueError or OSError from any subcommand
ends the run with one ``error:`` line and exit status 1.

At import this module loads only click, the standard library and the
package's ``__version__`` and ``METHODS``; each command and helper imports
what it calls when it runs, ``json`` and ``dataclasses`` too.  So
``--version``, ``--help`` and click's usage errors load no numpy.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

import click
from click.core import ParameterSource

from . import METHODS, __version__

if TYPE_CHECKING:
    from .normalization import MedianScaleResult, ScbnResult


# A decimal float as results.tsv writes one: digits with an optional point
# and exponent, such as 0.25, 1.0 or 5e-324.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


_WINDOW_EDGE_WARNING = (
    "warning: the scbn optimum is at the edge of the grid window, so the best "
    "factor may lie outside it; widen --grid-span or move --grid-center"
)
_IQR_FALLBACK_WARNING = (
    "warning: the IQR filter kept no genes, or a kept-set median is 0; "
    "used all conserved genes"
)


def _warn_fit(unknown: int, fit: ScbnResult | MedianScaleResult) -> None:
    """Print the warnings that ``normalize`` and ``test`` share to stderr."""
    from .normalization import MedianScaleResult, ScbnResult
    if unknown:
        click.echo(f"warning: {unknown} conserved id(s) not in the count table", err=True)
    if isinstance(fit, ScbnResult) and fit.window_edge:
        click.echo(_WINDOW_EDGE_WARNING, err=True)
    if isinstance(fit, MedianScaleResult) and not fit.iqr_filtered:
        click.echo(_IQR_FALLBACK_WARNING, err=True)


def _load_spec(path: str):
    """The JSON value in a spec file; a decode error names the file and position."""
    import json

    from .pipeline import _read_text
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


class _Main(click.Group):
    """The command group: a ValueError or OSError from a subcommand (a dead
    study worker's ChildProcessError included) becomes one ``error:`` line
    on stderr and exit status 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="crossnorm")
def main() -> None:
    """Cross-species RNA-seq normalization and exact DE testing."""


@main.command()
@_run_options
@click.option("--output", "output_path", type=click.Path(), default=None,
              help="Optional JSON file for the estimate.")
def normalize(output_path, **settings) -> None:
    """Estimate the between-species scaling factor."""
    from .normalization import ScbnResult
    from .pipeline import (RunConfig, _json_text, _objective_dict, _sig6, _sig6_text,
                           _write_file, estimate_factor, load_conserved_list, load_counts_tsv)
    config = RunConfig(**settings)
    table = load_counts_tsv(config.counts_path)
    conserved, unknown = load_conserved_list(config.conserved_path, table)
    fit = estimate_factor(table, conserved, config.method, config.grid())
    _warn_fit(unknown, fit)
    payload = {"method": config.method, "conserved_used": conserved.m,
               "scaling_factor": _sig6(fit.factor.c)}
    click.echo(f"scaling_factor\t{_sig6_text(fit.factor.c)}")
    if isinstance(fit, ScbnResult):
        payload["objective"] = _objective_dict(fit.objective)
        click.echo(f"rejection_rate\t{_sig6_text(fit.objective.rejection_rate)}")
        click.echo(f"deviation\t{_sig6_text(fit.objective.deviation)}")
    else:
        payload["iqr_filtered"] = fit.iqr_filtered
        payload["kept_genes"] = fit.kept_genes
    if output_path:
        _write_file(output_path, _json_text(payload))


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
    from .pipeline import RunConfig, _sig6_text, run_pipeline, write_report
    config = RunConfig(**settings)
    report = run_pipeline(config)
    _warn_fit(report.conserved_unknown, report.fit)
    summary_path, results_path = write_report(report, output_dir)
    click.echo(f"scaling_factor\t{_sig6_text(report.scaling_factor)}")
    click.echo(f"total_de\t{report.total_de}")
    click.echo(f"higher_sp1\t{report.higher_sp1}")
    click.echo(f"higher_sp2\t{report.higher_sp2}")
    click.echo(f"summary\t{summary_path}")
    click.echo(f"results\t{results_path}")


def _grid_text(value) -> str:
    from .pipeline import _sig6_text
    if value is None:
        return "NA"
    return _sig6_text(value) if isinstance(value, float) else str(value)


def _load_rate_table(path: str) -> tuple[float, ...]:
    from .pipeline import load_counts_tsv
    table = load_counts_tsv(path)
    reads = table.count_sp1 + table.count_sp2
    # A loaded table always has reads, so some gene is expressed.
    return tuple(map(float, reads[table.testable].tolist()))


@main.command()
@click.option("--spec", "spec_path", type=click.Path(exists=True), default=None,
              help="JSON file with SimConfig fields (no other simulation flag may be given).")
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
@click.pass_context
def simulate(ctx, spec_path, rate_table, output_dir, **fields) -> None:
    """Write a synthetic dataset: counts.tsv, conserved.txt, truth.tsv, meta.json."""
    from .pipeline import _json_text, _sig6, _sig6_text, _tsv_text, _write_file, write_counts_tsv
    from .simulation import SimConfig, generate_dataset
    if spec_path is not None:
        flags = [param.opts[0] for param in ctx.command.params
                 if param.name not in ("spec_path", "output_dir")
                 and ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE]
        if flags:
            raise ValueError(f"--spec holds every simulation field; drop {', '.join(flags)}")
        config = SimConfig.from_mapping(_load_spec(spec_path))
    elif fields["n_orthologs"] is None:
        raise ValueError("either --spec or --n-orthologs is required")
    else:
        config = SimConfig(**fields, rate_source=rate_table and _load_rate_table(rate_table))
    dataset = generate_dataset(config)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_counts_tsv(dataset.table, out / "counts.tsv")
    conserved = sorted(dataset.reported_conserved.gene_ids)
    _write_file(out / "conserved.txt", _tsv_text([gene_id] for gene_id in conserved))
    truth = [(gene_id, dataset.truth[gene_id]) for gene_id in dataset.table.gene_ids]
    _write_file(out / "truth.tsv", _tsv_text([("gene_id", "label"), *truth]))
    _write_file(out / "meta.json",
                _json_text({**dataset.meta, "true_c": _sig6(dataset.true_c.c)}))
    click.echo(f"true_c\t{_sig6_text(dataset.true_c.c)}")
    click.echo(f"output\t{out}")


_STUDY_SPEC_KEYS = {"seed", "replicates", "methods", "alpha", "cutoff", "base", "sweep"}


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True),
              help="JSON study spec: base config, sweep, methods, replicates.")
@click.option("--output", "output_dir", required=True, type=click.Path())
def study(spec_path, output_dir) -> None:
    """Run a simulation sweep and write the replicate-averaged result grid."""
    import dataclasses

    from .pipeline import _tsv_text, _write_file
    from .simulation import _FIELD_TYPES, SimConfig, StudyCellResult, run_study
    spec = _load_spec(spec_path)
    if not isinstance(spec, dict):
        raise ValueError("a study spec must be a JSON object")
    unknown = set(spec) - _STUDY_SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown study spec key(s): {', '.join(sorted(unknown))}")
    if "base" not in spec:
        raise ValueError("a study spec needs a base object of simulation fields")
    base = SimConfig.from_mapping(spec["base"])
    if "seed" in spec["base"]:
        raise ValueError("base seed: each replicate's seed derives from the study seed")
    sweep = spec.get("sweep", {})
    cells = run_study(base, sweep,
                      spec.get("methods", list(METHODS)), spec.get("replicates", 100),
                      spec.get("cutoff", 1e-6), alpha=spec.get("alpha", 0.05),
                      master_seed=spec.get("seed", 0))
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = [f.name for f in dataclasses.fields(StudyCellResult) if f.name != "params"]
    rows = [[*sweep, *columns]]
    for cell in cells:
        values = [_FIELD_TYPES[f](cell.params[f]) for f in sweep]  # an int field prints exactly
        values += [getattr(cell, col) for col in columns]
        rows.append(map(_grid_text, values))
    grid_path = _write_file(out / "grid.tsv", _tsv_text(rows))
    click.echo(f"cells\t{len(cells)}")
    click.echo(f"grid\t{grid_path}")


def _tsv_rows(path, lines: list[str], width: int):
    """Split the lines after the header into ``width`` fields each, and
    yield them with their line numbers; blank lines are skipped, and the
    first field (the gene id) must not repeat."""
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
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
    from .pipeline import _json_text, _read_lines, _sig6, _write_file
    from .simulation import DE_LABELS, LABEL_NULL, evaluate_run
    calls: dict[str, bool] = {}
    lines = _read_lines(Path(results_path))
    header = lines[0].split("\t") if lines else []
    if header[:1] != ["gene_id"] or not {"de_call", "p_value"} <= set(header):
        raise ValueError(f"{results_path}: not a results table")
    de_col = header.index("de_call")
    p_col = header.index("p_value")
    for lineno, fields in _tsv_rows(results_path, lines, len(header)):
        if fields[de_col] not in ("true", "false"):
            raise ValueError(f"{results_path}: line {lineno}: de_call must be true "
                             f"or false, got {fields[de_col]!r}")
        p_value = fields[p_col]
        if p_value == "NA":
            continue
        if not (_DECIMAL.fullmatch(p_value) and 0.0 < float(p_value) <= 1.0):
            raise ValueError(f"{results_path}: line {lineno}: p_value must be NA or a "
                             f"number in (0, 1], got {p_value!r}")
        calls[fields[0]] = fields[de_col] == "true"
    truth: dict[str, str] = {}
    lines = _read_lines(Path(truth_path))
    if lines[:1] != ["gene_id\tlabel"]:
        raise ValueError(f"{truth_path}: expected header 'gene_id\\tlabel'")
    for lineno, (gid, label) in _tsv_rows(truth_path, lines, 2):
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
        "precision": None if metrics.precision is None else _sig6(metrics.precision),
        "sensitivity": None if metrics.sensitivity is None else _sig6(metrics.sensitivity),
        "f_score": _sig6(metrics.f_score),
        "tested_genes": len(calls),
        "untested_genes": len(truth) - len(calls),
    }
    text = _json_text(payload)
    click.echo(text, nl=False)
    if output_path:
        _write_file(output_path, text)


if __name__ == "__main__":
    main()
