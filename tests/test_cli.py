import json
import os

import pytest
from click.testing import CliRunner

from crossnorm import simulation
from crossnorm.cli import main


def _simulate(runner, out_dir, **extra):
    args = [
        "simulate",
        "--n-orthologs", "400",
        "--conserved-size", "80",
        "--de-rate", "0.1",
        "--fold", "2.0",
        "--unique-sp1", "40",
        "--unique-sp2", "80",
        "--unmapped-sp1", "50",
        "--unmapped-sp2", "100",
        "--depth-sp1", "1e5",
        "--depth-sp2", "1e5",
        "--seed", "7",
        "--output", str(out_dir),
    ]
    for key, value in extra.items():
        args += [key, str(value)]
    return runner.invoke(main, args)


def test_help_and_version():
    runner = CliRunner()
    assert runner.invoke(main, ["--help"]).exit_code == 0
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "crossnorm" in result.output


def test_simulate_writes_all_files(tmp_path):
    runner = CliRunner()
    out = tmp_path / "sim"
    result = _simulate(runner, out)
    assert result.exit_code == 0, result.output
    for name in ("counts.tsv", "conserved.txt", "truth.tsv", "meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["true_c"] > 0
    assert "true_c" in result.output


def test_normalize_both_methods(tmp_path):
    runner = CliRunner()
    out = tmp_path / "sim"
    assert _simulate(runner, out).exit_code == 0
    for method in ("scbn", "median"):
        result = runner.invoke(main, [
            "normalize",
            "--counts", str(out / "counts.tsv"),
            "--conserved", str(out / "conserved.txt"),
            "--method", method,
            "--grid-points", "200",
            "--output", str(tmp_path / f"{method}.json"),
        ])
        assert result.exit_code == 0, result.output
        assert "scaling_factor" in result.output
        payload = json.loads((tmp_path / f"{method}.json").read_text())
        assert payload["scaling_factor"] > 0


def test_full_test_command_and_evaluate(tmp_path):
    runner = CliRunner()
    sim = tmp_path / "sim"
    assert _simulate(runner, sim).exit_code == 0
    run = tmp_path / "run"
    result = runner.invoke(main, [
        "test",
        "--counts", str(sim / "counts.tsv"),
        "--conserved", str(sim / "conserved.txt"),
        "--method", "scbn",
        "--grid-points", "200",
        "--cutoff", "0.01",
        "--output", str(run),
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads((run / "summary.json").read_text())
    assert summary["tallies"]["total_de"] == (
        summary["tallies"]["higher_sp1"] + summary["tallies"]["higher_sp2"]
    )
    header = (run / "results.tsv").read_text().splitlines()[0]
    assert header == "gene_id\tp_value\tq_value\tdirection\tde_call"

    scored = runner.invoke(main, [
        "evaluate",
        "--results", str(run / "results.tsv"),
        "--truth", str(sim / "truth.tsv"),
        "--output", str(tmp_path / "metrics.json"),
    ])
    assert scored.exit_code == 0, scored.output
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) >= {"false_discoveries", "precision", "sensitivity", "f_score"}
    assert metrics["precision"] is None or 0.0 <= metrics["precision"] <= 1.0


def test_test_command_rerun_is_byte_identical(tmp_path):
    runner = CliRunner()
    sim = tmp_path / "sim"
    assert _simulate(runner, sim).exit_code == 0
    outs = []
    for name in ("a", "b"):
        run = tmp_path / name
        result = runner.invoke(main, [
            "test",
            "--counts", str(sim / "counts.tsv"),
            "--conserved", str(sim / "conserved.txt"),
            "--method", "median",
            "--output", str(run),
        ])
        assert result.exit_code == 0, result.output
        outs.append(run)
    assert (outs[0] / "results.tsv").read_bytes() == (outs[1] / "results.tsv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


def test_study_command(tmp_path):
    runner = CliRunner()
    spec = {
        "seed": 3,
        "replicates": 1,
        "methods": ["scbn", "median"],
        "cutoff": 0.01,
        "base": {
            "n_orthologs": 300,
            "conserved_size": 60,
            "de_rate": 0.1,
            "fold": 2.0,
            "depth_sp1": 5e4,
            "depth_sp2": 5e4,
        },
        "sweep": {"noise_rate": [0.0, 0.3]},
    }
    spec_path = tmp_path / "study.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "study"
    result = runner.invoke(main, ["study", "--spec", str(spec_path), "--output", str(out)])
    assert result.exit_code == 0, result.output
    lines = (out / "grid.tsv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 cells x 2 methods
    assert lines[0].split("\t") == [
        "noise_rate", "method", "replicates", "mean_false_discoveries", "mean_precision",
        "precision_undefined", "mean_sensitivity", "sensitivity_undefined",
        "mean_f_score", "mean_scaling_factor", "mean_true_c",
        "mean_overlap_genes", "mean_overlap_directional",
    ]


def test_missing_input_fails_nonzero(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, [
        "normalize",
        "--counts", str(tmp_path / "nope.tsv"),
        "--conserved", str(tmp_path / "nope.txt"),
    ])
    assert result.exit_code != 0


def test_malformed_counts_fails_nonzero(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.tsv"
    bad.write_text("gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2\ng1\t10\tx\t10\t1\n")
    cons = tmp_path / "cons.txt"
    cons.write_text("g1\n")
    result = runner.invoke(main, [
        "normalize", "--counts", str(bad), "--conserved", str(cons),
    ])
    assert result.exit_code == 1
    assert "line 2" in result.output


@pytest.mark.parametrize("bad_file", ["counts", "conserved", "results", "truth"])
def test_non_utf8_input_names_its_file_and_line(tmp_path, bad_file):
    # Each file's text and the line on which g2 starts.
    files = {
        "counts": (b"\xef\xbb\xbfgene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2\n"
                   b"g1\t10\t5\t10\t5\r\n\ng2\t10\t5\t10\t5\n", 4),
        "conserved": (b"# list\ng1\ng2\n", 3),
        "results": (b"\xef\xbb\xbfgene_id\tp_value\tq_value\tdirection\tde_call\n"
                    b"g1\t0.5\t0.5\tnone\tfalse\r\n\ng2\t1e-09\t2e-09\thigher_sp1\ttrue\n", 4),
        "truth": (b"gene_id\tlabel\ng1\tnull\ng2\tde_up_sp1\n", 3),
    }
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, (data, _) in files.items():
        # The bad byte opens its line, so the line count includes the break before it.
        paths[name].write_bytes(data.replace(b"g2", b"\xffg2") if name == bad_file else data)
    if bad_file in ("results", "truth"):
        commands = [["evaluate", "--results", str(paths["results"]),
                     "--truth", str(paths["truth"])]]
    else:
        inputs = ["--counts", str(paths["counts"]), "--conserved", str(paths["conserved"])]
        commands = [["normalize", *inputs], ["test", "--output", str(tmp_path / "run"), *inputs]]
    for command in commands:
        result = CliRunner().invoke(main, command)
        assert result.exit_code == 1
        assert result.output == (f"error: {paths[bad_file]}: line {files[bad_file][1]}: "
                                 "not valid UTF-8\n")


def test_simulate_requires_config(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["simulate", "--output", str(tmp_path / "x")])
    assert result.exit_code == 1


def test_simulate_spec_file(tmp_path):
    runner = CliRunner()
    spec = {"n_orthologs": 200, "conserved_size": 40, "seed": 2,
            "depth_sp1": 2e4, "depth_sp2": 2e4}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "simout"
    result = runner.invoke(main, ["simulate", "--spec", str(path), "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "counts.tsv").exists()


@pytest.mark.parametrize("data, message", [
    (b'{"n_orthologs": 200, ', "<spec>: line 1 column 22: Expecting property name enclosed in "
                               "double quotes"),
    (b'{"n_orthologs": 200,\n "conserved_size": 40, "\xff": 1}', "<spec>: line 2: not valid UTF-8"),
], ids=["truncated", "non-utf8"])
def test_simulate_spec_that_is_not_json_names_its_file(tmp_path, data, message):
    path = tmp_path / "sim.json"
    path.write_bytes(data)
    result = CliRunner().invoke(main, ["simulate", "--spec", str(path),
                                       "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"error: {message.replace('<spec>', str(path))}\n"


def test_simulate_spec_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text('\ufeff{"n_orthologs": 50, "conserved_size": 10}', encoding="utf-8")
    result = CliRunner().invoke(main, ["simulate", "--spec", str(path),
                                       "--output", str(tmp_path / "x")])
    assert result.exit_code == 0, result.output


def test_simulate_spec_rejects_unknown_field(tmp_path):
    runner = CliRunner()
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"n_orthologs": 10, "conserved_size": 2, "bogus": 1}))
    result = runner.invoke(main, ["simulate", "--spec", str(path), "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "bogus" in result.output


def test_study_spec_rejects_unknown_sweep_field(tmp_path):
    runner = CliRunner()
    spec = {"replicates": 1, "base": {"n_orthologs": 100, "conserved_size": 20},
            "sweep": {"bogus": [1]}}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    result = runner.invoke(main, ["study", "--spec", str(path), "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert "error: unknown simulation field(s): bogus" in result.output


_STUDY_BASE = {"n_orthologs": 100, "conserved_size": 20}


@pytest.mark.parametrize("spec, message", [
    ({"base": _STUDY_BASE, "sweep": {"noise_rate": 0.1}},
     "error: sweep noise_rate must be a list of values, got 0.1"),
    ({"base": _STUDY_BASE, "sweep": {"noise_rate": ["x"]}},
     "error: noise_rate must be a number, got 'x'"),
    ([{"base": _STUDY_BASE}],
     "error: a study spec must be a JSON object"),
    ({"base": {"n_orthologs": "5", "conserved_size": 20}},
     "error: n_orthologs must be an integer, got '5'"),
    ({"base": _STUDY_BASE, "methods": "scbn"},
     "error: methods must be a list of method names, got 'scbn'"),
    ({"base": _STUDY_BASE, "methods": []},
     "error: methods must name at least one method"),
    ({"base": _STUDY_BASE, "methods": ["median", "median"]},
     "error: methods must not repeat, got ['median', 'median']"),
    ({"base": _STUDY_BASE, "sweep": {"rate_source": [[1.0, 2.0, 3.0]]}},
     "error: sweep rate_source: only numeric simulation fields can be swept"),
    ({"base": _STUDY_BASE, "sweep": {"rate_source": [None]}},
     "error: sweep rate_source: only numeric simulation fields can be swept"),
    ({"base": _STUDY_BASE, "sweep": {"noise_rate": []}},
     "error: sweep noise_rate must list at least one value"),
    ({"base": _STUDY_BASE, "sweep": {"seed": [1, 2]}},
     "error: sweep seed: each replicate's seed derives from the study seed"),
    ({"base": {"n_orthologs": 100}},
     "error: missing simulation field(s): conserved_size"),
    ({"base": _STUDY_BASE, "replicate": 2},
     "error: unknown study spec key(s): replicate"),
    # Bytes are written as they are; <spec> stands for the spec's path.
    (b'{"base": ', "error: <spec>: line 1 column 10: Expecting value"),
    (b'{"base": {"n_orthologs": 100,\n "conserved_size": 20}, "seed": 1\xff}',
     "error: <spec>: line 2: not valid UTF-8"),
], ids=["sweep-value-not-a-list", "sweep-entry-not-a-number", "spec-not-an-object",
        "base-field-not-a-number", "methods-not-a-list", "methods-empty", "methods-repeated",
        "sweep-rate-source-list", "sweep-rate-source-null", "sweep-empty", "sweep-seed",
        "base-field-missing", "spec-key-unknown", "spec-truncated", "spec-non-utf8"])
def test_study_spec_of_the_wrong_shape_is_a_one_line_error(tmp_path, spec, message):
    runner = CliRunner()
    path = tmp_path / "study.json"
    path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode("utf-8"))
    result = runner.invoke(main, ["study", "--spec", str(path), "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == message.replace("<spec>", str(path))


_TOO_FEW_CONSERVED = "error: median baseline needs >= 4 testable conserved genes, got 3"
_WORKER_EXITED = ("error: a study worker process ended with exit code 3 before sending its "
                  "results")


@pytest.mark.parametrize("cpus, conserved_size, worker_exits, message", [
    (1, 3, False, _TOO_FEW_CONSERVED),
    (2, 3, False, _TOO_FEW_CONSERVED),
    (2, 20, True, _WORKER_EXITED),
], ids=["serial", "workers", "worker-exits"])
def test_study_replicate_failure_is_a_one_line_error(tmp_path, monkeypatch, cpus,
                                                     conserved_size, worker_exits, message):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    if worker_exits:
        caller = os.getpid()
        original = simulation.generate_dataset

        def exit_in_worker(cfg):
            if os.getpid() != caller:
                os._exit(3)
            return original(cfg)

        monkeypatch.setattr(simulation, "generate_dataset", exit_in_worker)
    spec = {"base": {"n_orthologs": 100, "conserved_size": conserved_size},
            "methods": ["median"], "replicates": 3}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    result = CliRunner().invoke(main, ["study", "--spec", str(path),
                                       "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == message + "\n"


def test_scbn_optimum_at_the_window_edge_warns(tmp_path):
    runner = CliRunner()
    sim = tmp_path / "sim"
    assert _simulate(runner, sim).exit_code == 0
    inputs = ["--counts", str(sim / "counts.tsv"), "--conserved", str(sim / "conserved.txt"),
              "--grid-points", "200"]
    # The window [0.5/1.2, 0.5*1.2] lies below the data's factor (about 1.1).
    pinned = ["--grid-center", "0.5", "--grid-span", "1.2"]
    commands = [["normalize"], ["test", "--output", str(tmp_path / "run")]]
    for command in commands:
        result = runner.invoke(main, command + inputs + pinned)
        assert result.exit_code == 0, result.output
        assert result.stderr.count("warning: ") == 1
        assert "edge of the grid window" in result.stderr
        default = runner.invoke(main, command + inputs)
        assert default.exit_code == 0, default.output
        assert "edge of the grid window" not in default.stderr


_WINDOW_OUT_OF_RANGE = ("the grid window overflows or pins every conserved gene's null "
                       "probability at 0 or 1; narrow the span or move the center")


@pytest.mark.parametrize("option, value, message", [
    ("--grid-span", "inf", "span must exceed 1 and be finite"),
    ("--grid-center", "inf", "grid center must be positive and finite"),
    ("--grid-span", "1e308", _WINDOW_OUT_OF_RANGE),
    ("--grid-center", "1e300", _WINDOW_OUT_OF_RANGE),
    ("--grid-center", "1e-300", _WINDOW_OUT_OF_RANGE),
], ids=["span", "center", "span-1e308", "center-1e300", "center-1e-300"])
def test_infinite_grid_setting_is_a_one_line_error(tmp_path, option, value, message):
    counts = tmp_path / "counts.tsv"
    counts.write_text("gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2\n"
                      + "".join(f"g{i}\t100\t{5 + i}\t100\t{6 + i}\n" for i in range(8)),
                      encoding="utf-8")
    cons = tmp_path / "cons.txt"
    cons.write_text("".join(f"g{i}\n" for i in range(8)), encoding="utf-8")
    for command in (["normalize"], ["test", "--output", str(tmp_path / "run")]):
        result = CliRunner().invoke(main, command + ["--counts", str(counts), "--conserved",
                                                     str(cons), option, value])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.strip() == f"error: {message}"


def test_count_beyond_2_pow_53_fails_with_line_number(tmp_path):
    runner = CliRunner()
    counts = tmp_path / "counts.tsv"
    counts.write_text("gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2\n"
                      f"g1\t100\t5\t100\t5\ng2\t100\t{2**64}\t100\t5\n", encoding="utf-8")
    cons = tmp_path / "cons.txt"
    cons.write_text("g1\ng2\n", encoding="utf-8")
    for command in ("normalize", "test"):
        args = [command, "--counts", str(counts), "--conserved", str(cons), "--method", "median"]
        if command == "test":
            args += ["--output", str(tmp_path / "run")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error: " in result.output
        assert ": line 3: " in result.output
        assert "scaling_factor" not in result.output


@pytest.mark.parametrize("name, row, message", [
    ("results.tsv", "g2\t0.1", "line 3: expected 5 tab-separated fields"),
    # A blank line is skipped but still counted.
    ("results.tsv", "\ng2\t0.1", "line 4: expected 5 tab-separated fields"),
    ("truth.tsv", "g2\tnull\textra", "line 3: expected 2 tab-separated fields"),
    ("results.tsv", "g2\t1e-09\t2e-09\thigher_sp1\tyes",
     "line 3: de_call must be true or false, got 'yes'"),
], ids=["short-results-row", "blank-results-row", "three-field-truth-row", "de-call-yes"])
def test_evaluate_malformed_row_is_a_one_line_error(tmp_path, name, row, message):
    lines = {
        "results.tsv": ["gene_id\tp_value\tq_value\tdirection\tde_call",
                        "g1\t0.5\t0.5\tnone\tfalse"],
        "truth.tsv": ["gene_id\tlabel", "g1\tnull"],
    }
    lines[name].append(row)
    for file_name, content in lines.items():
        (tmp_path / file_name).write_text("\n".join(content) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, [
        "evaluate",
        "--results", str(tmp_path / "results.tsv"),
        "--truth", str(tmp_path / "truth.tsv"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"error: {tmp_path / name}: {message}"


@pytest.mark.parametrize("name, edit", [
    ("results.tsv", lambda text: "\ufeff" + text),
    ("truth.tsv", lambda text: "\ufeff" + text),
    ("results.tsv", lambda text: text + "\n"),
], ids=["bom-results-header", "bom-truth-header", "trailing-blank-line"])
def test_evaluate_reads_its_inputs_as_the_count_loader_does(tmp_path, name, edit):
    lines = {
        "results.tsv": ["gene_id\tp_value\tq_value\tdirection\tde_call",
                        "g1\t0.5\t0.5\tnone\tfalse",
                        "g2\t1e-09\t2e-09\thigher_sp1\ttrue"],
        "truth.tsv": ["gene_id\tlabel", "g1\tnull", "g2\tde_up_sp1"],
    }
    outputs = []
    for variant in ("plain", "edited"):
        for file_name, content in lines.items():
            text = "\n".join(content) + "\n"
            if variant == "edited" and file_name == name:
                text = edit(text)
            (tmp_path / file_name).write_text(text, encoding="utf-8")
        result = CliRunner().invoke(main, [
            "evaluate",
            "--results", str(tmp_path / "results.tsv"),
            "--truth", str(tmp_path / "truth.tsv"),
        ])
        assert result.exit_code == 0, result.output
        outputs.append(json.loads(result.output))
    assert outputs[1] == outputs[0]
    assert outputs[0]["tested_genes"] == 2 and outputs[0]["f_score"] == 1.0


@pytest.mark.parametrize("header", [
    "gene_id\tq_value\tdirection\tde_call",
    "gene_id\tp_value\tq_value\tdirection",
    "p_value\tgene_id\tq_value\tdirection\tde_call",
], ids=["no-p-value", "no-de-call", "gene-id-not-first"])
def test_evaluate_rejects_a_header_it_cannot_score(tmp_path, header):
    results = tmp_path / "results.tsv"
    results.write_text(header + "\n", encoding="utf-8")
    truth = tmp_path / "truth.tsv"
    truth.write_text("gene_id\tlabel\ng1\tnull\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["evaluate", "--results", str(results),
                                       "--truth", str(truth)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"error: {results}: not a results table"


def test_evaluate_rejects_an_unknown_truth_label(tmp_path):
    results = tmp_path / "results.tsv"
    results.write_text("gene_id\tp_value\tq_value\tdirection\tde_call\n"
                       "g1\t0.5\t0.5\tnone\tfalse\n"
                       "g2\t1e-09\t2e-09\thigher_sp1\ttrue\n", encoding="utf-8")
    truth = tmp_path / "truth.tsv"
    truth.write_text("gene_id\tlabel\ng1\tnull\ng2\tde\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["evaluate", "--results", str(results),
                                       "--truth", str(truth)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"error: {truth}: line 3: unknown label 'de'"


@pytest.mark.parametrize("name", ["results.tsv", "truth.tsv"])
def test_evaluate_rejects_a_repeated_gene_id(tmp_path, name):
    lines = {
        "results.tsv": ["gene_id\tp_value\tq_value\tdirection\tde_call",
                        "g1\t1e-09\t2e-09\thigher_sp1\ttrue",
                        "g2\t0.5\t0.5\tnone\tfalse"],
        "truth.tsv": ["gene_id\tlabel", "g1\tde_up_sp1", "g2\tnull"],
    }
    # The repeat disagrees with the first row, which a last-row-wins read
    # would silently score.
    lines[name].append("g1\tNA\tNA\tNA\tfalse" if name == "results.tsv" else "g1\tnull")
    for file_name, content in lines.items():
        (tmp_path / file_name).write_text("\n".join(content) + "\n", encoding="utf-8")
    result = CliRunner().invoke(main, [
        "evaluate",
        "--results", str(tmp_path / "results.tsv"),
        "--truth", str(tmp_path / "truth.tsv"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"error: {tmp_path / name}: line 4: duplicate gene_id 'g1'"


def _write_inputs(tmp_path, counts):
    """A count table with length-10 genes g0, g1, ... and a conserved list of them all."""
    table = tmp_path / "counts.tsv"
    table.write_text("gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2\n"
                     + "".join(f"g{i}\t10\t{a}\t10\t{b}\n" for i, (a, b) in enumerate(counts)),
                     encoding="utf-8")
    cons = tmp_path / "cons.txt"
    cons.write_text("".join(f"g{i}\n" for i in range(len(counts))), encoding="utf-8")
    return ["--counts", str(table), "--conserved", str(cons)]


def test_median_fallback_warns_from_normalize_and_test(tmp_path):
    # The interquartile memberships of the two species are disjoint, so the
    # median fit falls back to all conserved genes.
    inputs = _write_inputs(tmp_path, [(10, 1), (11, 1000), (1, 10), (1000, 11)])
    warning = "warning: IQR filter kept no genes; used all conserved genes"
    out = tmp_path / "run"
    for command in (["normalize"], ["test", "--output", str(out)]):
        result = CliRunner().invoke(main, command + inputs + ["--method", "median"])
        assert result.exit_code == 0, result.output
        assert result.stderr.strip() == warning
        assert warning not in result.stdout
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"method", "scaling_factor", "objective", "genes", "tallies",
                            "conserved", "config"}


@pytest.mark.parametrize("option, value, message", [
    ("--grid-points", "5", "coarse_points must be >= 10"),
    ("--grid-span", "1", "span must exceed 1 and be finite"),
    ("--grid-center", "0", "grid center must be positive and finite"),
    ("--grid-points", "100000000000", "coarse_points must be <= 1000000"),
], ids=["points", "span", "center", "points-cap"])
def test_grid_settings_are_checked_before_the_inputs_are_read(tmp_path, option, value, message):
    # The count table is malformed too, but the grid error comes first.
    inputs = _write_inputs(tmp_path, [(1, "x")])
    for command in (["normalize"], ["test", "--output", str(tmp_path / "run")]):
        result = CliRunner().invoke(main, command + inputs + [option, value])
        assert result.exit_code == 1
        assert result.output.strip() == f"error: {message}"
