import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import crossnorm
from crossnorm import normalization, pipeline, simulation
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


def _assert_written_as_utf8_lines(path):
    # UTF-8, every line ended by "\n" alone, and a final newline.
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n") and text.split("\n")[:-1] == text.splitlines(), path


def test_normalize_and_evaluate_outputs_are_pinned(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    assert _simulate(runner, out / "sim").exit_code == 0
    inputs = ["--counts", str(out / "sim" / "counts.tsv"),
              "--conserved", str(out / "sim" / "conserved.txt"), "--grid-points", "200"]
    for method in ("scbn", "median"):
        estimate = out / f"{method}.json"
        result = runner.invoke(main, ["normalize", *inputs, "--method", method,
                                      "--output", str(estimate)])
        assert result.exit_code == 0, result.output
        printed = dict(line.split("\t") for line in result.stdout.splitlines())
        payload = json.loads(estimate.read_text(encoding="utf-8"))
        run = out / f"run-{method}"
        result = runner.invoke(main, ["test", *inputs, "--method", method, "--cutoff", "0.01",
                                      "--output", str(run)])
        assert result.exit_code == 0, result.output
        summary = json.loads((run / "summary.json").read_text(encoding="utf-8"))
        assert payload["scaling_factor"] == float(printed["scaling_factor"]) == \
            summary["scaling_factor"]
        assert (payload["method"], payload["conserved_used"]) == \
            (method, summary["conserved"]["used"])
        if method == "scbn":
            assert list(printed) == ["scaling_factor", "rejection_rate", "deviation"]
            assert set(payload) == {"method", "conserved_used", "scaling_factor", "objective"}
            assert payload["objective"] == summary["objective"] == {
                "deviation": float(printed["deviation"]),
                "rejection_rate": float(printed["rejection_rate"])}
        else:
            assert list(printed) == ["scaling_factor"]
            assert set(payload) == {"method", "conserved_used", "scaling_factor",
                                    "iqr_filtered", "kept_genes"}
            assert summary["objective"] is None
        scores = out / f"scores-{method}.json"
        result = runner.invoke(main, ["evaluate", "--results", str(run / "results.tsv"),
                                      "--truth", str(out / "sim" / "truth.tsv"),
                                      "--output", str(scores)])
        assert result.exit_code == 0, result.output
        assert scores.read_text(encoding="utf-8") == result.stdout
    spec = tmp_path / "study.json"
    spec.write_text(json.dumps({"replicates": 1, "methods": ["median"], "cutoff": 0.01,
                                "base": {"n_orthologs": 200, "conserved_size": 40},
                                "sweep": {"noise_rate": [0.0]}}), encoding="utf-8")
    result = runner.invoke(main, ["study", "--spec", str(spec), "--output", str(out / "study")])
    assert result.exit_code == 0, result.output
    written = sorted(path.relative_to(out).as_posix() for path in out.rglob("*")
                     if path.is_file())
    assert written == [
        "median.json", "run-median/results.tsv", "run-median/summary.json",
        "run-scbn/results.tsv", "run-scbn/summary.json", "scbn.json", "scores-median.json",
        "scores-scbn.json", "sim/conserved.txt", "sim/counts.tsv", "sim/meta.json",
        "sim/truth.tsv", "study/grid.tsv"]
    for name in written:
        _assert_written_as_utf8_lines(out / name)


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


def test_a_test_run_builds_and_checks_its_grid_once(tmp_path, monkeypatch):
    # RunConfig builds its GridConfig in __post_init__ and grid() returns it;
    # a test run used to build and check it four times.
    runner = CliRunner()
    sim = tmp_path / "sim"
    assert _simulate(runner, sim).exit_code == 0
    built = []
    check = normalization.GridConfig.__post_init__

    def counted(grid):
        built.append(grid)
        check(grid)

    monkeypatch.setattr(normalization.GridConfig, "__post_init__", counted)
    result = runner.invoke(main, ["test", "--counts", str(sim / "counts.tsv"),
                                  "--conserved", str(sim / "conserved.txt"),
                                  "--grid-points", "200", "--output", str(tmp_path / "run")])
    assert result.exit_code == 0, result.output
    assert [grid.coarse_points for grid in built] == [200]


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
    assert [line.split("\t")[0] for line in lines[1:]] == ["0", "0", "0.3", "0.3"]


def test_study_grid_prints_swept_integers_exactly(tmp_path):
    # Six significant digits would print both lengths as 1e+06.
    spec = {"replicates": 1, "methods": ["median"], "cutoff": 0.01,
            "base": {"n_orthologs": 200, "conserved_size": 40},
            "sweep": {"length_max": [1000000, 1000001], "fold": [2.0]}}
    spec_path = tmp_path / "study.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "study"
    result = CliRunner().invoke(main, ["study", "--spec", str(spec_path), "--output", str(out)])
    assert result.exit_code == 0, result.output
    rows = [line.split("\t")[:2] for line in (out / "grid.tsv").read_text().splitlines()]
    assert rows == [["length_max", "fold"], ["1000000", "2"], ["1000001", "2"]]


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


def test_simulate_draws_rates_from_a_rate_table(tmp_path):
    # The rates are the reads of each expressed gene of the table.
    runner = CliRunner()
    assert _simulate(runner, tmp_path / "ref").exit_code == 0
    rate_table = tmp_path / "ref" / "counts.tsv"
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--n-orthologs", "300", "--conserved-size", "30",
                                  "--rate-table", str(rate_table), "--seed", "4",
                                  "--output", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "meta.json").read_text())["rate_model"] == "reference_table"
    reference = pipeline.load_counts_tsv(rate_table)
    reads = reference.count_sp1 + reference.count_sp2
    expected = simulation.generate_dataset(simulation.SimConfig(
        n_orthologs=300, conserved_size=30, de_rate=0.1, rate_source=reads[reads > 0], seed=4))
    assert pipeline.load_counts_tsv(out / "counts.tsv") == expected.table


@pytest.mark.parametrize("options, message", [
    (["--fold", "1e308", "--de-rate", "0.5"], "fold must exceed 1 and be at most 1e+100"),
    (["--depth-sp1", "1e300"], "depth_sp1 must be positive and at most 2**52"),
    (["--depth-sp1", "1e18"], "depth_sp1 must be positive and at most 2**52"),
], ids=["fold-1e308", "depth-1e300", "depth-1e18"])
def test_simulate_input_that_would_overflow_is_a_one_line_error(tmp_path, options, message):
    result = CliRunner().invoke(main, ["simulate", "--n-orthologs", "200", "--conserved-size",
                                       "50", *options, "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_an_oversized_simulation_is_a_one_line_error(tmp_path):
    # It used to end in a MemoryError traceback from the id draw.
    result = CliRunner().invoke(main, ["simulate", "--n-orthologs", "100000000000",
                                       "--conserved-size", "10", "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("error: n_orthologs + n_unique_sp1 + n_unique_sp2 must be <= "
                             f"{simulation.MAX_SIM_GENES}, got 100000000000\n")
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize("flags, named", [
    (["--seed", "5", "--n-orthologs", "300"], "--n-orthologs, --seed"),
    (["--conserved-size", "1000"], "--conserved-size"),  # the default, given explicitly
    (["--rate-table", "<spec>"], "--rate-table"),
], ids=["seed-and-size", "default-value", "rate-table"])
def test_simulate_spec_with_another_simulation_flag_is_a_one_line_error(tmp_path, flags, named):
    # The flags used to be ignored: the spec's dataset was written, exit 0.
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"n_orthologs": 100, "conserved_size": 20, "seed": 1}))
    flags = [str(path) if flag == "<spec>" else flag for flag in flags]
    result = CliRunner().invoke(main, ["simulate", "--spec", str(path), *flags,
                                       "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert result.output == f"error: --spec holds every simulation field; drop {named}\n"
    assert not (tmp_path / "x").exists()


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
    ({"base": dict(_STUDY_BASE, seed=7)},
     "error: base seed: each replicate's seed derives from the study seed"),
    ({"base": {"n_orthologs": 100}},
     "error: missing simulation field(s): conserved_size"),
    ({"replicates": 1},
     "error: a study spec needs a base object of simulation fields"),
    ({"base": _STUDY_BASE, "replicate": 2},
     "error: unknown study spec key(s): replicate"),
    ({"base": dict(_STUDY_BASE, de_rate=0.5), "sweep": {"fold": [2.0, 1e308]}},
     "error: fold must exceed 1 and be at most 1e+100"),
    ({"base": _STUDY_BASE, "replicates": 1000000000},
     "error: cells x replicates must be <= 100000, got 1000000000"),
    # Bytes are written as they are; <spec> stands for the spec's path.
    (b'{"base": ', "error: <spec>: line 1 column 10: Expecting value"),
    (b'{"base": {"n_orthologs": 100,\n "conserved_size": 20}, "seed": 1\xff}',
     "error: <spec>: line 2: not valid UTF-8"),
], ids=["sweep-value-not-a-list", "sweep-entry-not-a-number", "spec-not-an-object",
        "base-field-not-a-number", "methods-not-a-list", "methods-empty", "methods-repeated",
        "sweep-rate-source-list", "sweep-rate-source-null", "sweep-empty", "sweep-seed",
        "base-seed", "base-field-missing", "base-missing", "spec-key-unknown", "sweep-fold-overflows",
        "study-oversized", "spec-truncated", "spec-non-utf8"])
def test_study_spec_of_the_wrong_shape_is_a_one_line_error(tmp_path, spec, message):
    runner = CliRunner()
    path = tmp_path / "study.json"
    path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode("utf-8"))
    result = runner.invoke(main, ["study", "--spec", str(path), "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == message.replace("<spec>", str(path))


def test_a_study_sweeping_an_oversized_table_is_a_one_line_error(tmp_path):
    spec = {"replicates": 1, "methods": ["median"], "base": _STUDY_BASE,
            "sweep": {"n_orthologs": [100, 100000000000]}}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    result = CliRunner().invoke(main, ["study", "--spec", str(path),
                                       "--output", str(tmp_path / "x")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("error: n_orthologs + n_unique_sp1 + n_unique_sp2 must be <= "
                             f"{simulation.MAX_SIM_GENES}, got 100000000000\n")
    assert not (tmp_path / "x").exists()


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
        original = simulation._draw

        def exit_in_worker(cfg, gene_ids):
            if os.getpid() != caller:
                os._exit(3)
            return original(cfg, gene_ids)

        monkeypatch.setattr(simulation, "_draw", exit_in_worker)
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
    ("results.tsv", "g2\tabc\t2e-09\tnone\tfalse",
     "line 3: p_value must be NA or a number in (0, 1], got 'abc'"),
    ("results.tsv", "g2\t-3\t2e-09\tnone\tfalse",
     "line 3: p_value must be NA or a number in (0, 1], got '-3'"),
    ("results.tsv", "g2\t1.5\t1.0\tnone\tfalse",
     "line 3: p_value must be NA or a number in (0, 1], got '1.5'"),
    ("results.tsv", "g2\tnan\tNA\tnone\tfalse",
     "line 3: p_value must be NA or a number in (0, 1], got 'nan'"),
], ids=["short-results-row", "blank-results-row", "three-field-truth-row", "de-call-yes",
        "p-value-text", "p-value-negative", "p-value-above-1", "p-value-nan"])
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


@pytest.mark.parametrize("truth, message", [
    ("gene\tlabel\ng1\tnull\ng2\tnull\n", "<truth>: expected header 'gene_id\\tlabel'"),
    ("gene_id\tlabel\ng1\tnull\n", "1 tested gene(s) missing from the truth table"),
], ids=["bad-header", "tested-gene-missing"])
def test_evaluate_rejects_a_truth_table_that_cannot_score_the_results(tmp_path, truth, message):
    results = tmp_path / "results.tsv"
    results.write_text("gene_id\tp_value\tq_value\tdirection\tde_call\n"
                       "g1\t0.5\t0.5\tnone\tfalse\n"
                       "g2\t1e-09\t2e-09\thigher_sp1\ttrue\n", encoding="utf-8")
    truth_path = tmp_path / "truth.tsv"
    truth_path.write_text(truth, encoding="utf-8")
    result = CliRunner().invoke(main, ["evaluate", "--results", str(results),
                                       "--truth", str(truth_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip() == f"error: {message.replace('<truth>', str(truth_path))}"


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


# Each input with a form feed inside its second line, which splits that
# line in two as str.splitlines does.
_FORM_FEED_LINES = {
    "counts.tsv": ["gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2",
                   "g0\t10\t5\t10\t5\x0cg1\t10\t5\t10\t5"],
    "results.tsv": ["gene_id\tp_value\tq_value\tdirection\tde_call",
                    "g0\t0.5\t0.5\tnone\tfalse\x0cg1\t1e-09\t2e-09\thigher_sp1\ttrue"],
    "truth.tsv": ["gene_id\tlabel", "g0\tnull\x0cg1\tde_up_sp1"],
}


def _read_form_feed_inputs(tmp_path, name=None, row=None):
    """Write the form-feed inputs, ``row`` appended to file ``name``, and
    run the command that reads that file (``evaluate`` by default)."""
    for file_name, lines in _FORM_FEED_LINES.items():
        text = "\n".join(lines + ([row] if file_name == name else [])) + "\n"
        (tmp_path / file_name).write_bytes(text.encode("utf-8", "surrogateescape"))
    if name == "counts.tsv":
        (tmp_path / "cons.txt").write_text("g0\n", encoding="utf-8")
        return CliRunner().invoke(main, ["normalize", "--counts", str(tmp_path / name),
                                         "--conserved", str(tmp_path / "cons.txt")])
    return CliRunner().invoke(main, ["evaluate", "--results", str(tmp_path / "results.tsv"),
                                     "--truth", str(tmp_path / "truth.tsv")])


@pytest.mark.parametrize("name, short_row, message", [
    ("counts.tsv", "g2\t10\t5\t10", "expected 5 tab-separated fields"),
    ("results.tsv", "g2\t0.1", "expected 5 tab-separated fields"),
    ("truth.tsv", "g2\tnull\textra", "expected 2 tab-separated fields"),
])
def test_a_bad_byte_and_a_bad_row_after_a_form_feed_name_the_same_line(tmp_path, name,
                                                                        short_row, message):
    # The file's third newline-ended line is its fourth line; "\udcff" is
    # written as the byte 0xff.
    for row, error in ((short_row, message), ("\udcffg2", "not valid UTF-8")):
        result = _read_form_feed_inputs(tmp_path, name, row)
        assert result.exit_code == 1
        assert result.output == f"error: {tmp_path / name}: line 4: {error}\n"


def test_evaluate_reads_two_rows_from_a_line_split_by_a_form_feed(tmp_path):
    result = _read_form_feed_inputs(tmp_path)
    assert result.exit_code == 0, result.output
    scores = json.loads(result.output)
    assert (scores["tested_genes"], scores["f_score"], scores["false_discoveries"]) == (2, 1.0, 0)


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
    # The median fit falls back to all conserved genes when the interquartile
    # memberships of the two species are disjoint, and when the filter keeps
    # four genes whose species-1 median is 0.
    warning = ("warning: the IQR filter kept no genes, or a kept-set median is 0; "
               "used all conserved genes")
    cases = [[(10, 1), (11, 1000), (1, 10), (1000, 11)],
             list(zip([0, 0, 0, 1, 2, 3, 4, 5], [5, 5, 5, 5, 1, 9, 1, 9]))]
    for case, counts in enumerate(cases):
        inputs = _write_inputs(tmp_path, counts)
        out = tmp_path / f"run{case}"
        for command in (["normalize"], ["test", "--output", str(out)]):
            result = CliRunner().invoke(main, command + inputs + ["--method", "median"])
            assert result.exit_code == 0, result.output
            assert result.stderr.strip() == warning
            assert warning not in result.stdout
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"method", "scaling_factor", "objective", "genes", "tallies",
                                "conserved", "config"}


def test_conserved_ids_missing_from_the_table_warn_from_normalize_and_test(tmp_path):
    inputs = _write_inputs(tmp_path, [(10, 12), (20, 18), (30, 33), (40, 41), (15, 14)])
    with open(inputs[-1], "a", encoding="utf-8") as conserved:
        conserved.write("absent1\nabsent2\nabsent1\n")
    out = tmp_path / "run"
    for command in (["normalize"], ["test", "--output", str(out)]):
        result = CliRunner().invoke(main, command + inputs + ["--method", "median"])
        assert result.exit_code == 0, result.output
        assert result.stderr == "warning: 2 conserved id(s) not in the count table\n"


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


# Imports crossnorm in a fresh interpreter and, given arguments, runs them as a
# crossnorm command; then prints its exit code (None with no command), whether
# scipy.special was loaded and whether any numpy module was.
_FRESH = """
import sys
import crossnorm
code = None
if len(sys.argv) > 1:
    from crossnorm.cli import main
    try:
        main()
    except SystemExit as stop:
        code = stop.code
print((code, "scipy.special._ufuncs" in sys.modules,
       any(name.partition(".")[0] == "numpy" for name in sys.modules)))
"""


def _fresh_env():
    return dict(os.environ, PYTHONPATH=str(Path(crossnorm.__file__).parents[1]))


def _fresh_run(*args):
    """``(exit code, scipy loaded, numpy loaded, stderr)`` of a crossnorm
    command in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _FRESH, *args], capture_output=True,
                          text=True, env=_fresh_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return (*ast.literal_eval(done.stdout.splitlines()[-1]), done.stderr)


def test_importing_the_cli_loads_no_numpy_or_scipy():
    # The package resolves its exports at first lookup and each command
    # imports what it calls when it runs, json and dataclasses too.
    probe = ("import sys, crossnorm.cli; print(sorted(name for name in sys.modules"
             " if name.partition('.')[0] in ('crossnorm', 'numpy', 'scipy', 'json',"
             " 'dataclasses')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert ast.literal_eval(done.stdout) == ["crossnorm", "crossnorm.cli"]


def test_version_help_and_usage_errors_load_no_numpy(tmp_path):
    assert _fresh_run() == (None, False, False, "")
    for args in (["--version"], ["--help"],
                 *([command, "--help"] for command in main.commands)):
        assert _fresh_run(*args) == (0, False, False, ""), args
    assert sorted(main.commands) == ["evaluate", "normalize", "simulate", "study", "test"]
    cons = tmp_path / "cons.txt"
    cons.write_text("g1\n")
    code, scipy_loaded, numpy_loaded, stderr = _fresh_run(
        "test", "--conserved", str(cons), "--output", str(tmp_path / "run"))
    assert (code, scipy_loaded, numpy_loaded) == (2, False, False)
    assert "Missing option '--counts'" in stderr


def test_only_commands_that_test_genes_load_scipy(tmp_path):
    # scipy.special is imported at the first binomial tail, so simulate,
    # evaluate and a test run stopped by an input error never load it; they
    # load numpy, the last one because pipeline finds the error.  A valid
    # test run loads both, and writes what the same run writes in this
    # process.
    runner = CliRunner()
    sim = tmp_path / "sim"
    assert _simulate(runner, sim).exit_code == 0
    inputs = ["--counts", str(sim / "counts.tsv"), "--conserved", str(sim / "conserved.txt")]
    assert runner.invoke(main, ["test", *inputs, "--output", str(tmp_path / "here")]).exit_code == 0
    bad = tmp_path / "bad.tsv"
    bad.write_text("gene_id\tlength_sp1\tcount_sp1\tlength_sp2\tcount_sp2\ng1\t10\t+5\t10\t5\n")

    for args in (["simulate", "--n-orthologs", "300", "--conserved-size", "60",
                  "--output", str(tmp_path / "sim2")],
                 ["evaluate", "--results", str(tmp_path / "here" / "results.tsv"),
                  "--truth", str(sim / "truth.tsv")]):
        assert _fresh_run(*args) == (0, False, True, ""), args
    code, scipy_loaded, numpy_loaded, stderr = _fresh_run(
        "test", "--counts", str(bad), "--conserved", str(sim / "conserved.txt"),
        "--output", str(tmp_path / "bad"))
    assert (code, scipy_loaded, numpy_loaded, stderr.count("\n")) == (1, False, True, 1)
    assert stderr.startswith(f"error: {bad}: line 2: ")
    assert _fresh_run("test", *inputs, "--output", str(tmp_path / "fresh")) == (0, True, True, "")
    for name in ("summary.json", "results.tsv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
