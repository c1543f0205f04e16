"""perfbench's traced run against the package: every layer it times is reached.

``perfbench/run.py --trace 1`` wraps functions where their callers look
them up (module globals), and takes medians of the spans it records, so a
refactor that calls around a wrapped function leaves a layer without spans
and crashes the traced run.  This test runs each layer once under the
benchmark's own ``Tracer``, on a tiny dataset.
"""
import importlib.util
import sys
from pathlib import Path

from crossnorm import pipeline, simulation

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_perfbench_run(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends src/
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_timed_layer_records_a_span(tmp_path, monkeypatch):
    run = _load_perfbench_run(monkeypatch)
    config = simulation.SimConfig(n_orthologs=200, conserved_size=40, de_rate=0.1,
                                  depth_sp1=5e4, depth_sp2=5e4, seed=1)
    dataset = simulation.generate_dataset(config)
    counts, conserved = tmp_path / "counts.tsv", tmp_path / "conserved.txt"
    run.write_inputs(dataset, counts, conserved)
    tracer = run.Tracer("tiny")
    tracer.install()
    try:
        simulation.generate_dataset(config)
        for method in ("scbn", "median"):
            report = pipeline.run_pipeline(pipeline.RunConfig(
                counts_path=str(counts), conserved_path=str(conserved), method=method,
                grid_points=100))
            pipeline.write_report(report, tmp_path / method)
        calls = {r.gene_id: r.de_call for r in report.results if r.p_value is not None}
        simulation.evaluate_run(calls, {g: dataset.truth[g] for g in calls})
        simulation.run_study(config, {"noise_rate": [0.0]}, ["scbn", "median"], 1, 0.01)
    finally:
        tracer.uninstall()
    missing = set(run.SPAN_TIMED + run.SELF_TIMED) - {span["name"] for span in tracer.spans}
    assert not missing, sorted(missing)
