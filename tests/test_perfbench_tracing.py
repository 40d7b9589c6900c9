"""The benchmark's per-layer tracer still finds every name it wraps.

perfbench/tracing.py looks each traced function up by name and binds its
arguments by parameter name; renaming or deleting one breaks ``--trace 1``.
"""

import importlib.util
import json
from pathlib import Path

import directions.cli
from directions import enumeration

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_and_uninstalls(tmp_path):
    original = enumeration.directions
    tracer = _tracer()
    tracer.install()
    try:
        assert enumeration.directions is not original
        argv = ["enumerate", "--elements", "1,2,3", "--k", "2",
                "--out", str(tmp_path / "cloud.csv")]
        assert directions.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert enumeration.directions is original
    assert tracer.counts["enumeration.tuples"] == 9
    assert tracer.counts["enumeration.csv_rows"] == 7


def test_construct_routes_steps_through_construct_step(tmp_path):
    # the construction.steps and tail_tuples metrics read what the traced
    # construct_step and verify_construction saw
    out = tmp_path / "report.json"
    tracer = _tracer()
    tracer.install()
    try:
        argv = ["construct", "--builtin", "hyperplane-boundary", "--k", "3",
                "--M", "12", "--verify", "--out", str(out)]
        assert directions.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    report = json.loads(out.read_text())
    assert tracer.counts["construction.steps"] == 12
    tail_tuples = report["verification"]["tail_tuple_count"]
    assert tail_tuples > 0
    assert tracer.counts["construction.tail_tuples"] == tail_tuples
