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


def test_density_builds_on_the_chamber(tmp_path):
    # a silent fallback to the expanded cloud would put every row in the
    # KD tree; the settle step adds only the orbits of the few rows next
    # to the worst sorted net points
    out = tmp_path / "density.json"
    tracer = _tracer()
    tracer.install()
    try:
        argv = ["density", "--rule", "naturals", "--N", "200", "--k", "3",
                "--h", "0.05", "--out", str(out)]
        assert directions.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    size = json.loads(out.read_text())["cloud_size"]
    A = enumeration.ground_set("naturals", 200)
    chamber = len(enumeration.directions(A, 3).rows)
    assert chamber < size
    assert chamber <= tracer.counts["density.kd_points"] <= chamber + 24
    assert tracer.counts["enumeration.rows_out"] == size

