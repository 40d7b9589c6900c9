"""The benchmark's per-layer tracer still finds every name it wraps.

perfbench/tracing.py looks each traced function up by name and binds its
arguments by parameter name; renaming or deleting one breaks ``--trace 1``.
"""

import importlib.util
from pathlib import Path

import directions.cli
from directions import enumeration

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = enumeration.directions
    tracer = tracing.Tracer()
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
