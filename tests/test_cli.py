"""Command-line interface: exit codes, JSON shape, determinism."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import directions
from directions.cli import main
from directions.targets import TargetPoint, close_generators, save_spec


# five elements near 10^400, and a consecutive ratio of 10^400 / 3
HUGE_FIVE = ",".join(str(10**400 + i) for i in range(5))
HUGE_RATIO = "1,2,3," + str(10**400)


def csv_writer_bytes(header, rows):
    """The bytes csv.writer writes for these rows: the reference CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def reject_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    if out.startswith("{"):
        json.loads(out, parse_constant=reject_constant)
    return code, out, err


def run_capped(argv):
    """Run the CLI in a subprocess under a 1 GB address-space cap and the
    default budget."""
    resource = pytest.importorskip("resource")
    src = str(Path(directions.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("DIRECTIONS_BUDGET", None)

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "directions.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap_memory,
    )


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--rule", "naturals", "--N", "4", "--k", "2"
        )
        assert code == 0
        assert json.loads(out)["count"] == 11

    def test_domain_error(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--rule", "naturals", "--N", "10", "--k", "1"
        )
        assert code == 1
        assert "error" in err

    def test_resource_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DIRECTIONS_BUDGET", "100")
        code, _, err = run(
            capsys, "enumerate", "--rule", "naturals", "--N", "101", "--k", "2"
        )
        assert code == 2
        assert "resource" in err
        monkeypatch.setenv("DIRECTIONS_BUDGET", "0")  # no cap is below 1
        code, _, err = run(
            capsys, "enumerate", "--rule", "naturals", "--N", "4", "--k", "2"
        )
        assert code == 2
        assert err.startswith("resource error:")

    def test_sampled_draw_entries_exit_2(self, capsys, monkeypatch):
        # 10 draws of 50 entries each are 500 index entries, over 100
        monkeypatch.setenv("DIRECTIONS_BUDGET", "100")
        code, _, err = run(
            capsys, "enumerate", "--rule", "naturals", "--N", "11", "--k", "50",
            "--sample", "10",
        )
        assert code == 2
        assert "sampled draw entries" in err

    @pytest.mark.parametrize("flag", ["--out", "--unit-out"])
    def test_expansion_over_budget_exits_2(self, capsys, monkeypatch, tmp_path, flag):
        # 30^3 = 27,000 ordered tuples pass the cloud's charge, but the
        # export expands its 22,495 directions to 67,485 entries
        monkeypatch.setenv("DIRECTIONS_BUDGET", "50000")
        path = tmp_path / "F.csv"
        code, _, err = run(capsys, "enumerate", "--rule", "naturals", "--N", "30",
                           "--k", "3", flag, str(path))
        assert code == 2
        assert err.startswith("resource error: expanded cloud entries")
        assert not path.exists()

    def test_usage_error_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_usage_error_bad_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--rule", "naturals", "--no-such-flag"])
        assert exc.value.code == 64

    def test_usage_error_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--rule", "naturals", "--N", "10"])
        assert exc.value.code == 64

    def test_process_exit_code(self):
        # the module entry point maps usage errors to 64 at process level
        src = str(Path(directions.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "directions.cli", "nonsense"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
        )
        assert proc.returncode == 64

    def test_hyperplane_k2_returns(self):
        # the k=2 hyperplane union is {(1, 0), (0, 1)}; its dense sequence
        # cycles them instead of waiting for a level 2 that never comes
        src = str(Path(directions.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "directions.cli", "construct", "--builtin",
             "hyperplane-boundary", "--k", "2", "--M", "5"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert len(report["direction_errors"]) == len(report["tie_breaks"]) == 5

    def test_wide_closure_spec_returns(self, tmp_path):
        # the closure of (1, sqrt 2, 0, ..) at k=9 has 81 points; building
        # them must not take every permutation of every index mask
        spec = tmp_path / "spec.json"
        coords = [{"q": "1", "r": 1}, {"q": "1", "r": 2}] + [{"q": "0", "r": 1}] * 7
        spec.write_text(json.dumps({"k": 9, "generators": [coords]}))
        src = str(Path(directions.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "directions.cli", "construct", "--spec",
             str(spec), "--M", "3"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 9

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--builtin", "orthant-sphere-full", "--k",
             "300000000", "--M", "1"],
            ["verify", "--builtin", "hyperplane-boundary", "--k", "300000000",
             "--M", "2", "--L", "1"],
            ["demo-repetition", "--k", "300000000", "--M", "2"],
            ["chain", "--builtin", "orthant-sphere-full", "--k", "300000000",
             "--M", "1", "--h", "0.5"],
            # 9e7 samples pass a per-sample charge, but 2.7e8 entries do not
            ["net-audit", "--k", "3", "--h", "0.5", "--samples", "90000000"],
        ],
        ids=["construct", "verify", "demo", "chain", "net-audit"],
    )
    def test_huge_dimension_is_charged_before_it_is_built(self, argv):
        # M k step entries go through the budget before a k-vector exists;
        # the 1 GB address-space cap turns a missed charge into a
        # MemoryError instead of gigabytes of allocation
        proc = run_capped(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("resource error:")

    def test_demo_reads_the_chamber_under_a_memory_cap(self):
        # the with-repetition minimum walks the chamber once per column
        # order; the k!-fold expanded cloud of k=5, M=10 overruns 1 GB
        proc = run_capped(["demo-repetition", "--k", "5", "--M", "10"])
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout, parse_constant=reject_constant)
        # tuples with repeats reach theta, distinct tails stay away from it
        assert report["with_repetition_min_dist"] < 1e-3
        assert report["distinct_tail_min_dist"] > 0.1

    def test_k6_exhaustive_density_charges_the_sorted_net(self, capsys, monkeypatch):
        # at k=6, h=0.2 the net has 158,503,681 points, over the default
        # budget, of which exhaustive clouds query the 324,632 sorted ones;
        # sampled clouds and the audit query the whole net
        monkeypatch.delenv("DIRECTIONS_BUDGET", raising=False)
        ground = ["--rule", "naturals", "--N", "4", "--k", "6", "--h", "0.2"]
        code, out, _ = run(capsys, "density", *ground)
        assert code == 0 and json.loads(out)["k"] == 6
        code, out, _ = run(capsys, "chain", *ground)
        assert code == 0 and json.loads(out)["lower"]["k"] == 5
        for argv in (["density", *ground, "--sample", "100"],
                     ["net-audit", "--k", "6", "--h", "0.2"]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "158503681" in err

    def test_sampled_net_over_budget_is_refused_before_the_draw(
        self, capsys, monkeypatch
    ):
        # the whole net is over the default budget; refused after the
        # draw, 2,000,000 tuples cost seconds and 431 MB for nothing
        monkeypatch.delenv("DIRECTIONS_BUDGET", raising=False)

        def refuse_to_draw(*args, **kwargs):
            raise AssertionError("a cloud was drawn for a net the budget refuses")

        for module in (directions.cli, directions.density):
            monkeypatch.setattr(module, "directions", refuse_to_draw)
        code, _, err = run(capsys, "density", "--rule", "primes", "--N", "5000",
                           "--k", "6", "--h", "0.2", "--sample", "2000000")
        assert code == 2 and "158503681" in err


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, spec_text, code",
        [
            (["enumerate", "--elements", "1,x", "--k", "2"], None, 64),
            (
                ["witness", "--rule", "naturals", "--N", "100",
                 "--x", "0.6,abc", "--m", "10"],
                None,
                64,
            ),
            (["construct", "--spec", "SPEC", "--M", "3"], None, 1),
            (["construct", "--spec", "SPEC", "--M", "3"], "{not json", 1),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"kind": "finite-set", "generators": [[{"q": "1", "r": 1}]]}',
                1,
            ),
            (
                ["witness", "--rule", "naturals", "--N", "100",
                 "--x", "inf,1", "--m", "10"],
                None,
                1,
            ),
            (
                ["witness", "--elements", HUGE_FIVE, "--x", "0.6,0.8",
                 "--m", "5"],
                None,
                1,
            ),
            (
                ["witness", "--elements", HUGE_RATIO, "--x", "0.6,0.8",
                 "--m", "5"],
                None,
                1,
            ),
            (
                ["ratio-gap", "--elements", HUGE_RATIO, "--windows", "2"],
                None,
                1,
            ),
            (
                ["witness", "--rule", "naturals", "--N", "100",
                 "--x", "0.6,0.8", "--m", str(10**400)],
                None,
                1,
            ),
            (["construct", "--spec", "SPEC", "--M", "3"], '{"k": 2}', 1),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": "x", "generators": []}',
                1,
            ),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 1, "generators": [[{"q": "abc", "r": 1}]]}',
                1,
            ),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 1, "generators": [[{"q": "1/0", "r": 1}]]}',
                1,
            ),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 3, "generators": [[1, 2, 3]]}',
                1,
            ),
            (
                ["enumerate", "--elements", "1,2,3", "--k", "2",
                 "--sample", "5", "--seed", "-1"],
                None,
                1,
            ),
            (
                ["net-audit", "--k", "2", "--h", "0.5", "--seed", "-1"],
                None,
                1,
            ),
            (
                ["enumerate", "--elements", "1,2,3", "--k", "2",
                 "--out", "DIR/missing/x.csv"],
                None,
                1,
            ),
            (
                ["construct", "--builtin", "orthant-sphere-full", "--k", "2",
                 "--M", "3", "--dump", "DIR/missing/trace.jsonl"],
                None,
                1,
            ),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 2.5, "generators": [[{"q": "1", "r": 1}, '
                '{"q": "1", "r": 2}]]}',
                1,
            ),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 2, "generators": [[{"q": "1", "r": 2.7}, '
                '{"q": "1", "r": 1}]]}',
                1,
            ),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 2, "generators": [[{"q": 0.1, "r": 1}, '
                '{"q": "1", "r": 2}]]}',
                1,
            ),
            (
                ["density", "--rule", "naturals", "--N", "10", "--k", "2",
                 "--h", "1e-320"],
                None,
                2,
            ),
            (
                # refused before the draw, which would not fit in memory
                ["enumerate", "--rule", "naturals", "--N", "10", "--k", "3",
                 "--sample", str(10**12)],
                None,
                2,
            ),
            (
                ["net-audit", "--k", "2", "--h", "0.5", "--samples", str(10**12)],
                None,
                2,
            ),
            (
                # about 2.3e8 arrangements close this generator, refused
                # before any is built
                ["construct", "--spec", "SPEC", "--M", "3"],
                json.dumps(
                    {
                        "k": 10,
                        "generators": [
                            [{"q": str(q), "r": 1} for q in range(1, 11)]
                        ],
                    }
                ),
                2,
            ),
            # sizes past Python's int-to-str digit limit: the message
            # shows their bit length
            (
                ["enumerate", "--rule", "naturals", "--N", "100", "--k", "3000"],
                None,
                2,
            ),
            (
                ["density", "--rule", "naturals", "--N", "5", "--k", "8000",
                 "--h", "1"],
                None,
                2,
            ),
            (
                ["net-audit", "--k", "8000", "--h", "1"],
                None,
                2,
            ),
            # a NaN tolerance would count no violation
            (
                ["verify", "--builtin", "hyperplane-boundary", "--k", "3",
                 "--M", "12", "--L", "4", "--tolerance", "nan", "--h", "nan"],
                None,
                1,
            ),
            (
                ["verify", "--builtin", "hyperplane-boundary", "--k", "3",
                 "--M", "12", "--L", "4", "--tolerance", "inf"],
                None,
                1,
            ),
            (
                ["construct", "--builtin", "hyperplane-boundary", "--k", "3",
                 "--M", "12", "--verify", "--h", "inf"],
                None,
                1,
            ),
            # companion flags
            (["enumerate", "--rule", "naturals", "--k", "2"], None, 1),
            (["construct", "--builtin", "hyperplane-boundary", "--M", "3"], None, 1),
            (
                ["chain", "--builtin", "hyperplane-boundary", "--k", "3",
                 "--h", "0.1"],
                None,
                1,
            ),
            # ground-set rules
            (["enumerate", "--rule", "powers-of-1", "--N", "10", "--k", "2"], None, 1),
            (["enumerate", "--rule", "powers-of-x", "--N", "10", "--k", "2"], None, 1),
            (["enumerate", "--rule", "poly-0", "--N", "10", "--k", "2"], None, 1),
            (["enumerate", "--rule", "poly-x", "--N", "10", "--k", "2"], None, 1),
            (["enumerate", "--rule", "naturals", "--N", "0", "--k", "2"], None, 1),
            # counts
            (
                ["density", "--rule", "naturals", "--N", "10", "--k", "2",
                 "--h", "0.5", "--sample", "0"],
                None,
                1,
            ),
            (["ratio-gap", "--rule", "naturals", "--N", "100", "--windows", "0"],
             None, 1),
            (["net-audit", "--k", "2", "--h", "0.5", "--samples", "0"], None, 1),
            (["demo-repetition", "--M", "1"], None, 1),
            (["construct", "--builtin", "hyperplane-boundary", "--k", "3",
              "--M", "-1"], None, 1),
            (
                ["construct", "--builtin", "hyperplane-boundary", "--k", "3",
                 "--M", "0", "--dump", "DIR/trace.jsonl"],
                None,
                1,
            ),
            (["witness", "--elements", "", "--x", "0.6,0.8", "--m", "5"], None, 1),
            # spec files
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 3, "kind": "widgets", "generators": []}',
                1,
            ),
            (
                ["construct", "--spec", "SPEC", "--M", "3"],
                '{"k": 3, "generators": [[{"q": "1", "r": 1}, {"q": "1", "r": 2}]]}',
                1,
            ),
        ],
        ids=[
            "elements",
            "x",
            "missing-spec",
            "malformed-spec",
            "spec-without-k",
            "x-inf",
            "witness-elements-past-float-range",
            "witness-ratio-past-float-range",
            "ratio-gap-ratio-past-float-range",
            "witness-m-past-float-range",
            "spec-without-generators",
            "spec-k-not-int",
            "spec-q-not-rational",
            "spec-q-zero-denominator",
            "spec-coord-not-object",
            "negative-seed",
            "negative-seed-net-audit",
            "unwritable-out",
            "unwritable-dump",
            "spec-k-float",
            "spec-r-float",
            "spec-q-float",
            "tiny-h",
            "sample-over-budget",
            "net-audit-samples-over-budget",
            "closure-over-budget",
            "tuples-past-str-limit",
            "sorted-net-past-str-limit",
            "net-audit-past-str-limit",
            "verify-nan-tolerance",
            "verify-infinite-tolerance",
            "construct-verify-infinite-h",
            "rule-without-N",
            "builtin-without-k",
            "chain-builtin-without-M",
            "powers-of-1",
            "powers-of-x",
            "poly-0",
            "poly-x",
            "N-zero",
            "density-sample-zero",
            "ratio-gap-windows-zero",
            "net-audit-samples-zero",
            "demo-one-step",
            "construct-negative-M",
            "dump-without-trace",
            "witness-empty-elements",
            "spec-unknown-kind",
            "spec-generator-dimension",
        ],
    )
    def test_documented_exit_code(self, tmp_path, capsys, argv, spec_text, code):
        spec = tmp_path / "spec.json"
        if spec_text is not None:
            spec.write_text(spec_text)
        argv = [
            a.replace("SPEC", str(spec)).replace("DIR", str(tmp_path))
            for a in argv
        ]
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        assert got == code
        err = capsys.readouterr().err
        if code == 64:
            assert "error:" in err
        else:
            assert err.startswith("resource error:" if code == 2 else "error:")


class TestReports:
    def test_schema_version_everywhere(self, capsys):
        invocations = [
            ("enumerate", "--rule", "naturals", "--N", "5", "--k", "2"),
            ("density", "--rule", "primes", "--N", "50", "--k", "2", "--h", "0.1"),
            ("ratio-gap", "--rule", "naturals", "--N", "100"),
            (
                "witness",
                "--rule",
                "naturals",
                "--N",
                "1000",
                "--x",
                "0.6,0.8",
                "--m",
                "100",
            ),
            ("demo-repetition", "--k", "3", "--M", "6"),
            ("net-audit", "--k", "2", "--h", "0.2", "--samples", "200"),
        ]
        for argv in invocations:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert json.loads(out)["schema_version"] == 1, argv

    def test_witness_values(self, capsys):
        code, out, _ = run(
            capsys,
            "witness",
            "--rule",
            "naturals",
            "--N",
            "100000",
            "--x",
            "0.6,0.8",
            "--m",
            "1000",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["witness"] == [601, 801]
        assert doc["direction_error"] < 5e-3

    def test_witness_normalizes_x(self, capsys):
        code, out, _ = run(
            capsys,
            "witness",
            "--rule",
            "naturals",
            "--N",
            "100000",
            "--x",
            "3,4",
            "--m",
            "1000",
        )
        assert code == 0
        assert json.loads(out)["x"] == [0.6, 0.8]

    def test_witness_huge_x(self, capsys):
        # the squares of these coordinates overflow a float
        code, out, _ = run(
            capsys,
            "witness", "--rule", "naturals", "--N", "100000",
            "--x", "3e154,4e154", "--m", "1000",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["x"] == pytest.approx([0.6, 0.8], abs=1e-15)
        assert doc["witness"] == [601, 801]

    def test_construct_with_verify(self, capsys):
        code, out, _ = run(
            capsys,
            "construct",
            "--builtin",
            "orthant-sphere-full",
            "--k",
            "2",
            "--M",
            "12",
            "--verify",
            "--L",
            "6",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["element_count"] > 0
        assert doc["verification"]["backward_violations"] == 0
        assert doc["verification"]["forward_hausdorff"] < 1e-3

    def test_surd_spec_construction_passes_m1000(self, tmp_path, capsys):
        # the step certificate once compared surds, and near M = 1000 that
        # comparison needed more than its 16,384-bit cap and exited 1
        spec = tmp_path / "spec.json"
        row = [{"q": "1", "r": 1}, {"q": "2", "r": 3}, {"q": "0", "r": 1}]
        spec.write_text(json.dumps({"k": 3, "generators": [row]}))
        code, out, err = run(capsys, "construct", "--spec", str(spec), "--M", "1000")
        assert code == 0, err
        assert len(json.loads(out)["direction_errors"]) == 1000

    @pytest.mark.parametrize("k, M", [(76, 4), (100, 6), (300, 8), (1000, 1)])
    def test_wide_full_sphere_construction_passes(self, k, M, capsys):
        # past k = 100 the integer lemma can fail on a valid step; the surd
        # comparison must then decide, as it always did (k = 300 reaches it
        # at step 8); k = 1000 takes the offset search through 1000 entries
        code, out, err = run(
            capsys, "construct", "--builtin", "orthant-sphere-full",
            "--k", str(k), "--M", str(M),
        )
        assert code == 0, err
        assert len(json.loads(out)["direction_errors"]) == M

    def test_wide_step_past_the_bound_is_refused(self, capsys):
        # at k = 400 the offsets and shift alone put step 8 above the bound,
        # and the surd comparison refuses it
        code, out, err = run(
            capsys, "construct", "--builtin", "orthant-sphere-full",
            "--k", "400", "--M", "8",
        )
        assert (code, out) == (1, "")
        assert err == "error: step 8: direction error above 10(k+m)/m!\n"

    def test_verify_zero_prediction_counts_as_violation(self, tmp_path, capsys):
        # at L = 1 some origin picks take every entry from a zero target
        # coordinate or a step whose scale ratio underflows: the prediction
        # has norm 0 and takes the residual sqrt(2) instead of exiting 1
        spec = tmp_path / "spec.json"
        row = [{"q": "1", "r": 1}, {"q": "2", "r": 3}, {"q": "0", "r": 1}]
        spec.write_text(json.dumps({"k": 3, "generators": [row]}))
        argv = ["verify", "--spec", str(spec), "--M", "20"]
        code, out, err = run(capsys, *argv, "--L", "1")
        assert code == 0, err
        assert json.loads(out)["verification"]["backward_violations"] > 0
        code, out, _ = run(capsys, *argv, "--L", "2")
        assert code == 0  # L = 2 meets no such pick: its report is as it was
        assert json.loads(out)["verification"] == {
            "L_index": 2,
            "M": 20,
            "backward_hausdorff": 0.632604421444451,
            "backward_max_residual": 0.6573743288231061,
            "backward_violations": 540,
            "forward_hausdorff": 4.433589038483547e-09,
            "h": 0.05,
            "tail_cutoff": 5,
            "tail_tuple_count": 26970,
            "tolerance": 0.001,
        }

    def test_chain_constructed(self, capsys):
        code, out, _ = run(
            capsys,
            "chain",
            "--builtin",
            "hyperplane-boundary",
            "--k",
            "3",
            "--M",
            "12",
            "--h",
            "0.1",
            "--distinct",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["upper"]["k"] == 3
        assert doc["lower"]["k"] == 2

    def test_chain_rule(self, capsys):
        code, out, _ = run(
            capsys,
            "chain", "--rule", "naturals", "--N", "30", "--k", "3", "--h", "0.2",
        )
        doc = json.loads(out)
        assert code == 0
        assert (doc["upper"]["k"], doc["lower"]["k"]) == (3, 2)
        assert doc["upper"]["cloud_rule"] == "naturals"
        assert doc["upper"]["N"] == doc["lower"]["N"] == 30
        assert doc["chain_bound_holds"] is True

    def test_verify_past_float_range(self, capsys):
        # step-110 elements pass 10^178; their squares overflow a float
        code, out, _ = run(
            capsys,
            "verify", "--builtin", "orthant-sphere-full", "--k", "2",
            "--M", "110", "--L", "108",
        )
        assert code == 0
        assert json.loads(out)["verification"]["backward_violations"] == 0

    def test_ratio_gap_past_float_range(self, capsys):
        elements = [10**400 + i * 10**398 for i in range(8)]
        code, out, _ = run(
            capsys, "ratio-gap", "--elements", ",".join(map(str, elements))
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["trend"] == pytest.approx([1 / 100, 1 / 102, 1 / 104, 1 / 106])

    def test_demo_values(self, capsys):
        code, out, _ = run(capsys, "demo-repetition", "--k", "3", "--M", "10")
        doc = json.loads(out)
        assert code == 0
        assert doc["separation_sq_exact"] == "2 - sqrt(3)"
        assert doc["with_repetition_min_dist"] < 1e-3
        assert doc["distinct_tail_min_dist"] > 0.1
        code, out, _ = run(capsys, "demo-repetition", "--k", "4", "--M", "12")
        assert code == 0
        assert json.loads(out)["separation_sq_exact"] == "2 - 2/5*sqrt(15)"


class TestArtifacts:
    def test_enumerate_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "cloud.csv"
        code, _, _ = run(
            capsys,
            "enumerate",
            "--elements",
            "1,2,4",
            "--k",
            "2",
            "--out",
            str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "c0,c1"
        assert len(lines) == 6  # header + 5 directions

    def test_enumerate_unit_csv(self, tmp_path, capsys):
        unit_csv = tmp_path / "unit.csv"
        code, out, _ = run(
            capsys,
            "enumerate", "--rule", "naturals", "--N", "6", "--k", "3",
            "--unit-out", str(unit_csv),
        )
        assert code == 0
        lines = unit_csv.read_text().splitlines()
        assert lines[0] == "x0,x1,x2"
        assert len(lines) - 1 == json.loads(out)["count"]
        for line in lines[1:]:
            x = [float(v) for v in line.split(",")]
            assert math.isclose(math.hypot(*x), 1.0, abs_tol=1e-12)
        # floats print as repr, byte for byte what csv.writer writes
        units = directions.directions(directions.ground_set("naturals", 6), 3)
        want = ([repr(float(v)) for v in row] for row in units.unit_points())
        assert unit_csv.read_bytes() == csv_writer_bytes(["x0", "x1", "x2"], want)

    def test_sampled_enumerate_metadata(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate", "--rule", "primes", "--N", "100", "--k", "3",
            "--sample", "500", "--seed", "4",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["sampled"] is True
        assert (doc["sample_size"], doc["seed"]) == (500, 4)

    def test_ratio_gap_trend_csv(self, tmp_path, capsys):
        trend_csv = tmp_path / "trend.csv"
        code, out, _ = run(
            capsys,
            "ratio-gap", "--rule", "primes", "--N", "1000", "--windows", "5",
            "--trend-out", str(trend_csv),
        )
        doc = json.loads(out)
        assert code == 0
        lines = trend_csv.read_text().splitlines()
        assert lines[0] == "window,first_index,last_index,max_gap"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(5))
        assert [[int(r[1]), int(r[2])] for r in rows] == doc["windows"]
        assert [float(r[3]) for r in rows] == doc["trend"]
        # int columns stay ints beside the float column
        stat = directions.ratio_gap(directions.ground_set("primes", 1000), 5)
        want = (
            [i, lo, hi, repr(g)]
            for i, ((lo, hi), g) in enumerate(zip(stat.windows, stat.trend))
        )
        header = ["window", "first_index", "last_index", "max_gap"]
        assert trend_csv.read_bytes() == csv_writer_bytes(header, want)

    def test_construct_dump(self, tmp_path, capsys):
        dump, elements_csv = tmp_path / "trace.jsonl", tmp_path / "elements.csv"
        code, _, _ = run(
            capsys,
            "construct",
            "--builtin",
            "orthant-sphere-full",
            "--k",
            "2",
            "--M",
            "25",
            "--dump",
            str(dump),
            "--elements-out",
            str(elements_csv),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 25
        assert json.loads(lines[0])["step"] == 1
        # elements past int64 print as exact Python ints
        A = directions.construct(
            directions.TargetSpec(kind="orthant-sphere-full", k=2), 25
        )
        assert A.elements[-1] > 2**63
        want = ([str(e)] for e in A.elements)
        assert elements_csv.read_bytes() == csv_writer_bytes(["element"], want)

    def test_k5_surd_closure_and_construction_bytes_are_frozen(self, tmp_path, capsys):
        # the spec file and the trace are pure int and Fraction output
        spec, dump = tmp_path / "spec.json", tmp_path / "trace.jsonl"
        gens = [
            TargetPoint.from_qr([(1, 1), (1, 2), (2, 3), (0, 1), (0, 1)]),
            TargetPoint.from_qr([("1/2", 1), (1, 1), (1, 5), (3, 7), (0, 1)]),
        ]
        save_spec(close_generators(gens), str(spec))
        code, _, err = run(
            capsys, "construct", "--spec", str(spec), "--M", "60", "--dump", str(dump)
        )
        assert code == 0, err
        assert hashlib.sha256(spec.read_bytes()).hexdigest() == (
            "25166cce7e2509075c48f3bb7d28a532570f8c8297ee54fd7278fceb4009a027"
        )
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
            "ef3ad6c0b9212b615775824fcacee9fceda5a7208b5acba65bfb858f8de3eca7"
        )

    def test_rerun_byte_identical(self, tmp_path, capsys):
        argv = [
            "density",
            "--rule",
            "primes",
            "--N",
            "100",
            "--k",
            "2",
            "--h",
            "0.05",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_sampled_rerun_byte_identical(self, tmp_path, capsys):
        argv = [
            "density",
            "--rule",
            "naturals",
            "--N",
            "300",
            "--k",
            "3",
            "--h",
            "0.2",
            "--sample",
            "5000",
            "--seed",
            "9",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["sampled"] is True
