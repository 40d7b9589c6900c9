"""Command-line interface: exit codes, JSON shape, determinism."""

import json
import subprocess
import sys

import pytest

from directions.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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
        proc = subprocess.run(
            [sys.executable, "-m", "directions.cli", "nonsense"],
            capture_output=True,
        )
        assert proc.returncode == 64


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
        ],
        ids=["elements", "x", "missing-spec", "malformed-spec", "spec-without-k"],
    )
    def test_documented_exit_code(self, tmp_path, capsys, argv, spec_text, code):
        spec = tmp_path / "spec.json"
        if spec_text is not None:
            spec.write_text(spec_text)
        argv = [str(spec) if a == "SPEC" else a for a in argv]
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        assert got == code
        assert "error:" in capsys.readouterr().err


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

    def test_demo_values(self, capsys):
        code, out, _ = run(capsys, "demo-repetition", "--k", "3", "--M", "10")
        doc = json.loads(out)
        assert code == 0
        assert doc["separation_sq_exact"] == "2 - sqrt(3)"
        assert doc["with_repetition_min_dist"] < 1e-3
        assert doc["distinct_tail_min_dist"] > 0.1


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

    def test_construct_dump(self, tmp_path, capsys):
        dump = tmp_path / "trace.jsonl"
        code, _, _ = run(
            capsys,
            "construct",
            "--builtin",
            "orthant-sphere-full",
            "--k",
            "2",
            "--M",
            "5",
            "--dump",
            str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["step"] == 1

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
