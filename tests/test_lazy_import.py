"""scipy.spatial loads with the first KD tree, never with the package.

Each check runs in a fresh interpreter, where nothing has imported scipy
yet.  Only the commands that build a tree (density, chain, net-audit) may
load it, and their reports must not depend on whether it was loaded cold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import directions
from directions import density
from directions.cli import main

SRC = str(Path(directions.__file__).resolve().parents[1])

# commands that build no KD tree, each with its report written to --out
LEAN = {
    "enumerate": ["enumerate", "--rule", "primes", "--N", "60", "--k", "3"],
    "construct": ["construct", "--builtin", "hyperplane-boundary", "--k", "3",
                  "--M", "10"],
    "verify": ["verify", "--builtin", "orthant-sphere-full", "--k", "2",
               "--M", "12"],
    "witness": ["witness", "--rule", "naturals", "--N", "10000",
                "--x", "0.6,0.8", "--m", "100"],
    "ratio-gap": ["ratio-gap", "--rule", "primes", "--N", "1000"],
    "demo-repetition": ["demo-repetition", "--k", "3", "--M", "6"],
}
TREES = {
    "density": ["density", "--rule", "primes", "--N", "200", "--k", "3",
                "--h", "0.1"],
    "chain": ["chain", "--rule", "naturals", "--N", "30", "--k", "3",
              "--h", "0.2"],
    "net-audit": ["net-audit", "--k", "3", "--h", "0.2", "--samples", "500"],
}


def fresh(script: str, *args: str) -> str:
    """Stdout of ``script`` run in a new interpreter that imports from src."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# its last stdout line lists, after each step, the scipy modules loaded so far
RUN_COMMANDS = """
import json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
steps = [["interpreter", scipy_loaded()]]
import directions
steps.append(["import directions", scipy_loaded()])
from directions import cli
steps.append(["import directions.cli", scipy_loaded()])
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    steps.append([argv[0], scipy_loaded() if code == 0 else f"exit {code}"])
print(json.dumps(steps))
"""


def steps_of(commands: list[list[str]]) -> list[list]:
    return json.loads(fresh(RUN_COMMANDS, json.dumps(commands)).splitlines()[-1])


def reports(tmp_path: Path, commands: dict, tag: str) -> list[list[str]]:
    return [argv + ["--out", str(tmp_path / f"{name}-{tag}")]
            for name, argv in commands.items()]


def test_lean_commands_never_load_scipy(tmp_path):
    steps = steps_of(reports(tmp_path, LEAN, "cold"))
    assert [step for step in steps if step[1] != []] == []
    for argv in reports(tmp_path, LEAN, "warm"):
        assert main(argv) == 0
    for name in LEAN:
        cold = (tmp_path / f"{name}-cold").read_bytes()
        assert cold == (tmp_path / f"{name}-warm").read_bytes(), name


@pytest.mark.parametrize("name", sorted(TREES))
def test_tree_commands_load_scipy_spatial(tmp_path, name):
    commands = {name: TREES[name]}
    steps = steps_of(reports(tmp_path, commands, "cold"))
    assert [loaded for _, loaded in steps[:3]] == [[], [], []]
    assert "scipy.spatial" in steps[3][1]
    (argv,) = reports(tmp_path, commands, "warm")
    assert main(argv) == 0
    cold = (tmp_path / f"{name}-cold").read_bytes()
    assert cold == (tmp_path / f"{name}-warm").read_bytes()


# two tree parts, so the worker thread and this one import scipy.spatial
# for their first trees at the same time; the one-tree reference comes after
COLD_SPLIT = """
import sys
import numpy as np
from directions import density
from directions.enumeration import unit_rows
assert "scipy.spatial" not in sys.modules
density._usable_cpus = lambda: 2
density._PART_FLOOR = 1
rng = np.random.default_rng(4)
rows = rng.integers(0, 6, size=(400, 3))
rows[:, 0] += 1
units = unit_rows(rows)
queries = unit_rows(np.abs(rng.standard_normal((300, 3))))
got = density._nearest(units, queries)
from scipy.spatial import cKDTree
want, _ = cKDTree(units).query(queries)
print(np.array_equal(got, want))
"""


def test_split_kernel_from_cold_start():
    assert fresh(COLD_SPLIT).strip() == "True"


def test_audit_net_from_cold_start():
    cold = fresh(
        "from directions.density import audit_net, sphere_net\n"
        "print(repr(audit_net(sphere_net(3, 0.2), 2000, seed=5)))"
    )
    assert cold.strip() == repr(density.audit_net(density.sphere_net(3, 0.2), 2000, seed=5))
