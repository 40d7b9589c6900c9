"""The repository benchmark: drives the directions CLI and times every report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey-exhaustive --seed 0 \\
        --seconds 40 --trace 0

Workloads (see workloads.py for why each was chosen and how the seed
enters): survey-exhaustive, survey-sampled and certify.  Each run is one
closed loop with a single client and one op at a time: a fresh worker
process imports the package from ``src/``, generates the seeded inputs and
repeats passes over the workload's ops through ``directions.cli.main`` for
``--seconds`` seconds, checking every report.  Metrics are medians over the
passes of a run.  pass_s is the wall time of a pass; pass_cal is the same
time in units of a fixed calibration loop timed after every op, which
cancels the machine's drift in speed and is the gated pass metric.  For
the same reason setup_s is the set-up time scaled by the calibration loop
timed in the same process to a reference speed (CAL_REF_S); setup_wall_s
is the unscaled time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of tracing.py.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric with its unit,
each failed op, and the machine the numbers came from.

The run refuses ``python -O`` (asserts carry the per-step certificates and
the witness bounds), pins BLAS/OpenMP threads to 1 and clears
DIRECTIONS_BUDGET so the default budget of 10^8 applies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("survey-exhaustive", "survey-sampled", "certify")
SETUP_RUNS = 6  # set-up-only processes per run, besides the measuring one
TIMEOUT_S = 170  # every run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# setup_s is set-up time scaled to a machine on which the calibration loop
# of worker.py takes this long (its typical time on the 2-core Xeon the
# benchmark was built on), so that drift in machine speed cancels
CAL_REF_S = 0.033
# ops per pass, by CLI subcommand, reported as <subcommand>_s
COMMANDS = ("enumerate", "density", "chain", "construct", "verify")


def _fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _pinned_env() -> tuple[dict[str, str], str | None]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    inherited = env.pop("DIRECTIONS_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    return env, inherited


def _start(args, env, work: Path, setup_only: bool, spans: Path | None):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup_s = perf_counter() - start
    cal_s = proc.stdout.readline()
    try:
        rest, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail(f"worker ran past {TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        _fail(f"worker exited with code {proc.returncode} before finishing")
    return setup_s, float(cal_s), rest


def _measure(args, env, root: Path) -> tuple[list[tuple[float, float]], dict]:
    """(set-up, calibration) samples and the raw results of the measuring
    worker."""
    samples = []
    for _ in range(0 if args.trace else SETUP_RUNS):
        with tempfile.TemporaryDirectory(dir=root) as work:
            samples.append(_start(args, env, Path(work), True, None)[:2])
    spans = root / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with tempfile.TemporaryDirectory(dir=root) as work:
        setup_s, cal_s, out = _start(args, env, Path(work), False,
                                     spans if args.trace else None)
    samples.append((setup_s, cal_s))
    return samples, json.loads(out.strip().splitlines()[-1])


def _end_to_end(raw: dict, setup_s: float, setup_wall_s: float) -> dict[str, float]:
    passes = raw["passes"]
    metrics = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
               "pass_s": median(p["pass_s"] for p in passes),
               "pass_cal": median(p["pass_s"] / p["cal_s"] for p in passes),
               "peak_rss_mb": raw["peak_rss_mb"]}
    for cmd in COMMANDS:
        times = [p["by_command"][cmd] for p in passes if cmd in p["by_command"]]
        if times:
            metrics[f"{cmd}_s"] = median(times)
    return metrics


def _per_layer(raw: dict) -> dict[str, float]:
    layers = raw["layers"]
    first = layers[0]
    metrics = {}
    for name, value in first.items():
        # counts come from the first traced pass, times are medians
        metrics[name] = (median(layer[name] for layer in layers)
                         if name.endswith("_s") else value)
    for layer in layers[1:]:
        moved = [n for n, v in layer.items() if not n.endswith("_s") and v != first[n]]
        if moved:
            print(f"note: counts differ between traced passes: {moved}")
    metrics["trace.overhead_s"] = (
        median(p["pass_s"] for p in raw["traced"])
        - median(p["pass_s"] for p in raw["passes"]))
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if sys.flags.optimize:
        _fail("refusing to run under python -O: the per-step certificates "
              "and witness bounds are asserts, so -O measures another program")
    root = Path.cwd()
    for need in ("src/directions/cli.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (root / need).is_file():
            _fail(f"{need} not found; run from the root of a checkout")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]

    env, inherited_budget = _pinned_env()
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    setup_samples, raw = _measure(args, env, work_root)
    setup_s = median(s * CAL_REF_S / c for s, c in setup_samples)

    all_passes = raw["passes"] + raw["traced"]
    attempted = sum(p["attempted"] for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    unexpected = [f for f in failures if not f["known_defect"]]
    metrics = (_per_layer(raw) if args.trace else
               _end_to_end(raw, setup_s, median(s for s, _ in setup_samples)))

    print("env " + json.dumps({
        **raw["versions"], "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "threads": 1, "PYTHONHASHSEED": "0",
        "DIRECTIONS_BUDGET": f"unset (default 10^8; inherited {inherited_budget!r})",
        "workload": args.workload, "seed": args.seed,
        "passes": len(raw["passes"]), "traced_passes": len(raw["traced"]),
    }))
    print("setup " + ", ".join(f"{s:.3f} (cal {c:.4f})" for s, c in setup_samples))
    for kind in ("passes", "traced"):
        if raw[kind]:
            times = ", ".join(f"{p['pass_s']:.3f}" for p in raw[kind])
            print(f"{kind} {len(raw[kind])}: pass_s {times}")
    for name, value in metrics.items():
        unit = next((m["unit"] for m in declared if m["name"] == name), "s")
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    print(f"metric ops_failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} ops)")
    for f in failures:
        tag = f"known defect, {f['known_defect']}" if f["known_defect"] else "FAILED"
        print(f"op {f['op']} {tag}: {f['problem']}")

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        _fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
