"""One benchmark process: set up one workload, then run passes over its ops.

Started by ``run.py`` with the thread and budget environment already
pinned.  It prints ``ready`` once the package is imported and the inputs
are generated (the end of set-up), then the time of the calibration loop
in that state, and with ``--setup-only`` exits there.
Otherwise it computes the check references, runs passes until ``--seconds``
have gone by, and prints one JSON line of raw results.

With ``--trace 1`` passes alternate between untraced and traced, starting
untraced, so the tracing overhead is the difference of their medians.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy


def _run_op(cli, op, work: Path, tracer=None):
    """Run one op; returns (seconds, reports, failure reason or None)."""
    argv = op.argv() if callable(op.argv) else op.argv
    for name in op.outputs:
        (work / name).unlink(missing_ok=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            span = tracer.open(f"cli.{op.command}")
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            code = "raised:\n" + traceback.format_exc(limit=-3)
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.close(span)
    if code != 0:
        return seconds, {}, f"exit {code}: {err.getvalue()[-500:]}"
    reports = {}
    for name in op.outputs:
        if name.endswith(".stdout"):
            reports[name] = out.getvalue().encode()
        elif (work / name).exists():
            reports[name] = (work / name).read_bytes()
        else:
            return seconds, {}, f"{name} was not written"
    return seconds, reports, None


def _problem(op, reports, frozen: dict, check_digests: bool) -> str | None:
    try:
        problem = op.check(reports)
    except (KeyError, ValueError, TypeError) as exc:
        problem = f"malformed report: {exc!r}"
    if problem or op.known_defect or not check_digests:
        return problem
    moved = [f"sha256 of {name} is {digest}, frozen {frozen.get(name)}"
             for name, digest in ((n, hashlib.sha256(d).hexdigest())
                                  for n, d in reports.items())
             if frozen.get(name) != digest]
    return "; ".join(moved) or None


def _calibrate() -> float:
    """Seconds for a fixed pure-Python loop plus a fixed numpy sort.

    The machine's speed drifts by up to a fifth over minutes.  This work,
    timed after every op, drifts with it, so a pass measured in units of it
    (pass_cal) stays steady where the raw pass time does not.  It holds a
    few MB at most, so it does not move peak_rss_mb.
    """
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    np.sort(np.random.default_rng(0).integers(0, 1 << 40, size=300_000))
    return perf_counter() - start


def _run_pass(cli, workload, work, frozen, at_default_seed, tracer=None):
    by_command: dict[str, float] = {}
    failures = []
    cal_s = 0.0
    start = perf_counter()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        seconds, reports, problem = _run_op(cli, op, work, tracer)
        if problem is None:
            check_digests = at_default_seed or not op.seeded
            problem = _problem(op, reports, frozen, check_digests)
        if problem is not None:
            failures.append({"op": op.name, "problem": problem,
                             "known_defect": op.known_defect})
        by_command[op.command] = by_command.get(op.command, 0.0) + seconds
        cal_s += _calibrate()
    return {"pass_s": perf_counter() - start - cal_s, "cal_s": cal_s,
            "by_command": by_command,
            "attempted": len(workload.ops), "failures": failures}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for reports")
    p.add_argument("--spans", help="write the trace spans here (JSONL)")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    # set-up: import the package and generate the inputs
    sys.path.insert(0, "src")
    from directions import cli
    import workloads


    work = Path(args.work)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    print("ready", flush=True)
    print(median(_calibrate() for _ in range(3)), flush=True)
    if args.setup_only:
        return 0

    workload.prepare()
    frozen = workloads.DIGESTS.get(args.workload, {})
    at_default_seed = args.seed == workloads.DEFAULT_SEED
    passes, traced, layers = [], [], []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    start = perf_counter()
    while True:
        if tracer is not None and len(passes) > len(traced):
            tracer.counts.clear()
            first = len(tracer.spans)
            tracer.install()
            try:
                result = _run_pass(cli, workload, work, frozen,
                                   at_default_seed, tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
            layers.append(tracer.layer_metrics(first))
        else:
            passes.append(_run_pass(cli, workload, work, frozen,
                                    at_default_seed))
        # stop before a pass that would likely end after --seconds
        elapsed = perf_counter() - start
        runs = len(passes) + len(traced)
        if elapsed + elapsed / runs > args.seconds and (tracer is None or traced):
            break

    doc = {
        "passes": passes,
        "traced": traced,
        "layers": layers,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None and args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
