"""Command-line front end.

One subcommand per capability: enumerate, density, ratio-gap, witness,
construct, verify, chain, demo-repetition, net-audit.  Reports are JSON
with a schema_version field and carry every tolerance and parameter that
influenced them; point data goes to CSV.  No timestamps, no environment
echoes: the same invocation produces byte-identical artifacts.

Exit codes: 0 success, 1 domain/precondition failure or an unwritable
output file, 2 resource budget exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Sequence

import numpy as np

from . import __version__
from .construction import (
    construct,
    dump_construction,
    repetition_demo,
    verify_construction,
)
from .density import (
    audit_net,
    chain_check,
    cloud_radius,
    ratio_gap,
    sphere_net,
    witness_tuple,
)
from .core import distance, normalize
from .enumeration import (
    _write_csv,
    cloud_metadata,
    directions,
    explicit_ground_set,
    export_csv,
    ground_set,
)
from .errors import DirectionsError, ResourceError
from .targets import BUILTIN, TargetSpec, load_spec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(doc: dict, out: str | None) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ground_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rule", help="naturals | primes | powers-of-<b> | poly-<d>")
    grp.add_argument(
        "--elements",
        type=_int_list,
        help="explicit comma-separated ground-set elements",
    )
    sub.add_argument("--N", type=int, help="prefix bound (required with --rule)")


def _build_ground(args) -> "object":
    if args.rule is not None:
        if args.N is None:
            raise DirectionsError("--rule needs --N")
        return ground_set(args.rule, args.N)
    return explicit_ground_set(args.elements)


def _spec_args(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--spec", help="target spec JSON file")
    grp.add_argument(
        "--builtin",
        choices=BUILTIN,
        help="use a built-in target kind instead of a spec file",
    )
    sub.add_argument(
        "--k", type=int, help="dimension (required with --builtin)"
    )


def _build_spec(args) -> TargetSpec:
    if args.spec is not None:
        return load_spec(args.spec)
    if args.k is None:
        raise DirectionsError("--builtin needs --k")
    return TargetSpec(kind=args.builtin, k=args.k)


def build_parser() -> _Parser:
    p = _Parser(prog="directions", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("enumerate", parents=[], help="direction cloud of a ground set")
    _ground_args(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--distinct", action="store_true")
    s.add_argument("--sample", type=int, help="uniform tuple draws instead of full enumeration")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="CSV of primitive directions")
    s.add_argument("--unit-out", help="CSV of float unit coordinates")
    s.add_argument("--meta-out", help="write the JSON metadata here instead of stdout")

    s = subs.add_parser("density", help="covering radius over a sphere net")
    _ground_args(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--distinct", action="store_true")
    s.add_argument("--sample", type=int)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")

    s = subs.add_parser("ratio-gap", help="block maxima of consecutive ratios")
    _ground_args(s)
    s.add_argument("--windows", type=int, default=4)
    s.add_argument("--out")
    s.add_argument("--trend-out", help="CSV (window, first, last, max_gap)")

    s = subs.add_parser("witness", help="bracketing tuple approximating a direction")
    _ground_args(s)
    s.add_argument(
        "--x",
        type=_float_list,
        required=True,
        help="comma-separated direction, normalized internally",
    )
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--out")

    c = subs.add_parser("construct", help="build a ground set realizing a target spec")
    v = subs.add_parser("verify", help="round-trip check of a constructed set")
    # verify is construct --verify without the construct-only outputs
    v.set_defaults(verify=True, dump=None, elements_out=None)
    for s in (c, v):
        _spec_args(s)
        s.add_argument("--M", type=int, required=True)
        s.add_argument("--L", type=int, help="verification tail index (default M//2)")
        s.add_argument("--h", type=float, default=0.05)
        s.add_argument("--tolerance", type=float, default=1e-3)
        s.add_argument("--out")
    c.add_argument("--dump", help="JSONL per-step construction trace")
    c.add_argument("--elements-out", help="CSV of constructed elements (decimal strings)")
    c.add_argument("--verify", action="store_true")

    s = subs.add_parser("chain", help="covering radii at k and k-1")
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rule")
    grp.add_argument("--elements", type=_int_list)
    grp.add_argument("--spec", help="construct from this target spec, then compare")
    grp.add_argument("--builtin", choices=BUILTIN)
    s.add_argument("--N", type=int)
    s.add_argument("--M", type=int, help="construction steps when using --spec/--builtin")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--distinct", action="store_true")
    s.add_argument("--sample", type=int)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")

    s = subs.add_parser(
        "demo-repetition",
        help="repeated entries reach a direction the target set avoids",
    )
    s.add_argument("--k", type=int, default=3)
    s.add_argument("--M", type=int, default=15)
    s.add_argument("--out")

    s = subs.add_parser("net-audit", help="Monte-Carlo check of the net mesh bound")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--samples", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    return p


def _cmd_enumerate(args) -> None:
    A = _build_ground(args)
    cloud = directions(
        A, args.k, args.distinct, sample=args.sample, seed=args.seed
    )
    if args.out:
        export_csv(cloud, args.out)
    if args.unit_out:
        _write_csv(
            args.unit_out, [f"x{i}" for i in range(cloud.k)], cloud.unit_points()
        )
    _emit(cloud_metadata(cloud), args.meta_out)


def _cmd_density(args) -> None:
    A = _build_ground(args)
    rep = cloud_radius(
        A, args.k, args.h, args.distinct, sample=args.sample, seed=args.seed
    )
    _emit(asdict(rep), args.out)


def _cmd_ratio_gap(args) -> None:
    A = _build_ground(args)
    stat = ratio_gap(A, args.windows)
    if args.trend_out:
        rows = [(i, *w, g) for i, (w, g) in enumerate(zip(stat.windows, stat.trend))]
        header = ["window", "first_index", "last_index", "max_gap"]
        # an object array keeps the int columns ints beside the floats
        _write_csv(args.trend_out, header, np.array(rows, dtype=object))
    _emit(
        {
            "rule": A.rule,
            "N": A.bound,
            "windows": [list(w) for w in stat.windows],
            "trend": list(stat.trend),
            "max_gap": stat.max_gap,
            "caveat": (
                "a shrinking ratio gap is sufficient evidence for dense "
                "directions, never necessary, and never a proof"
            ),
        },
        args.out,
    )


def _cmd_witness(args) -> None:
    A = _build_ground(args)
    x = normalize(args.x)
    picks = witness_tuple(A, x, args.m)
    _emit(
        {
            "rule": A.rule,
            "N": A.bound,
            "x": list(x),
            "m": args.m,
            "witness": list(picks),
            "direction_error": distance(normalize(picks), x),
        },
        args.out,
    )


def _cmd_construct(args) -> None:
    spec = _build_spec(args)
    A = construct(spec, args.M)
    if args.dump:
        dump_construction(A, args.dump)
    if args.elements_out:
        column = np.array([A.elements], dtype=object).T  # exact Python ints
        _write_csv(args.elements_out, ["element"], column)
    doc = {
        "spec_kind": spec.kind,
        "k": spec.k,
        "M": args.M,
        "element_count": len(A.elements),
        "max_element": str(A.elements[-1]) if A.elements else None,
        "tie_breaks": [rec.tie_break for rec in A.steps],
        "direction_errors": [rec.direction_error for rec in A.steps],
    }
    if args.verify:
        L = args.L if args.L is not None else max(1, args.M // 2)
        rep = verify_construction(
            A, spec, args.M, L, args.h, tolerance=args.tolerance
        )
        doc["verification"] = asdict(rep)
    _emit(doc, args.out)


def _cmd_chain(args) -> None:
    if args.spec is not None or args.builtin is not None:
        if args.M is None:
            raise DirectionsError("--spec/--builtin chain needs --M")
        A = construct(_build_spec(args), args.M)
    else:
        A = _build_ground(args)
    top, down = chain_check(
        A,
        args.k,
        args.h,
        args.distinct,
        sample=args.sample,
        seed=args.seed,
    )
    _emit(
        {
            "upper": asdict(top),
            "lower": asdict(down),
            "chain_bound_holds": down.covering_radius
            <= top.covering_radius + 2 * args.h,
        },
        args.out,
    )


def _cmd_demo(args) -> None:
    _emit(asdict(repetition_demo(args.k, args.M)), args.out)


def _cmd_net_audit(args) -> None:
    net = sphere_net(args.k, args.h)
    worst, ok = audit_net(net, args.samples, seed=args.seed)
    _emit(
        {
            "k": args.k,
            "h": args.h,
            "net_size": net.size,
            "denominator": net.denominator,
            "samples": args.samples,
            "seed": args.seed,
            "max_observed_distance": worst,
            "within_mesh": ok,
        },
        args.out,
    )


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "density": _cmd_density,
    "ratio-gap": _cmd_ratio_gap,
    "witness": _cmd_witness,
    "construct": _cmd_construct,
    "verify": _cmd_construct,
    "chain": _cmd_chain,
    "demo-repetition": _cmd_demo,
    "net-audit": _cmd_net_audit,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DirectionsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
