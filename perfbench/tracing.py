"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of each ``directions`` module
with wrappers that record spans (name, start, end, parent, op) or bare call
counts, both on the module and wherever another module imported the name,
and ``uninstall`` puts the originals back.  Spans stay in memory; the
caller writes them out when the run ends.  Nothing under ``src/`` knows
about this.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Every per-layer metric, with its value when the layer never runs.
# Times (suffix _s) are inclusive span totals per pass unless named _self_s.
METRICS = (
    "cli.self_s",
    "enumeration.directions_s", "enumeration.directions_calls",
    "enumeration.tuples", "enumeration.rows_out", "enumeration.keep_ratio",
    "enumeration.bigint_calls", "enumeration.unit_points_s",
    "enumeration.export_csv_s", "enumeration.csv_rows",
    "enumeration.ground_set_s",
    "density.sphere_net_s", "density.net_points", "density.kd_build_s",
    "density.kd_points", "density.kd_query_s", "density.kd_queries",
    "density.covering_radius_self_s", "density.witness_s",
    "targets.enumerate_dense_s", "targets.enumerate_dense_calls",
    "targets.dense_prefix_s", "targets.close_generators_s",
    "targets.validate_target_s", "targets.unit_calls",
    "exact.sign_calls", "exact.sign_s", "exact.sqrt_floor_calls",
    "exact.sqrt_floor_s", "exact.squarefree_split_calls",
    "exact.squarefree_split_s",
    "construction.steps", "construction.construct_s",
    "construction.construct_step_s", "construction.factorial_floor_s",
    "construction.verify_s", "construction.tail_tuples",
    "core.normalize_calls", "core.distance_calls",
)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _observe_directions(counts, fn, args, kwargs, cloud):
    a = _bound(fn, args, kwargs)
    sample = a.get("sample")
    counts["enumeration.tuples"] += (
        sample if sample is not None else len(a["A"].elements) ** a["k"]
    )
    counts["enumeration.rows_out"] += cloud.count
    counts["enumeration.bigint_calls"] += not isinstance(cloud.rows, np.ndarray)


def _observe_export(counts, fn, args, kwargs, result):
    counts["enumeration.csv_rows"] += _bound(fn, args, kwargs)["cloud"].count


def _observe_net(counts, fn, args, kwargs, net):
    counts["density.net_points"] += net.size


def _observe_verify(counts, fn, args, kwargs, report):
    counts["construction.tail_tuples"] += report.tail_tuple_count


# (module, class or None, attribute, span name or None for a bare count,
#  counter of calls or None, observer of arguments and result or None)
_PLAN = (
    ("directions.enumeration", None, "directions", "enumeration.directions",
     "enumeration.directions_calls", _observe_directions),
    ("directions.enumeration", "DirectionCloud", "unit_points",
     "enumeration.unit_points", None, None),
    ("directions.enumeration", None, "export_csv", "enumeration.export_csv",
     None, _observe_export),
    ("directions.enumeration", None, "ground_set", "enumeration.ground_set",
     None, None),
    ("directions.density", None, "sphere_net", "density.sphere_net", None,
     _observe_net),
    ("directions.density", None, "covering_radius", "density.covering_radius",
     None, None),
    ("directions.density", None, "witness_tuple", "density.witness", None,
     None),
    ("directions.targets", None, "enumerate_dense", "targets.enumerate_dense",
     "targets.enumerate_dense_calls", None),
    ("directions.targets", None, "dense_prefix", "targets.dense_prefix", None,
     None),
    ("directions.targets", None, "close_generators", "targets.close_generators",
     None, None),
    ("directions.targets", None, "validate_target", "targets.validate_target",
     None, None),
    ("directions.targets", "TargetPoint", "unit", None, "targets.unit_calls",
     None),
    ("directions.exact", "SurdSum", "sign", "exact.sign", "exact.sign_calls",
     None),
    ("directions.exact", None, "sqrt_floor", "exact.sqrt_floor",
     "exact.sqrt_floor_calls", None),
    ("directions.exact", None, "squarefree_split", "exact.squarefree_split",
     "exact.squarefree_split_calls", None),
    ("directions.construction", None, "construct", "construction.construct",
     None, None),
    ("directions.construction", None, "construct_step",
     "construction.construct_step", "construction.steps", None),
    ("directions.construction", None, "factorial_floor",
     "construction.factorial_floor", None, None),
    ("directions.construction", None, "verify_construction",
     "construction.verify", None, _observe_verify),
    ("directions.core", None, "normalize", None, "core.normalize_calls", None),
    ("directions.core", None, "distance", None, "core.distance_calls", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span, counter, observe):
        counts = self.counts

        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if counter:
                counts[counter] += 1
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe:
                observe(counts, fn, args, kwargs, result)
            return result
        return timed

    def _kd_tree(self, kd_tree):
        tracer = self

        class TracedKDTree:
            def __init__(self, data, *args, **kwargs):
                idx = tracer.open("density.kd_build")
                try:
                    self._tree = kd_tree(data, *args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.counts["density.kd_points"] += len(data)

            def query(self, x, *args, **kwargs):
                idx = tracer.open("density.kd_query")
                try:
                    return self._tree.query(x, *args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer.counts["density.kd_queries"] += len(x)

        return TracedKDTree

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = [
            m for name, m in list(sys.modules.items())
            if name == "directions" or name.startswith("directions.")
        ]
        replace = []
        for module, cls, attr, span, counter, observe in _PLAN:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            replace.append((owner, original, self._wrap(original, span, counter, observe)))
        density = sys.modules["directions.density"]
        replace.append((density, density.cKDTree, self._kd_tree(density.cKDTree)))
        for owner, original, new in replace:
            if isinstance(owner, type):
                self._patch(owner, original.__name__, new)
                continue
            # the module attribute and every name imported from it
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans from index ``first`` on."""
        total: Counter = Counter()  # inclusive seconds per span name
        child: Counter = Counter()  # seconds of direct children, by parent name
        for name, start, end, parent, _ in self.spans[first:]:
            total[name] += end - start
            if parent is not None:
                child[self.spans[parent][0]] += end - start
        out = {name: 0 for name in METRICS}
        for name, seconds in total.items():
            key = f"{name}_s"
            if key in out:
                out[key] = seconds
        out["cli.self_s"] = sum(
            t for name, t in total.items() if name.startswith("cli.")
        ) - sum(t for name, t in child.items() if name.startswith("cli."))
        out["density.covering_radius_self_s"] = (
            total["density.covering_radius"] - child["density.covering_radius"]
        )
        for name in METRICS:
            if name in self.counts:
                out[name] = self.counts[name]
        tuples = self.counts["enumeration.tuples"]
        out["enumeration.keep_ratio"] = (
            self.counts["enumeration.rows_out"] / tuples if tuples else 0
        )
        return out
