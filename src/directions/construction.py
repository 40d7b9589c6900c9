"""Ground sets realizing a prescribed set of accumulation directions.

Given an admissible target set with dense enumeration y^(1), y^(2), ...,
each step m produces an integer tuple

    c_i = floor(m! * y_i) + s_i + t

where the offsets s_i in {1..k} are chosen greedily to make the entries of
the step pairwise distinct, and the shift t in {1..m} is the least value
giving the step a leading-pair ratio never seen before.  Both choices
always exist: at most k-1 offset values are blocked per coordinate, and for
u != v the map t -> (u+t)/(v+t) is injective, so each of the m-1 earlier
steps blocks at most one t.  The union of all entries is the constructed
ground set; scale separation between consecutive factorials is what makes
its distinct-tuple directions accumulate exactly on the target set.

Every step certifies, exactly:
  - pairwise distinct entries,
  - a fresh leading-pair ratio,
  - |c_i - m! y_i| <= k + m per coordinate (rational comparison),
  - direction error at most 10 (k+m)/m! for m >= 4 (surd comparison; the
    threshold drops below float resolution near m = 20, so this check
    cannot run in floating point).

Floors of m! * y_i are computed with integer square roots, never floats:
y_i is v_i / ||v|| with v_i = q sqrt(r), so (m! y_i)^2 is rational and
floor(sqrt(P/Q)) = isqrt(P*Q) // Q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod, sqrt
from typing import Sequence

from .core import distance, normalize, primitive
from .enumeration import GroundSet, budget
from .errors import CertificateError, DomainError, ResourceError
from .exact import SurdSum, sqrt_floor
from .targets import (
    HYPERPLANE,
    FULL_SPHERE,
    TargetPoint,
    TargetSpec,
    _coord_to_json,
    dense_prefix,
    enumerate_dense,
    validate_target,
)


@dataclass(frozen=True)
class FactorialFloor:
    """Certified floor(m! * y_i) for one target coordinate."""

    m: int
    i: int
    value: int


def _scaled_square(point: TargetPoint, i: int, m: int) -> Fraction:
    """(m! * y_i)^2 as an exact rational, y_i = coords[i] / ||coords||."""
    c = point.coords[i]
    R = point.norm_sq()
    f = factorial(m)
    return Fraction(f * f) * c.square() / R


def factorial_floor(point: TargetPoint, i: int, m: int) -> FactorialFloor:
    if m < 1:
        raise DomainError("step index must be >= 1")
    if not 0 <= i < point.k:
        raise DomainError(f"coordinate {i} out of range")
    if point.coords[i].is_zero():
        return FactorialFloor(m=m, i=i, value=0)
    sq = _scaled_square(point, i, m)
    value = sqrt_floor(sq.numerator, sq.denominator)
    return FactorialFloor(m=m, i=i, value=value)


@dataclass(frozen=True)
class StepRecord:
    step: int
    target: TargetPoint
    floors: tuple[int, ...]
    offsets: tuple[int, ...]
    tie_break: int
    values: tuple[int, ...]
    direction_error: float


@dataclass
class ConstructionState:
    """Mutable bookkeeping threaded through construct_step."""

    ratio_registry: set[tuple[int, ...]] = field(default_factory=set)
    records: list[StepRecord] = field(default_factory=list)
    provenance: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def steps_done(self) -> int:
        return len(self.records)


def _check_step_certificates(
    point: TargetPoint, m: int, values: tuple[int, ...]
) -> float:
    """Exact per-step certificates; returns the float direction error."""
    k = len(values)
    if len(set(values)) != k:
        raise CertificateError(f"step {m}: entries not distinct")
    slack = k + m
    for i, c in enumerate(values):
        sq = _scaled_square(point, i, m)
        # c always exceeds m! y_i, by less than s_i + t <= k + m
        if sq > Fraction(c * c):
            raise CertificateError(f"step {m}: floor overshot at {i}")
        if c > slack and Fraction((c - slack) ** 2) > sq:
            raise CertificateError(
                f"step {m}: coordinate {i} drifted past (k+m)"
            )
    err_sq = point.distance_sq(TargetPoint.from_ints(*values))
    if m >= 4:
        bound = Fraction(10 * slack, factorial(m)) ** 2
        if (SurdSum.rational(bound) - err_sq).sign() < 0:
            raise CertificateError(
                f"step {m}: direction error above 10(k+m)/m!"
            )
    val = err_sq.to_float(bits=256)
    return sqrt(val) if val > 0 else 0.0


def construct_step(
    spec: TargetSpec, m: int, state: ConstructionState
) -> tuple[int, ...]:
    """Produce the step-m tuple and fold it into the state."""
    if m != state.steps_done + 1:
        raise DomainError(
            f"steps must run in order; expected {state.steps_done + 1}, got {m}"
        )
    point = enumerate_dense(spec, m)
    k = spec.k
    floors = tuple(factorial_floor(point, i, m).value for i in range(k))
    pre: list[int] = []
    offsets: list[int] = []
    for i in range(k):
        for s in range(1, k + 1):
            if floors[i] + s not in pre:
                pre.append(floors[i] + s)
                offsets.append(s)
                break
        else:
            raise AssertionError(f"step {m}: no offset for coordinate {i}")
    chosen_t = 0
    for t in range(1, m + 1):
        lead = primitive((pre[0] + t, pre[1] + t))
        if lead not in state.ratio_registry:
            chosen_t = t
            break
    else:
        raise AssertionError(f"step {m}: every shift collides in the registry")
    values = tuple(v + chosen_t for v in pre)
    err = _check_step_certificates(point, m, values)
    state.ratio_registry.add(primitive((values[0], values[1])))
    for i, v in enumerate(values):
        state.provenance.setdefault(v, []).append((i, m))
    state.records.append(
        StepRecord(
            step=m,
            target=point,
            floors=floors,
            offsets=tuple(offsets),
            tie_break=chosen_t,
            values=values,
            direction_error=err,
        )
    )
    return values


def construct(spec: TargetSpec, M: int) -> GroundSet:
    """Run M construction steps and merge the entries into a ground set."""
    if M < 0:
        raise DomainError("step count must be >= 0")
    report = validate_target(spec)
    if not report.passed:
        raise DomainError(
            f"refusing to construct from a {report.verdict} target spec"
        )
    state = ConstructionState()
    for m in range(1, M + 1):
        construct_step(spec, m, state)
    elements = tuple(sorted(state.provenance))
    return GroundSet(
        rule=f"constructed-{spec.kind}",
        elements=elements,
        bound=elements[-1] if elements else 0,
        provenance={v: tuple(ps) for v, ps in state.provenance.items()},
        steps=tuple(state.records),
    )


def dump_construction(A: GroundSet, path: str) -> None:
    """One JSON record per step; big integers as decimal strings."""
    if not A.steps:
        raise DomainError("ground set carries no construction trace")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in A.steps:
            doc = {
                "step": rec.step,
                "offsets": list(rec.offsets),
                "tie_break": rec.tie_break,
                "values": [str(v) for v in rec.values],
                "target": [_coord_to_json(c) for c in rec.target.coords],
                "direction_error": rec.direction_error,
            }
            fh.write(json.dumps(doc) + "\n")


def _hyperplane_distance(x: Sequence[float]) -> float:
    # nearest direction with a zero coordinate drops the smallest one
    small = min(x)
    if small <= 0.0:
        return 0.0
    return sqrt(max(0.0, 2.0 - 2.0 * sqrt(max(0.0, 1.0 - small * small))))


def _distance_to_target(spec: TargetSpec, x: Sequence[float]) -> float:
    if spec.kind == FULL_SPHERE:
        return 0.0
    if spec.kind == HYPERPLANE:
        return _hyperplane_distance(x)
    best = None
    for p in spec.points:
        d = distance(x, p.unit())
        if best is None or d < best:
            best = d
    assert best is not None
    return best


def _scale_ratio(m_small: int, m_big: int) -> float:
    # m_small! / m_big!; underflow to 0.0 is the right limit here
    if m_big - m_small > 170:
        return 0.0
    return 1.0 / prod(range(m_small + 1, m_big + 1))


@dataclass(frozen=True)
class VerificationReport:
    """Empirical two-sided comparison of a construction against its target.

    Forward: every late target point must be realized by a step direction
    (tiny distance, factorial precision).  Backward: every distinct-entry
    tuple of large constructed elements must point where its provenance
    predicts; the prediction mixes permuted, index-projected targets at the
    realized factorial scale ratios.  backward_hausdorff is the raw worst
    distance from those tuples to the target set itself: it shrinks like
    1/M, not to zero, because a finite prefix still contains mixed-scale
    tuples partway toward their projected limits.
    """

    forward_hausdorff: float
    backward_hausdorff: float
    backward_max_residual: float
    backward_violations: int
    tail_tuple_count: int
    tail_cutoff: int
    M: int
    L_index: int
    h: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "forward_hausdorff": self.forward_hausdorff,
            "backward_hausdorff": self.backward_hausdorff,
            "backward_max_residual": self.backward_max_residual,
            "backward_violations": self.backward_violations,
            "tail_tuple_count": self.tail_tuple_count,
            "tail_cutoff": self.tail_cutoff,
            "M": self.M,
            "L_index": self.L_index,
            "h": self.h,
            "tolerance": self.tolerance,
        }


def verify_construction(
    A: GroundSet,
    spec: TargetSpec,
    M: int,
    L_index: int,
    h: float,
    tolerance: float = 1e-3,
) -> VerificationReport:
    from itertools import permutations, product

    if not A.steps or A.provenance is None:
        raise DomainError("ground set carries no construction trace")
    if M > len(A.steps):
        raise DomainError(f"construction has only {len(A.steps)} steps")
    if not 1 <= L_index < M:
        raise DomainError("need 1 <= L_index < M")
    k = len(A.steps[0].values)

    step_dirs = [normalize(rec.values) for rec in A.steps[:M]]
    forward = 0.0
    for point in dense_prefix(spec, M)[L_index:]:
        u = point.unit()
        d = min(distance(u, sd) for sd in step_dirs)
        forward = max(forward, d)

    cutoff = max(A.steps[L_index - 1].values)
    tail = [e for e in A.elements if e >= cutoff]
    n = len(tail)
    count = prod(range(n - k + 1, n + 1)) if n >= k else 0
    if count > budget():
        raise ResourceError(
            f"{count} tail tuples exceed the budget {budget()}"
        )
    targets = {rec.step: rec.target for rec in A.steps[:M]}
    back_haus = 0.0
    back_residual = 0.0
    violations = 0
    for tup in permutations(tail, k):
        actual = normalize(tup)
        origins = [
            [(i, m) for i, m in A.provenance[e] if m <= M] for e in tup
        ]
        if any(not o for o in origins):
            raise DomainError("tail element has no in-range provenance")
        best = None
        for pick in product(*origins):
            m_big = max(m for _, m in pick)
            pred = normalize(
                tuple(
                    targets[m].unit()[i] * _scale_ratio(m, m_big)
                    for i, m in pick
                )
            )
            d = distance(actual, pred)
            if best is None or d < best:
                best = d
        assert best is not None
        back_residual = max(back_residual, best)
        if best > tolerance:
            violations += 1
        back_haus = max(back_haus, _distance_to_target(spec, actual))
    return VerificationReport(
        forward_hausdorff=forward,
        backward_hausdorff=back_haus,
        backward_max_residual=back_residual,
        backward_violations=violations,
        tail_tuple_count=count,
        tail_cutoff=cutoff,
        M=M,
        L_index=L_index,
        h=h,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class RepetitionReport:
    """Outcome of the repeated-entries demonstration.

    The target set is the closure of the single point (1, sqrt(2), 0, ..,
    0).  Tuples with repeated entries from the constructed ground set reach
    the direction theta = rho(1, sqrt(2), 1, .., 1), which the target set
    provably avoids; distinct-entry tuples stay away from it.  So the
    distinct-entries restriction in the accumulation characterization is
    essential, not cosmetic.
    """

    k: int
    M: int
    target_size: int
    with_repetition_min_dist: float
    distinct_tail_min_dist: float
    tail_cutoff: int
    separation_sq_exact: str
    separation: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "M": self.M,
            "target_size": self.target_size,
            "with_repetition_min_dist": self.with_repetition_min_dist,
            "distinct_tail_min_dist": self.distinct_tail_min_dist,
            "tail_cutoff": self.tail_cutoff,
            "separation_sq_exact": self.separation_sq_exact,
            "separation": self.separation,
        }


def repetition_demo(k: int, M: int) -> RepetitionReport:
    """Build the closure of (1, sqrt(2), 0, ..) and probe both clouds."""
    from itertools import permutations

    from .enumeration import directions
    from .targets import close_generators

    if k < 3:
        raise DomainError("the repetition demonstration needs k >= 3")
    if M < 2:
        raise DomainError("need at least two steps")
    eta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(0, 1)] * (k - 2))
    theta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(1, 1)] * (k - 2))
    spec = close_generators([eta])
    A = construct(spec, M)
    theta_u = theta.unit()

    cloud = directions(A, k, distinct_entries_only=False)
    rep_min = min(distance(theta_u, u) for u in map(tuple, cloud.unit_points()))

    L = (M + 1) // 2
    cutoff = max(A.steps[L - 1].values)
    tail = [e for e in A.elements if e >= cutoff]
    if len(tail) < k:
        raise DomainError("tail too thin; increase M")
    dist_min = min(
        distance(theta_u, normalize(tup)) for tup in permutations(tail, k)
    )

    best_sq = None
    for p in spec.points:
        sq = theta.distance_sq(p)
        if best_sq is None or (sq - best_sq).sign() < 0:
            best_sq = sq
    assert best_sq is not None
    sep = best_sq.to_float()
    return RepetitionReport(
        k=k,
        M=M,
        target_size=len(spec.points),
        with_repetition_min_dist=rep_min,
        distinct_tail_min_dist=dist_min,
        tail_cutoff=cutoff,
        separation_sq_exact=repr(best_sq),
        separation=sqrt(sep) if sep > 0 else 0.0,
    )
