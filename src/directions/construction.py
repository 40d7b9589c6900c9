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
  - 0 <= c_i - m! y_i <= k + m per coordinate (squares compared),
  - direction error at most 10 (k+m)/m! for m >= 4, by a lemma that needs
    no surd (``_check_step_certificates``), so for k <= 100 no precision cap
    limits M; for k > 100 a step the lemma does not settle falls back to the
    exact surd comparison.

Floors of m! * y_i are computed with integer square roots, never floats:
y_i is v_i / ||v|| with v_i = q sqrt(r), so (m! y_i)^2 is rational and
floor(sqrt(P/Q)) = isqrt(P*Q) // Q.  Each step builds its exact squared
direction error once (``exact.chord_sq``); the k > 100 comparison reads
it, and the printed error is the root of its float at 256 bits.

Verification and the repetition demo report floats of the scalar code but
compute few of them that way: a numpy screen redoes the same coordinates
bit for bit, brackets each distance, and settles in Python only the rows
whose brackets leave a reported maximum, minimum or tolerance count open.
The forward pass and both demo minima share one such screen, ``_nearest``,
and no demo cloud is expanded k!-fold: the distinct tail meets theta's k
arrangements, the with-repetition chamber each of the k! column orders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cmp_to_key, lru_cache
from itertools import chain, combinations, product
from math import comb, factorial, fsum, inf, isfinite, prod, sqrt

import numpy as np

from .core import SCALE_BITS, _bracket, distance, norm, normalize, primitive
from .enumeration import (
    _ITER_ROWS,
    GroundSet,
    _chamber_blocks,
    check_budget,
    directions,
    orbit_rows,
    unit_rows,
)
from .errors import CertificateError, DomainError
from .exact import SurdSum, chord_sq, sqrt_floor
from .targets import (
    TargetPoint,
    TargetSpec,
    _coord_to_json,
    close_generators,
    dense_prefix,
    validate_target,
)


@dataclass(frozen=True)
class FactorialFloor:
    """Certified floor(m! * y_i) for one target coordinate."""

    m: int
    i: int
    value: int


@lru_cache(maxsize=1)  # the calls of one step share m
def _factorial_sq(m: int) -> int:
    return factorial(m) ** 2


def _scaled_square(point: TargetPoint, i: int, m: int) -> tuple[int, int]:
    """(m! * y_i)^2 as the unreduced integer pair ((m!)^2 n_i, sum n) of
    the point's square vector n; no Fraction is built.  A common factor in
    the pair changes neither ``sqrt_floor`` nor a cross-multiplied
    comparison."""
    vec = point.squares
    return _factorial_sq(m) * vec[i], sum(vec)


def factorial_floor(point: TargetPoint, i: int, m: int) -> FactorialFloor:
    if m < 1:
        raise DomainError("step index must be >= 1")
    if not 0 <= i < point.k:
        raise DomainError(f"coordinate {i} out of range")
    value = sqrt_floor(*_scaled_square(point, i, m))
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


def _check_step_certificates(
    point: TargetPoint, m: int, values: tuple[int, ...]
) -> float:
    """Exact per-step certificates; returns the float direction error.

    The error bound needs no surd for k <= 100.  With f_i = floor(m! y_i),
    S = sum (c_i - f_i)^2 and the check m! y_i <= c_i, d = c - m! y >= 0
    has |d| <= sqrt(S).  w = c/m! = y + d/m! has w.y >= 1 for unit y >= 0,
    so its angle a to y has tan a <= |d|/m!, and the chordal error
    2 sin(a/2) <= tan a is at most sqrt(S)/m!: S <= 100 (k+m)^2 proves it
    within 10(k+m)/m!.  The check c_i - m! y_i <= k + m puts c_i - f_i at
    most k + m, so S passes for every k <= 100.  A step past it (k > 100)
    is decided by the exact surd comparison, unless m! <= 5(k+m), where
    the bound is at least 2, above any chordal distance.  That comparison
    and the printed error read one exact squared distance, built from the
    integer dot product by ``chord_sq``; the error is the root of its
    float at 256 bits.
    """
    k = len(values)
    if len(set(values)) != k:
        raise CertificateError(f"step {m}: entries not distinct")
    slack = k + m
    spread = 0  # S
    for i, c in enumerate(values):
        num, den = _scaled_square(point, i, m)
        # c always exceeds m! y_i, by less than s_i + t <= k + m
        if c < 0 or num > c * c * den:
            raise CertificateError(f"step {m}: floor overshot at {i}")
        if c > slack and (c - slack) ** 2 * den > num:
            raise CertificateError(f"step {m}: coordinate {i} drifted past (k+m)")
        # f_i afresh: the certificate takes nothing from the step search
        spread += (c - sqrt_floor(num, den)) ** 2
    dot: dict[int, Fraction] = {}
    for coord, c in zip(point.coords, values):
        if coord.q:
            dot[coord.r] = dot.get(coord.r, 0) + coord.q * c
    err_sq = chord_sq(dot, point.norm_sq * sum(c * c for c in values))
    if m >= 4 and spread > 100 * slack * slack and factorial(m) > 5 * slack:
        bound = Fraction(100 * slack * slack, _factorial_sq(m))
        if (SurdSum.rational(bound) - err_sq).sign() < 0:
            raise CertificateError(
                f"step {m}: direction error above 10(k+m)/m!"
            )
    val = err_sq.to_float(bits=256)
    return sqrt(val) if val > 0 else 0.0


def construct_step(
    point: TargetPoint, state: ConstructionState
) -> tuple[int, ...]:
    """Realize point as step m = len(state.records) + 1; fold it into state."""
    m = len(state.records) + 1
    k = point.k
    floors = tuple(factorial_floor(point, i, m).value for i in range(k))
    taken: set[int] = set()
    offsets: list[int] = []
    for f in floors:
        # at most k - 1 entries are taken, so one of k offsets is free
        offsets.append(next(s for s in range(1, k + 1) if f + s not in taken))
        taken.add(f + offsets[-1])
    pre = [f + s for f, s in zip(floors, offsets)]
    for t in range(1, m + 1):
        lead = primitive((pre[0] + t, pre[1] + t))
        if lead not in state.ratio_registry:
            break
    else:
        raise CertificateError(f"step {m}: every shift collides in the registry")
    values = tuple(v + t for v in pre)
    err = _check_step_certificates(point, m, values)
    state.ratio_registry.add(lead)
    state.records.append(
        StepRecord(
            step=m,
            target=point,
            floors=floors,
            offsets=tuple(offsets),
            tie_break=t,
            values=values,
            direction_error=err,
        )
    )
    return values


def _require_valid(spec: TargetSpec) -> None:
    report = validate_target(spec)
    if not report.passed:
        point, reason = report.witnesses[0]
        raise DomainError(f"inadmissible target spec: {reason} of {point!r}")


def construct(spec: TargetSpec, M: int) -> GroundSet:
    """Run M construction steps and merge the entries into a ground set."""
    if M < 0:
        raise DomainError("step count must be >= 0")
    check_budget(M * spec.k, "construction step entries (M k)")
    _require_valid(spec)
    state = ConstructionState()
    for point in dense_prefix(spec, M):
        construct_step(point, state)
    elements = tuple(sorted({v for rec in state.records for v in rec.values}))
    return GroundSet(
        rule=f"constructed-{spec.kind}",
        elements=elements,
        bound=elements[-1] if elements else 0,
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


def _scale_ratio(m_small: int, m_big: int) -> float:
    # m_small! / m_big!; int/int division underflows to 0.0, never overflows
    return 1 / prod(range(m_small + 1, m_big + 1))


def _fsum_roots(squares: np.ndarray) -> np.ndarray:
    """sqrt(fsum(row)) per row, as core.norm takes it."""
    return np.sqrt([fsum(row) for row in squares.tolist()])


def _nearest(x: tuple[float, ...], rows: np.ndarray) -> float:
    """min(distance(x, r)) over rows, settled where a bracket may hold it."""
    lo, hi = _bracket(rows - x)
    return min(distance(x, r) for r in rows[lo <= hi.min()].tolist())


@dataclass(frozen=True)
class VerificationReport:
    """Empirical two-sided comparison of a construction against its target.

    Forward: every late target point must be realized by a step direction
    (tiny distance, factorial precision).  Backward: every distinct-entry
    tuple of large constructed elements must point where the steps that
    produced its entries predict; the prediction mixes permuted,
    index-projected targets at the realized factorial scale ratios.
    An origin pick whose prediction has norm 0 names no direction; it counts
    as sqrt(2) off, the largest distance between two orthant directions.
    backward_hausdorff is the raw worst distance from those tuples to the
    target set itself: it shrinks like 1/M, not to zero, because a finite
    prefix still contains mixed-scale tuples partway toward their projected
    limits.
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


def verify_construction(
    A: GroundSet,
    spec: TargetSpec,
    M: int,
    L_index: int,
    h: float,
    tolerance: float = 1e-3,
) -> VerificationReport:
    if not A.steps:
        raise DomainError("ground set carries no construction trace")
    if M > len(A.steps):
        raise DomainError(f"construction has only {len(A.steps)} steps")
    if not 1 <= L_index < M:
        raise DomainError("need 1 <= L_index < M")
    # a NaN tolerance counts no violation, and neither value is JSON
    if not (isfinite(h) and isfinite(tolerance)):
        raise DomainError("h and tolerance must be finite")
    _require_valid(spec)
    k = len(A.steps[0].values)

    step_dirs = np.array([normalize(rec.values) for rec in A.steps[:M]])
    forward = max(_nearest(p.unit(), step_dirs)
                  for p in dense_prefix(spec, M)[L_index:])

    cutoff = max(A.steps[L_index - 1].values)
    tail = [e for e in A.elements if e >= cutoff]
    n = len(tail)
    count = prod(range(n - k + 1, n + 1)) if n >= k else 0
    # residuals and target distances are symmetric in the tuple (fsum is
    # order-free and the spec is permutation-closed), so one ordering of
    # each tuple stands for all k! of them and is the one charged and built
    check_budget(k * comb(n, k), "tail tuple entries (k C(n, k))")
    units = {rec.step: rec.target.unit() for rec in A.steps[:M]}
    origins_of: dict[int, list[tuple[int, int]]] = {}
    for rec in A.steps[:M]:
        for i, v in enumerate(rec.values):
            origins_of.setdefault(v, []).append((i, rec.step))
    scale_ratio = cache(_scale_ratio)  # few (m, m_big) pairs, many picks

    def backward(tup: tuple[int, ...]) -> tuple[float, float]:
        """(residual, distance to the target) of one tail tuple."""
        actual = normalize(tup)
        origins = [origins_of.get(e, ()) for e in tup]
        if any(not o for o in origins):
            raise DomainError("tail element comes from no step up to M")
        best = inf
        for pick in product(*origins):
            m_big = max(m for _, m in pick)
            pred = tuple(units[m][i] * scale_ratio(m, m_big) for i, m in pick)
            d = distance(actual, normalize(pred)) if norm(pred) else sqrt(2)
            best = min(best, d)
        return best, spec.distance(actual)

    # The screen redoes normalize's floats in numpy for tuples of elements
    # below 2^SCALE_BITS with one origin each: float(e) over the root of the
    # fsum of float(e*e), and likewise for the prediction.  Only the rows
    # whose brackets leave a reported value open go through backward, with
    # every row the screen does not represent, in tuple order.
    table = np.zeros((n, 4))  # float(e), float(e*e), units[m][i], m
    ok = np.zeros(n, dtype=bool)
    for j, e in enumerate(tail):
        origins = origins_of.get(e, ())
        if len(origins) == 1 and e.bit_length() <= SCALE_BITS:
            (i, m), = origins
            ok[j] = True
            table[j] = float(e), float(e * e), units[m][i], m
    floats, squares, coord_of = table[:, :3].T
    m_of = table[:, 3].astype(np.int64)
    orbit = factorial(k)
    back_haus = 0.0
    back_residual = 0.0
    violations = 0
    for block in _chamber_blocks(n, k, True):
        for start in range(0, len(block), _ITER_ROWS):
            idx = block[start : start + _ITER_ROWS]
            rows = np.flatnonzero(ok[idx].all(axis=1))
            steps = m_of[idx[rows]]
            # each distinct (m, m_big) pair asks scale_ratio once
            pairs, at = np.unique(
                steps * (M + 1) + steps.max(axis=1)[:, None], return_inverse=True
            )
            ratios = np.array([scale_ratio(*divmod(int(p), M + 1)) for p in pairs])
            raw = coord_of[idx[rows]] * ratios[at.reshape(steps.shape)]
            pnorm = _fsum_roots(raw * raw)
            live = pnorm > 0  # backward settles a prediction of norm 0
            rows, raw, pnorm = rows[live], raw[live], pnorm[live]
            picked = idx[rows]
            actual = floats[picked] / _fsum_roots(squares[picked])[:, None]
            lo, hi = _bracket(actual - raw / pnorm[:, None])
            # settle rows the tolerance cuts, rows that may hold the largest
            # residual and rows that may lie farthest from the target
            settle = (lo <= tolerance) & (hi > tolerance)
            if len(rows):
                settle |= (hi > back_residual) & (hi >= lo.max())
                settle |= spec.far_rows(actual, back_haus)
            violations += orbit * int(np.sum((lo > tolerance) & ~settle))
            exact = np.ones(len(idx), dtype=bool)
            exact[rows[~settle]] = False
            for row in idx[exact].tolist():
                best, haus = backward(tuple(tail[j] for j in row))
                back_residual = max(back_residual, best)
                if best > tolerance:
                    violations += orbit
                back_haus = max(back_haus, haus)
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


def repetition_demo(k: int, M: int) -> RepetitionReport:
    """Build the closure of (1, sqrt(2), 0, ..) and probe both clouds."""
    if k < 3:
        raise DomainError("the repetition demonstration needs k >= 3")
    if M < 2:
        raise DomainError("need at least two steps")
    check_budget(M * k, "construction step entries (M k)")
    eta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(0, 1)] * (k - 2))
    theta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(1, 1)] * (k - 2))
    spec = close_generators([eta])
    A = construct(spec, M)
    theta_u = theta.unit()

    # unit_rows' floats of a row follow its column order and its maximum alone
    chamber = directions(A, k).rows
    rep_min = min(_nearest(theta_u, unit_rows(chamber[:, order]))
                  for order in orbit_rows(np.arange(k)[None]))

    L = (M + 1) // 2
    cutoff = max(A.steps[L - 1].values)
    tail = [e for e in A.elements if e >= cutoff]
    if len(tail) < k:
        raise DomainError("tail too thin; increase M")
    # fsum is order-free, so distance(theta, p u) = distance(p^-1 theta, u):
    # each sorted tail k-set, normalized once, meets theta's k arrangements
    units = np.fromiter(chain.from_iterable(map(normalize, combinations(tail, k))),
                        float).reshape(-1, k)
    arrangements = orbit_rows(np.array([sorted(theta_u)])).tolist()
    dist_min = min(_nearest(tuple(t), units) for t in arrangements)

    best_sq = min(
        (theta.distance_sq(p) for p in spec.points),
        key=cmp_to_key(SurdSum.compare),
    )
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
