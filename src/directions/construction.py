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
bit for bit, at every element size, brackets each distance, and settles in
Python only the rows whose brackets leave a reported value open.  The
forward pass and both demo minima share one such screen, ``_nearest``, and
no demo cloud is expanded k!-fold: the distinct tail meets theta's k
arrangements, the with-repetition chamber each of the k! column orders.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import chain, combinations, product
from math import comb, factorial, fsum, inf, isfinite, prod, sqrt

import numpy as np

from .core import (SCALE_BITS, _bracket, distance, norm, normalize, primitive,
                   scaled_floats)
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


def _scale_ratios(steps: list[int]) -> np.ndarray:
    """m!/m_big! over ascending steps by int/int division, 0.0 if m > m_big."""
    fact = [factorial(m) for m in steps]
    return np.array([[a / b if a <= b else 0.0 for b in fact] for a in fact])


def _tail_floats(tail: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """normalize(row) = floats[r, row] / sqrt(fsum(squares[r, row])) for a
    sorted row of the ascending tail, r = key[row[-1]]: the row's largest
    entry sets the shift s of ``scaled_floats``, with float(e*e) squares at
    s = 0, float squares at s > 12 (e*e overflows) and NaN in between."""
    shifts = np.array([max(0, e.bit_length() - SCALE_BITS) for e in tail], int)
    levels, key = np.unique(shifts, return_inverse=True)
    floats, squares = np.zeros((2, len(levels), len(tail)))
    for r, s in enumerate(levels.tolist()):
        end = np.searchsorted(shifts, s, "right")
        floats[r, :end] = scaled_floats(tail[:end])
        squares[r, :end] = ([float(e * e) for e in tail[:end]] if s == 0 else
                            np.square(floats[r, :end]) if s > 12 else np.nan)
    return floats, squares, key


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
    # each origin of a tail element as (unit coordinate, ratio table index)
    steps = [rec for rec in A.steps[:M] if max(rec.values) >= cutoff]
    origins_of: dict[int, list[tuple[float, int]]] = {}
    for p, rec in enumerate(steps):
        for u, v in zip(rec.target.unit(), rec.values):
            origins_of.setdefault(v, []).append((u, p))
    ratio = _scale_ratios([rec.step for rec in steps])

    def backward(tup: tuple[int, ...]) -> tuple[float, float]:
        """(residual, distance to the target) of one tail tuple."""
        actual = normalize(tup)
        origins = [origins_of.get(e, ()) for e in tup]
        if any(not o for o in origins):
            raise DomainError("tail element comes from no step up to M")
        best = inf
        for pick in product(*origins):
            big = max(p for _, p in pick)
            pred = tuple(u * ratio.item(p, big) for u, p in pick)
            d = distance(actual, normalize(pred)) if norm(pred) else sqrt(2)
            best = min(best, d)
        return best, spec.distance(actual)

    # The screen redoes the tuple's floats from ``_tail_floats`` and the
    # prediction's from the ratio table.  NaN rows (a band row or a several-
    # origin entry), norm-0 predictions and open brackets go to backward.
    floats, squares, key = _tail_floats(tail)
    coord_of, at_of = np.zeros(n), np.zeros(n, dtype=np.int64)
    for j, o in enumerate(origins_of.get(e, ()) for e in tail):
        coord_of[j], at_of[j] = o[0] if len(o) == 1 else (np.nan, 0)
    orbit, violations = factorial(k), 0
    back_haus = back_residual = 0.0
    for block in _chamber_blocks(n, k, True):
        for start in range(0, len(block), _ITER_ROWS):
            idx = block[start : start + _ITER_ROWS]
            picks, r = at_of[idx], key[idx[:, -1:]]
            raw = coord_of[idx] * ratio[picks, picks.max(axis=1)[:, None]]
            pnorm, anorm = _fsum_roots(raw * raw), _fsum_roots(squares[r, idx])
            rows = np.flatnonzero((pnorm > 0) & (anorm > 0))  # not 0, not NaN
            actual = floats[r[rows], idx[rows]] / anorm[rows, None]
            lo, hi = _bracket(actual - raw[rows] / pnorm[rows, None])
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
                violations += orbit * (best > tolerance)
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
