"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way with no shared code
with the package: brute-force tuple enumeration, float fixpoint closure,
covering radii over the expanded cloud and from exact arc gaps, and
high-precision floors via mpmath.  Expected values frozen into the
test modules were produced by these oracles.  The searches the target
layer replaced (level-sorted dense sequence, work-list closure, full-orbit
validation, mask-by-permutation closure) are kept as written; the last
three apply the package's own restriction map and keys, and permute
coordinates with their own helper, so they pin generation against
search; the last sorts with ``canonical_order``, the package's sort by
``key()`` before closure sorted its own keys.  The surd printer and float
evaluator that ``exact`` replaced are kept as written too, and so are the
``Fraction`` sum of ``SurdSum.to_float`` and the squared distance that
``TargetPoint.distance_sq`` built by multiplying ``SurdSum``s before
``exact.chord_sq``; they take their own ``math.isqrt`` floors and read
the package's ``squarefree_split``.  So is the ``Fraction`` interval loop
that decided ``SurdSum.sign`` before one integer fixed-point sum did, with
its own floors, doubling and cap.  So is the ``np.linalg.norm`` body of
``unit_rows``, the ``%s`` body of ``enumeration._write_csv``, the
scalar sphere-net index and the meshgrid sphere net, whose row order is
sphere_net order, and the surd comparison that certified a construction
step's direction error before the integer lemma replaced it.  The
per-tuple backward pass of ``verify_construction``, the per-point minimum
of ``repetition_demo`` and its distinct tail normalized one ordered tuple
at a time, the surd evaluation of a step's printed direction
error and admissibility checked on ``Fraction`` keys are kept as the
package wrote them before numpy screens and integer arithmetic took over.
The backward pass and the demo's minima call the package's own
``normalize`` and ``distance``, so they pin the screens and the permuted
floats, not those floats; the backward pass keeps its own copies of the
target distances (the S_{<=j} closed form and the finite minimum) and of
the scale ratio, written as the package computes them, so the report's
floats can be compared bit for bit.  So is a
point's key as the package cached it before a primitive integer vector
became the point's identity: each coordinate squared over the squared norm.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import mpmath
import numpy as np
from scipy.spatial import cKDTree

from directions.construction import construct
from directions.core import SCALE_BITS, distance, normalize
from directions.enumeration import directions
from directions.errors import DomainError, PrecisionError
from directions.exact import PRECISION_CAP_BITS, Surd, SurdSum, squarefree_split
from directions.targets import (
    FINITE,
    FULL_SPHERE,
    HYPERPLANE,
    TargetPoint,
    TargetSpec,
    close_generators,
    dense_prefix,
)


def brute_directions(A, k, distinct=False):
    """Every primitive direction of A^k as a frozenset of int tuples."""
    out = set()
    for tup in itertools.product(sorted(A), repeat=k):
        if distinct and len(set(tup)) != k:
            continue
        g = math.gcd(*tup)
        out.add(tuple(v // g for v in tup))
    return frozenset(out)


def full_covering_radius(A, k, distinct, net_points):
    """(radius, argmax net row, cloud size) over the whole expanded cloud.

    The computation the package ran before it used the sorted chamber:
    every direction's float unit vector into one cKDTree, every net point
    queried, the first maximal net point taken.  float(c) of a Python int
    rounds correctly, as int64-to-float conversion does, so the unit
    vectors carry the same bits for entries below 2^500.
    """
    rows = sorted(brute_directions(A, k, distinct))
    pts = np.array([[float(c) for c in row] for row in rows])
    units = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    dists, _ = cKDTree(units).query(net_points, k=1)
    at = int(np.argmax(dists))
    return float(dists[at]), tuple(float(c) for c in net_points[at]), len(rows)


def arc_covering_radius(A, distinct=False):
    """Exact covering radius of D^2(A) over the whole quarter circle.

    D^2(A) is the ratio set of A mapped to angles atan2(b, a).  The arc
    point farthest from them is the middle of the widest gap between
    consecutive angles, or an end of the arc, and a chord spanning the
    angle t has length 2 sin(t / 2).
    """
    angles = sorted(math.atan2(b, a) for a, b in brute_directions(A, 2, distinct))
    ends = [2 * angles[0], 2 * (math.pi / 2 - angles[-1])]
    gaps = [hi - lo for lo, hi in zip(angles, angles[1:])]
    return 2 * math.sin(max(ends + gaps) / 4)


def brute_unit_directions(A, k, distinct=False):
    pts = []
    for tup in sorted(brute_directions(A, k, distinct)):
        n = math.sqrt(sum(v * v for v in tup))
        pts.append(tuple(v / n for v in tup))
    return pts


def float_normalize(x):
    n = math.sqrt(sum(v * v for v in x))
    return tuple(v / n for v in x)


def float_restrict(x, keep):
    y = tuple(v if i in keep else 0.0 for i, v in enumerate(x))
    return float_normalize(y)


def float_closure(points, tol=1e-9):
    """Fixpoint closure under permutations and coordinate restrictions.

    Works on float tuples and merges points that agree within tol, so it
    is only trustworthy on small generator sets where every distinct
    closure point is separated by far more than tol.  That is exactly the
    regime the tests use it in.
    """
    k = len(next(iter(points)))
    seen: list[tuple[float, ...]] = []

    def add(p):
        for q in seen:
            if max(abs(a - b) for a, b in zip(p, q)) < tol:
                return False
        seen.append(p)
        return True

    frontier = [float_normalize(p) for p in points]
    for p in frontier:
        add(p)
    while frontier:
        nxt = []
        for p in frontier:
            for perm in itertools.permutations(range(k)):
                q = tuple(p[j] for j in perm)
                if add(q):
                    nxt.append(q)
            support = [i for i, v in enumerate(p) if v > tol]
            for r in range(1, len(support) + 1):
                for keep in itertools.combinations(support, r):
                    q = float_restrict(p, set(keep))
                    if add(q):
                        nxt.append(q)
        frontier = nxt
    return seen


def level_sorted_directions(k, j):
    """All primitive integer directions with at most j nonzero entries, by
    max entry, then support size, then support position, then entries, each
    lexicographically.

    The package's dense sequence before it generated each level in order:
    every level of (top+1)^k vectors is built, filtered and sorted before
    its first vector is yielded.  Yields int tuples.
    """
    for top in itertools.count(1):
        level = []
        for vec in itertools.product(range(top + 1), repeat=k):
            if max(vec) != top:
                continue
            if k - vec.count(0) > j:
                continue
            g = 0
            for c in vec:
                g = math.gcd(g, c)
            if g != 1:
                continue
            support = tuple(i for i, c in enumerate(vec) if c)
            level.append((len(support), support, vec))
        level.sort()
        for _, _, vec in level:
            yield vec


def meeting_index_sets(point):
    k = point.k
    support = [i for i in range(k) if not point.coords[i].is_zero()]
    for mask in range(1, 1 << k):
        members = tuple(i for i in range(k) if mask >> i & 1)
        if any(i in members for i in support):
            yield members


def permuted(point, order):
    """point with entry j taken from coordinate order[j]."""
    return TargetPoint(tuple(point.coords[j] for j in order))


def full_orbit(point):
    """Images of point under every permutation, then every restriction."""
    for order in itertools.permutations(range(point.k)):
        yield permuted(point, order), "permutation", order
    for members in meeting_index_sets(point):
        yield point.restricted(members), "projection onto", members


def worklist_closure(points):
    """Fixpoint closure of target points, in key order.

    The package's closure before it generated permuted restrictions in one
    pass: pop a point, keep it if its key is new, push its whole orbit.
    """
    seen = {}
    work = list(points)
    while work:
        p = work.pop()
        key = p.key()
        if key in seen:
            continue
        seen[key] = p
        work.extend(q for q, _, _ in full_orbit(p))
    return sorted(seen.values(), key=lambda p: p.key())


def full_orbit_validation(points):
    """(permutation_ok, projection_ok, passed) from every orbit image.

    The package's validation before it checked only the generating maps.
    """
    keys = {p.key() for p in points}
    failed = set()
    for p in points:
        for q, kind, _ in full_orbit(p):
            if q.key() not in keys:
                failed.add(kind)
    return "permutation" not in failed, "projection onto" not in failed, not failed


def canonical_order(points: Sequence[TargetPoint]) -> list[TargetPoint]:
    """Exact lexicographic order on the normalized coordinates."""
    return sorted(points, key=TargetPoint.key)


def mask_permutation_closure(points: Sequence[TargetPoint]) -> TargetSpec:
    """Smallest superset closed under permutations and index projections.

    The package's closure before it expanded arrangements with orbit_rows:
    every index mask times every permutation, deduplicated afterwards.

    A restriction of a permuted point is a permutation of a restricted one,
    so the closure is every permutation of every restriction of a generator
    to an index set that meets it, deduplicated on the exact key.  The first
    point seen of each direction is kept: generators last-first, index sets
    largest mask first.
    """
    if not points:
        raise DomainError("need at least one generator")
    k = points[0].k
    if any(p.k != k for p in points):
        raise DomainError("generators must share one dimension")
    seen: dict[tuple[Fraction, ...], TargetPoint] = {}
    for p in reversed(points):
        for mask in range((1 << k) - 1, 0, -1):
            members = [i for i in range(k) if mask >> i & 1]
            if all(p.coords[i].is_zero() for i in members):
                continue
            part = p.restricted(members)
            for order in permutations(range(k)):
                q = permuted(part, order)
                seen.setdefault(q.key(), q)
    closed = canonical_order(seen.values())
    return TargetSpec(kind=FINITE, k=k, points=tuple(closed))


def brute_arrangement_count(point: TargetPoint) -> int:
    """Distinct arrangements of every restriction of point to a nonempty
    part of its support, each counted by listing its permutations."""
    support = [i for i, c in enumerate(point.coords) if not c.is_zero()]
    total = 0
    for size in range(1, len(support) + 1):
        for keep in itertools.combinations(support, size):
            total += len(set(permutations(point.restricted(keep).coords)))
    return total


def mp_floor_scaled(coords_qr, i, m, dps=1200):
    """floor(m! * y_i) for a unit vector given as (rational, radicand) pairs.

    Uses mpmath at dps decimal digits; dps=1200 is far beyond any factorial
    the tests touch, so the floor is exact unless m! * y_i is within
    10**-1100 of an integer, which the construction's inputs never are.
    """
    with mpmath.workdps(dps):
        norm_sq = mpmath.mpf(0)
        vals = []
        for q, r in coords_qr:
            q = Fraction(q)
            v = mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(r)
            vals.append(v)
            norm_sq += v * v
        y = vals[i] / mpmath.sqrt(norm_sq)
        return int(mpmath.floor(mpmath.factorial(m) * y))


def mp_unit(coords_qr, dps=60):
    """Float coordinates of the unit vector for (rational, radicand) pairs."""
    with mpmath.workdps(dps):
        vals = []
        for q, r in coords_qr:
            q = Fraction(q)
            vals.append(mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(r))
        n = mpmath.sqrt(sum(v * v for v in vals))
        return tuple(float(v / n) for v in vals)


def trial_squarefree_split(n, bound=10_000):
    """(s, f) with n = s*s*f, by trial division by 2 and odd p <= bound.

    The package's split before it took one gcd with the primorial: strip
    p*p while it divides, stop once p*p exceeds what is left, then take a
    perfect-square remainder whole.
    """
    s, f = 1, n
    p = 2
    while p <= bound and p * p <= f:
        while f % (p * p) == 0:
            f //= p * p
            s *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(f)
    if root * root == f:
        s *= root
        f = 1
    return s, f


def mp_surd_sign(terms, bits):
    """Sign of the sum of c*sqrt(r) over terms {r: c}, from mpmath at bits.

    None when the value lies within a few ulps of the largest term of 0,
    where this evaluation cannot tell the sign.
    """
    with mpmath.workprec(bits):
        parts = [
            mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
            for r, c in terms.items()
        ]
        v = mpmath.fsum(parts)
        if abs(v) <= max(abs(p) for p in parts) * mpmath.ldexp(1, 8 - bits):
            return None
        return 1 if v > 0 else -1


def surd_distance_sq(a, b):
    """``TargetPoint.distance_sq`` as the package wrote it before
    ``exact.chord_sq``: 2 - (u.v) * 2/sqrt(|u|^2 |v|^2), the dot product
    summed as ``SurdSum``s and multiplied term by term, each product
    radicand split again."""
    dot = SurdSum()
    for x, y in zip(a.coords, b.coords):
        dot = dot + SurdSum.from_surd(x * y)
    prod = a.norm_sq * b.norm_sq
    # 2/sqrt(P/Q) = (2/P)*sqrt(P*Q)
    inv = Surd.of(Fraction(2, prod.numerator)) * Surd.of(
        1, prod.numerator * prod.denominator
    )
    out = {}
    for r, c in dot.terms.items():
        t = Surd(c, r) * inv
        s, f = squarefree_split(t.r) if t.r > 1 else (1, t.r)
        nc = out.get(f, Fraction(0)) + t.q * s
        if nc == 0:
            out.pop(f, None)
        else:
            out[f] = nc
    return SurdSum.rational(2) - SurdSum(out)


def sqrt_bounds(r, bits):
    """(lo, lo + 1) around 2^bits sqrt(r), lo its floor."""
    lo = math.isqrt(r << (2 * bits))
    return lo, lo + 1


def fraction_to_float(self, bits):
    """``SurdSum.to_float`` as the package wrote it before it summed over
    one common denominator: a ``Fraction`` per term, one float at the end."""
    mid = Fraction(0)
    for r, c in self.terms.items():
        a, _ = sqrt_bounds(r, bits)
        mid += c * Fraction(a, 1 << bits)
    return float(mid)


def fraction_interval_sign(self):
    """``SurdSum.sign`` as the package wrote it before one integer
    fixed-point sum: one term by its coefficient, two by squares, more by a
    ``Fraction`` interval per precision, doubled from 64 bits to the cap."""
    items = list(self.terms.items())
    if not items:
        return 0
    if len(items) == 1:
        return 1 if items[0][1] > 0 else -1
    if len(items) == 2:
        (r1, c1), (r2, c2) = items
        return Surd(c1, r1).compare(Surd(-c2, r2))
    bits = 64
    while bits <= PRECISION_CAP_BITS:
        lo = Fraction(0)
        hi = Fraction(0)
        for r, c in items:
            a, b = sqrt_bounds(r, bits)
            if c > 0:
                lo += c * Fraction(a, 1 << bits)
                hi += c * Fraction(b, 1 << bits)
            else:
                lo += c * Fraction(b, 1 << bits)
                hi += c * Fraction(a, 1 << bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    raise PrecisionError(f"not certified within {PRECISION_CAP_BITS} bits")


def surd_step_bound_holds(point, m, values):
    """Whether step m's direction error is within 10(k+m)/m!, decided the
    way the step certificate did on every step before its integer lemma:
    the exact squared chordal distance against the squared bound, by
    ``SurdSum.sign``."""
    err_sq = surd_distance_sq(point, TargetPoint.from_ints(*values))
    bound = Fraction(10 * (len(values) + m), math.factorial(m)) ** 2
    return (SurdSum.rational(bound) - err_sq).sign() >= 0


def cmp_points(a, b):
    """Exact lexicographic order on normalized coordinates.

    Coordinate i of the normalized points compares as v_i/|v| vs u_i/|u|;
    both sides are nonnegative, so compare squares cross-multiplied, which
    is pure rational arithmetic.  The package's comparator before it sorted
    by cached squared unit coordinates; the squared norms are summed here
    rather than read from the points, so nothing cached is shared.
    """
    na = sum((c.square() for c in a.coords), Fraction(0))
    nb = sum((c.square() for c in b.coords), Fraction(0))
    for ca, cb in zip(a.coords, b.coords):
        lhs = ca.square() * nb
        rhs = cb.square() * na
        if lhs != rhs:
            return -1 if lhs < rhs else 1
    return 0


def surd_to_float(self):
    """``Surd.to_float`` as the package wrote it before it went through
    ``SurdSum.to_float``."""
    if self.q == 0:
        return 0.0
    bits = 64
    lo, _ = sqrt_bounds(self.r, bits)
    return float(self.q * Fraction(lo, 1 << bits))


def surd_sum_repr(self):
    """``SurdSum.__repr__`` as the package wrote it before each term went
    through ``Surd.__repr__``."""
    if not self.terms:
        return "0"
    out = ""
    for r in sorted(self.terms):
        c = self.terms[r]
        mag = abs(c)
        if r == 1:
            body = str(mag)
        elif mag == 1:
            body = f"sqrt({r})"
        else:
            body = f"{mag}*sqrt({r})"
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out


def linalg_unit_rows(rows):
    """``enumeration.unit_rows`` as the package wrote it before it divided
    in place, a block of rows at a time, by the ``np.linalg.norm`` body."""
    if rows.dtype == object:
        bits = np.frompyfunc(int.bit_length, 1, 1)(rows.max(axis=1))
        scale = np.left_shift(1, np.maximum(bits - SCALE_BITS, 0))
        pts = (rows / scale[:, None]).astype(np.float64)
    else:
        pts = rows.astype(np.float64)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


CSV_ROWS = 4096  # rows per slice; the bytes do not depend on it


def percent_s_csv(path, header, rows):
    """``enumeration._write_csv`` as the package wrote it before token tables:
    one ``%s`` format per slice of rows, every array kind alike."""
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_ROWS):
            chunk = rows[start : start + CSV_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def meshgrid_net(k, d):
    """(integer rows, float64 unit rows) of the whole sphere net in
    sphere_net order, as ``SphereNet.points`` built it before the net
    became the orbits of its sorted chamber."""
    blocks = []
    for lead in range(k):
        # vectors whose first coordinate equal to d sits at index `lead`;
        # earlier coordinates stay below d, so each vector appears once
        ranges = (
            [np.arange(d)] * lead
            + [np.array([d])]
            + [np.arange(d + 1)] * (k - 1 - lead)
        )
        grid = np.meshgrid(*ranges, indexing="ij")
        blocks.append(np.stack(grid, axis=-1).reshape(-1, k))
    ints = np.concatenate(blocks)
    pts = ints.astype(np.float64)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return ints, pts


def scalar_net_index(v, d):
    """Position of the integer vector v (largest entry d) in sphere_net, one
    vector at a time: the order ``density._first_in_net_order`` reads off
    unit rows to break ties between worst net points."""
    k = len(v)
    lead = v.index(d)  # the block of v, after d^j (d+1)^(k-1-j) points each
    index = sum(d**j * (d + 1) ** (k - 1 - j) for j in range(lead))
    pos = 0
    for t, c in enumerate(v):
        if t != lead:  # mixed radix: d before the lead, d + 1 after it
            pos = pos * (d if t < lead else d + 1) + c
    return index + pos


def scalar_forward(A, spec, M, L_index):
    """``verify_construction``'s forward Hausdorff distance, one target
    point and one step direction at a time."""
    step_dirs = [normalize(rec.values) for rec in A.steps[:M]]
    forward = 0.0
    for point in dense_prefix(spec, M)[L_index:]:
        u = point.unit()
        forward = max(forward, min(distance(u, sd) for sd in step_dirs))
    return forward


def family_distance(x, j):
    """Chordal distance from the unit vector x to S_{<=j}: the nearest point
    keeps the j largest entries, so 2 - 2 sqrt(1 - z) for z the sum of the
    squares of the others, in the package's float operations."""
    z = sum(c * c for c in sorted(x)[: len(x) - j])
    return math.sqrt(max(0.0, 2.0 - 2.0 * math.sqrt(max(0.0, 1.0 - z))))


def brute_family_distance(x, j, dps=50):
    """The least chordal distance from x to each restriction of x to an
    index set of size j, renormalised, in mpmath at ``dps`` digits."""
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(c) for c in x]
        xs = [c / mpmath.sqrt(mpmath.fsum(c * c for c in xs)) for c in xs]
        best = None
        for keep in itertools.combinations(range(len(xs)), j):
            part = [c if i in keep else mpmath.mpf(0) for i, c in enumerate(xs)]
            size = mpmath.sqrt(mpmath.fsum(c * c for c in part))
            if size == 0:
                continue
            d = mpmath.sqrt(mpmath.fsum((a - b / size) ** 2 for a, b in zip(xs, part)))
            best = d if best is None else min(best, d)
        return best


def target_distance(spec, point_units, x):
    """Distance from x to the target set: the S_{<=j} closed form for a
    built-in kind, else the least distance to a point."""
    if spec.kind == FULL_SPHERE:
        return family_distance(x, spec.k)
    if spec.kind == HYPERPLANE:
        return family_distance(x, spec.k - 1)
    return min(distance(x, u) for u in point_units)


def scale_ratio(m_small, m_big):
    """m_small! / m_big! as one int/int division, 0.0 when it underflows."""
    return 1 / math.prod(range(m_small + 1, m_big + 1))


def scalar_backward(A, spec, M, L_index):
    """(residual, distance to the target) of every sorted tail tuple, in
    ``combinations`` order; raises the DomainError of the first bad tuple.

    ``verify_construction``'s backward pass before its numpy screen: each
    tuple normalized, every origin pick predicted and measured in turn; a
    prediction of norm 0 is sqrt(2) from every tuple.
    """
    k = len(A.steps[0].values)
    cutoff = max(A.steps[L_index - 1].values)
    tail = [e for e in A.elements if e >= cutoff]
    units = {rec.step: rec.target.unit() for rec in A.steps[:M]}
    origins_of = {}
    for rec in A.steps[:M]:
        for i, v in enumerate(rec.values):
            origins_of.setdefault(v, []).append((i, rec.step))
    point_units = [p.unit() for p in spec.points]
    out = []
    for tup in itertools.combinations(tail, k):
        actual = normalize(tup)
        origins = [origins_of.get(e, ()) for e in tup]
        if any(not o for o in origins):
            raise DomainError("tail element comes from no step up to M")
        best = math.inf
        for pick in itertools.product(*origins):
            m_big = max(m for _, m in pick)
            pred = tuple(units[m][i] * scale_ratio(m, m_big) for i, m in pick)
            if math.sqrt(math.fsum(c * c for c in pred)) == 0.0:
                best = min(best, math.sqrt(2))
            else:
                best = min(best, distance(actual, normalize(pred)))
        out.append((best, target_distance(spec, point_units, actual)))
    return out


def scalar_repetition_min(k, M):
    """``repetition_demo``'s with_repetition_min_dist, one cloud point at a
    time."""
    eta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(0, 1)] * (k - 2))
    theta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(1, 1)] * (k - 2))
    cloud = directions(construct(close_generators([eta]), M), k)
    theta_u = theta.unit()
    return min(distance(theta_u, u) for u in map(tuple, cloud.unit_points()))


def scalar_distinct_tail_min(k, M):
    """``repetition_demo``'s distinct_tail_min_dist, every ordered tail
    tuple normalized on its own."""
    eta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(0, 1)] * (k - 2))
    theta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(1, 1)] * (k - 2))
    A = construct(close_generators([eta]), M)
    cutoff = max(A.steps[(M + 1) // 2 - 1].values)
    tail = [e for e in A.elements if e >= cutoff]
    theta_u = theta.unit()
    return min(distance(theta_u, normalize(tup)) for tup in permutations(tail, k))


def fraction_unit_squares(point):
    """A point's key as the package cached it before its square vector:
    y_i^2 = c_i^2 / |c|^2, one ``Fraction`` division per coordinate."""
    norm_sq = sum((c.square() for c in point.coords), Fraction(0))
    return tuple(c.square() / norm_sq for c in point.coords)


def surd_direction_error(point, values):
    """A step's printed direction error as the step certificate computed it
    before it summed ints and ``Fraction``s: the exact squared distance
    (``surd_distance_sq``) evaluated at 256 bits (``fraction_to_float``)."""
    err_sq = surd_distance_sq(point, TargetPoint.from_ints(*values))
    val = fraction_to_float(err_sq, 256)
    return math.sqrt(val) if val > 0 else 0.0


def fraction_key_witnesses(points):
    """``validate_target``'s witnesses from images of ``Fraction`` keys: a
    transposition swaps two entries, zeroing y_i sets entry i to 0 and
    divides the others by 1 - y_i^2."""
    keys = {p.key() for p in points}
    witnesses = []
    for p in points:
        key = p.key()
        k = len(key)
        images = []
        for i in range(k - 1):
            order = (*range(i), i + 1, i, *range(i + 2, k))
            images.append((tuple(key[j] for j in order), "permutation", order))
        for i, rest in enumerate(1 - sq for sq in key):
            if rest:
                image = tuple(0 if j == i else sq / rest for j, sq in enumerate(key))
                images.append((image, "projection onto", (*range(i), *range(i + 1, k))))
        for image, kind, indices in images:
            if image not in keys:
                witnesses.append((p, f"missing {kind} {indices}"))
    return tuple(witnesses)
