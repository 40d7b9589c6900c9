"""Quantitative denseness of direction clouds.

Denseness on the orthant part of the unit sphere is measured as a covering
radius: the worst distance from a reference net point to the nearest cloud
direction.  The net is the set of normalized integer vectors in {0..d}^k
whose maximum coordinate equals d, with d = ceil(k/h).  For any unit x in
the orthant, scaling x so its largest coordinate becomes d and rounding
gives an integer vector v with max exactly d and ||v - d*x/x_max|| <=
sqrt(k)/2, hence ||rho(v) - x|| <= 2*(sqrt(k)/2)/d <= h/sqrt(k) <= h.  So
the net's mesh is at most h by construction; a Monte-Carlo audit of that
bound is available for the suspicious.

An exhaustive cloud and the net are closed under coordinate permutations.
For a sorted net point q, the rearrangement inequality makes q . sp, and
so closeness to q, largest over the orbit of a row p where sp is sorted
like q.  So the covering radius is the worst distance from a sorted net
point to the chamber rows, and the KD tree holds only those.  The report
names the first net point in sphere_net order that attains the radius, a
member of the orbit of a worst sorted point.  Permuted distances round
along other coordinate orders, so each sorted point within _TIE of the
worst is settled on its orbit against the expanded orbits of the rows
near it, and both fields equal those of the expanded computation.

Every nearest-distance query goes through one kernel: the cloud's unit rows
are cut into contiguous parts, one per usable CPU and none below a fixed
floor of rows, each part gets its own KD tree (unbalanced, leafsize 32,
uncompacted node boxes) on its own thread, and each query takes the least
of the parts' distances.  That is the nearest distance over all rows, the
same float, so no report depends on the CPU count.

scipy.spatial is imported with the first KD tree, not with this module, so
the commands that build none (everything but density, chain and net-audit)
never pay for it.

The remaining operations cover the growth-condition experiments: block
maxima of consecutive-element ratios, the bracketing witness tuples that
turn a slowly growing ground set into directions approximating a chosen
unit vector, and the dimension-chain comparison of covering radii at k and
k-1.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import ceil, sqrt
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import distance, is_unit, normalize
from .enumeration import DirectionCloud, GroundSet, check_budget, directions
from .enumeration import orbit_rows, unit_rows
from .errors import CertificateError, DomainError

if TYPE_CHECKING:
    from scipy.spatial import cKDTree as KDTree


def cKDTree(data: np.ndarray, *args, **kwargs) -> KDTree:
    """scipy.spatial.cKDTree, with scipy.spatial imported on the first call.

    Every tree is built through this module attribute, so the benchmark's
    tracer can swap it to count builds and queries.
    """
    from scipy.spatial import cKDTree as KDTree

    return KDTree(data, *args, **kwargs)


@dataclass(frozen=True)
class SphereNet:
    k: int
    h: float
    denominator: int
    points: np.ndarray  # (n, k) float64 unit rows

    @property
    def size(self) -> int:
        return len(self.points)


def sphere_net(k: int, h: float) -> SphereNet:
    """Deterministic net of mesh <= h on the orthant unit sphere."""
    if k < 2:
        raise DomainError("net dimension must be >= 2")
    if not 0 < h <= 1:
        raise DomainError("resolution must satisfy 0 < h <= 1")
    # the net has more than d = ceil(k/h) points, and k/h may be inf
    check_budget(k / h, f"net points at h={h} (more than k/h)")
    d = ceil(k / h)
    check_budget((d + 1) ** k - d**k, f"net points at h={h}")
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
    pts = np.concatenate(blocks).astype(np.float64)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphereNet(k=k, h=float(h), denominator=d, points=pts)


def audit_net(net: SphereNet, samples: int, seed: int = 0) -> tuple[float, bool]:
    """Monte-Carlo check of the mesh bound.

    Draws random orthant unit vectors and returns (max observed distance to
    the net, whether it stayed within net.h).
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    check_budget(samples, "audit samples")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    pts = np.abs(rng.standard_normal((samples, net.k)))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    dists, _ = cKDTree(net.points).query(pts, k=1)
    worst = float(dists.max())
    return worst, worst <= net.h


@dataclass(frozen=True)
class DensityReport:
    covering_radius: float
    argmax_net_point: tuple[float, ...]
    k: int
    h: float
    N: int
    cloud_size: int
    cloud_rule: str
    distinct: bool
    sampled: bool


def covering_radius(cloud: DirectionCloud, net: SphereNet) -> DensityReport:
    """Worst net-point distance to the nearest cloud direction."""
    if cloud.is_empty:
        raise DomainError("covering radius of an empty cloud is undefined")
    if cloud.k != net.k:
        raise DomainError(
            f"cloud dimension {cloud.k} does not match net dimension {net.k}"
        )
    units = unit_rows(cloud.rows)
    if cloud.sampled:
        dists = _nearest(units, net.points)
        at = int(np.argmax(dists))
        radius = float(dists[at])
    else:
        radius, at = _chamber_radius(cloud.rows, units, net)
    return DensityReport(
        covering_radius=radius,
        argmax_net_point=tuple(float(c) for c in net.points[at]),
        k=net.k,
        h=net.h,
        N=cloud.bound,
        cloud_size=cloud.count,
        cloud_rule=cloud.rule,
        distinct=cloud.distinct_entries_only,
        sampled=cloud.sampled,
    )


def _cloud_tree(units: np.ndarray) -> KDTree:
    # a query's distances do not depend on the tree's shape; this one builds faster
    return cKDTree(units, leafsize=32, balanced_tree=False, compact_nodes=False)


# Fewest rows in a tree part: below it a second part's thread start and
# malloc arena cost more than the build time it saves (BENCH_threads.json).
_PART_FLOOR = 1 << 18


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _nearest(units: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distance from each query to its nearest unit row.

    The rows are cut into contiguous parts, one per usable CPU and none
    below _PART_FLOOR rows, and each part builds and queries its own tree.
    Parts after the first run on worker threads and the first on this one,
    so one malloc arena fewer keeps freed tree memory.  The least of the
    parts' nearest distances is the nearest distance over all rows, the
    same float.
    """
    count = min(_usable_cpus(), len(units) // _PART_FLOOR)
    parts = np.array_split(units, max(count, 1))

    def nearest(part: np.ndarray) -> np.ndarray:
        return _cloud_tree(part).query(queries, k=1)[0]

    if len(parts) == 1:
        return nearest(units)
    with ThreadPoolExecutor(len(parts) - 1) as pool:
        rest = pool.map(nearest, parts[1:])
        return np.minimum.reduce([nearest(parts[0]), *rest])


# Distances this close may be one distance rounded along two coordinate
# orders; _chamber_radius settles such near-ties on expanded rows.
_TIE = 1e-9


def _chamber_radius(
    rows: np.ndarray, units: np.ndarray, net: SphereNet
) -> tuple[float, int]:
    """Covering radius and first argmax of an exhaustive cloud's chamber."""
    pts, d = net.points, net.denominator
    chamber = np.flatnonzero((pts[:, 1:] >= pts[:, :-1]).all(axis=1))
    dists = _nearest(units, pts[chamber])
    top = dists >= dists.max() - _TIE
    found = []
    for i, dist in zip(chamber[top], dists[top]):
        near = rows[np.linalg.norm(units - pts[i], axis=1) <= dist + _TIE]
        v = np.rint(pts[i] * d / pts[i, -1]).astype(np.int64)  # largest entry d
        orbit = sorted(_net_index(p, d) for p in orbit_rows(v[None, :]).tolist())
        got = _nearest(unit_rows(orbit_rows(near)), pts[orbit])
        found += zip(got.tolist(), orbit)
    radius = max(g for g, _ in found)
    return radius, min(j for g, j in found if g == radius)


def _net_index(v: Sequence[int], d: int) -> int:
    """Position of the integer vector v (largest entry d) in sphere_net."""
    k = len(v)
    lead = v.index(d)  # the block of v, after d^j (d+1)^(k-1-j) points each
    index = sum(d**j * (d + 1) ** (k - 1 - j) for j in range(lead))
    pos = 0
    for t, c in enumerate(v):
        if t != lead:  # mixed radix: d before the lead, d + 1 after it
            pos = pos * (d if t < lead else d + 1) + c
    return index + pos


@dataclass(frozen=True)
class RatioGapStat:
    """Block maxima of a_n / a_{n-1} - 1 over an index partition.

    A decreasing trend is evidence that consecutive ratios tend to 1; it
    can never be proof, since the condition constrains the infinite tail
    and is sufficient, not necessary, for denseness.
    """

    windows: tuple[tuple[int, int], ...]
    trend: tuple[float, ...]

    @property
    def max_gap(self) -> float:
        return max(self.trend)


def _ratio(e: Sequence[int], n: int) -> float:
    """a_{n+1} / a_n with 1-based a_n = e[n - 1], correctly rounded."""
    try:
        return e[n] / e[n - 1]  # int/int division rounds correctly
    except OverflowError:
        raise DomainError(
            f"consecutive ratio a_{n + 1} / a_{n} is past float range"
        ) from None


def ratio_gap(A: GroundSet, window_count: int) -> RatioGapStat:
    if window_count < 1:
        raise DomainError("need at least one window")
    if len(A.elements) < 2 * window_count:
        raise DomainError(
            f"|A| = {len(A.elements)} too small for {window_count} windows"
        )
    e = A.elements
    ratios = np.array([_ratio(e, n) for n in range(1, len(e))]) - 1.0
    blocks = np.array_split(ratios, window_count)
    windows = []
    trend = []
    lo = 1
    for block in blocks:
        hi = lo + len(block) - 1
        windows.append((lo, hi))
        trend.append(float(block.max()))
        lo = hi + 1
    return RatioGapStat(windows=tuple(windows), trend=tuple(trend))


def witness_tuple(
    A: GroundSet, x: Sequence[float], m: int
) -> tuple[int, ...]:
    """Bracketing tuple whose direction approximates x.

    For each coordinate, picks the least element of A strictly above m*x_i;
    its predecessor is then at most m*x_i, and this sandwich is checked on
    every call.  The normalized tuple approaches x as m grows, at the rate
    of the worst consecutive-element ratio near the thresholds; that bound
    is also checked, with constant 2*sqrt(k) absorbing normalization.  A
    failed check raises CertificateError.  The thresholds are the floats
    m*x_i, and the sandwich is exact against those floats; an m past float
    range raises DomainError.
    """
    k = len(x)
    if k < 2:
        raise DomainError("dimension must be >= 2")
    if any(c <= 0 for c in x):
        raise DomainError("witness construction needs all coordinates > 0")
    if not is_unit(x, tol=1e-9):
        raise DomainError("x must be a unit vector")
    if not A.elements:
        raise DomainError("empty ground set")
    try:
        thresholds = [m * xi for xi in x]
    except OverflowError:
        raise DomainError("m is past float range") from None
    # int-float comparison is exact, so this holds at any element size
    if min(thresholds) < A.elements[0]:
        raise DomainError(
            f"m = {m} is below a_1 / min(x) for a_1 = {A.elements[0]}"
        )
    picks = []
    ratios = []
    for threshold in thresholds:
        j = bisect_right(A.elements, threshold)
        if j >= len(A.elements):
            raise DomainError(
                f"no element above {threshold:.3f}; "
                f"the prefix bound {A.bound} is too small for m = {m}"
            )
        # m * min(x) >= a_1 puts a_1 at or below every threshold
        if j < 1 or not A.elements[j - 1] <= threshold < A.elements[j]:
            raise CertificateError(f"sandwich broke at threshold {threshold}")
        picks.append(A.elements[j])
        ratios.append(_ratio(A.elements, j))
    err = distance(normalize(picks), x)
    bound = 2.0 * sqrt(k) * (max(ratios) - 1.0)
    if err > bound + 1e-12:
        raise CertificateError(f"witness error {err} above bound {bound}")
    return tuple(picks)


def chain_check(
    A: GroundSet,
    k: int,
    h: float,
    distinct_entries_only: bool = False,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> tuple[DensityReport, DensityReport]:
    """Covering radii of the same ground set at dimensions k and k-1.

    Density can only improve going down in dimension (append a fixed
    coordinate and project), so eps_{k-1} <= eps_k + 2h is expected on
    matched nets whenever the dimension-k cloud is reasonably dense; the
    reverse direction has explicit counterexamples built from hyperplane
    targets, where eps_{k-1} stays small while eps_k does not.
    """
    if k < 3:
        raise DomainError("chain comparison needs k >= 3")
    return tuple(
        covering_radius(
            directions(A, d, distinct_entries_only, sample=sample, seed=seed),
            sphere_net(d, h),
        )
        for d in (k, k - 1)
    )
