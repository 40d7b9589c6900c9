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
point to the chamber rows, and the KD tree holds only those.  The sorted
net points are the C(d + k - 1, k - 1) nondecreasing integer vectors with
last entry d, charged with the net; the whole net, which sampled clouds
and the audit query, is their orbits under enumeration.orbit_rows, and
its (d + 1)^k - d^k points are charged before it is built or a sampled
cloud drawn.  Permuted distances round along other coordinate orders, so
the sorted points within _TIE of the worst are settled on their orbits
against the expanded orbits of the rows near them, and both fields equal
those of the expanded computation.  Net points take unit rows from their
integer vectors, by exact squares.

A sampled cloud hands its rows and the whole net, an exhaustive one the
expanded near rows and tie orbits, to one worst-distance query.  The report
names the first net point at the radius in sphere_net order (by the index
of its first d, then by its other entries), read off the tied unit rows by
rounding them to their integer vectors; that order breaks ties only.

Every nearest-distance query goes through one kernel, which settles only
the queries that can attain the worst distance.  The cloud's unit rows are
cut into contiguous parts, one per usable CPU and none below a fixed floor
of rows, each with its own KD tree (unbalanced, leafsize 32, uncompacted
node boxes) built on its own thread.  A settled probe of the queries
bounds the worst distance from below, each tree answers its own slice
within that bound, and the queries none rules out take the least of the
parts' distances: the nearest distance over all rows, the same float, so
no report depends on the CPU count.

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
from functools import cached_property
from math import ceil, comb, sqrt
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import distance, is_unit, normalize
from .enumeration import DirectionCloud, GroundSet, check_budget, directions
from .enumeration import _chamber_blocks, orbit_rows, unit_rows
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

    @property
    def size(self) -> int:
        d = self.denominator
        return (d + 1) ** self.k - d**self.k

    @cached_property
    def chamber(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted net points in lexicographic order: their integer
        vectors (nondecreasing, last entry d) and unit rows."""
        d = self.denominator
        ints = np.concatenate(list(_chamber_blocks(d + 1, self.k - 1, False)))
        ints = np.column_stack([ints, np.full(len(ints), d)])
        return ints, unit_rows(ints)

    def charge(self) -> None:
        """Refuse the whole net over the budget."""
        check_budget(self.size, f"net points at h={self.h}")

    def whole(self) -> np.ndarray:
        """The whole net's integer vectors, lexicographic, charged first."""
        self.charge()
        return orbit_rows(self.chamber[0])


def sphere_net(k: int, h: float) -> SphereNet:
    """Deterministic net of mesh <= h on the orthant unit sphere; building
    it charges its sorted points, and ``whole`` the whole net."""
    if k < 2:
        raise DomainError("net dimension must be >= 2")
    if not 0 < h <= 1:
        raise DomainError("resolution must satisfy 0 < h <= 1")
    # the net has more than d = ceil(k/h) points, and k/h may be inf
    check_budget(k / h, f"net points at h={h} (more than k/h)")
    d = ceil(k / h)
    # d >= k makes C(d + k - 1, k - 1) >= 2^(k - 1): refuse a huge k cheaply
    check_budget(1 << k - 1, f"sorted net points at h={h} (at least 2^{k - 1})")
    check_budget(comb(d + k - 1, k - 1), f"sorted net points at h={h}")
    return SphereNet(k=k, h=float(h), denominator=d)


def audit_net(net: SphereNet, samples: int, seed: int = 0) -> tuple[float, bool]:
    """Monte-Carlo check of the mesh bound.

    Draws random orthant unit vectors and returns (max observed distance to
    the net, whether it stayed within net.h).
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    check_budget(samples * net.k, "audit sample entries")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    pts = np.abs(rng.standard_normal((samples, net.k)))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    worst = float(_worst(unit_rows(net.whole()), pts, 0)[1].max())
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
    if cloud.sampled:
        queries = unit_rows(net.whole())  # charged before the cloud's rows
        units = unit_rows(cloud.rows)
    else:
        units, queries = _chamber_orbits(cloud.rows, net)
    at, dists = _worst(units, queries, 0)
    # every point here is at the radius; the first in sphere_net order wins
    first = _first_in_net_order(queries[at], net.denominator)
    return DensityReport(
        covering_radius=float(dists[first]),
        argmax_net_point=tuple(float(c) for c in queries[at[first]]),
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


def _worst(
    units: np.ndarray, queries: np.ndarray, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the queries whose nearest distance to a unit row is
    within slack of the largest, R, and those distances.

    Part 0 builds on this thread, so one malloc arena fewer keeps freed
    tree memory.  low = (worst probe distance) - slack <= R - slack, so a
    row nearer than low in a tree's own slice rules a query out; the rest
    are settled over every tree, the same float.
    """
    count = min(_usable_cpus(), len(units) // _PART_FLOOR)
    parts = np.array_split(units, max(count, 1))
    # one part submits no task, so no worker thread starts
    with ThreadPoolExecutor(max(len(parts) - 1, 1)) as pool:
        rest = pool.map(_cloud_tree, parts[1:])
        trees = [_cloud_tree(parts[0]), *rest]

        def settle(q: np.ndarray) -> np.ndarray:
            return np.minimum.reduce([t.query(q)[0] for t in trees])

        low = max(settle(queries[:: len(queries) // 1000 + 1]).max() - slack, 0)

        def bound(tree: KDTree, q: np.ndarray) -> np.ndarray:
            return tree.query(q, distance_upper_bound=low)[0]

        slices = np.array_split(queries, len(trees))
        rest = pool.map(bound, trees[1:], slices[1:])
        bounded = np.concatenate([bound(trees[0], slices[0]), *rest])
    at = np.flatnonzero(bounded >= low)  # inf, or no row nearer than low
    dists = settle(queries[at])
    keep = dists >= dists.max() - slack
    return at[keep], dists[keep]


# Distances this close may be one distance rounded along two coordinate
# orders; _chamber_orbits leaves such near-ties to a query on expanded rows.
_TIE = 1e-9


def _chamber_orbits(
    rows: np.ndarray, net: SphereNet
) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and net queries that settle the radius of an exhaustive
    cloud with these chamber rows: the orbits of the rows near the sorted
    points within _TIE of the worst, and the orbits of those points."""
    units = unit_rows(rows)
    ints, pts = net.chamber
    ties, dists = _worst(units, pts, _TIE)
    near = np.zeros(len(rows), dtype=bool)
    for i, dist in zip(ties, dists):
        near |= np.linalg.norm(units - pts[i], axis=1) <= dist + _TIE
    return unit_rows(orbit_rows(rows[near])), unit_rows(orbit_rows(ints[ties]))


def _first_in_net_order(units: np.ndarray, d: int) -> int:
    """Index of the first of these net unit rows in sphere_net order.

    A row's integer vector is rint(u d / max(u)), exact while d is far below
    2^50.  sphere_net orders by the index of the first d, then, inside that
    block, by mixed-radix digits each below their radix: lexicographically.
    The lexsort is stable, so the first of equal rows wins.
    """
    v = np.rint(units * d / units.max(axis=1, keepdims=True))
    return int(np.lexsort((*v.T[::-1], v.argmax(axis=1)))[0])


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


def cloud_radius(
    A: GroundSet, k: int, h: float, distinct: bool = False, **draw
) -> DensityReport:
    """covering_radius(directions(A, k, distinct, **draw), sphere_net(k, h))
    with the net first: a sampled draw waits on the whole net's charge."""
    net = sphere_net(k, h)
    if draw.get("sample") is not None:
        net.charge()
    return covering_radius(directions(A, k, distinct, **draw), net)


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

    For exhaustive clouds eps_{k-1} <= eps_k + h is a theorem.  Take a
    unit x at dimension k-1 and a tuple t whose direction is nearest
    (x, 0).  Dropping t's last coordinate leaves a tuple t' of the
    (k-1)-cloud (entries of A, distinct if t's were) with t'.x = t.(x, 0)
    >= 0 and |t'| <= |t|, so t' is no farther in angle from x than t is
    from (x, 0): the true radii satisfy R_{k-1} <= R_k.  A net radius is
    at most the true one, which is at most it plus the net's mesh h, so
    eps_{k-1} <= R_{k-1} <= R_k <= eps_k + h.  Sampled clouds draw their
    two samples independently, so neither bound is implied for them.  The
    reverse direction has explicit counterexamples built from hyperplane
    targets, where eps_{k-1} stays small while eps_k does not.
    """
    if k < 3:
        raise DomainError("chain comparison needs k >= 3")
    return tuple(
        cloud_radius(A, d, h, distinct_entries_only, sample=sample, seed=seed)
        for d in (k, k - 1)
    )
