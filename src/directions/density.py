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

The remaining operations cover the growth-condition experiments: block
maxima of consecutive-element ratios, the bracketing witness tuples that
turn a slowly growing ground set into directions approximating a chosen
unit vector, and the dimension-chain comparison of covering radii at k and
k-1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import ceil, sqrt
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import distance, is_unit, normalize
from .enumeration import DirectionCloud, GroundSet, budget, directions
from .errors import CertificateError, DomainError, ResourceError


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
    d = ceil(k / h)
    total = (d + 1) ** k - d**k
    if total > budget():
        raise ResourceError(
            f"net at h={h} needs {total} points, over the budget {budget()}"
        )
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
    distinct_entries_only: bool
    cloud_sampled: bool

    def to_dict(self) -> dict:
        return {
            "covering_radius": self.covering_radius,
            "argmax_net_point": list(self.argmax_net_point),
            "k": self.k,
            "h": self.h,
            "N": self.N,
            "cloud_size": self.cloud_size,
            "cloud_rule": self.cloud_rule,
            "distinct": self.distinct_entries_only,
            "sampled": self.cloud_sampled,
        }


def covering_radius(cloud: DirectionCloud, net: SphereNet) -> DensityReport:
    """Worst net-point distance to the nearest cloud direction."""
    if cloud.is_empty:
        raise DomainError("covering radius of an empty cloud is undefined")
    if cloud.k != net.k:
        raise DomainError(
            f"cloud dimension {cloud.k} does not match net dimension {net.k}"
        )
    units = cloud.unit_points()
    dists, _ = cKDTree(units).query(net.points, k=1)
    at = int(np.argmax(dists))
    return DensityReport(
        covering_radius=float(dists[at]),
        argmax_net_point=tuple(float(c) for c in net.points[at]),
        k=net.k,
        h=net.h,
        N=cloud.bound,
        cloud_size=cloud.count,
        cloud_rule=cloud.rule,
        distinct_entries_only=cloud.distinct_entries_only,
        cloud_sampled=cloud.sampled,
    )


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


def ratio_gap(A: GroundSet, window_count: int) -> RatioGapStat:
    if window_count < 1:
        raise DomainError("need at least one window")
    if len(A.elements) < 2 * window_count:
        raise DomainError(
            f"|A| = {len(A.elements)} too small for {window_count} windows"
        )
    elems = np.asarray(A.elements, dtype=np.float64)
    ratios = elems[1:] / elems[:-1] - 1.0
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
    failed check raises CertificateError.
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
    lower = A.elements[0] / min(x)
    if m < lower:
        raise DomainError(
            f"m = {m} is below the admissible bound {lower:.3f} for this x"
        )
    picks = []
    ratios = []
    for xi in x:
        threshold = m * xi
        j = bisect_right(A.elements, threshold)
        if j >= len(A.elements):
            raise DomainError(
                f"no element above {threshold:.3f}; "
                f"the prefix bound {A.bound} is too small for m = {m}"
            )
        # m >= a_1/min(x) puts a_1 at or below every threshold
        if j < 1 or not A.elements[j - 1] <= threshold < A.elements[j]:
            raise CertificateError(f"sandwich broke at threshold {threshold}")
        picks.append(A.elements[j])
        ratios.append(A.elements[j] / A.elements[j - 1])
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
    report_k = covering_radius(
        directions(A, k, distinct_entries_only, sample=sample, seed=seed),
        sphere_net(k, h),
    )
    report_km1 = covering_radius(
        directions(A, k - 1, distinct_entries_only, sample=sample, seed=seed),
        sphere_net(k - 1, h),
    )
    return report_k, report_km1
