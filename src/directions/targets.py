"""Candidate accumulation sets on the orthant sphere.

A target set is described either by finitely many exact points (coordinates
q*sqrt(r)), by one of two built-in infinite families (the full orthant sphere
and the union of coordinate hyperplanes), or by a user-supplied enumerator
that is accepted but never certified.

Admissibility of a finite set means: closed under coordinate permutations
and closed under zero-out-and-renormalize for every index set that meets the
point.  ``close_generators`` produces the smallest admissible superset of
its input; ``validate_target`` checks the conditions exactly and returns
witnesses for any failure.

``enumerate_dense`` fixes, per target kind, one deterministic sequence of
points that is dense in the target set.  Downstream construction consumes
this sequence, so its order is part of the package contract and must never
change between releases.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import count, cycle, islice, permutations
from typing import Callable, Iterator, Sequence

from .core import FloatVec, normalize
from .errors import DomainError
from .exact import Surd, SurdSum

FINITE = "finite-set"
FULL_SPHERE = "orthant-sphere-full"
HYPERPLANE = "hyperplane-boundary"
CUSTOM = "custom-enumerated"

_KINDS = (FINITE, FULL_SPHERE, HYPERPLANE, CUSTOM)

# (numerator, denominator, radicand) triples of coordinates scaled by the
# first nonzero coordinate; equal keys iff equal directions.
PointKey = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class TargetPoint:
    """An exact direction, stored as its pre-normalization vector.

    coords[i] is a nonnegative Surd; the direction is coords / ||coords||.
    """

    coords: tuple[Surd, ...]

    def __post_init__(self):
        if len(self.coords) < 2:
            raise DomainError("target points need dimension >= 2")
        if all(c.is_zero() for c in self.coords):
            raise DomainError("zero vector is not a direction")
        if any(c.q < 0 for c in self.coords):
            raise DomainError("target coordinates must be nonnegative")

    @staticmethod
    def from_ints(*entries: int) -> "TargetPoint":
        return TargetPoint(tuple(Surd.of(e) for e in entries))

    @staticmethod
    def from_rationals(*entries: Fraction | int | str) -> "TargetPoint":
        return TargetPoint(tuple(Surd.of(Fraction(e)) for e in entries))

    @staticmethod
    def from_qr(pairs: Sequence[tuple[Fraction | int | str, int]]) -> "TargetPoint":
        return TargetPoint(tuple(Surd.of(Fraction(q), r) for q, r in pairs))

    @property
    def k(self) -> int:
        return len(self.coords)

    def key(self) -> PointKey:
        """Canonical exact identity of the direction.

        Scaling by the first nonzero coordinate removes the magnitude; the
        remaining ratios are single surds and identify the direction.
        """
        first = next(c for c in self.coords if not c.is_zero())
        out = []
        for c in self.coords:
            w = c / first
            out.append((w.q.numerator, w.q.denominator, w.r))
        return tuple(out)

    def norm_sq(self) -> Fraction:
        # each coordinate squared is rational, so the squared norm is too
        return sum((c.square() for c in self.coords), Fraction(0))

    def unit(self) -> FloatVec:
        return normalize(tuple(c.to_float() for c in self.coords))

    def permuted(self, order: Sequence[int]) -> "TargetPoint":
        k = self.k
        if len(order) != k or sorted(order) != list(range(k)):
            raise DomainError(f"{order!r} is not a permutation of 0..{k - 1}")
        return TargetPoint(tuple(self.coords[j] for j in order))

    def restricted(self, keep: Sequence[int]) -> "TargetPoint":
        """Exact zero-out of every coordinate not in ``keep``."""
        keep_set = set(keep)
        if not keep_set or not all(0 <= i < self.k for i in keep_set):
            raise DomainError(f"bad index set {sorted(keep_set)}")
        if all(self.coords[i].is_zero() for i in keep_set):
            raise DomainError(
                f"index set {sorted(keep_set)} does not meet {self!r}"
            )
        zero = Surd.of(0)
        return TargetPoint(
            tuple(c if i in keep_set else zero for i, c in enumerate(self.coords))
        )

    def dot(self, other: "TargetPoint") -> SurdSum:
        if other.k != self.k:
            raise DomainError("dimension mismatch")
        total = SurdSum()
        for a, b in zip(self.coords, other.coords):
            total = total + SurdSum.from_surd(a * b)
        return total

    def distance_sq(self, other: "TargetPoint") -> SurdSum:
        """Exact squared chordal distance between the two unit directions.

        ||u/|u| - v/|v|||^2 = 2 - 2 (u.v) / sqrt(|u|^2 |v|^2).
        """
        prod = self.norm_sq() * other.norm_sq()
        # 1/sqrt(P/Q) = (1/P)*sqrt(P*Q)
        inv_norm = Surd.of(Fraction(1, prod.numerator)) * Surd.of(
            1, prod.numerator * prod.denominator
        )
        cos_term = self.dot(other) * SurdSum.from_surd(inv_norm)
        return SurdSum.rational(2) - cos_term.scaled(2)

    def __repr__(self) -> str:
        return "TargetPoint(" + ", ".join(repr(c) for c in self.coords) + ")"


def _cmp_points(a: TargetPoint, b: TargetPoint) -> int:
    """Exact lexicographic order on normalized coordinates.

    Coordinate i of the normalized points compares as v_i/|v| vs u_i/|u|;
    both sides are nonnegative, so compare squares cross-multiplied, which
    is pure rational arithmetic.
    """
    na, nb = a.norm_sq(), b.norm_sq()
    for ca, cb in zip(a.coords, b.coords):
        lhs = ca.square() * nb
        rhs = cb.square() * na
        if lhs != rhs:
            return -1 if lhs < rhs else 1
    return 0


def canonical_order(points: Sequence[TargetPoint]) -> list[TargetPoint]:
    return sorted(points, key=cmp_to_key(_cmp_points))


@dataclass(frozen=True)
class TargetSpec:
    """A candidate accumulation set plus its dense enumeration."""

    kind: str
    k: int
    points: tuple[TargetPoint, ...] = ()
    enumerator: Callable[[int], TargetPoint] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown target kind {self.kind!r}")
        if self.k < 2:
            raise DomainError("dimension must be >= 2")
        if self.kind == FINITE and not self.points:
            raise DomainError("finite-set spec needs at least one point")
        if self.kind == CUSTOM and self.enumerator is None:
            raise DomainError("custom-enumerated spec needs an enumerator")
        for p in self.points:
            if p.k != self.k:
                raise DomainError("point dimension does not match spec")

    def point_keys(self) -> set[PointKey]:
        return {p.key() for p in self.points}


@dataclass(frozen=True)
class ValidityReport:
    closed_ok: bool
    permutation_ok: bool
    projection_ok: bool
    witnesses: tuple[tuple[TargetPoint | None, str], ...]
    verdict: str  # "valid" | "invalid" | "unverifiable"

    @property
    def passed(self) -> bool:
        return self.verdict == "valid"


def _meeting_index_sets(point: TargetPoint) -> Iterator[tuple[int, ...]]:
    k = point.k
    support = [i for i in range(k) if not point.coords[i].is_zero()]
    for mask in range(1, 1 << k):
        members = tuple(i for i in range(k) if mask >> i & 1)
        if any(i in members for i in support):
            yield members


def _orbit(
    point: TargetPoint,
) -> Iterator[tuple[TargetPoint, str, tuple[int, ...]]]:
    """Images of point under every permutation, then every restriction.

    Restrictions run over the index sets that meet the point.  Each image
    comes with the kind of map and its indices, which name it in a
    validation witness.
    """
    for order in permutations(range(point.k)):
        yield point.permuted(order), "permutation", order
    for members in _meeting_index_sets(point):
        yield point.restricted(members), "projection onto", members


def close_generators(points: Sequence[TargetPoint]) -> TargetSpec:
    """Smallest superset closed under permutations and index projections.

    Fixpoint iteration with exact dedup; finite input gives finite output
    because permutations and projections of a finite set generate finitely
    many directions.
    """
    if not points:
        raise DomainError("need at least one generator")
    k = points[0].k
    if any(p.k != k for p in points):
        raise DomainError("generators must share one dimension")
    seen: dict[PointKey, TargetPoint] = {}
    work = list(points)
    while work:
        p = work.pop()
        key = p.key()
        if key in seen:
            continue
        seen[key] = p
        work.extend(q for q, _, _ in _orbit(p))
    closed = canonical_order(seen.values())
    return TargetSpec(kind=FINITE, k=k, points=tuple(closed))


def validate_target(spec: TargetSpec) -> ValidityReport:
    """Check admissibility exactly; built-in kinds pass by proof."""
    if spec.kind in (FULL_SPHERE, HYPERPLANE):
        return ValidityReport(True, True, True, (), "valid")
    if spec.kind == CUSTOM:
        return ValidityReport(
            False,
            False,
            False,
            ((None, "custom enumerator carries no closure certificate"),),
            "unverifiable",
        )
    keys = spec.point_keys()
    witnesses: list[tuple[TargetPoint | None, str]] = []
    failed: set[str] = set()
    for p in spec.points:
        for q, kind, indices in _orbit(p):
            if q.key() not in keys:
                failed.add(kind)
                witnesses.append((p, f"missing {kind} {indices}"))
    permutation_ok = "permutation" not in failed
    projection_ok = "projection onto" not in failed
    # a finite point set is closed as a subset of the sphere
    closed_ok = True
    ok = closed_ok and permutation_ok and projection_ok
    return ValidityReport(
        closed_ok,
        permutation_ok,
        projection_ok,
        tuple(witnesses),
        "valid" if ok else "invalid",
    )


def _orthant_directions(k: int, need_zero: bool) -> Iterator[TargetPoint]:
    """All primitive integer directions, by max entry, then support size,
    then support position, then entries, each lexicographically.

    With need_zero, only vectors with at least one zero coordinate (the
    hyperplane union).  The order is frozen: construction provenance and
    stored artifacts depend on it.
    """
    from math import gcd
    from itertools import product

    for top in count(1):
        level = []
        for vec in product(range(top + 1), repeat=k):
            if max(vec) != top:
                continue
            if need_zero and 0 not in vec:
                continue
            g = 0
            for c in vec:
                g = gcd(g, c)
            if g != 1:
                continue
            support = tuple(i for i, c in enumerate(vec) if c)
            level.append((len(support), support, vec))
        level.sort()
        for _, _, vec in level:
            yield TargetPoint.from_ints(*vec)


def _dense_sequence(spec: TargetSpec) -> Iterator[TargetPoint]:
    """The spec's dense sequence, from its first point on."""
    if spec.kind == FINITE:
        return cycle(spec.points)
    if spec.kind == CUSTOM:
        return map(spec.enumerator, count(1))
    return _orthant_directions(spec.k, need_zero=spec.kind == HYPERPLANE)


def enumerate_dense(spec: TargetSpec, m: int) -> TargetPoint:
    """The m-th point (m >= 1) of the spec's dense sequence."""
    if m < 1:
        raise DomainError("enumeration index starts at 1")
    return next(islice(_dense_sequence(spec), m - 1, None))


def dense_prefix(spec: TargetSpec, M: int) -> list[TargetPoint]:
    """Points 1..M of the dense sequence, in order."""
    if M < 0:
        raise DomainError("prefix length must be >= 0")
    return list(islice(_dense_sequence(spec), M))


def _coord_to_json(c: Surd) -> dict:
    return {"q": f"{c.q.numerator}/{c.q.denominator}", "r": c.r}


def _coord_from_json(obj: dict) -> Surd:
    return Surd.of(Fraction(obj["q"]), int(obj["r"]))


def save_spec(spec: TargetSpec, path: str) -> None:
    if spec.kind == CUSTOM:
        raise DomainError("custom enumerators cannot be serialized")
    doc = {
        "k": spec.k,
        "kind": spec.kind,
        "generators": [
            [_coord_to_json(c) for c in p.coords] for p in spec.points
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_spec(path: str) -> TargetSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read spec file {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or "k" not in doc:
        raise DomainError(f"spec file {path!r} has no 'k' field")
    kind = doc.get("kind", FINITE)
    k = int(doc["k"])
    if kind in (FULL_SPHERE, HYPERPLANE):
        return TargetSpec(kind=kind, k=k)
    if kind != FINITE:
        raise DomainError(f"cannot load target kind {kind!r}")
    pts = [
        TargetPoint(tuple(_coord_from_json(c) for c in row))
        for row in doc["generators"]
    ]
    if any(p.k != k for p in pts):
        raise DomainError("generator dimension does not match k")
    # closing is idempotent, so re-closing a closed file is harmless and
    # repairs hand-written generator lists
    return close_generators(pts)
