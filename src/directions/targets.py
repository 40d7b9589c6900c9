"""Candidate accumulation sets on the orthant sphere.

A target set is described either by finitely many exact points (coordinates
q*sqrt(r)) or as a built-in S_{<=j}, the directions with at most j nonzero
coordinates: ``BUILTIN[k - j]`` names the full orthant sphere (j = k) and
the union of coordinate hyperplanes (j = k - 1).  A spec owns its dense
sequence, its distance and the far rows of a numpy distance screen.

Admissibility of a finite set means: closed under coordinate permutations
and closed under zero-out-and-renormalize for every index set that meets the
point.  A point's exact identity is one primitive integer vector
proportional to its unit squares (y_1^2, ..., y_k^2), which fix y >= 0;
both symmetries act on it.  ``close_generators`` produces the smallest
admissible superset of its input; ``validate_target`` checks the
conditions exactly on those vectors and returns witnesses for any failure.

Each target set has one deterministic sequence of points dense in the
target set.  Construction consumes its first M points, ``dense_prefix``,
so the order is part of the package contract and must never change
between releases; ``enumerate_dense`` returns one point of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, count, cycle, islice, product
from math import comb, gcd, inf, lcm, sqrt
from typing import Iterator, Sequence

import numpy as np

from .core import FloatVec, _bracket, distance, normalize
from .enumeration import check_budget, orbit_rows, orbit_sizes
from .errors import DomainError
from .exact import Surd, SurdSum, chord_sq

FINITE = "finite-set"
FULL_SPHERE = "orthant-sphere-full"
HYPERPLANE = "hyperplane-boundary"
BUILTIN = (FULL_SPHERE, HYPERPLANE)  # BUILTIN[k - j] is S_{<=j}


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
    def from_qr(pairs: Sequence[tuple[Fraction | int | str, int]]) -> "TargetPoint":
        return TargetPoint(tuple(Surd.of(Fraction(q), r) for q, r in pairs))

    @property
    def k(self) -> int:
        return len(self.coords)

    @cached_property
    def norm_sq(self) -> Fraction:
        # each coordinate squared is rational, so the squared norm is too
        return sum((c.square() for c in self.coords), Fraction(0))

    @cached_property
    def squares(self) -> tuple[int, ...]:
        """Exact identity of the direction: the primitive integer vector
        proportional to (y_1^2, ..., y_k^2) for y = coords/||coords||."""
        # y_i^2 is proportional to (den * q_i)^2 r_i, an integer
        den = lcm(*(c.q.denominator for c in self.coords))
        vec = [(c.q.numerator * den // c.q.denominator) ** 2 * c.r for c in self.coords]
        g = gcd(*vec)
        return tuple(v // g for v in vec)

    def key(self) -> tuple[Fraction, ...]:
        """y_i^2 as Fractions, from ``squares``: keys sort as the unit
        vectors do."""
        total = sum(self.squares)
        return tuple(Fraction(v, total) for v in self.squares)

    def unit(self) -> FloatVec:
        return normalize(tuple(c.to_float() for c in self.coords))

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

    def distance_sq(self, other: "TargetPoint") -> SurdSum:
        """Exact squared chordal distance between the two unit directions."""
        if other.k != self.k:
            raise DomainError("dimension mismatch")
        dot: dict[int, Fraction] = {}
        for a, b in zip(self.coords, other.coords):
            t = a * b
            if t.q:
                dot[t.r] = dot.get(t.r, 0) + t.q
        return chord_sq(dot, self.norm_sq * other.norm_sq)

    def __repr__(self) -> str:
        return "TargetPoint(" + ", ".join(repr(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class TargetSpec:
    """A candidate accumulation set plus its dense enumeration."""

    kind: str
    k: int
    points: tuple[TargetPoint, ...] = ()

    def __post_init__(self):
        if self.kind not in (FINITE, *BUILTIN):
            raise DomainError(f"unknown target kind {self.kind!r}")
        if self.k < 2:
            raise DomainError("dimension must be >= 2")
        if self.kind == FINITE and not self.points:
            raise DomainError("finite-set spec needs at least one point")
        for p in self.points:
            if p.k != self.k:
                raise DomainError("point dimension does not match spec")

    @cached_property
    def codim(self) -> int:
        """k - j of a built-in S_{<=j}, its index in ``BUILTIN``."""
        return BUILTIN.index(self.kind)

    @cached_property
    def _units(self) -> list[FloatVec]:
        return [p.unit() for p in self.points]

    def distance(self, x: Sequence[float]) -> float:
        """Chordal distance from the unit direction x to the set: for
        S_{<=j}, sqrt(2 - 2 sqrt(1 - z)) with z the sum of the squares of the
        k - j smallest entries (the nearest point keeps the j largest); for
        a finite set, the least ``core.distance``."""
        if self.kind == FINITE:
            return min(distance(x, u) for u in self._units)
        z = 0.0
        for c in sorted(x)[: self.codim]:
            z += c * c
        return sqrt(max(0.0, 2.0 - 2.0 * sqrt(max(0.0, 1.0 - z))))

    def far_rows(self, units: np.ndarray, floor: float) -> np.ndarray:
        """Mask of the unit rows whose ``distance`` may be the largest and
        above floor >= 0: for S_{<=j} the row of largest z > 0, as distance
        grows with z; for a finite set each row whose bracket may be both."""
        if self.kind == FINITE:
            near_lo = near_hi = np.full(len(units), inf)
            for u in self._units:
                a, b = _bracket(units - u)
                near_lo = np.minimum(near_lo, a)
                near_hi = np.minimum(near_hi, b)
            return (near_hi > floor) & (near_hi >= near_lo.max())
        z = np.square(np.sort(units, axis=1)[:, : self.codim]).sum(axis=1)
        return (np.arange(len(units)) == np.argmax(z)) & (z > 0)


@dataclass(frozen=True)
class ValidityReport:
    permutation_ok: bool
    projection_ok: bool
    witnesses: tuple[tuple[TargetPoint, str], ...]

    @property
    def passed(self) -> bool:
        return not self.witnesses


def _orbit(
    vec: tuple[int, ...],
) -> Iterator[tuple[tuple[int, ...], str, tuple[int, ...]]]:
    """Square vectors of a point's images under the maps that generate
    both symmetries.

    The k - 1 adjacent transpositions generate every permutation.  Zeroing
    one coordinate at a time reaches every restriction to an index set that
    meets the point, and each step leaves a nonzero point.  So a finite set
    that holds these images of its points is closed under both.  On a
    square vector a transposition swaps two entries, and zeroing y_i sets
    entry i to 0 and divides the rest by their gcd.  Each image comes with
    the kind of map and its indices, which name it in a validation witness.
    """
    k = len(vec)
    for i in range(k - 1):
        order = (*range(i), i + 1, i, *range(i + 2, k))
        yield tuple(vec[j] for j in order), "permutation", order
    for i in range(k):
        rest = [0 if j == i else v for j, v in enumerate(vec)]
        g = gcd(*rest)
        if g:  # the point meets the other coordinates
            image = tuple(v // g for v in rest)
            yield image, "projection onto", (*range(i), *range(i + 1, k))


def close_generators(points: Sequence[TargetPoint]) -> TargetSpec:
    """Smallest superset closed under permutations and index projections.

    A restriction of a permuted point is a permutation of a restricted one,
    so the closure is every distinct arrangement (``orbit_rows``) of every
    restriction of a generator to an index set that meets it, deduplicated
    on the square vector.  The first point seen of each direction is kept:
    generators last-first, subsets of the support largest mask first.  An
    arrangement's square vector and key are its restriction's, rearranged,
    so each restriction computes them once; the output is sorted by
    ``key()``.

    Each generator's arrangements are charged to the budget before any is
    built: first C(s+k, k) - 1 for support size s, a lower bound that also
    caps the mask walk, then their exact number, ``orbit_sizes``.
    """
    if not points:
        raise DomainError("need at least one generator")
    k = points[0].k
    if any(p.k != k for p in points):
        raise DomainError("generators must share one dimension")
    seen: dict[tuple[int, ...], tuple[tuple[Fraction, ...], TargetPoint]] = {}
    total = 0
    for p in reversed(points):
        support = [i for i, c in enumerate(p.coords) if not c.is_zero()]
        check_budget(total + comb(len(support) + k, k) - 1, "closure arrangements")
        parts = []
        for mask in range((1 << len(support)) - 1, 0, -1):
            dropped = {i for j, i in enumerate(support) if not mask >> j & 1}
            part = p.restricted([i for i in range(k) if i not in dropped])
            ids = dict(zip(part.coords, zip(part.squares, part.key())))
            values = list(ids)
            row = sorted(values.index(c) for c in part.coords)
            parts.append((values, *zip(*ids.values()), row))
        total += int(np.sum(orbit_sizes(np.array([part[-1] for part in parts]))))
        check_budget(total, "closure arrangements")
        for values, squares, keys, row in parts:
            for order in orbit_rows(np.array([row])).tolist():
                vec = tuple(squares[i] for i in order)
                if vec not in seen:
                    seen[vec] = (
                        tuple(keys[i] for i in order),
                        TargetPoint(tuple(values[i] for i in order)),
                    )
    closed = [point for _, point in sorted(seen.values(), key=lambda kp: kp[0])]
    return TargetSpec(kind=FINITE, k=k, points=tuple(closed))


def validate_target(spec: TargetSpec) -> ValidityReport:
    """Check admissibility exactly; built-in kinds pass by proof."""
    if spec.kind in BUILTIN:
        return ValidityReport(True, True, ())
    vecs = [p.squares for p in spec.points]
    keys = set(vecs)
    witnesses: list[tuple[TargetPoint, str]] = []
    failed: set[str] = set()
    for p, vec in zip(spec.points, vecs):
        for image, kind, indices in _orbit(vec):
            if image not in keys:
                failed.add(kind)
                witnesses.append((p, f"missing {kind} {indices}"))
    return ValidityReport(
        "permutation" not in failed,
        "projection onto" not in failed,
        tuple(witnesses),
    )


def _orthant_directions(k: int, j: int) -> Iterator[TargetPoint]:
    """All primitive integer directions with at most j nonzero entries, by
    max entry, then support size, then support position, then entries, each
    lexicographically.

    The order is frozen: constructed ground sets and stored artifacts depend
    on it.  Each level is generated in that order, one support at a time,
    so no level is held or sorted.
    """
    for top in count(1):
        for size in range(1, j + 1):
            for support in combinations(range(k), size):
                for entries in product(range(1, top + 1), repeat=size):
                    if top in entries and gcd(*entries) == 1:
                        vec = [0] * k
                        for i, e in zip(support, entries):
                            vec[i] = e
                        yield TargetPoint.from_ints(*vec)


def _dense_sequence(spec: TargetSpec) -> Iterator[TargetPoint]:
    """The spec's dense sequence, from its first point on."""
    if spec.kind == FINITE:
        return cycle(spec.points)
    j = spec.k - spec.codim
    points = _orthant_directions(spec.k, j)
    # S_{<=1} is the k axis points, all at level 1
    return cycle(islice(points, spec.k)) if j == 1 else points


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


def _coord_from_json(obj: dict, path: str) -> Surd:
    q, r = obj["q"], obj["r"]
    # JSON floats would round and booleans pass as ints, so neither is taken
    if type(q) not in (str, int) or type(r) is not int:
        raise DomainError(
            f"spec file {path!r}: coordinate {obj!r} needs a string or "
            "integer q and an integer r"
        )
    return Surd.of(Fraction(q), r)


def save_spec(spec: TargetSpec, path: str) -> None:
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
    k = doc["k"]
    if type(k) is not int:
        raise DomainError(f"spec file {path!r}: 'k' must be an integer, not {k!r}")
    try:
        pts = [
            TargetPoint(tuple(_coord_from_json(c, path) for c in row))
            for row in (doc["generators"] if kind == FINITE else ())
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed spec file {path!r}: {exc!r}") from exc
    if kind in BUILTIN:
        return TargetSpec(kind=kind, k=k)
    if kind != FINITE:
        raise DomainError(f"cannot load target kind {kind!r}")
    if any(p.k != k for p in pts):
        raise DomainError("generator dimension does not match k")
    # closing is idempotent, so re-closing a closed file is harmless and
    # repairs hand-written generator lists
    return close_generators(pts)
