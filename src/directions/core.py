"""Direction arithmetic on the nonnegative part of the unit sphere.

A direction is a point of S^(k-1), the unit vectors with all coordinates in
[0, 1].  Integer tuples name directions exactly through their primitive form
(divide by the gcd): two tuples point the same way iff their primitive forms
coincide, so set membership and deduplication never touch floats.  Floats
enter only for geometry: distances, nets, covering radii.

Coordinate indices are 0-based everywhere in this package.
"""

from __future__ import annotations

from math import fsum, gcd, sqrt
from typing import Sequence

from .errors import DomainError

# Unit vectors are accepted as such when | ||x|| - 1 | is at most this.
UNIT_NORM_TOL = 1e-12

FloatVec = tuple[float, ...]
IntVec = tuple[int, ...]


def norm(v: Sequence[float]) -> float:
    return sqrt(fsum(c * c for c in v))


def normalize(v: Sequence[float]) -> FloatVec:
    """v / ||v|| for a nonzero vector with nonnegative entries."""
    if any(c < 0 for c in v):
        raise DomainError(f"negative coordinate in {v!r}")
    n = norm(v)
    if n == 0.0:
        raise DomainError("cannot normalize the zero vector")
    return tuple(c / n for c in v)


def is_unit(x: Sequence[float], tol: float = UNIT_NORM_TOL) -> bool:
    return abs(norm(x) - 1.0) <= tol


def primitive(a: Sequence[int]) -> IntVec:
    """Reduce an integer vector by its gcd.

    primitive(a) == primitive(b) iff a and b are proportional, iff they
    normalize to the same unit vector, so this is the exact canonical
    representative of a rational direction.
    """
    g = 0
    for c in a:
        if c < 0:
            raise DomainError(f"negative entry in {a!r}")
        g = gcd(g, c)
    if g == 0:
        raise DomainError("all-zero vector has no direction")
    return tuple(c // g for c in a)


def distance(x: Sequence[float], y: Sequence[float]) -> float:
    if len(x) != len(y):
        raise DomainError("dimension mismatch")
    return sqrt(fsum((a - b) ** 2 for a, b in zip(x, y)))
