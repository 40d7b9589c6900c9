"""Direction arithmetic on the nonnegative part of the unit sphere.

A direction is a point of S^(k-1), the unit vectors with all coordinates in
[0, 1].  Integer tuples name directions exactly through their primitive form
(divide by the gcd): two tuples point the same way iff their primitive forms
coincide, so set membership and deduplication never touch floats.  Floats
enter only for geometry: distances, nets, covering radii.

Coordinate indices are 0-based everywhere in this package.
"""

from __future__ import annotations

from math import fsum, gcd, inf, sqrt
from typing import Sequence

import numpy as np

from .errors import DomainError

# Unit vectors are accepted as such when | ||x|| - 1 | is at most this.
UNIT_NORM_TOL = 1e-12

# Integers below 2^SCALE_BITS square to below 2^1000, so a sum of a few
# such squares stays inside float range (2^1024).
SCALE_BITS = 500

FloatVec = tuple[float, ...]
IntVec = tuple[int, ...]


def norm(v: Sequence[float]) -> float:
    return sqrt(fsum(c * c for c in v))


def scaled_floats(v: Sequence[float]) -> list[float]:
    """Floats for v, over 2^(bit_length - SCALE_BITS) past SCALE_BITS bits.

    int/int division rounds correctly and float/2^j is exact, so each entry
    converts as float(c) would, up to a power of two normalization cancels.
    """
    d = 1 << max(0, int(max(v)).bit_length() - SCALE_BITS)
    return [c / d for c in v]


def _sieve_primes(n: int) -> list[int]:
    if n < 2:
        return []
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).tolist()


def normalize(v: Sequence[float]) -> FloatVec:
    """v / ||v|| for a nonzero vector with nonnegative entries."""
    if any(c < 0 for c in v):
        raise DomainError(f"negative coordinate in {v!r}")
    try:
        n = norm(v)
    except OverflowError:  # int squares, or a sum of float squares, too big
        n = inf
    if n == inf or n != n:  # a float square overflowed, or an entry is inf/nan
        if any(c == inf or c != c for c in v):
            raise DomainError(f"non-finite coordinate in {v!r}")
        v = scaled_floats(v)
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


# A numpy distance over coordinate differences equal to Python's, bit for
# bit, rounds and sums the squares in another way: it stays within a relative
# k eps of distance, plus about sqrt(k) 2^-537 where squares underflow.  The
# bracket is far wider, so it always holds distance.
_BAND = 2.0**-30
_FLOOR = 2.0**-500


def _bracket(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per row of coordinate differences with lo <= distance <= hi;
    an all-zero row is exactly 0."""
    d = np.sqrt(np.add.reduce(diff * diff, axis=1))
    slack = d * _BAND + np.where(diff.any(axis=1), _FLOOR, 0.0)
    return d - slack, d + slack
