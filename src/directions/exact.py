"""Exact arithmetic for quadratic-surd quantities.

Target coordinates are numbers of the form q*sqrt(r) with q a nonnegative
rational and r a positive squarefree integer.  Everything geometric about a
target point (equality of directions, canonical ordering, separations) reduces
to signs of finite sums of such terms, so this module provides:

``Surd``
    a single term q*sqrt(r), with exact multiplication and comparison.
    Products stay squarefree without factoring because
    sqrt(a)*sqrt(b) = gcd(a,b)*sqrt((a/g)*(b/g)) and coprime squarefree
    numbers have a squarefree product.

``SurdSum``
    a finite sum of terms with distinct radicands.  One integer fixed-point
    sum evaluates it: over the lcm den of the coefficient denominators,
    F = sum (c_r den) isqrt(r 4^bits).  ``to_float`` reads F as a floor,
    F / (den 2^bits); ``sign`` reads it as an interval, each floor being
    below 2^bits sqrt(r) by less than 1, and doubles the bits until the
    interval excludes 0.  Two-term sums are decided by comparing squares,
    with no precision cap.  Distinct squarefree radicals are linearly
    independent over the rationals, so a sum that is not syntactically zero
    is numerically nonzero and the loop terminates.  A precision cap guards
    the one escape hatch (a radicand whose square part survived
    ``squarefree_split``); hitting the cap raises instead of guessing.

``chord_sq``
    the squared chordal distance between two directions, 2 - 2 cos, from
    their dot product and squared norms; every exact distance is built by it.

``sqrt_floor``
    floor(sqrt(p/q)) for nonnegative integers, computed exactly with
    ``math.isqrt``.  This is the workhorse behind certified factorial floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod, sqrt

from .core import _sieve_primes
from .errors import DomainError, PrecisionError

# Square factors are extracted from radicands for every prime up to this.
_SPLIT_BOUND = 10_000
_PRIMES = _sieve_primes(_SPLIT_BOUND)
_PRIMORIAL = prod(_PRIMES)

# Interval comparisons double precision until sign is certified or this cap.
PRECISION_CAP_BITS = 16_384


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s*s*f and return (s, f) with f squarefree (best effort).

    Returns what trial division by every p <= ``_SPLIT_BOUND`` returns:
    only primes dividing n have a square to strip (a composite strips
    nothing once its prime factors are gone), and one gcd with their
    product, ``_PRIMORIAL``, names them.  Square factors with a prime part
    above the bound survive only if the whole remainder is a perfect
    square; anything else stays in f.  The callers never rely on f being
    squarefree for correctness, only for efficiency of like-term
    combination.
    """
    if n <= 0:
        raise DomainError(f"radicand must be positive, got {n}")
    s, f = 1, n
    g = gcd(n, _PRIMORIAL)  # squarefree: the primes up to the bound dividing n
    for p in _PRIMES:
        if p > g:
            break
        if g % p == 0:
            g //= p
            while f % (p * p) == 0:
                f //= p * p
                s *= p
    root = isqrt(f)
    if root * root == f:
        s *= root
        f = 1
    return s, f


def sqrt_floor(p: int, q: int = 1) -> int:
    """floor(sqrt(p/q)) for integers p >= 0, q >= 1, exactly.

    sqrt(p/q) = sqrt(p*q)/q, and floor(isqrt(x)/q) == isqrt(x)//q because
    isqrt(x) is the integer part of sqrt(x).
    """
    if p < 0 or q <= 0:
        raise DomainError("sqrt_floor needs p >= 0 and q >= 1")
    return isqrt(p * q) // q


@dataclass(frozen=True)
class Surd:
    """The number q * sqrt(r); q rational, r positive and squarefree.

    The zero value is canonically Surd(0, 1).  q may be negative (needed for
    differences); construction through ``of`` normalizes the radicand.
    """

    q: Fraction
    r: int

    @staticmethod
    def of(q: Fraction | int | str, r: int = 1) -> "Surd":
        q = Fraction(q)
        if r <= 0:
            raise DomainError(f"radicand must be positive, got {r}")
        if q == 0:
            return Surd(Fraction(0), 1)
        s, f = squarefree_split(r)
        return Surd(q * s, f)

    def is_zero(self) -> bool:
        return self.q == 0

    def __mul__(self, other: "Surd") -> "Surd":
        if self.q == 0 or other.q == 0:
            return Surd(Fraction(0), 1)
        g = gcd(self.r, other.r)
        return Surd(self.q * other.q * g, (self.r // g) * (other.r // g))

    def square(self) -> Fraction:
        return self.q * self.q * self.r

    def sign(self) -> int:
        return -1 if self.q < 0 else (0 if self.q == 0 else 1)

    def compare(self, other: "Surd") -> int:
        """Exact sign of self - other."""
        sa, sb = self.sign(), other.sign()
        if sa != sb:
            return 1 if sa > sb else -1
        if sa == 0:
            return 0
        d = self.square() - other.square()
        if d == 0:
            return 0
        # same sign: larger square means larger magnitude
        return sa if d > 0 else -sa

    def to_float(self) -> float:
        return SurdSum.from_surd(self).to_float(bits=64)

    def __repr__(self) -> str:
        if self.r == 1:
            return str(self.q)
        if self.q == 1:
            return f"sqrt({self.r})"
        return f"{self.q}*sqrt({self.r})"


class SurdSum:
    """A finite sum of rational multiples of square roots."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms: dict[int, Fraction] = {}
        if terms:
            for r, c in terms.items():
                if c != 0:
                    self.terms[r] = Fraction(c)

    @staticmethod
    def from_surd(s: Surd) -> "SurdSum":
        return SurdSum({s.r: s.q} if s.q != 0 else {})

    @staticmethod
    def rational(c: Fraction | int) -> "SurdSum":
        return SurdSum({1: Fraction(c)})

    def _merged(self, other: "SurdSum", sign: int) -> "SurdSum":
        out = dict(self.terms)
        for r, c in other.terms.items():
            nc = out.get(r, Fraction(0)) + sign * c
            if nc == 0:
                out.pop(r, None)
            else:
                out[r] = nc
        return SurdSum(out)

    def __add__(self, other: "SurdSum") -> "SurdSum":
        return self._merged(other, 1)

    def __sub__(self, other: "SurdSum") -> "SurdSum":
        return self._merged(other, -1)

    def is_zero(self) -> bool:
        return not self.terms

    def _fixed(self, bits: int) -> tuple[int, int, list[int]]:
        """(F, den, n): den is the lcm of the coefficient denominators,
        n_r = c_r den, and F = sum n_r floor(2^bits sqrt(r))."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        n = [c.numerator * (den // c.denominator) for c in self.terms.values()]
        return sum(v * isqrt(r << 2 * bits) for v, r in zip(n, self.terms)), den, n

    def sign(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 2:
            (r1, c1), (r2, c2) = self.terms.items()
            return Surd(c1, r1).compare(Surd(-c2, r2))
        bits = 64
        while bits <= PRECISION_CAP_BITS:
            # den 2^bits times the sum lies in [F + sum n_r<0, F + sum n_r>0]
            F, _, n = self._fixed(bits)
            if F + sum(v for v in n if v < 0) > 0:
                return 1
            if F + sum(v for v in n if v > 0) < 0:
                return -1
            bits *= 2
        raise PrecisionError(
            f"sign of {len(self.terms)}-term surd sum not certified within "
            f"{PRECISION_CAP_BITS} bits"
        )

    def compare(self, other: "SurdSum") -> int:
        return (self - other).sign()

    def to_float(self, bits: int = 128) -> float:
        """The float of the sum with each sqrt(r) floored at ``bits``: the
        fixed-point sum over den 2^bits, one int/int division, which rounds
        correctly, as float(Fraction) does."""
        F, den, _ = self._fixed(bits)
        return F / (den << bits)

    def sqrt_to_float(self) -> float:
        """float(sqrt(self)); self must be nonnegative."""
        s = self.sign()
        if s < 0:
            raise DomainError("sqrt of negative surd sum")
        if s == 0:
            return 0.0
        return sqrt(self.to_float())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        for r in sorted(self.terms):
            c = self.terms[r]
            body = repr(Surd(abs(c), r))
            if not out:
                out = body if c > 0 else f"-{body}"
            else:
                out += f" + {body}" if c > 0 else f" - {body}"
        return out


def chord_sq(dot: dict[int, Fraction], norms_sq: Fraction) -> SurdSum:
    """Exact ||u/|u| - v/|v|||^2 = 2 - 2 (u.v) / sqrt(|u|^2 |v|^2).

    ``dot`` is u.v as {radicand r: coefficient d_r} and ``norms_sq`` is
    |u|^2 |v|^2 = P/Q.  With P Q = s^2 f, 1/sqrt(P/Q) = (s/P) sqrt(f), and
    each sqrt(r f) = g s' sqrt(f') for g = gcd(r, f) and (s', f') the split
    of (r/g)(f/g).  f is split already, so for r = 1 the split is (1, f).
    """
    P, Q = norms_sq.numerator, norms_sq.denominator
    s, f = squarefree_split(P * Q)
    scale = Fraction(2 * s, P)
    terms: dict[int, Fraction] = {1: Fraction(2)}
    for r, d in dot.items():
        g = gcd(r, f)
        s2, f2 = squarefree_split((r // g) * (f // g)) if r > 1 else (1, f)
        terms[f2] = terms.get(f2, 0) - d * (g * s2) * scale
    return SurdSum(terms)
