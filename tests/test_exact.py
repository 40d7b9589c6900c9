"""Exact quadratic-irrational arithmetic."""

import math
from fractions import Fraction

import mpmath
import pytest

from directions.errors import DomainError, PrecisionError
from directions.exact import Surd, SurdSum, sqrt_floor, squarefree_split


class TestSquarefreeSplit:
    def test_small_values(self):
        assert squarefree_split(1) == (1, 1)
        assert squarefree_split(2) == (1, 2)
        assert squarefree_split(12) == (2, 3)
        assert squarefree_split(49) == (7, 1)
        assert squarefree_split(50) == (5, 2)
        assert squarefree_split(360) == (6, 10)

    def test_perfect_square_residual(self):
        # residual after trial division is itself a perfect square
        p = 10_007  # prime above the trial-division bound
        assert squarefree_split(p * p) == (p, 1)
        assert squarefree_split(4 * p * p) == (2 * p, 1)

    def test_reconstruction(self):
        for n in range(1, 500):
            s, r = squarefree_split(n)
            assert s * s * r == n

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            squarefree_split(0)
        with pytest.raises(DomainError):
            squarefree_split(-4)


class TestSqrtFloor:
    def test_integers(self):
        assert sqrt_floor(2) == 1
        assert sqrt_floor(10**20) == 10**10
        assert sqrt_floor(10**20 - 1) == 10**10 - 1

    def test_rationals(self):
        # floor(sqrt(99/4)) = floor(4.974...) = 4
        assert sqrt_floor(99, 4) == 4
        assert sqrt_floor(1, 2) == 0
        assert sqrt_floor(9, 4) == 1
        assert sqrt_floor(25, 4) == 2

    def test_matches_isqrt_on_integers(self):
        for n in range(1, 2000):
            assert sqrt_floor(n) == math.isqrt(n)

    def test_huge_exact(self):
        # 20!^2 * 2 has a floor that float arithmetic cannot deliver
        f = math.factorial(20)
        got = sqrt_floor(2 * f * f)
        assert got * got <= 2 * f * f < (got + 1) * (got + 1)


class TestSurd:
    def test_normalization(self):
        s = Surd.of(1, 8)
        assert (s.q, s.r) == (Fraction(2), 2)
        s = Surd.of(Fraction(1, 2), 12)
        assert (s.q, s.r) == (Fraction(1), 3)
        s = Surd.of(3, 1)
        assert (s.q, s.r) == (Fraction(3), 1)

    def test_zero_collapses_radicand(self):
        assert Surd.of(0, 7).is_zero()
        assert Surd.of(0, 7) == Surd.of(0, 3)

    def test_product_merges_radicands(self):
        assert Surd.of(1, 2) * Surd.of(1, 3) == Surd.of(1, 6)
        assert Surd.of(1, 2) * Surd.of(1, 2) == Surd.of(2, 1)
        assert Surd.of(1, 6) * Surd.of(1, 10) == Surd.of(2, 15)

    def test_square(self):
        assert Surd.of(Fraction(2, 3), 5).square() == Fraction(20, 9)

    def test_ordering(self):
        assert Surd.of(1, 2).compare(Surd.of(1, 3)) == -1
        assert Surd.of(2, 2).compare(Surd.of(1, 7)) == 1  # 8 > 7
        assert Surd.of(-1, 2).compare(Surd.of(1, 1)) == -1
        assert Surd.of(-1, 3).compare(Surd.of(-1, 2)) == -1
        assert Surd.of(1, 5).compare(Surd.of(1, 5)) == 0

    def test_to_float(self):
        assert Surd.of(1, 2).to_float() == pytest.approx(math.sqrt(2), abs=1e-15)
        assert Surd.of(Fraction(-3, 4), 5).to_float() == pytest.approx(
            -0.75 * math.sqrt(5), abs=1e-15
        )


class TestSurdSum:
    def test_add_cancels(self):
        a = SurdSum.from_surd(Surd.of(1, 8))  # 2*sqrt(2)
        b = SurdSum.from_surd(Surd.of(-2, 2))
        assert (a + b).is_zero()

    def test_sign_two_terms(self):
        # 2*sqrt(6) - 5 has the sign of 24 - 25, 2*sqrt(6) - 4 of 24 - 16
        root = SurdSum.from_surd(Surd.of(2, 6))
        assert (root - SurdSum.rational(5)).sign() == -1
        assert (root - SurdSum.rational(4)).sign() == 1

    def test_sign_zero(self):
        assert SurdSum.rational(0).sign() == 0
        assert SurdSum.from_surd(Surd.of(Fraction(1, 3), 7)).sign() == 1
        assert SurdSum.from_surd(Surd.of(Fraction(-1, 3), 7)).sign() == -1

    def test_sign_interval_path_tight(self):
        # three-term sums take the interval path; drive it with a value
        # within 1e-30 of a rational so at least 100 guard bits are needed
        with mpmath.workdps(60):
            v = mpmath.sqrt(2) + mpmath.sqrt(3)
            c = Fraction(int(mpmath.floor(v * 10**30)), 10**30)
        s = (
            SurdSum.from_surd(Surd.of(1, 2))
            + SurdSum.from_surd(Surd.of(1, 3))
            - SurdSum.rational(c)
        )
        assert len(s.terms) == 3
        assert s.sign() == 1
        assert (s - SurdSum.rational(Fraction(1, 10**30))).sign() == -1

    def test_sign_exhausts_precision(self):
        # a nonzero three-term value below the resolution cap must refuse
        # rather than guess
        with mpmath.workdps(5100):
            v = mpmath.sqrt(2) + mpmath.sqrt(3)
            c = Fraction(int(mpmath.floor(v * 10**5000)), 10**5000)
        s = (
            SurdSum.from_surd(Surd.of(1, 2))
            + SurdSum.from_surd(Surd.of(1, 3))
            - SurdSum.rational(c)
        )
        with pytest.raises(PrecisionError):
            s.sign()

    def test_compare(self):
        a = SurdSum.from_surd(Surd.of(1, 2)) + SurdSum.rational(1)
        b = SurdSum.from_surd(Surd.of(1, 5))
        assert a.compare(b) == 1  # 1+sqrt(2)=2.414 > sqrt(5)=2.236
        assert b.compare(a) == -1
        assert a.compare(a) == 0

    def test_to_float(self):
        s = SurdSum.from_surd(Surd.of(1, 2)) - SurdSum.from_surd(Surd.of(1, 3))
        assert s.to_float() == pytest.approx(math.sqrt(2) - math.sqrt(3), abs=1e-15)

    def test_to_float_resolves_tiny(self):
        # float64 subtraction of the parts loses everything; the exact
        # path keeps ~30 significant digits
        with mpmath.workdps(60):
            v = mpmath.sqrt(2) + mpmath.sqrt(3)
            c = Fraction(int(mpmath.floor(v * 10**20)), 10**20)
            expect = float(v - mpmath.mpf(c.numerator) / c.denominator)
        s = (
            SurdSum.from_surd(Surd.of(1, 2))
            + SurdSum.from_surd(Surd.of(1, 3))
            - SurdSum.rational(c)
        )
        assert s.to_float(bits=256) == pytest.approx(expect, rel=1e-12)

    def test_sqrt_to_float(self):
        # sqrt(2 - sqrt(3)) = 0.5176...
        s = SurdSum.rational(2) - SurdSum.from_surd(Surd.of(1, 3))
        assert s.sqrt_to_float() == pytest.approx(
            math.sqrt(2 - math.sqrt(3)), abs=1e-15
        )

    def test_repr_readable(self):
        s = SurdSum.rational(2) - SurdSum.from_surd(Surd.of(1, 3))
        assert repr(s) == "2 - sqrt(3)"
