"""Vector primitives: normalization, reduction, distance."""

import math
import random

import pytest

from directions.core import distance, is_unit, norm, normalize, primitive
from directions.errors import DomainError


class TestNormalize:
    def test_three_four(self):
        assert normalize((3, 4)) == pytest.approx((0.6, 0.8), abs=1e-15)

    def test_unit_output(self):
        assert is_unit(normalize((7, 1, 5)))

    def test_idempotent(self):
        x = normalize((2, 5, 9))
        assert normalize(x) == pytest.approx(x, abs=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            normalize((0.0, 0.0))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            normalize((1.0, -2.0))

    def test_norm_is_stable_sum(self):
        assert norm((3, 4)) == 5.0
        assert norm((1,) * 4) == 2.0


class TestPrimitive:
    def test_reduces_gcd(self):
        assert primitive((4, 6)) == (2, 3)
        assert primitive((10, 15, 20)) == (2, 3, 4)
        assert primitive((7, 11)) == (7, 11)

    def test_zero_entries_allowed(self):
        assert primitive((0, 4, 6)) == (0, 2, 3)

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            primitive((0, 0))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            primitive((-2, 4))

    def test_agrees_with_normalize(self):
        # the primitive tuple and the raw tuple name the same direction
        rng = random.Random(20260822)
        for _ in range(300):
            k = rng.randint(2, 6)
            x = tuple(rng.randint(0, 10**6) for _ in range(k))
            if not any(x):
                continue
            assert distance(normalize(primitive(x)), normalize(x)) <= 1e-9


class TestDistance:
    def test_euclidean(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_known_pair(self):
        # unit vectors of (1,1) and (1,2)
        d = distance(normalize((1, 1)), normalize((1, 2)))
        assert d == pytest.approx(math.sqrt(2 - 6 / math.sqrt(10)), abs=1e-15)
        assert d == pytest.approx(0.3203644860139344, abs=1e-12)
