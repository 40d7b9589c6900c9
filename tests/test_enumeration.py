"""Ground sets and direction clouds."""

import csv
import random

import numpy as np
import pytest

from directions.construction import construct
from directions.core import primitive
from directions.enumeration import (
    DEFAULT_BUDGET,
    budget,
    cloud_metadata,
    directions,
    explicit_ground_set,
    export_csv,
    ground_set,
)
from directions.errors import DomainError, ResourceError
from directions.targets import FULL_SPHERE, TargetSpec

from oracles import brute_directions


class TestGroundSet:
    def test_naturals(self):
        assert ground_set("naturals", 10).elements == tuple(range(1, 11))

    def test_primes(self):
        assert ground_set("primes", 20).elements == (2, 3, 5, 7, 11, 13, 17, 19)

    def test_prime_count_to_1e5(self):
        assert len(ground_set("primes", 100_000).elements) == 9592

    def test_powers(self):
        assert ground_set("powers-of-2", 100).elements == (1, 2, 4, 8, 16, 32, 64)
        assert ground_set("powers-of-3", 100).elements == (1, 3, 9, 27, 81)

    def test_poly(self):
        assert ground_set("poly-2", 50).elements == (1, 4, 9, 16, 25, 36, 49)
        assert ground_set("poly-3", 100).elements == (1, 8, 27, 64)

    def test_explicit_sorts_and_dedups(self):
        assert explicit_ground_set([3, 3, 5]).elements == (3, 5)
        assert explicit_ground_set([5, 3]).elements == (3, 5)
        with pytest.raises(DomainError):
            explicit_ground_set([0, 1])

    def test_raw_constructor_demands_increasing(self):
        from directions.enumeration import GroundSet

        with pytest.raises(DomainError):
            GroundSet(rule="explicit", elements=(5, 3), bound=5)

    def test_unknown_rule(self):
        with pytest.raises(DomainError):
            ground_set("fibonacci", 10)

    def test_bound_over_budget(self):
        with pytest.raises(ResourceError):
            ground_set("naturals", DEFAULT_BUDGET + 1)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("DIRECTIONS_BUDGET", "1000")
        assert budget() == 1000
        with pytest.raises(ResourceError):
            ground_set("naturals", 1001)
        monkeypatch.setenv("DIRECTIONS_BUDGET", "junk")
        with pytest.raises(ResourceError):
            budget()


class TestDirections:
    def test_small_cloud(self):
        A = explicit_ground_set([1, 2, 4])
        cloud = directions(A, 2)
        assert cloud.count == 5
        assert cloud.as_set() == {(1, 1), (1, 2), (1, 4), (2, 1), (4, 1)}

    def test_distinct_entries(self):
        A = explicit_ground_set([1, 2, 3])
        cloud = directions(A, 2, True)
        assert cloud.as_set() == {
            (1, 2),
            (1, 3),
            (2, 1),
            (2, 3),
            (3, 1),
            (3, 2),
        }

    def test_repetition_changes_the_cloud(self):
        # {1,2,4} with repetition reaches the diagonal, distinct does not
        A = explicit_ground_set([1, 2, 4])
        with_rep = directions(A, 2).as_set()
        without = directions(A, 2, True).as_set()
        assert (1, 1) in with_rep
        assert (1, 1) not in without
        assert (1, 2) in without  # (2, 4) reduces to it

    def test_matches_brute_force(self):
        rng = random.Random(915)
        for _ in range(25):
            n = rng.randint(2, 6)
            A = explicit_ground_set(
                sorted(rng.sample(range(1, 60), n))
            )
            for k in (2, 3):
                if len(A.elements) < k:
                    continue
                for distinct in (False, True):
                    got = directions(A, k, distinct).as_set()
                    want = brute_directions(A.elements, k, distinct)
                    assert got == want, (A.elements, k, distinct)

    def test_big_int_path_matches(self):
        # elements past the int64 safety line fall back to python ints
        base = 1 << 62
        A = explicit_ground_set([base + 1, base + 2, base + 3])
        got = directions(A, 2, True).as_set()
        want = brute_directions(A.elements, 2, True)
        assert got == want
        # sampled: seeded random.Random draws, k indices per tuple, in order
        rng = random.Random(4)
        drawn = [
            tuple(A.elements[rng.randrange(3)] for _ in range(2))
            for _ in range(5)
        ]
        got = directions(A, 2, True, sample=5, seed=4)
        assert got.sampled and not isinstance(got.rows, np.ndarray)
        assert got.as_set() == {primitive(t) for t in drawn if t[0] != t[1]}

    def test_k_below_two_rejected(self):
        A = explicit_ground_set([1, 2])
        with pytest.raises(DomainError):
            directions(A, 1)

    def test_distinct_needs_enough_elements(self):
        A = explicit_ground_set([1, 2])
        with pytest.raises(DomainError):
            directions(A, 3, True)

    def test_tuple_budget(self, monkeypatch):
        monkeypatch.setenv("DIRECTIONS_BUDGET", "100")
        A = explicit_ground_set(list(range(1, 12)))
        with pytest.raises(ResourceError):
            directions(A, 2)  # 121 tuples > 100

    def test_unit_points_are_unit(self):
        A = explicit_ground_set([1, 2, 5])
        pts = directions(A, 2).unit_points()
        norms = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_big_int_unit_points_are_unit(self):
        # entries past ~1e154 overflow a plain float squared norm
        A = construct(TargetSpec(kind=FULL_SPHERE, k=2), 110)
        assert A.elements[-1] > 10**155
        cloud = directions(A, 2)
        pts = cloud.unit_points()
        norms = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(norms, 1.0, atol=1e-12)
        # rows whose squared norm fits a float come out bit for bit as a
        # plain float conversion gives them
        fits = np.array([max(row) < 10**150 for row in cloud.rows])
        plain = np.array([[float(c) for c in row] for row in cloud.rows])[fits]
        want = plain / np.linalg.norm(plain, axis=1, keepdims=True)
        assert fits.sum() > 1000 and np.array_equal(pts[fits], want)


class TestSampling:
    def test_sampled_flag_and_determinism(self):
        A = ground_set("naturals", 200)
        a = directions(A, 3, sample=5000, seed=42)
        b = directions(A, 3, sample=5000, seed=42)
        assert a.sampled and a.sample_size == 5000 and a.seed == 42
        assert a.as_set() == b.as_set()

    def test_different_seed_differs(self):
        A = ground_set("naturals", 200)
        a = directions(A, 3, sample=2000, seed=1)
        b = directions(A, 3, sample=2000, seed=2)
        assert a.as_set() != b.as_set()

    def test_sample_is_subset_of_exhaustive(self):
        A = ground_set("naturals", 30)
        full = directions(A, 2).as_set()
        samp = directions(A, 2, sample=500, seed=3).as_set()
        assert samp <= full

    def test_sampled_distinct_respects_flag(self):
        A = ground_set("naturals", 50)
        cloud = directions(A, 2, True, sample=3000, seed=5)
        for row in cloud.as_set():
            assert row[0] != row[1]


class TestExport:
    def test_csv_layout(self, tmp_path):
        A = explicit_ground_set([1, 2])
        cloud = directions(A, 2)
        path = tmp_path / "cloud.csv"
        export_csv(cloud, str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw  # LF only
        rows = list(csv.reader(raw.decode().splitlines()))
        assert rows[0] == ["c0", "c1"]
        got = {tuple(int(v) for v in r) for r in rows[1:]}
        assert got == {(1, 1), (1, 2), (2, 1)}

    def test_csv_rows_sorted(self, tmp_path):
        A = explicit_ground_set([2, 3, 5])
        path = tmp_path / "cloud.csv"
        export_csv(directions(A, 2), str(path))
        body = path.read_text().splitlines()[1:]
        assert body == sorted(body, key=lambda r: [int(v) for v in r.split(",")])

    def test_json_metadata(self):
        A = ground_set("primes", 20)
        cloud = directions(A, 2, True)
        md = cloud_metadata(cloud)
        assert md == {
            "schema_version": 1,
            "rule": "primes",
            "N": 20,
            "k": 2,
            "distinct": True,
            "sampled": False,
            "count": cloud.count,
        }

    def test_rerun_byte_identical(self, tmp_path):
        A = ground_set("naturals", 40)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(directions(A, 2), str(p1))
        export_csv(directions(A, 2), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
