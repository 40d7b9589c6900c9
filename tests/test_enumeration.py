"""Ground sets and direction clouds."""

import ast
import csv
import io
import math
import random
from pathlib import Path

import numpy as np
import pytest

from directions import enumeration
from directions.cli import main
from directions.construction import construct
from directions.core import primitive
from directions.enumeration import (
    DEFAULT_BUDGET,
    budget,
    check_budget,
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


def _budget_sites(path):
    """(file, innermost function) of every budget() call and every raise
    of a ResourceError in one source file."""
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    sites = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and name(node.func) == "budget":
            sites.add((path.name, owner))
        if isinstance(node, ast.Raise) and node.exc is not None:
            if name(getattr(node.exc, "func", node.exc)) == "ResourceError":
                sites.add((path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


class TestBudgetGate:
    def test_policy_lives_in_one_place(self):
        # every input-sized allocation asks check_budget, so the budget is
        # read and refused there (and in budget() itself) and nowhere else
        package = Path(enumeration.__file__).parent
        sites = set().union(*map(_budget_sites, package.glob("*.py")))
        assert sites == {
            ("enumeration.py", "budget"),
            ("enumeration.py", "check_budget"),
        }

    def test_refusal_names_what_size_and_cap(self, monkeypatch):
        monkeypatch.setenv("DIRECTIONS_BUDGET", "10")
        check_budget(10, "widgets")
        with pytest.raises(ResourceError) as info:
            check_budget(11, "widgets")
        for part in ("widgets", "11", "10", "DIRECTIONS_BUDGET"):
            assert part in str(info.value)
        # str() refuses an int past sys.get_int_max_str_digits() digits
        with pytest.raises(ResourceError, match="a 16610-bit number exceeds"):
            check_budget(10**5000, "widgets")


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
        # elements past the int64 safety line ride in object arrays
        base = 1 << 62
        A = explicit_ground_set([base + 1, base + 2, base + 3])
        got = directions(A, 2, True).as_set()
        want = brute_directions(A.elements, 2, True)
        assert got == want
        # sampled: the same default_rng index draw as at every element width
        idx = np.random.default_rng(4).integers(0, 3, size=(5, 2))
        drawn = [tuple(A.elements[i] for i in row) for row in idx.tolist()]
        got = directions(A, 2, True, sample=5, seed=4)
        assert got.sampled and got.rows.dtype == object
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

    def test_sampled_draw_entries_budget(self, monkeypatch):
        # the draw holds sample x k indices: 10 x 50 = 500 > 100
        monkeypatch.setenv("DIRECTIONS_BUDGET", "100")
        A = explicit_ground_set(list(range(1, 12)))
        with pytest.raises(ResourceError, match="sampled draw entries: 500"):
            directions(A, 50, sample=10)
        assert directions(A, 10, sample=10).sampled  # 100 entries pass

    def test_huge_k_refused_before_n_to_the_k(self):
        # 2^k <= n^k is charged first, so 1000^3000000 is never built
        A = ground_set("naturals", 1000)
        with pytest.raises(ResourceError, match=r"at least 2\^3000000"):
            directions(A, 3_000_000)

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
        rows = cloud._full_rows.tolist()  # unit_points follows this order
        fits = np.array([max(row) < 10**150 for row in rows])
        plain = np.array([[float(c) for c in row] for row in rows])[fits]
        want = plain / np.linalg.norm(plain, axis=1, keepdims=True)
        assert fits.sum() > 1000 and np.array_equal(pts[fits], want)


class TestBlockMerge:
    """Clouds spread over several index blocks merge in lexicographic order."""

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_rows_sorted_across_blocks(self, monkeypatch, chunk, distinct, k):
        monkeypatch.setattr(enumeration, "_CHUNK", chunk)
        # shift 62 puts every element past int64 and into object blocks
        for shift in (0, 62):
            A = explicit_ground_set([e << shift for e in (1, 2, 3, 4, 6, 9)])
            cloud = directions(A, k, distinct)
            want = sorted(brute_directions(A.elements, k, distinct))
            # rows hold the sorted chamber; iteration expands it
            assert [tuple(r) for r in cloud.rows] == [
                r for r in want if list(r) == sorted(r)
            ]
            assert list(map(tuple, cloud._full_rows.tolist())) == want

    def test_every_piece_empty(self):
        # one index to draw from: every distinct-mode draw repeats it, so
        # the masked block is empty
        elems = np.array([7], dtype=np.int64)
        blocks = enumeration._sampled_block(1, 3, 5, 0, True)
        rows = enumeration._reduce_numpy(elems, 3, blocks)
        assert rows.shape == (0, 3) and rows.dtype == np.int64


class TestIteration:
    def test_slices_match_rows(self, tmp_path):
        cloud = directions(ground_set("naturals", 400), 2)
        assert cloud.count > enumeration._ITER_ROWS
        full = cloud._full_rows
        want = [tuple(int(c) for c in row) for row in full]
        got = cloud.as_set()
        assert got == set(want)
        assert all(type(c) is int for row in got for c in row)
        # the CSV is what a writer fed one int() per entry produces
        path = tmp_path / "cloud.csv"
        export_csv(cloud, str(path))
        old = io.StringIO()
        writer = csv.writer(old, lineterminator="\n")
        writer.writerow(["c0", "c1"])
        writer.writerows([int(c) for c in row] for row in full)
        assert path.read_text(encoding="utf-8") == old.getvalue()

    def test_one_expansion_for_csv_and_unit_rows(self, tmp_path, monkeypatch):
        calls = []
        expand = enumeration.orbit_rows
        monkeypatch.setattr(
            enumeration, "orbit_rows", lambda rows: calls.append(1) or expand(rows)
        )
        out, unit_out = tmp_path / "cloud.csv", tmp_path / "unit.csv"
        argv = ["enumerate", "--rule", "naturals", "--N", "20", "--k", "3",
                "--out", str(out), "--unit-out", str(unit_out),
                "--meta-out", str(tmp_path / "meta.json")]
        assert main(argv) == 0
        assert len(calls) == 1
        # the CSV and the unit rows still list the same directions in order
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        units = np.loadtxt(unit_out, delimiter=",", skiprows=1)
        assert len(rows) == len(units)
        assert np.allclose(rows / np.linalg.norm(rows, axis=1, keepdims=True), units)


class TestChamber:
    @pytest.mark.parametrize("shift", [0, 62])
    @pytest.mark.parametrize("distinct", [False, True])
    def test_count_matches_rows_out(self, tmp_path, distinct, shift):
        # k=4 over five elements: most tuples repeat an entry, so orbit
        # sizes k!/prod(m!) vary from row to row
        A = explicit_ground_set([e << shift for e in (1, 2, 3, 4, 6)])
        cloud = directions(A, 4, distinct)
        want = brute_directions(A.elements, 4, distinct)
        path = tmp_path / "cloud.csv"
        export_csv(cloud, str(path))
        csv_rows = len(path.read_text().splitlines()) - 1
        assert cloud.count == len(cloud._full_rows) == csv_rows == len(want)
        assert len(cloud.rows) < cloud.count

    def test_count_is_exact_past_int64(self, monkeypatch):
        # 21! and 24!/4! both pass 2^63, so they are summed in Python ints
        monkeypatch.setenv("DIRECTIONS_BUDGET", str(10**30))
        cloud = directions(ground_set("naturals", 21), 21, True)
        assert cloud.count == math.factorial(21)
        cloud = directions(ground_set("naturals", 24), 20, True)
        assert cloud.count == math.factorial(24) // math.factorial(4)


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

    @pytest.mark.parametrize("shift", [0, 62])
    def test_negative_seed_rejected(self, shift):
        A = explicit_ground_set([e << shift for e in (1, 2, 3)])
        with pytest.raises(DomainError, match="seed"):
            directions(A, 2, sample=5, seed=-1)

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
