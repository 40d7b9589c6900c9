"""Target sets: exact points, closure, validation, dense enumeration."""

import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

from directions.density import sphere_net
from directions.enumeration import unit_rows
from directions.errors import DomainError, ResourceError
from directions.targets import (
    FINITE,
    FULL_SPHERE,
    HYPERPLANE,
    TargetPoint,
    TargetSpec,
    close_generators,
    dense_prefix,
    enumerate_dense,
    load_spec,
    save_spec,
    validate_target,
)

from oracles import canonical_order, float_closure, mp_unit


def keys(points):
    return {p.key() for p in points}


class TestTargetPoint:
    def test_key_is_scale_invariant(self):
        a = TargetPoint.from_ints(1, 2)
        b = TargetPoint.from_ints(3, 6)
        assert a.key() == b.key()
        assert a.key() != TargetPoint.from_ints(2, 1).key()

    def test_key_separates_irrational_ratios(self):
        a = TargetPoint.from_qr([(1, 1), (1, 2)])  # (1, sqrt(2))
        b = TargetPoint.from_qr([(1, 1), (Fraction(3, 2), 1)])  # (1, 1.5)
        assert a.key() != b.key()

    def test_unit_matches_mpmath(self):
        coords = [(1, 1), (1, 2), (Fraction(2, 3), 5)]
        got = TargetPoint.from_qr(coords).unit()
        want = mp_unit([(q, r) for q, r in coords])
        assert got == pytest.approx(want, abs=1e-14)

    def test_norm_sq_rational(self):
        p = TargetPoint.from_qr([(1, 2), (1, 3)])
        assert p.norm_sq == Fraction(5)

    def test_distance_sq_known_pair(self):
        # ||rho(1,1) - rho(1,2)||^2 = 2 - 6/sqrt(10)
        a = TargetPoint.from_ints(1, 1)
        b = TargetPoint.from_ints(1, 2)
        d2 = a.distance_sq(b)
        want = 2 - 6 / math.sqrt(10)
        assert d2.to_float() == pytest.approx(want, abs=1e-15)

    def test_distance_sq_symmetric_and_zero_on_self(self):
        a = TargetPoint.from_ints(2, 3, 5)
        b = TargetPoint.from_ints(1, 1, 4)
        assert a.distance_sq(b).compare(b.distance_sq(a)) == 0
        assert a.distance_sq(a).is_zero()

    def test_restricted_renames_direction(self):
        p = TargetPoint.from_ints(3, 4, 5)
        q = p.restricted([0, 2])
        assert q.key() == TargetPoint.from_ints(3, 0, 5).key()

    def test_restriction_has_a_fresh_points_identity(self):
        p = TargetPoint.from_qr([(1, 1), (1, 2), (Fraction(2, 3), 5)])
        q = p.restricted([0, 2])
        assert q.squares == TargetPoint(q.coords).squares == (9, 0, 20)

    def test_restricted_needs_support(self):
        p = TargetPoint.from_ints(1, 0, 2)
        with pytest.raises(DomainError):
            p.restricted([1])

    def test_rejects_negative_and_zero(self):
        with pytest.raises(DomainError):
            TargetPoint.from_ints(1, -2)
        with pytest.raises(DomainError):
            TargetPoint.from_ints(0, 0)


class TestClosure:
    def test_single_rational_generator(self):
        spec = close_generators([TargetPoint.from_ints(1, 2)])
        assert spec.kind == FINITE and spec.k == 2
        assert len(spec.points) == 4
        want = keys(
            [
                TargetPoint.from_ints(1, 2),
                TargetPoint.from_ints(2, 1),
                TargetPoint.from_ints(1, 0),
                TargetPoint.from_ints(0, 1),
            ]
        )
        assert keys(spec.points) == want

    def test_diagonal_k3(self):
        spec = close_generators([TargetPoint.from_ints(1, 1, 1)])
        assert len(spec.points) == 7  # diagonal, three pair diagonals, three axes

    def test_generic_k3(self):
        spec = close_generators([TargetPoint.from_ints(1, 2, 3)])
        assert len(spec.points) == 27

    def test_irrational_generator(self):
        eta = TargetPoint.from_qr([(1, 1), (1, 2), (0, 1)])
        spec = close_generators([eta])
        assert len(spec.points) == 9

    def test_matches_float_oracle(self):
        cases = [
            [(1.0, 2.0)],
            [(1.0, 1.0, 1.0)],
            [(1.0, 2.0, 3.0)],
            [(1.0, math.sqrt(2), 0.0)],
            [(1.0, 4.0), (2.0, 3.0)],
        ]
        gens = [
            [TargetPoint.from_ints(1, 2)],
            [TargetPoint.from_ints(1, 1, 1)],
            [TargetPoint.from_ints(1, 2, 3)],
            [TargetPoint.from_qr([(1, 1), (1, 2), (0, 1)])],
            [TargetPoint.from_ints(1, 4), TargetPoint.from_ints(2, 3)],
        ]
        for floats, points in zip(cases, gens):
            spec = close_generators(points)
            oracle = float_closure(floats)
            assert len(spec.points) == len(oracle)
            got = sorted(p.unit() for p in spec.points)
            want = sorted(oracle)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9)

    def test_closure_is_idempotent(self):
        spec = close_generators([TargetPoint.from_ints(1, 2, 3)])
        again = close_generators(spec.points)
        assert keys(again.points) == keys(spec.points)

    def test_generic_generator_refused_before_expansion(self, monkeypatch):
        # Σ_j C(10, j) 10!/(10 - j)! ~ 2.3e8 arrangements at k=10, so the
        # default budget refuses it before building any; at k=18 the
        # C(36, 18) - 1 lower bound refuses it before walking 2^18 masks
        monkeypatch.delenv("DIRECTIONS_BUDGET", raising=False)
        for k in (10, 18):
            start = time.perf_counter()
            with pytest.raises(ResourceError):
                close_generators([TargetPoint.from_ints(*range(1, k + 1))])
            assert time.perf_counter() - start < 1.0
        # 13,326 arrangements at k=6, where 1,000 is allowed
        monkeypatch.setenv("DIRECTIONS_BUDGET", "1000")
        with pytest.raises(ResourceError):
            close_generators([TargetPoint.from_ints(*range(1, 7))])

    def test_sparse_generator_closes_at_k10(self, monkeypatch):
        monkeypatch.delenv("DIRECTIONS_BUDGET", raising=False)
        eta = TargetPoint.from_qr([(1, 1), (1, 2)] + [(0, 1)] * 8)
        assert len(close_generators([eta]).points) == 100

    def test_rejects_empty_and_mixed_dims(self):
        with pytest.raises(DomainError):
            close_generators([])
        with pytest.raises(DomainError):
            close_generators(
                [TargetPoint.from_ints(1, 2), TargetPoint.from_ints(1, 2, 3)]
            )


class TestValidate:
    def test_closure_is_valid(self):
        spec = close_generators([TargetPoint.from_ints(1, 2)])
        rep = validate_target(spec)
        assert rep.passed
        assert rep.permutation_ok and rep.projection_ok

    def test_images_are_checked_on_keys_alone(self):
        # no image is built as a point: each is a key computed from a key
        gen = TargetPoint.from_qr([(1, 1), (1, 2), (2, 3), (0, 1)])
        spec = close_generators([gen])
        short = TargetSpec(kind=FINITE, k=4, points=spec.points[1:])
        with mock.patch.object(TargetPoint, "__post_init__", side_effect=AssertionError):
            assert validate_target(spec).passed
            assert not validate_target(short).passed

    def test_builtins_valid_by_construction(self):
        for kind, k in ((FULL_SPHERE, 2), (FULL_SPHERE, 3), (HYPERPLANE, 3)):
            rep = validate_target(TargetSpec(kind=kind, k=k))
            assert rep.passed

    def test_missing_permutation_detected(self):
        bad = TargetSpec(
            kind=FINITE,
            k=2,
            points=(
                TargetPoint.from_ints(1, 2),
                TargetPoint.from_ints(1, 0),
                TargetPoint.from_ints(0, 1),
            ),
        )
        rep = validate_target(bad)
        assert not rep.passed
        assert not rep.permutation_ok
        assert rep.witnesses  # names the offending point

    def test_missing_projection_detected(self):
        bad = TargetSpec(
            kind=FINITE,
            k=2,
            points=(
                TargetPoint.from_ints(1, 2),
                TargetPoint.from_ints(2, 1),
            ),
        )
        rep = validate_target(bad)
        assert not rep.passed
        assert not rep.projection_ok

    def test_swap_symmetry_iff_valid_k2(self):
        # for k=2 finite sets containing both axes, validity is exactly
        # closure under the swap
        axes = [TargetPoint.from_ints(1, 0), TargetPoint.from_ints(0, 1)]
        sym = TargetSpec(
            kind=FINITE,
            k=2,
            points=tuple(
                axes
                + [TargetPoint.from_ints(1, 3), TargetPoint.from_ints(3, 1)]
            ),
        )
        asym = TargetSpec(
            kind=FINITE,
            k=2,
            points=tuple(axes + [TargetPoint.from_ints(1, 3)]),
        )
        assert validate_target(sym).passed
        assert not validate_target(asym).passed


class TestEnumeration:
    def test_orthant_k2_head(self):
        s = TargetSpec(kind=FULL_SPHERE, k=2)
        heads = [enumerate_dense(s, m).key() for m in range(1, 6)]
        want = [
            TargetPoint.from_ints(1, 0).key(),
            TargetPoint.from_ints(0, 1).key(),
            TargetPoint.from_ints(1, 1).key(),
            TargetPoint.from_ints(1, 2).key(),
            TargetPoint.from_ints(2, 1).key(),
        ]
        assert heads == want

    def test_hyperplane_k3_head(self):
        s = TargetSpec(kind=HYPERPLANE, k=3)
        heads = [enumerate_dense(s, m).key() for m in range(1, 7)]
        want = [
            TargetPoint.from_ints(1, 0, 0).key(),
            TargetPoint.from_ints(0, 1, 0).key(),
            TargetPoint.from_ints(0, 0, 1).key(),
            TargetPoint.from_ints(1, 1, 0).key(),
            TargetPoint.from_ints(1, 0, 1).key(),
            TargetPoint.from_ints(0, 1, 1).key(),
        ]
        assert heads == want

    def test_hyperplane_boundary_only(self):
        # every enumerated point keeps at least one zero coordinate
        s = TargetSpec(kind=HYPERPLANE, k=3)
        for m in range(1, 60):
            p = enumerate_dense(s, m)
            assert any(c.is_zero() for c in p.coords)

    def test_enumeration_deterministic_and_duplicate_free(self):
        s = TargetSpec(kind=FULL_SPHERE, k=3)
        first = [enumerate_dense(s, m).key() for m in range(1, 80)]
        second = [enumerate_dense(s, m).key() for m in range(1, 80)]
        assert first == second
        assert len(set(first)) == len(first)

    def test_finite_cycles(self):
        spec = close_generators([TargetPoint.from_ints(1, 2)])
        order = canonical_order(spec.points)
        n = len(order)
        for m in range(1, 3 * n + 1):
            assert enumerate_dense(spec, m).key() == order[(m - 1) % n].key()

    def test_dense_prefix_matches_pointwise(self):
        s = TargetSpec(kind=HYPERPLANE, k=3)
        pre = dense_prefix(s, 12)
        assert len(pre) == 12
        for i, p in enumerate(pre, start=1):
            assert p.key() == enumerate_dense(s, i).key()

    def test_rejects_bad_index(self):
        s = TargetSpec(kind=FULL_SPHERE, k=2)
        with pytest.raises(DomainError):
            enumerate_dense(s, 0)

    def test_prefix_streams_past_the_budget(self, monkeypatch):
        # levels are generated in order, not scanned, so a small budget
        # caps nothing: level 1 at k=30 alone has 2^30 - 1 points
        monkeypatch.setenv("DIRECTIONS_BUDGET", "100")
        head = dense_prefix(TargetSpec(kind=FULL_SPHERE, k=30), 3)
        want = [
            TargetPoint.from_ints(*(int(i == j) for i in range(30)))
            for j in range(3)
        ]
        assert [p.key() for p in head] == [p.key() for p in want]
        assert len(dense_prefix(TargetSpec(kind=HYPERPLANE, k=3), 20)) == 20

    def test_orthant_prefix_becomes_dense(self):
        s = TargetSpec(kind=FULL_SPHERE, k=2)
        net = sphere_net(2, 0.01)
        radii = []
        for M in (200, 1000):
            pts = np.array([p.unit() for p in dense_prefix(s, M)])
            d, _ = cKDTree(pts).query(unit_rows(net.whole()))
            radii.append(float(d.max()))
        assert radii[0] < 0.05
        assert radii[1] <= radii[0]
        assert radii[0] == pytest.approx(0.0255, abs=2e-3)


class TestSpecIO:
    def test_round_trip(self, tmp_path):
        eta = TargetPoint.from_qr([(1, 1), (1, 2), (0, 1)])
        spec = close_generators([eta, TargetPoint.from_ints(2, 3, 6)])
        path = tmp_path / "spec.json"
        save_spec(spec, str(path))
        back = load_spec(str(path))
        assert back.kind == spec.kind and back.k == spec.k
        assert keys(back.points) == keys(spec.points)

    def test_builtin_round_trip(self, tmp_path):
        spec = TargetSpec(kind=HYPERPLANE, k=4)
        path = tmp_path / "spec.json"
        save_spec(spec, str(path))
        back = load_spec(str(path))
        assert back.kind == HYPERPLANE and back.k == 4

    def test_load_closes_generators(self, tmp_path):
        # a file naming only one generator still loads as a closed set
        path = tmp_path / "gen.json"
        path.write_text(
            '{"k": 2, "kind": "finite-set",'
            ' "generators": [[{"q": "1", "r": 1}, {"q": "2", "r": 1}]]}'
        )
        back = load_spec(str(path))
        assert len(back.points) == 4


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            TargetSpec(kind="mystery", k=2)

    def test_k_too_small(self):
        with pytest.raises(DomainError):
            TargetSpec(kind=FULL_SPHERE, k=1)

    def test_finite_needs_points(self):
        with pytest.raises(DomainError):
            TargetSpec(kind=FINITE, k=2)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            TargetSpec(
                kind=FINITE, k=3, points=(TargetPoint.from_ints(1, 2),)
            )
