"""Sphere nets, covering radii, ratio gaps, witness tuples."""

import math

import numpy as np
import pytest

from directions.density import (
    audit_net,
    chain_check,
    covering_radius,
    ratio_gap,
    sphere_net,
    witness_tuple,
)
from directions.enumeration import directions, explicit_ground_set, ground_set
from directions.errors import DomainError, ResourceError


class TestSphereNet:
    def test_k2_coarse(self):
        net = sphere_net(2, 1.0)
        assert net.size == 5
        assert net.denominator == 2
        want = {
            (1.0, 0.0),
            (0.0, 1.0),
            (0.8944271909999159, 0.4472135954999579),
            (0.4472135954999579, 0.8944271909999159),
            (0.7071067811865475, 0.7071067811865475),
        }
        assert {tuple(p) for p in net.points.tolist()} == want

    def test_k2_fine(self):
        net = sphere_net(2, 0.01)
        assert net.size == 401
        assert net.denominator == 200

    def test_points_are_unit_and_nonnegative(self):
        net = sphere_net(3, 0.2)
        norms = np.linalg.norm(net.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert (net.points >= 0).all()

    def test_mesh_bound_audited(self):
        # random unit vectors in the orthant all fall within h of the net
        for k, h in ((2, 0.05), (3, 0.2), (4, 0.5)):
            net = sphere_net(k, h)
            worst, ok = audit_net(net, 10_000, seed=0)
            assert ok
            assert worst <= h

    def test_audit_frozen_value(self):
        net = sphere_net(3, 0.2)
        worst, ok = audit_net(net, 10_000, seed=0)
        assert ok
        assert worst == pytest.approx(0.045772982779069875, abs=1e-12)

    def test_budget(self):
        with pytest.raises(ResourceError):
            sphere_net(6, 0.001)

    def test_rejects_bad_mesh(self):
        with pytest.raises(DomainError):
            sphere_net(2, 0.0)
        with pytest.raises(DomainError):
            sphere_net(1, 0.1)


class TestCoveringRadius:
    def test_matches_brute_force(self):
        net = sphere_net(2, 0.05)
        cloud = directions(explicit_ground_set([1, 2, 3, 5, 8]), 2)
        rep = covering_radius(cloud, net)
        pts = cloud.unit_points()
        worst = max(
            min(math.dist(q, p) for p in pts) for q in net.points
        )
        assert rep.covering_radius == pytest.approx(worst, abs=1e-12)

    def test_powers_of_two_plateau(self):
        # doubling sets never fill the circle; the hole near the midpoint
        # of rho(1,1) and rho(1,2) stays put no matter how far N grows
        net = sphere_net(2, 0.01)
        cloud = directions(ground_set("powers-of-2", 10_000), 2)
        rep = covering_radius(cloud, net)
        assert rep.covering_radius == pytest.approx(
            0.16020362831583865, abs=1e-12
        )
        assert rep.covering_radius >= 0.15
        mid = np.array([0.8115343414514944, 0.584304725845076])
        assert np.allclose(rep.argmax_net_point, mid, atol=1e-12)

    def test_naturals_shrink(self):
        net = sphere_net(2, 0.01)
        eps = []
        for N in (10, 100, 1000):
            cloud = directions(ground_set("naturals", N), 2)
            eps.append(covering_radius(cloud, net).covering_radius)
        assert eps[0] > eps[1] > eps[2]
        assert eps[2] < 0.01

    def test_report_fields(self):
        net = sphere_net(2, 0.05)
        cloud = directions(ground_set("primes", 50), 2)
        rep = covering_radius(cloud, net)
        d = rep.to_dict()
        assert d["k"] == 2 and d["h"] == 0.05
        assert d["cloud_rule"] == "primes" and d["N"] == 50
        assert d["distinct"] is False and d["sampled"] is False
        assert 0 < d["covering_radius"] < 2

    def test_rejects_empty_cloud(self):
        net = sphere_net(2, 0.1)
        empty = directions(explicit_ground_set([]), 2)
        with pytest.raises(DomainError):
            covering_radius(empty, net)

    def test_rejects_dimension_mismatch(self):
        net = sphere_net(3, 0.2)
        cloud = directions(explicit_ground_set([1, 2]), 2)
        with pytest.raises(DomainError):
            covering_radius(cloud, net)


class TestRatioGap:
    def test_naturals(self):
        stat = ratio_gap(ground_set("naturals", 1000), 4)
        assert stat.windows == ((1, 250), (251, 500), (501, 750), (751, 999))
        want = (1.0, 1 / 251, 1 / 501, 1 / 751)
        assert stat.trend == pytest.approx(want, rel=1e-12)
        assert stat.max_gap == 1.0

    def test_powers_never_shrink(self):
        stat = ratio_gap(ground_set("powers-of-2", 1000), 3)
        assert stat.trend == pytest.approx((1.0, 1.0, 1.0), abs=0.0)

    def test_primes_shrink(self):
        stat = ratio_gap(ground_set("primes", 10_000), 4)
        assert stat.trend[0] == pytest.approx(2 / 3, rel=1e-12)
        for a, b in zip(stat.trend[1:], stat.trend[2:]):
            assert b < a

    def test_needs_enough_elements(self):
        with pytest.raises(DomainError):
            ratio_gap(explicit_ground_set([5]), 2)
        with pytest.raises(DomainError):
            ratio_gap(ground_set("naturals", 10), 20)


class TestWitness:
    def test_small_m(self):
        A = ground_set("naturals", 100_000)
        assert witness_tuple(A, (0.6, 0.8), 10) == (7, 9)
        assert witness_tuple(A, (0.6, 0.8), 12) == (8, 10)

    def test_m_1000(self):
        A = ground_set("naturals", 100_000)
        picks = witness_tuple(A, (0.6, 0.8), 1000)
        assert picks == (601, 801)
        n = math.hypot(*picks)
        err = math.dist((picks[0] / n, picks[1] / n), (0.6, 0.8))
        assert err < 5e-3

    def test_primes(self):
        P = ground_set("primes", 100_000)
        picks = witness_tuple(P, (0.6, 0.8), 1000)
        assert picks == (601, 809)
        for v in picks:
            assert v in P.elements

    def test_error_shrinks_with_m(self):
        A = ground_set("naturals", 100_000)
        errs = []
        for m in (10, 100, 1000, 10_000):
            picks = witness_tuple(A, (0.6, 0.8), m)
            n = math.hypot(*picks)
            errs.append(math.dist((picks[0] / n, picks[1] / n), (0.6, 0.8)))
        assert errs[0] > errs[2] > errs[3]
        assert errs[3] < 5e-4

    def test_three_dims(self):
        A = ground_set("naturals", 100_000)
        x = (3 / 13, 4 / 13, 12 / 13)
        picks = witness_tuple(A, x, 500)
        n = math.sqrt(sum(v * v for v in picks))
        err = math.dist(tuple(v / n for v in picks), x)
        assert err < 5e-3

    def test_sparse_set_still_certified(self):
        # huge ratio gaps give a loose but honest certificate
        A = explicit_ground_set([2, 100])
        picks = witness_tuple(A, (0.6, 0.8), 50)
        assert set(picks) <= set(A.elements)

    def test_rejects_boundary_and_non_unit(self):
        A = ground_set("naturals", 100)
        with pytest.raises(DomainError):
            witness_tuple(A, (0.6, 0.8, 0.0), 50)
        with pytest.raises(DomainError):
            witness_tuple(A, (0.3, 0.4), 50)

    def test_rejects_m_out_of_reach(self):
        A = ground_set("naturals", 100)
        with pytest.raises(DomainError):
            witness_tuple(A, (0.6, 0.8), 1)  # below a_1 / min(x)
        with pytest.raises(DomainError):
            witness_tuple(A, (0.6, 0.8), 10_000)  # beyond the prefix


class TestChain:
    def test_needs_k3(self):
        with pytest.raises(DomainError):
            chain_check(explicit_ground_set([1, 2, 3]), 2, 0.1)

    def test_degenerate_single_element(self):
        top, down = chain_check(explicit_ground_set([1]), 3, 0.5)
        # single direction rho(1,1,1): worst net point is an axis
        assert top.covering_radius == pytest.approx(
            math.sqrt(2 - 2 / math.sqrt(3)), abs=1e-9
        )
        assert down.covering_radius == pytest.approx(
            math.sqrt(2 - math.sqrt(2)), abs=1e-9
        )

    def test_naturals_both_levels(self):
        top, down = chain_check(ground_set("naturals", 60), 3, 0.1)
        assert top.k == 3 and down.k == 2
        assert down.covering_radius <= top.covering_radius + 2 * 0.1
