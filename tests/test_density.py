"""Sphere nets, covering radii, ratio gaps, witness tuples."""

import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree

from directions import density
from directions.density import (
    audit_net,
    chain_check,
    covering_radius,
    ratio_gap,
    sphere_net,
    witness_tuple,
)
from directions.enumeration import (
    directions,
    explicit_ground_set,
    ground_set,
    unit_rows,
)
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
        assert {tuple(p) for p in unit_rows(net.whole()).tolist()} == want

    def test_k2_fine(self):
        net = sphere_net(2, 0.01)
        assert net.size == 401
        assert net.denominator == 200

    def test_points_are_unit_and_nonnegative(self):
        net = sphere_net(3, 0.2)
        pts = unit_rows(net.whole())
        norms = np.linalg.norm(pts, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert (pts >= 0).all()

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

    def test_huge_k_refused_before_the_binomial(self, monkeypatch):
        # 2^(k-1) <= C(d + k - 1, k - 1) is charged first, so a million
        # dimensions never reach the binomial
        monkeypatch.delenv("DIRECTIONS_BUDGET", raising=False)
        with mock.patch.object(density, "comb", side_effect=AssertionError):
            with pytest.raises(ResourceError):
                sphere_net(10**6, 1.0)

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
            min(math.dist(q, p) for p in pts) for q in unit_rows(net.whole())
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
        d = asdict(rep)
        assert d["k"] == 2 and d["h"] == 0.05
        assert d["cloud_rule"] == "primes" and d["N"] == 50
        assert d["distinct"] is False and d["sampled"] is False
        assert 0 < d["covering_radius"] < 2

    def test_sampled_radius_builds_the_whole_net_once(self):
        net = sphere_net(3, 0.25)
        cloud = directions(ground_set("primes", 30), 3, sample=500, seed=0)
        whole = density.SphereNet.whole
        with mock.patch.object(
            density.SphereNet, "whole", autospec=True, side_effect=whole
        ) as spy:
            covering_radius(cloud, net)
        assert spy.call_count == 1

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


def refuse_to_draw(*args, **kwargs):
    raise AssertionError("a cloud was drawn for a net the budget refuses")


def force_split(monkeypatch, cpus, floor):
    monkeypatch.setattr(density, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(density, "_PART_FLOOR", floor)


class TestSplitTrees:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("floor", [1, 2, 50])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_one_tree(self, monkeypatch, cpus, floor, k):
        # entries 0..5 repeat rows, so equal distances fall in every part
        rng = np.random.default_rng(10 * k + cpus)
        for n in (1, 3, 101, 400):
            rows = rng.integers(0, 6, size=(n, k))
            rows[:, 0] += 1  # no zero row
            units = unit_rows(rows)
            queries = np.concatenate([
                unit_rows(sphere_net(k, 1.0).whole()),
                unit_rows(np.abs(rng.standard_normal((200, k)))),
            ])
            want, _ = cKDTree(units).query(queries)
            parts = []
            tree = density._cloud_tree
            monkeypatch.setattr(
                density, "_cloud_tree", lambda u: parts.append(len(u)) or tree(u)
            )
            force_split(monkeypatch, cpus, floor)
            for slack in (0, density._TIE, 0.05):
                parts.clear()
                at, dists = density._worst(units, queries, slack)
                # every query within slack of the worst and no other, in
                # query order, at its one-tree distance to the bit
                assert np.array_equal(at, np.flatnonzero(want >= want.max() - slack))
                assert np.array_equal(dists, want[at])
                # one part per CPU, none below the floor, together every row
                assert len(parts) == max(min(cpus, n // floor), 1)
                assert sum(parts) == n
                assert len(parts) == 1 or min(parts) >= floor
            monkeypatch.undo()

    @pytest.mark.parametrize("rule,k,sample,h", [
        ("primes", 2, 3000, 0.1), ("primes", 3, 20000, 0.1),
        ("naturals", 4, 20000, 0.25),
    ])
    def test_sampled_report_unchanged(self, monkeypatch, rule, k, sample, h):
        cloud = directions(ground_set(rule, 500), k, sample=sample, seed=3)
        net = sphere_net(k, h)
        want = covering_radius(cloud, net)
        for cpus in (2, 3, 4):
            force_split(monkeypatch, cpus, 1)
            assert covering_radius(cloud, net) == want

    @pytest.mark.parametrize("cpus, tasks", [(1, 0), (3, 4)])
    def test_one_part_submits_no_task(self, monkeypatch, cpus, tasks):
        # each extra part submits its tree build and its bounded query; a
        # pool starts worker threads only on submit, so one part starts none
        submitted = []

        class Spy(density.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(density, "ThreadPoolExecutor", Spy)
        force_split(monkeypatch, cpus, 1)
        units = unit_rows(np.arange(1, 31).reshape(10, 3))
        queries = unit_rows(sphere_net(3, 0.5).whole())
        want, _ = cKDTree(units).query(queries)
        at, dists = density._worst(units, queries, 0.0)
        assert len(submitted) == tasks
        assert np.array_equal(dists, want[at]) and dists.max() == want.max()

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(density.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(density.os, "cpu_count", lambda: 3)
        assert density._usable_cpus() == 3
        monkeypatch.setattr(density.os, "cpu_count", lambda: None)
        assert density._usable_cpus() == 1


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

    def test_sampled_net_over_budget_is_refused_before_the_draw(self, monkeypatch):
        # the whole k=6 net at h=0.2 is over the default budget, so no
        # tuple may be drawn for either dimension
        monkeypatch.delenv("DIRECTIONS_BUDGET", raising=False)
        monkeypatch.setattr(density, "directions", refuse_to_draw)
        A = ground_set("primes", 5000)
        with pytest.raises(ResourceError, match="158503681"):
            chain_check(A, 6, 0.2, sample=2_000_000)

    def test_naturals_both_levels(self):
        top, down = chain_check(ground_set("naturals", 60), 3, 0.1)
        assert top.k == 3 and down.k == 2
        assert down.covering_radius <= top.covering_radius + 2 * 0.1
