"""Greedy realization of target sets and its certificates."""

import copy
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import directions

from directions.construction import (
    ConstructionState,
    _check_step_certificates,
    _scale_ratios,
    construct,
    construct_step,
    dump_construction,
    factorial_floor,
    repetition_demo,
    verify_construction,
)
from directions.core import normalize, primitive
from directions.errors import CertificateError, DomainError, ResourceError
from directions.exact import SurdSum
from directions.targets import (
    FINITE,
    FULL_SPHERE,
    HYPERPLANE,
    TargetPoint,
    TargetSpec,
    close_generators,
    dense_prefix,
)

from oracles import (
    mp_floor_scaled,
    scale_ratio,
    surd_direction_error,
    surd_step_bound_holds,
)


CLOSURE_12 = close_generators([TargetPoint.from_ints(1, 2)])


class TestFactorialFloor:
    def test_rational_target(self):
        y = TargetPoint.from_ints(1, 2)
        assert factorial_floor(y, 0, 4).value == 10
        assert factorial_floor(y, 1, 4).value == 21
        assert factorial_floor(y, 0, 5).value == 53
        assert factorial_floor(y, 1, 5).value == 107

    def test_irrational_target(self):
        y = TargetPoint.from_qr([(1, 1), (1, 2)])
        assert factorial_floor(y, 0, 5).value == 69
        assert factorial_floor(y, 1, 5).value == 97

    def test_matches_mpmath_through_30(self):
        # diagonal direction: coordinates 1/sqrt(2)
        y = TargetPoint.from_ints(1, 1)
        for m in range(1, 31):
            got = factorial_floor(y, 0, m).value
            want = mp_floor_scaled([(1, 1), (1, 1)], 0, m)
            assert got == want, m

    def test_matches_mpmath_irrational(self):
        coords = [(1, 1), (1, 2), (Fraction(1, 3), 5)]
        y = TargetPoint.from_qr(coords)
        for m in (1, 5, 10, 20, 30):
            for i in range(3):
                assert factorial_floor(y, i, m).value == mp_floor_scaled(
                    coords, i, m
                )

    def test_bracketing(self):
        # the floor really is a floor: value <= m! y_i < value + 1 exactly
        y = TargetPoint.from_qr([(1, 2), (1, 3)])
        for m in (3, 8, 13):
            for i in (0, 1):
                v = factorial_floor(y, i, m).value
                f = math.factorial(m)
                # compare squares: (v)^2 <= f^2 y_i^2 < (v+1)^2
                yi_sq = y.coords[i].square() / y.norm_sq
                assert v * v <= f * f * yi_sq < (v + 1) * (v + 1)


class TestConstructStep:
    def test_offset_collision_resolved(self):
        # floors (0, 0): second coordinate must step past the first
        state = ConstructionState()
        got = construct_step(TargetPoint.from_ints(3, 2), state)
        rec = state.records[0]
        assert rec.floors == (0, 0)
        assert rec.offsets == (1, 2)
        assert rec.tie_break == 1
        assert got == (2, 3)

    def test_ratio_collision_bumps_t(self):
        # second step lands on the registered leading ratio, so t moves to 2
        state = ConstructionState()
        assert construct_step(TargetPoint.from_ints(3, 2), state) == (2, 3)
        assert construct_step(TargetPoint.from_ints(2, 4), state) == (3, 4)
        assert state.records[1].tie_break == 2
        assert state.records[1].floors == (0, 1)

    def test_fresh_ratio_keeps_t1(self):
        state = ConstructionState()
        assert construct_step(TargetPoint.from_ints(2, 3), state) == (2, 3)
        assert construct_step(TargetPoint.from_ints(3, 4), state) == (3, 4)
        assert state.records[1].tie_break == 1

    def test_entries_always_distinct(self):
        spec = TargetSpec(kind=FULL_SPHERE, k=3)
        state = ConstructionState()
        for point in dense_prefix(spec, 12):
            values = construct_step(point, state)
            assert len(set(values)) == 3

    def test_leading_ratios_injective(self):
        spec = TargetSpec(kind=HYPERPLANE, k=3)
        state = ConstructionState()
        seen = set()
        for point in dense_prefix(spec, 12):
            v = construct_step(point, state)
            lead = primitive((v[0], v[1]))
            assert lead not in seen
            seen.add(lead)

    def test_floor_plus_offset_window(self):
        # every entry sits within k + m of the scaled target coordinate
        spec = TargetSpec(kind=FULL_SPHERE, k=2)
        state = ConstructionState()
        for m, point in enumerate(dense_prefix(spec, 10), start=1):
            v = construct_step(point, state)
            rec = state.records[-1]
            for i in (0, 1):
                assert 0 < v[i] - rec.floors[i] <= 2 + m

    def test_direction_certificate_past_the_lemma_is_the_surd_bound(self):
        # k = 300, m = 20: S = 100 (k+m)^2 is settled in integers; past it
        # the surd comparison decides, and accepts what it always accepted
        wide = TargetPoint.from_ints(*[1] * 300)
        f = factorial_floor(wide, 0, 20).value
        at = [7, 9, *range(15, 172), *range(173, 314)]
        over = [*range(6, 60), *range(68, 313), 316]
        far = range(21, 321)
        bound = 100 * 320**2
        assert len(at) == len(over) == 300
        assert sum(d * d for d in at) == bound == sum(d * d for d in over) - 1
        for offsets, signs in [(at, 0), (over, 1), (far, 1)]:
            values = tuple(f + d for d in offsets)
            with mock.patch.object(
                SurdSum, "sign", autospec=True, side_effect=SurdSum.sign
            ) as sign:
                _check_step_certificates(wide, 20, values)
            assert sign.call_count == signs
            assert surd_step_bound_holds(wide, 20, values)

    def test_direction_certificate_refuses_what_the_surd_bound_refuses(self):
        # k = 300, m = 8, target e_0: the zero coordinates' entries 10..308
        # stay within k + m, but their spread puts the true error near
        # 0.09 > 10 (k+m)/m! = 0.076
        e0 = TargetPoint.from_ints(1, *[0] * 299)
        values = (math.factorial(8) + 1, *range(10, 309))
        assert not surd_step_bound_holds(e0, 8, values)
        with pytest.raises(CertificateError, match="above 10"):
            _check_step_certificates(e0, 8, values)

    def test_direction_bound_of_two_or_more_needs_no_surd(self):
        # m! <= 5 (k+m) puts the bound at 2 or more, above any chordal
        # distance: the step passes without a surd comparison
        e0 = TargetPoint.from_ints(1, *[0] * 299)
        values = (25, *range(5, 25), *range(26, 305))
        floors = (24, *[0] * 299)
        assert sum((c - f) ** 2 for c, f in zip(values, floors)) > 100 * 304**2
        with mock.patch.object(SurdSum, "sign", side_effect=AssertionError):
            _check_step_certificates(e0, 4, values)

    def test_every_shift_colliding_is_a_certificate_error(self):
        # the registry already holds (pre_0 + t, pre_1 + t), reduced, for
        # every shift t in 1..m: no fresh leading-pair ratio is left
        points = dense_prefix(TargetSpec(kind=HYPERPLANE, k=3), 3)
        state = ConstructionState()
        for point in points[:2]:
            construct_step(point, state)
        probe = copy.deepcopy(state)
        construct_step(points[2], probe)
        rec = probe.records[-1]
        pre = [v - rec.tie_break for v in rec.values]
        state.ratio_registry |= {primitive((pre[0] + t, pre[1] + t)) for t in (1, 2, 3)}
        with pytest.raises(CertificateError, match="every shift collides"):
            construct_step(points[2], state)
        assert len(state.records) == 2

    def test_certificates_survive_optimize(self):
        # python -O strips asserts; a certificate must still raise there
        script = textwrap.dedent(
            """
            import sys
            from directions.construction import _check_step_certificates
            from directions.errors import CertificateError
            from directions.targets import TargetPoint

            if not sys.flags.optimize:
                sys.exit(2)
            y = TargetPoint.from_ints(1, 2)
            e0 = TargetPoint.from_ints(1, *[0] * 299)
            # y's floors at step 5 are (53, 107)
            bad = [
                (y, 5, (7, 7)),  # entries not distinct
                (y, 5, (53, 110)),  # 53 < 5! y_0 = 53.67
                (y, 5, (54, 115)),  # 115 - 5! y_1 = 7.67 > k + m = 7
                # k = 300 > 100: entries 10..308 stay within k + m = 308,
                # but S > 100 (k + m)^2 and the true error is above the bound
                (e0, 8, (40321, *range(10, 309))),
            ]
            for point, m, values in bad:
                try:
                    _check_step_certificates(point, m, values)
                except CertificateError as exc:
                    print(exc)
                else:
                    sys.exit(1)
            """
        )
        src = str(Path(directions.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().splitlines() == [
            "step 5: entries not distinct",
            "step 5: floor overshot at 0",
            "step 5: coordinate 1 drifted past (k+m)",
            "step 8: direction error above 10(k+m)/m!",
        ]


class TestConstruct:
    def test_closure_m8_elements(self):
        A = construct(CLOSURE_12, 8)
        assert A.elements == (
            2,
            3,
            4,
            7,
            26,
            122,
            323,
            645,
            2255,
            4509,
            40322,
        )
        assert A.rule == "constructed-finite-set"
        assert A.bound == 40322

    def test_closure_m8_step_errors(self):
        A = construct(CLOSURE_12, 8)
        errs = [r.direction_error for r in A.steps]
        assert errs[6] == pytest.approx(8.871e-05, rel=1e-3)
        assert errs[7] == pytest.approx(4.960e-05, rel=1e-3)
        assert errs[5] < 1e-3 and max(errs[5:]) < 1e-3

    def test_hyperplane_m10_trace(self):
        A = construct(TargetSpec(kind=HYPERPLANE, k=3), 10)
        assert A.steps[0].values == (3, 2, 4)
        assert A.steps[-1].values == (3245699, 2, 1622850)
        errs = [r.direction_error for r in A.steps]
        assert errs[7] == pytest.approx(5.083e-05, rel=1e-3)
        for r in A.steps[7:]:
            assert r.direction_error < 1e-4

    def test_m0_is_empty(self):
        A = construct(CLOSURE_12, 0)
        assert A.elements == ()

    def test_refuses_invalid_spec(self):
        bad = TargetSpec(
            kind=FINITE,
            k=2,
            points=(
                TargetPoint.from_ints(1, 2),
                TargetPoint.from_ints(1, 0),
                TargetPoint.from_ints(0, 1),
            ),
        )
        with pytest.raises(DomainError):
            construct(bad, 3)

    def test_step_errors_shrink_factorially(self):
        A = construct(TargetSpec(kind=FULL_SPHERE, k=2), 14)
        errs = [r.direction_error for r in A.steps]
        # the certificate bound: err <= 10(k+m)/m! once m >= 4
        for m, e in enumerate(errs, start=1):
            if m >= 4:
                assert e <= 10 * (2 + m) / math.factorial(m)

    @pytest.mark.parametrize(
        "spec",
        [
            TargetSpec(kind=HYPERPLANE, k=3),
            close_generators([TargetPoint.from_qr([(1, 1), (2, 3), (0, 1)])]),
        ],
        ids=["hyperplane-k3", "closure-1-2sqrt3-0"],
    )
    def test_integer_certificate_keeps_the_surd_bound(self, spec):
        # no step at k <= 25 compares surds, and every step the integer
        # certificate passes, the surd comparison passes too
        with mock.patch.object(SurdSum, "sign", side_effect=AssertionError):
            A = construct(spec, 60)
        for rec in A.steps[3:]:
            assert surd_step_bound_holds(rec.target, rec.step, rec.values)

    @pytest.mark.parametrize(
        "spec, M",
        [
            (TargetSpec(kind=HYPERPLANE, k=3), 200),
            (TargetSpec(kind=FULL_SPHERE, k=2), 110),
            (close_generators([TargetPoint.from_qr([(1, 1), (2, 3), (0, 1)])]), 200),
            (close_generators([TargetPoint.from_qr([(1, 2), (1, 3), (1, 5)])]), 150),
            # step 8 is past the integer lemma and compares surds
            (TargetSpec(kind=FULL_SPHERE, k=300), 8),
        ],
        ids=[
            "hyperplane-k3",
            "full-k2",
            "closure-1-2sqrt3-0",
            "closure-sqrt235",
            "full-k300",
        ],
    )
    def test_direction_errors_equal_the_surd_evaluation(self, spec, M):
        for rec in construct(spec, M).steps:
            want = surd_direction_error(rec.target, rec.values)
            assert rec.direction_error.hex() == want.hex(), rec.step

    def test_dump_jsonl(self, tmp_path):
        A = construct(CLOSURE_12, 3)
        path = tmp_path / "trace.jsonl"
        dump_construction(A, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first == {
            "step": 1,
            "offsets": [1, 1],
            "tie_break": 1,
            "values": ["2", "3"],
            "target": [{"q": "0/1", "r": 1}, {"q": "2/1", "r": 1}],
            "direction_error": pytest.approx(0.5795682973768601),
        }
        assert json.loads(lines[1])["tie_break"] == 2

    def test_dump_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        dump_construction(construct(CLOSURE_12, 5), str(a))
        dump_construction(construct(CLOSURE_12, 5), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_closure_k2(self):
        A = construct(CLOSURE_12, 20)
        rep = verify_construction(A, CLOSURE_12, 20, 10, 0.05)
        assert rep.forward_hausdorff < 1e-6
        assert rep.backward_violations == 0
        assert rep.backward_max_residual < 1e-3
        assert rep.tail_tuple_count == 240

    def test_sphere_k2(self):
        spec = TargetSpec(kind=FULL_SPHERE, k=2)
        A = construct(spec, 20)
        rep = verify_construction(A, spec, 20, 10, 0.05)
        assert rep.forward_hausdorff < 1e-6
        assert rep.backward_violations == 0

    def test_hyperplane_k3(self):
        spec = TargetSpec(kind=HYPERPLANE, k=3)
        A = construct(spec, 20)
        rep = verify_construction(A, spec, 20, 10, 0.05)
        assert rep.forward_hausdorff < 1e-6
        assert rep.backward_violations == 0
        assert rep.tail_tuple_count == 7980

    @pytest.mark.parametrize(
        "spec, tolerance, violations, tuples, residual",
        [
            (CLOSURE_12, 1e-12, 70, 240, 7.394404026590765e-08),
            (
                TargetSpec(kind=HYPERPLANE, k=3),
                1e-9,
                78,
                7980,
                3.7451130831656656e-08,
            ),
            (
                close_generators(
                    [TargetPoint.from_qr([(1, 1), (1, 2), (0, 1)])]
                ),
                1e-9,
                60,
                4896,
                9.636164355985242e-08,
            ),
        ],
        ids=["closure-1-2", "hyperplane-k3", "closure-1-sqrt2-0"],
    )
    def test_frozen_violation_counts(
        self, spec, tolerance, violations, tuples, residual
    ):
        # values of the all-orderings walk: each violating tuple counts k!
        A = construct(spec, 20)
        rep = verify_construction(A, spec, 20, 10, 0.05, tolerance=tolerance)
        assert rep.backward_violations == violations
        assert rep.tail_tuple_count == tuples
        assert rep.backward_max_residual == residual

    def test_refuses_invalid_spec(self):
        # {(1, 2)} alone is not permutation-closed; the tuple-order
        # symmetry the backward pass relies on does not hold for it
        A = construct(CLOSURE_12, 20)
        bad = TargetSpec(kind=FINITE, k=2, points=(TargetPoint.from_ints(1, 2),))
        with pytest.raises(DomainError):
            verify_construction(A, bad, 20, 10, 0.05)

    def test_report_dict(self):
        A = construct(CLOSURE_12, 12)
        rep = verify_construction(A, CLOSURE_12, 12, 6, 0.05)
        d = asdict(rep)
        for key in (
            "forward_hausdorff",
            "backward_hausdorff",
            "backward_max_residual",
            "backward_violations",
            "tail_tuple_count",
            "tail_cutoff",
            "M",
            "L_index",
            "h",
            "tolerance",
        ):
            assert key in d

    def test_scale_ratio_table(self):
        # 150!/300! is far below float range and rounds to 0.0
        assert _scale_ratios([150, 300]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert _scale_ratios([3, 5])[0, 1] == 1 / 20
        steps = list(range(1, 61))
        table = _scale_ratios(steps)
        for a, m in enumerate(steps):
            for b, m_big in enumerate(steps[a:], a):
                assert table[a, b].hex() == scale_ratio(m, m_big).hex()
            assert not table[a, :a].any()  # m > m_big is never read

    def test_screen_calls_normalize_for_few_tuples(self):
        # full sphere k=2, M=150, L=30 crosses 2^512: the tail's 28,920
        # sorted tuples once took 40,436 normalize calls, one per tuple
        # past 2^500 and one per origin pick
        spec = TargetSpec(kind=FULL_SPHERE, k=2)
        A = construct(spec, 150)
        with mock.patch(
            "directions.construction.normalize", wraps=normalize
        ) as calls:
            rep = verify_construction(A, spec, 150, 30, 0.05)
        assert rep.tail_tuple_count == 2 * 28_920
        assert calls.call_count < 28_920 / 10

    def test_tail_budget(self, monkeypatch):
        monkeypatch.setenv("DIRECTIONS_BUDGET", "100")
        spec = TargetSpec(kind=HYPERPLANE, k=3)
        A = construct(spec, 20)
        with pytest.raises(ResourceError):
            verify_construction(A, spec, 20, 10, 0.05)

    def test_tail_budget_charges_the_sorted_entries(self, monkeypatch):
        # 21 tail elements: 7,980 ordered triples, walked as C(21, 3) = 1,330
        # sorted ones of 3 entries each, 3,990 entries
        spec = TargetSpec(kind=HYPERPLANE, k=3)
        A = construct(spec, 20)
        monkeypatch.setenv("DIRECTIONS_BUDGET", "3990")
        assert verify_construction(A, spec, 20, 10, 0.05).tail_tuple_count == 7980
        monkeypatch.setenv("DIRECTIONS_BUDGET", "3989")
        with pytest.raises(ResourceError, match="3990 exceeds"):
            verify_construction(A, spec, 20, 10, 0.05)

    def test_l_index_in_range(self):
        A = construct(CLOSURE_12, 6)
        with pytest.raises(DomainError):
            verify_construction(A, CLOSURE_12, 6, 0, 0.05)
        with pytest.raises(DomainError):
            verify_construction(A, CLOSURE_12, 6, 7, 0.05)


class TestRatioInjectivity:
    def test_shifted_products_never_collide(self):
        # (u + t1)/(v + t1) == (u + t2)/(v + t2) forces u == v or t1 == t2,
        # checked exactly on random integers
        rng = random.Random(424242)
        for _ in range(10_000):
            u = rng.randint(1, 10**9)
            v = rng.randint(1, 10**9)
            if u == v:
                v += 1
            t1 = rng.randint(1, 1000)
            t2 = rng.randint(1, 1000)
            if t1 == t2:
                t2 += 1
            assert (u + t1) * (v + t2) != (u + t2) * (v + t1)

    def test_collision_when_parameters_agree(self):
        assert Fraction(5 + 3, 9 + 3) == Fraction(5 + 3, 9 + 3)


class TestRepetitionDemo:
    def test_k3(self):
        rep = repetition_demo(3, 15)
        assert rep.with_repetition_min_dist < 1e-3
        assert rep.distinct_tail_min_dist > 0.1
        assert rep.separation_sq_exact == "2 - sqrt(3)"
        assert rep.separation == pytest.approx(
            math.sqrt(2 - math.sqrt(3)), abs=1e-12
        )
        assert rep.with_repetition_min_dist == pytest.approx(
            6.592661278987076e-13, rel=1e-3
        )
        assert rep.distinct_tail_min_dist == pytest.approx(
            0.42956552697985256, rel=1e-6
        )

    def test_distinct_gap_beats_half_separation(self):
        # the distinct tail cannot approach the repeated direction any
        # closer than the exact separation from the target set allows
        rep = repetition_demo(3, 12)
        assert rep.distinct_tail_min_dist > rep.separation / 2

    def test_k4(self):
        rep = repetition_demo(4, 10)
        assert rep.with_repetition_min_dist < 1e-3
        assert rep.distinct_tail_min_dist > 0.1
        assert rep.separation > 0

    def test_rejects_small_k(self):
        with pytest.raises(DomainError):
            repetition_demo(2, 10)
