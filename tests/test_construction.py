"""Greedy realization of target sets and its certificates."""

import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import directions

from directions.construction import (
    ConstructionState,
    construct,
    construct_step,
    dump_construction,
    factorial_floor,
    repetition_demo,
    verify_construction,
)
from directions.core import normalize, primitive
from directions.errors import DomainError, ResourceError
from directions.targets import (
    CUSTOM,
    FULL_SPHERE,
    HYPERPLANE,
    TargetPoint,
    TargetSpec,
    close_generators,
)

from oracles import mp_floor_scaled


def custom(k, seq):
    return TargetSpec(kind=CUSTOM, k=k, enumerator=lambda m: seq[m - 1])


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
                yi_sq = y.coords[i].square() / y.norm_sq()
                assert v * v <= f * f * yi_sq < (v + 1) * (v + 1)


class TestConstructStep:
    def test_offset_collision_resolved(self):
        # floors (0, 0): second coordinate must step past the first
        spec = custom(2, [TargetPoint.from_ints(3, 2)])
        state = ConstructionState()
        got = construct_step(spec, 1, state)
        rec = state.records[0]
        assert rec.floors == (0, 0)
        assert rec.offsets == (1, 2)
        assert rec.tie_break == 1
        assert got == (2, 3)

    def test_ratio_collision_bumps_t(self):
        # second step lands on the registered leading ratio, so t moves to 2
        spec = custom(
            2, [TargetPoint.from_ints(3, 2), TargetPoint.from_ints(2, 4)]
        )
        state = ConstructionState()
        assert construct_step(spec, 1, state) == (2, 3)
        assert construct_step(spec, 2, state) == (3, 4)
        assert state.records[1].tie_break == 2
        assert state.records[1].floors == (0, 1)

    def test_fresh_ratio_keeps_t1(self):
        spec = custom(
            2, [TargetPoint.from_ints(2, 3), TargetPoint.from_ints(3, 4)]
        )
        state = ConstructionState()
        assert construct_step(spec, 1, state) == (2, 3)
        assert construct_step(spec, 2, state) == (3, 4)
        assert state.records[1].tie_break == 1

    def test_entries_always_distinct(self):
        spec = TargetSpec(kind=FULL_SPHERE, k=3)
        state = ConstructionState()
        for m in range(1, 13):
            values = construct_step(spec, m, state)
            assert len(set(values)) == 3

    def test_leading_ratios_injective(self):
        spec = TargetSpec(kind=HYPERPLANE, k=3)
        state = ConstructionState()
        seen = set()
        for m in range(1, 13):
            v = construct_step(spec, m, state)
            lead = primitive((v[0], v[1]))
            assert lead not in seen
            seen.add(lead)

    def test_steps_must_run_in_order(self):
        spec = custom(2, [TargetPoint.from_ints(1, 2)] * 5)
        state = ConstructionState()
        with pytest.raises(DomainError):
            construct_step(spec, 2, state)

    def test_floor_plus_offset_window(self):
        # every entry sits within k + m of the scaled target coordinate
        spec = TargetSpec(kind=FULL_SPHERE, k=2)
        state = ConstructionState()
        for m in range(1, 11):
            v = construct_step(spec, m, state)
            rec = state.records[-1]
            for i in (0, 1):
                assert 0 < v[i] - rec.floors[i] <= 2 + m

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
            try:
                _check_step_certificates(TargetPoint.from_ints(1, 2), 5, (7, 7))
            except CertificateError:
                sys.exit(0)
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

    def test_provenance_covers_elements(self):
        A = construct(CLOSURE_12, 6)
        assert set(A.provenance) == set(A.elements)
        for v, picks in A.provenance.items():
            for i, m in picks:
                assert A.steps[m - 1].values[i] == v

    def test_m0_is_empty(self):
        A = construct(CLOSURE_12, 0)
        assert A.elements == ()

    def test_refuses_custom_spec(self):
        spec = custom(2, [TargetPoint.from_ints(1, 2)] * 3)
        with pytest.raises(DomainError):
            construct(spec, 3)

    def test_refuses_invalid_spec(self):
        from directions.targets import FINITE

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

    def test_report_dict(self):
        A = construct(CLOSURE_12, 12)
        rep = verify_construction(A, CLOSURE_12, 12, 6, 0.05)
        d = rep.to_dict()
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

    def test_tail_budget(self, monkeypatch):
        monkeypatch.setenv("DIRECTIONS_BUDGET", "100")
        spec = TargetSpec(kind=HYPERPLANE, k=3)
        A = construct(spec, 20)
        with pytest.raises(ResourceError):
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
