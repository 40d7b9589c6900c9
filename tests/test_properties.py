"""Property tests of the numpy cloud kernel against numpy and the oracle."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from directions.density import covering_radius, sphere_net
from directions.enumeration import (
    _unique_rows,
    directions,
    explicit_ground_set,
    ground_set,
    orbit_rows,
)

from oracles import arc_covering_radius, brute_directions, full_covering_radius

# small entries make duplicate rows common; full-width ones test wide keys
ENTRIES = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1))


def row_arrays():
    return st.integers(2, 5).flatmap(
        lambda k: arrays(
            np.int64, st.tuples(st.integers(1, 40), st.just(k)), elements=ENTRIES
        )
    )


@settings(max_examples=80, derandomize=True, deadline=None)
@given(rows=row_arrays())
@example(rows=np.array([[5, 1]], dtype=np.int64))
@example(rows=np.full((6, 3), 7, dtype=np.int64))
@example(rows=np.array([[2, 9, 1, 4, 4]] * 3 + [[2, 9, 1, 4, 3]], dtype=np.int64))
def test_unique_rows_matches_np_unique(rows):
    assert np.array_equal(_unique_rows(rows), np.unique(rows, axis=0))


def sorted_rows():
    return st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 3), min_size=k, max_size=k).map(sorted),
            min_size=1, max_size=5, unique_by=tuple,
        )
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rows=sorted_rows())
def test_orbit_rows_lists_each_arrangement_once(rows):
    got = orbit_rows(np.array(rows, dtype=np.int64))
    want = sorted({p for row in rows for p in permutations(row)})
    assert [tuple(r) for r in got.tolist()] == want


SMALL_SETS = st.sets(st.integers(1, 60), min_size=1, max_size=6)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(elements=SMALL_SETS, k=st.integers(2, 3), distinct=st.booleans())
def test_directions_match_oracle(elements, k, distinct):
    assume(not distinct or len(elements) >= k)
    # a shift of 62 moves every element past int64 into object arrays
    for shift in (0, 62):
        A = explicit_ground_set([e << shift for e in elements])
        got = list(directions(A, k, distinct))
        assert got == sorted(brute_directions(A.elements, k, distinct))


@pytest.mark.parametrize("sample", [None, 7])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(elements=SMALL_SETS, k=st.integers(2, 3), distinct=st.booleans())
def test_scale_invariance(elements, k, distinct, sample):
    # D^k(cA) = D^k(A): a direction depends only on the primitive form, so
    # scaling A past int64 changes no row and, sampled, no index draw
    assume(not distinct or len(elements) >= k)
    A = explicit_ground_set(elements)
    wide = explicit_ground_set([e << 62 for e in elements])
    assert list(directions(A, k, distinct, sample=sample, seed=5)) == list(
        directions(wide, k, distinct, sample=sample, seed=5)
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    elements=st.sets(
        st.one_of(st.integers(1, 12), st.integers(1, 1000)), min_size=1, max_size=6
    ),
    k=st.integers(2, 4),
    distinct=st.booleans(),
    h=st.sampled_from([0.5, 0.25, 0.15]),
)
def test_chamber_radius_matches_full_cloud(elements, k, distinct, h):
    # the chamber path reports what querying every net point against the
    # expanded cloud reports, to the bit; shift 62 takes the object path
    assume(not distinct or len(elements) >= k)
    net = sphere_net(k, h)
    for shift in (0, 62):
        A = explicit_ground_set([e << shift for e in elements])
        rep = covering_radius(directions(A, k, distinct), net)
        want = full_covering_radius(A.elements, k, distinct, net.points)
        assert (rep.covering_radius, rep.argmax_net_point, rep.cloud_size) == want


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    rule=st.sampled_from(["naturals", "primes", "powers-of-2", "poly-2"]),
    N=st.integers(2, 300),
    h=st.sampled_from([0.2, 0.05, 0.01]),
    distinct=st.booleans(),
)
def test_k2_net_radius_brackets_arc_radius(rule, N, h, distinct):
    # net points lie on the arc and every arc point is within h of one
    A = ground_set(rule, N)
    assume(not distinct or len(A) >= 2)
    net_radius = covering_radius(directions(A, 2, distinct), sphere_net(2, h))
    exact = arc_covering_radius(A.elements, distinct)
    assert net_radius.covering_radius <= exact + 1e-12
    assert exact <= net_radius.covering_radius + h + 1e-12
