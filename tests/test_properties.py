"""Property tests of the numpy cloud kernel against numpy and the oracle."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from directions.enumeration import _unique_rows, directions, explicit_ground_set

from oracles import brute_directions

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
