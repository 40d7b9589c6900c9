"""Property tests of the cloud kernel and the exact layer against the oracles."""

import os
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key
from itertools import cycle, islice, permutations
from math import comb, factorial, fsum, gcd, isqrt, nextafter, prod, sqrt
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from directions import density, enumeration
from directions.construction import (
    _nearest,
    _tail_floats,
    construct,
    repetition_demo,
    verify_construction,
)
from directions.core import distance, normalize, scaled_floats
from directions.density import chain_check, covering_radius, sphere_net
from directions.enumeration import (
    _ITER_ROWS,
    _chamber_blocks,
    _divide_gcd,
    _sort_rows,
    _write_csv,
    directions,
    explicit_ground_set,
    ground_set,
    orbit_rows,
    unit_rows,
)
from directions.errors import DomainError, PrecisionError, ResourceError
from directions.exact import Surd, SurdSum, squarefree_split
from directions.targets import (
    FINITE,
    FULL_SPHERE,
    HYPERPLANE,
    TargetPoint,
    TargetSpec,
    close_generators,
    dense_prefix,
    validate_target,
)

from oracles import (
    arc_covering_radius,
    brute_arrangement_count,
    brute_directions,
    brute_family_distance,
    canonical_order,
    cmp_points,
    family_distance,
    fraction_interval_sign,
    fraction_key_witnesses,
    fraction_to_float,
    fraction_unit_squares,
    full_covering_radius,
    full_orbit_validation,
    level_sorted_directions,
    linalg_unit_rows,
    mask_permutation_closure,
    meeting_index_sets,
    meshgrid_net,
    mp_surd_sign,
    object_lexsort_rows,
    percent_s_csv,
    replay_sampled_directions,
    scalar_backward,
    scalar_distinct_tail_min,
    scalar_forward,
    scalar_net_index,
    scalar_repetition_min,
    surd_distance_sq,
    surd_sum_repr,
    surd_to_float,
    trial_squarefree_split,
    worklist_closure,
)


def entries(bits):
    """Entries below 2^bits: small ones make duplicate rows common, 0 is
    an entry of net vectors, and the top value pins the row maximum."""
    return st.one_of(
        st.integers(0, 3), st.integers(0, (1 << bits) - 1), st.just((1 << bits) - 1)
    )


def key_widths(k):
    """Entry widths on both sides of the packed key's edge: k * bits <= 63
    packs into one int64 key, one bit more takes lexsort; 63 bits is the
    full int64 range."""
    return st.sampled_from(sorted({63 // k, min(63 // k + 1, 63), 63}))


def row_arrays():
    return st.integers(2, 5).flatmap(
        lambda k: key_widths(k).flatmap(
            lambda bits: arrays(
                np.int64,
                st.tuples(st.integers(1, 40), st.just(k)),
                elements=entries(bits),
            )
        )
    )


@settings(max_examples=120, derandomize=True, deadline=None)
@given(rows=row_arrays())
@example(rows=np.array([[5, 1]], dtype=np.int64))
@example(rows=np.full((6, 3), 7, dtype=np.int64))
@example(rows=np.array([[2, 9, 1, 4, 4]] * 3 + [[2, 9, 1, 4, 3]], dtype=np.int64))
@example(rows=np.array([[1 << 70, 0], [3, 1 << 64], [1 << 70, 0]], dtype=object))
@example(rows=np.zeros((0, 3), dtype=np.int64))
def test_unique_rows_matches_np_unique(rows):
    got = _sort_rows(rows, unique=True)
    assert got.dtype == rows.dtype
    if rows.dtype == object:  # np.unique takes no object rows by axis
        want = sorted(set(map(tuple, rows.tolist())))
        assert [tuple(r) for r in got.tolist()] == want
    else:
        assert np.array_equal(got, np.unique(rows, axis=0))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    k=st.integers(2, 8),
    n=st.integers(0, 60),
    distinct=st.sampled_from([1, 2, 5, 40, 128, 129, 200, 400]),
    unique=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# 8 columns over 200 distinct values: ranks up to 199 take 8 bits, so
# k * 8 > 63 takes the int64 lexsort; 128 values still pack
@example(k=8, n=60, distinct=200, unique=True, seed=0)
@example(k=8, n=60, distinct=128, unique=False, seed=0)
@example(k=3, n=0, distinct=5, unique=False, seed=0)
def test_object_sort_rows_matches_object_lexsort(k, n, distinct, unique, seed):
    # min(distinct, n k) values near 0, 2^62, 2^500 and past 2^1024, each
    # present, then repeated entries and repeated rows
    rng = random.Random(seed)
    centres = [0, (1 << 62) - (1 << 19), (1 << 500) - (1 << 19), 1 << 1030]
    pool = [rng.choice(centres) + offset
            for offset in rng.sample(range(1 << 20), distinct)]
    flat = pool[: n * k] + [rng.choice(pool) for _ in range(n * k - distinct)]
    rng.shuffle(flat)
    rows = [flat[i : i + k] for i in range(0, n * k, k)]
    rows += rng.sample(rows, n // 3)
    arr = np.array(rows, dtype=object).reshape(-1, k)
    got = _sort_rows(arr, unique)
    assert got.dtype == object
    assert all(type(v) is int for v in got.ravel().tolist())
    assert got.shape[1] == k
    assert got.tolist() == object_lexsort_rows(arr, unique).tolist()


def sorted_rows():
    return st.integers(1, 6).flatmap(
        lambda k: key_widths(k).flatmap(
            lambda bits: st.lists(
                st.lists(entries(bits), min_size=k, max_size=k).map(sorted),
                min_size=1, max_size=5, unique_by=tuple,
            )
        )
    )


@settings(max_examples=80, derandomize=True, deadline=None)
@given(rows=sorted_rows(), wide=st.booleans())
def test_orbit_rows_lists_each_arrangement_once(rows, wide):
    # wide rows are object rows of Python ints past int64
    shift, dtype = (64, object) if wide else (0, np.int64)
    rows = [[c << shift for c in row] for row in rows]
    got = orbit_rows(np.array(rows, dtype=dtype))
    want = sorted({p for row in rows for p in permutations(row)})
    assert got.dtype == dtype
    assert [tuple(r) for r in got.tolist()] == want


SMALL_SETS = st.sets(st.integers(1, 60), min_size=1, max_size=6)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(elements=SMALL_SETS, k=st.integers(2, 3), distinct=st.booleans())
def test_directions_match_oracle(elements, k, distinct):
    assume(not distinct or len(elements) >= k)
    # a shift of 62 moves every element past int64 into object arrays
    for shift in (0, 62):
        A = explicit_ground_set([e << shift for e in elements])
        got = list(map(tuple, directions(A, k, distinct)._full_rows.tolist()))
        assert got == sorted(brute_directions(A.elements, k, distinct))


# multiples of 6, 10 and 15 share factors pairwise, though no three of
# 6, 10, 15 do, so rows stay live past their first pair
SHARING_SETS = st.sets(
    st.one_of(
        st.integers(1, 40),
        st.integers(1, 12).flatmap(lambda m: st.sampled_from([6 * m, 10 * m, 15 * m])),
    ),
    min_size=1, max_size=7,
)


def _counting_pairs():
    """A patch of ``_shared_pairs`` that counts the tables built."""
    return mock.patch.object(
        enumeration, "_shared_pairs", wraps=enumeration._shared_pairs
    )


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    elements=SHARING_SETS,
    k=st.integers(2, 3),
    distinct=st.booleans(),
    wide=st.sampled_from(["", "shift", "prime"]),
    draws=st.sampled_from(["exhaustive", "below", "at", "above"]),
    seed=st.integers(0, 2**16),
)
@example(elements={6, 10, 15, 30}, k=3, distinct=False, wide="",
         draws="exhaustive", seed=0)
@example(elements={6, 10, 15, 30}, k=2, distinct=False, wide="prime",
         draws="exhaustive", seed=0)
def test_directions_on_both_sides_of_the_pair_table(
    elements, k, distinct, wide, draws, seed
):
    # n^2 pairs against the block's tuples: exhaustive k=3 chambers and
    # draws of at least n^2 take the table, k=2 chambers and fewer draws
    # a gcd per row; wide sets are object arrays past 2^62, shifted (every
    # pair shares 2^62) or holding the prime 2^89 - 1 (few pairs share)
    if wide == "shift":
        elements = {e << 62 for e in elements}
    elif wide == "prime":
        elements = elements | {(1 << 89) - 1}
    A = explicit_ground_set(elements)
    n = len(A)
    assume(not distinct or n >= k)
    if draws == "exhaustive":
        tuples = comb(n, k) if distinct else comb(n + k - 1, k)
        with _counting_pairs() as pairs:
            got = directions(A, k, distinct)._full_rows.tolist()
        assert pairs.call_count == (n * n <= tuples)
        assert list(map(tuple, got)) == sorted(brute_directions(A.elements, k, distinct))
    else:
        sample = max(1, {"below": n * n - 1, "at": n * n, "above": 3 * n * n}[draws])
        got = directions(A, k, distinct, sample=sample, seed=seed).rows.tolist()
        assert list(map(tuple, got)) == replay_sampled_directions(
            A.elements, k, distinct, sample, seed
        )


@pytest.mark.parametrize(
    "k, distinct, tables",
    [(2, False, 0), (2, True, 0), (3, False, 1), (3, True, 0), (4, False, 3)],
)
def test_pair_table_is_built_only_for_blocks_of_at_least_n_squared(
    k, distinct, tables
):
    # 81-tuple chunks split the n = 9 chambers into blocks on both sides
    # of n^2 = 81 (k=3: 81, 80 and 4 tuples; k=4: 165, 120, 84, 56, 70);
    # one table per block that reaches n^2, none for a k=2 chamber
    A = ground_set("naturals", 9)
    n = len(A)
    with mock.patch.object(enumeration, "_CHUNK", n * n):
        sizes = [len(b) for b in _chamber_blocks(n, k, distinct)]
        with _counting_pairs() as pairs:
            got = directions(A, k, distinct)._full_rows.tolist()
    assert pairs.call_count == sum(size >= n * n for size in sizes) == tables
    assert list(map(tuple, got)) == sorted(brute_directions(A.elements, k, distinct))
    for sample, tables in ((n * n - 1, 0), (n * n, 1)):
        with _counting_pairs() as pairs:
            directions(A, k, sample=sample, seed=1)
        assert pairs.call_count == tables


@pytest.mark.parametrize("sample", [None, 7])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(elements=SMALL_SETS, k=st.integers(2, 3), distinct=st.booleans())
def test_scale_invariance(elements, k, distinct, sample):
    # D^k(cA) = D^k(A): a direction depends only on the primitive form, so
    # scaling A past int64 changes no row and, sampled, no index draw
    assume(not distinct or len(elements) >= k)
    A = explicit_ground_set(elements)
    wide = explicit_ground_set([e << 62 for e in elements])
    got, want = (
        directions(G, k, distinct, sample=sample, seed=5)._full_rows.tolist()
        for G in (wide, A)
    )
    assert got == want


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
        full = meshgrid_net(k, net.denominator)[1]
        want = full_covering_radius(A.elements, k, distinct, full)
        assert (rep.covering_radius, rep.argmax_net_point, rep.cloud_size) == want


def test_split_trees_keep_chamber_radius():
    # every cloud of two or more rows split into up to three trees
    with mock.patch.object(density, "_usable_cpus", lambda: 3), \
            mock.patch.object(density, "_PART_FLOOR", 1):
        test_chamber_radius_matches_full_cloud()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    elements=st.sets(st.integers(1, 40), min_size=1, max_size=6),
    k=st.integers(3, 4),
    h=st.sampled_from([0.2, 0.3, 0.5]),
    distinct=st.booleans(),
)
def test_exhaustive_chain_drops_at_most_h(elements, k, h, distinct):
    # dropping a tuple's last coordinate never widens its angle to (x, 0),
    # so the true radius at k - 1 is at most the one at k, and each net
    # radius is within h of the true one
    assume(not distinct or len(elements) >= k)
    top, down = chain_check(explicit_ground_set(sorted(elements)), k, h, distinct)
    assert down.covering_radius <= top.covering_radius + h + 1e-12


def worst_case(k, n, m, layout, seed):
    """Unit rows and queries for the worst-distance kernel.

    random: orthant directions.  cloud: every query is a row, so the
    worst distance is 0.  planted: the worst query sits at index 1, off
    the probe's stride once there are over 1,000 queries.  twice: the
    queries repeated in reverse, so each has a twin in another slice.
    far: three quarters of the rows sit on the last axis, at distance
    sqrt(2) from every query, so the later parts are far from them all.
    """
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 6, size=(n, k))
    rows[:, 0] += 1  # no zero row
    queries = unit_rows(np.abs(rng.standard_normal((m, k))))
    if layout == "cloud":
        queries = unit_rows(rows[rng.integers(0, n, size=m)])
    elif layout == "planted" and m > 1:
        d = cKDTree(unit_rows(rows)).query(queries)[0]
        queries[[1, np.argmax(d)]] = queries[[np.argmax(d), 1]]
    elif layout == "twice":
        queries = np.concatenate([queries, queries[::-1]])
    elif layout == "far":
        queries[:, -1] = 0
        queries = unit_rows(queries)
        rows[:, -1] = 0
        axis = np.zeros((3 * n, k), dtype=rows.dtype)
        axis[:, -1] = 1
        rows = np.concatenate([rows, axis])
    return unit_rows(rows), queries


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    k=st.integers(2, 4),
    n=st.integers(1, 40),
    m=st.sampled_from([1, 5, 300, 1500]),
    layout=st.sampled_from(["random", "cloud", "planted", "twice", "far"]),
    seed=st.integers(0, 2**16),
    cpus=st.integers(1, 4),
    slack=st.sampled_from([0.0, density._TIE, 2.0]),
)
# each layout at least once, split into two to four trees
@example(k=3, n=40, m=1500, layout="planted", seed=1, cpus=2, slack=0.0)
@example(k=3, n=40, m=1500, layout="cloud", seed=2, cpus=3, slack=density._TIE)
@example(k=2, n=9, m=300, layout="random", seed=3, cpus=4, slack=2.0)
@example(k=4, n=31, m=300, layout="twice", seed=4, cpus=4, slack=0.0)
@example(k=3, n=12, m=300, layout="far", seed=5, cpus=2, slack=density._TIE)
def test_worst_matches_one_tree(k, n, m, layout, seed, cpus, slack):
    # every query within slack of the one-tree worst distance, and no other,
    # at its one-tree distance to the bit; slack 2 is above any distance
    units, queries = worst_case(k, n, m, layout, seed)
    want = cKDTree(units).query(queries)[0]
    with mock.patch.object(density, "_usable_cpus", lambda: cpus), \
            mock.patch.object(density, "_PART_FLOOR", 1):
        at, dists = density._worst(units, queries, slack)
    assert np.array_equal(at, np.flatnonzero(want >= want.max() - slack))
    assert np.array_equal(dists, want[at])


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


# entries on both sides of the token-table bound (largest entry below the
# cell count), the decimal-width edges and the int64 edge
CSV_INT64 = st.one_of(
    st.sampled_from([0, 1, 9, 10, 99, 100, 2**63 - 2, 2**63 - 1]),
    st.integers(0, 120),
    st.integers(-3, 2**63 - 1),
)
CSV_ARRAYS = st.integers(1, 6).flatmap(
    lambda k: st.integers(0, 40).flatmap(
        lambda n: st.one_of(
            arrays(np.int64, (n, k), elements=CSV_INT64),
            arrays(np.float64, (n, k), elements=st.floats(-1e300, 1e300)),
            st.lists(
                st.lists(st.integers(0, 2**70), min_size=k, max_size=k),
                min_size=n, max_size=n,
            ).map(lambda rows, k=k: np.array(rows, dtype=object).reshape(-1, k)),
        )
    )
)


def csv_bytes(writer, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        writer(path, [f"c{i}" for i in range(rows.shape[1])], rows)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=CSV_ARRAYS)
@example(rows=np.zeros((0, 3), dtype=np.int64))
@example(rows=np.zeros((0, 2), dtype=np.float64))
@example(rows=np.zeros((0, 1), dtype=object))
@example(rows=np.array([[9, 0, 3, 10, 1]]))  # largest entry one below the cells
@example(rows=np.array([[9, 0, 3, 10, 1], [5, 5, 5, 5, 4]]))
@example(rows=np.array([[2**63 - 1, 0], [1, 2**64 + 1]], dtype=object))
@example(rows=np.array([[-1, 3, 2], [2, 0, 1]]))  # a negative entry, small max
def test_csv_matches_percent_s_writer(rows):
    assert csv_bytes(_write_csv, rows) == csv_bytes(percent_s_csv, rows)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("top", [1, 99, 10**6])
def test_csv_matches_percent_s_writer_across_slices(extra, top):
    # row counts around one slice of the writer, on both sides of the
    # token-table bound (10^6 exceeds the 3 * (2^14 +- 1) cells)
    n = _ITER_ROWS + extra
    rows = np.random.default_rng(top).integers(0, top + 1, size=(n, 3))
    rows[-1, -1] = top
    assert csv_bytes(_write_csv, rows) == csv_bytes(percent_s_csv, rows)


@pytest.mark.parametrize("k,hs", [
    (2, [1.0, 0.05, 0.001]), (3, [0.5, 0.1, 0.03]), (4, [0.5, 0.2, 0.1]),
    (5, [0.5, 0.25]),
])
def test_chamber_net_is_the_sorted_full_net(k, hs):
    # the chamber is the meshgrid net's nondecreasing rows in lexicographic
    # order, the whole net its rows as a set, bit for bit
    def lex(rows):
        return rows[np.lexsort(rows.T[::-1])]

    for h in hs:
        net = sphere_net(k, h)
        full_ints, full = meshgrid_net(k, net.denominator)
        ints, units = net.chamber
        up = (full_ints[:, 1:] >= full_ints[:, :-1]).all(axis=1)
        order = np.lexsort(full_ints[up].T[::-1])
        assert np.array_equal(ints, full_ints[up][order])
        assert units.dtype == np.float64 and np.array_equal(units, full[up][order])
        assert len(ints) == comb(net.denominator + k - 1, k - 1)
        assert np.array_equal(lex(unit_rows(net.whole())), lex(full))
        assert net.size == len(full)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    elements=st.sets(st.integers(1, 9), min_size=1, max_size=4),
    k=st.integers(2, 4),
    h=st.sampled_from([0.5, 0.25, 0.15]),
    draws=st.sampled_from([1, 40]),
    seed=st.integers(0, 2**16),
)
def test_sampled_radius_is_the_first_argmax_in_sphere_net_order(
    elements, k, h, draws, seed
):
    # 40 n^k draws almost surely hold every tuple, so the cloud is closed
    # under permutations and its worst net points tie along whole orbits;
    # the report is np.argmax over the meshgrid net, in sphere_net order
    A = explicit_ground_set(sorted(elements))
    cloud = directions(A, k, sample=draws * len(A) ** k, seed=seed)
    net = sphere_net(k, h)
    rep = covering_radius(cloud, net)
    full = meshgrid_net(k, net.denominator)[1]
    dists, _ = cKDTree(unit_rows(cloud.rows)).query(full)
    at = int(np.argmax(dists))
    assert rep.covering_radius == float(dists[at])
    assert rep.argmax_net_point == tuple(float(c) for c in full[at])


def test_split_trees_keep_sampled_argmax():
    # every sampled cloud of two or more rows split into up to three trees
    with mock.patch.object(density, "_usable_cpus", lambda: 3), \
            mock.patch.object(density, "_PART_FLOOR", 1):
        test_sampled_radius_is_the_first_argmax_in_sphere_net_order()


@st.composite
def net_vectors(draw):
    k, d = draw(st.integers(2, 6)), draw(st.integers(1, 10**9))
    row = st.lists(st.integers(0, d), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=1, max_size=20))
    # every row holds d somewhere, possibly more than once
    for row in rows:
        row[draw(st.integers(0, k - 1))] = d
    return rows, d


@settings(max_examples=150, derandomize=True, deadline=None)
@given(vectors=net_vectors())
@example(vectors=([[10**8, 7, 0], [0, 10**8, 10**8 - 1], [0, 10**8, 10**8 - 2]], 10**8))
@example(vectors=([[10**12, 1, 0], [10**12 - 1, 10**12, 5], [10**12 - 1, 10**12, 4]], 10**12))
# the least row twice, not first: the first of the two wins
@example(vectors=([[3, 5, 1], [0, 5, 5], [0, 5, 5], [5, 0, 0]], 5))
def test_first_in_net_order_is_the_first_least_scalar_index(vectors):
    rows, d = vectors
    index = [scalar_net_index(row, d) for row in rows]
    got = density._first_in_net_order(unit_rows(np.array(rows)), d)
    assert got == index.index(min(index))


@pytest.mark.parametrize("shifts", [(0,), (62,), (600,), (1100,), (0, 600)])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    rows=st.integers(2, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 2**1170), min_size=k, max_size=k),
            min_size=1,
            max_size=20,
        )
    )
)
# shift 1100 keeps rows as written: maxima of exactly 500 bits (converted
# by astype) and 501 bits (divided), rounding either way, and entries past
# 2^1024
@example(rows=[[(1 << 500) - 1, 3, 1],
               [(1 << 500) + (1 << 60) + 1, 3, 1],
               [(1 << 1100) + 1, (1 << 1024) + 1, 5]])
def test_unit_rows_object_matches_scaled_floats(shifts, rows):
    # row i holds 70 + shifts[i % len(shifts)] bits, every bit drawn, so
    # divisions round: 1170 bits is past float range, and (0, 600) mixes
    # rows below and above SCALE_BITS
    wide = np.array(
        [[c >> (1100 - shifts[i % len(shifts)]) for c in row]
         for i, row in enumerate(rows)],
        dtype=object,
    )
    assume(wide.any(axis=1).all())
    want = np.array([scaled_floats(row) for row in wide])
    want = want / np.linalg.norm(want, axis=1, keepdims=True)
    assert np.array_equal(unit_rows(wide), want)


@st.composite
def gcd_rows(draw):
    """Rows of positive entries times a row factor, so some rows keep a
    gcd above 1 to the last column: int64 rows, or object rows with
    entries past 2^62."""
    k = draw(st.integers(2, 6))
    wide = draw(st.booleans())
    entry = st.integers(1, 3000)
    if wide:
        entry = st.one_of(entry, st.integers(1 << 62, 1 << 90))
    rows = draw(st.lists(
        st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=30
    ))
    factors = draw(st.lists(
        st.sampled_from([1, 2, 3, 12, 210, 9973, 1 << 20]),
        min_size=len(rows), max_size=len(rows),
    ))
    rows = [[c * f for c in row] for row, f in zip(rows, factors)]
    return np.array(rows, dtype=object if wide else np.int64)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rows=gcd_rows())
@example(rows=np.array([[6, 10, 15], [4, 6, 9], [8, 12, 16]], dtype=np.int64))
@example(rows=np.array([[6 << 70, 10 << 70, 15], [4, 6, 9 << 63]], dtype=object))
def test_divide_gcd_matches_gcd_reduce(rows):
    # with no ``live`` and with the rows whose first pair shares a factor
    want = rows // np.gcd.reduce(rows, axis=1)[:, None]
    live = np.array(
        [i for i, row in enumerate(rows.tolist()) if gcd(row[0], row[1]) > 1],
        dtype=np.intp,
    )
    for given_live in (None, live):
        got = rows.copy()
        _divide_gcd(got, given_live)
        assert got.dtype == rows.dtype
        assert got.tolist() == want.tolist()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    rows=st.sampled_from([10, 10**6, 1 << 61, 1 << 70, 1 << 600]).flatmap(
        lambda scale: st.integers(2, 20).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, scale), min_size=k, max_size=k),
                min_size=1, max_size=30,
            )
        )
    ),
)
def test_unit_rows_match_linalg_norm(rows):
    # past 2^62 the rows are object rows, past 2^500 scaled ones
    arr = np.array(rows, dtype=object)
    assume(arr.any(axis=1).all())
    if arr.max() < 1 << 62:
        arr = arr.astype(np.int64)
    assert np.array_equal(unit_rows(arr), linalg_unit_rows(arr))


def test_unit_rows_match_linalg_norm_near_int64_edge():
    # entries near the scale, which columns summed one at a time would
    # round differently at k >= 8; the rows span two blocks of unit_rows
    rng = np.random.default_rng(0)
    for k in range(2, 21):
        for scale in (10, 10**6, 1 << 61):
            rows = rng.integers(scale // 2, scale, size=(_ITER_ROWS + 77, k))
            assert np.array_equal(unit_rows(rows), linalg_unit_rows(rows))


# squarefree cofactors: products of distinct primes, small and near 10^4
COFACTOR_PRIMES = [2, 3, 5, 7, 11, 13, 31, 97, 4999, 5003, 9973, 10007, 10009]
SQUAREFREE = st.sets(st.sampled_from(COFACTOR_PRIMES), max_size=6).map(prod)
RADICANDS = st.one_of(
    st.integers(1, 2**3000),
    st.builds(
        lambda p, e, c: p**e * c,
        st.sampled_from([2, 3, 5, 7, 97, 9973]),
        st.integers(2, 80),
        SQUAREFREE,
    ),
    st.builds(
        lambda p, c: p * p * c, st.sampled_from([9973, 10007, 10009]), SQUAREFREE
    ),
    st.integers(1, 2**1500).map(lambda r: r * r),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=RADICANDS)
@example(n=1)
@example(n=9973**2)
@example(n=10007**2 * 3)
def test_squarefree_split_matches_trial_division(n):
    assert squarefree_split(n) == trial_squarefree_split(n)


SURD_RADICANDS = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]
COEFFS = st.builds(
    Fraction,
    st.integers(-50, 50).filter(bool),
    st.integers(1, 50),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    terms=st.dictionaries(
        st.sampled_from(SURD_RADICANDS), COEFFS, min_size=2, max_size=4
    ),
    bits=st.integers(0, 200),
    nudge=st.integers(-1, 1),
)
def test_surd_sign_matches_mpmath(terms, bits, nudge):
    # a rational term cancels the surds to within about 2^-bits, as
    # sqrt(2) + sqrt(3) against a tight rational does; mpmath at twice
    # those bits (plus a margin) resolves the sign of what is left
    with mpmath.workprec(bits + 64):
        v = mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
            for r, c in terms.items()
        )
        tight = Fraction(int(mpmath.floor(mpmath.ldexp(v, bits))) + nudge, 2**bits)
    s = SurdSum({**terms, 1: -tight})
    want = mp_surd_sign(s.terms, 2 * (bits + 64))
    assume(want is not None)
    assert s.sign() == want


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    terms=st.dictionaries(
        st.sampled_from([1] + SURD_RADICANDS), COEFFS, min_size=1, max_size=5
    ),
    bits=st.one_of(
        st.none(),
        st.integers(0, 300),
        st.integers(8_000, 16_384),
        st.integers(16_385, 20_000),
    ),
    nudge=st.integers(-1, 1),
)
@example(terms={2: Fraction(1), 3: Fraction(1), 5: Fraction(-1)}, bits=100, nudge=0)
@example(terms={2: Fraction(1), 3: Fraction(1)}, bits=17_000, nudge=0)
def test_surd_sign_matches_fraction_interval(terms, bits, nudge):
    # with bits, a rational term replaces any drawn one and cancels at most
    # four surds to within 2^-bits; past the 16,384-bit cap both refuse
    if bits is not None:
        terms = dict(islice(((r, c) for r, c in terms.items() if r != 1), 4))
        floor = sum(c * isqrt(r << 2 * bits) for r, c in terms.items())
        terms[1] = -Fraction(floor + nudge, 1 << bits)
    s = SurdSum(terms)
    try:
        want = fraction_interval_sign(s)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            s.sign()
    else:
        assert s.sign() == want


# zero, unit and negative coefficients take their own printing branches
PRINTED_COEFFS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), COEFFS
)
PRINTED_RADICANDS = st.sampled_from([1] + SURD_RADICANDS)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    q=PRINTED_COEFFS,
    r=PRINTED_RADICANDS,
    terms=st.dictionaries(PRINTED_RADICANDS, PRINTED_COEFFS, max_size=4),
)
def test_surd_printer_and_evaluator_match_oracles(q, r, terms):
    s = Surd(q, r)
    assert s.to_float() == surd_to_float(s)
    total = SurdSum(terms)
    assert repr(total) == surd_sum_repr(total)
    for bits in (64, 128, 256):
        assert total.to_float(bits) == fraction_to_float(total, bits)


TARGET_RADICANDS = st.sampled_from([1, 2, 3, 5, 6, 7])
TARGET_COORDS = st.tuples(
    st.builds(Fraction, st.integers(0, 4), st.integers(1, 3)), TARGET_RADICANDS
)


def target_points(k):
    return (
        st.lists(TARGET_COORDS, min_size=k, max_size=k)
        .filter(lambda pairs: any(q for q, _ in pairs))
        .map(TargetPoint.from_qr)
    )


def int_points(k):
    return (
        st.lists(st.integers(0, 10**60), min_size=k, max_size=k)
        .filter(any)
        .map(lambda entries: TargetPoint.from_ints(*entries))
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    pair=st.integers(2, 5).flatmap(
        lambda k: st.tuples(
            target_points(k), st.one_of(target_points(k), int_points(k))
        )
    )
)
def test_distance_sq_matches_the_surd_product(pair):
    # a step's squared error is the distance to an integer vector
    a, b = pair
    got, want = a.distance_sq(b), surd_distance_sq(a, b)
    assert got.terms == want.terms
    assert repr(got) == repr(want)
    assert got.to_float(256) == fraction_to_float(want, 256)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    # a generic k=4 point alone closes to about 200 points
    gens=st.integers(2, 4).flatmap(
        lambda k: st.lists(target_points(k), min_size=1, max_size=5 - k)
    ),
    scale=st.tuples(
        st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)), TARGET_RADICANDS
    ),
    rnd=st.randoms(use_true_random=False),
)
@example(
    gens=[
        TargetPoint.from_qr([(1, 1), (1, 2), (Fraction(2, 3), 3)]),
        TargetPoint.from_qr([(1, 6), (1, 1), (0, 1)]),
    ],
    scale=(Fraction(2, 3), 6),
    rnd=random.Random(0),
)
def test_closure_is_admissible_and_keys_order_as_oracle(gens, scale, rnd):
    spec = close_generators(gens)
    again = close_generators(spec.points)
    assert [p.key() for p in again.points] == [p.key() for p in spec.points]
    assert validate_target(spec).passed
    # a surd multiple of a point names the same direction
    c = Surd.of(*scale)
    twins = [TargetPoint(tuple(x * c for x in p.coords)) for p in spec.points]
    for p, twin in zip(spec.points, twins):
        assert p.key() == twin.key() and cmp_points(p, twin) == 0
    for a, b in zip(spec.points, spec.points[1:]):
        assert a.key() != b.key() and cmp_points(a, b) < 0
    mixed = list(spec.points) + twins
    rnd.shuffle(mixed)
    for a, b in zip(mixed, mixed[1:]):
        assert (a.key() == b.key()) == (cmp_points(a, b) == 0)
    assert canonical_order(mixed) == sorted(mixed, key=cmp_to_key(cmp_points))
    # the key is each unit square, the square vector its primitive scaling
    parts = [g.restricted(members) for g in gens for members in meeting_index_sets(g)]
    for p in mixed + parts:
        vec, want = p.squares, fraction_unit_squares(p)
        assert p.key() == want
        assert gcd(*vec) == 1 and all(v >= 0 for v in vec)
        assert tuple(Fraction(v, sum(vec)) for v in vec) == want


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    gens=st.integers(2, 4).flatmap(
        lambda k: st.lists(target_points(k), min_size=1, max_size=5 - k)
    ),
    rnd=st.randoms(use_true_random=False),
)
@example(
    # two proportional coordinate pairs: the one generator seen whose
    # closure keeps other representatives than the work list's
    gens=[TargetPoint.from_qr([(1, 3), (2, 5), (6, 5), (3, 3)])],
    rnd=random.Random(0),
)
def test_generated_closure_and_validation_match_search(gens, rnd):
    spec = close_generators(gens)
    assert [p.key() for p in spec.points] == [
        p.key() for p in worklist_closure(gens)
    ]
    kept = rnd.sample(spec.points, rnd.randint(1, len(spec.points)))
    rep = validate_target(TargetSpec(kind=FINITE, k=spec.k, points=tuple(kept)))
    assert (rep.permutation_ok, rep.projection_ok, rep.passed) == (
        full_orbit_validation(kept)
    )


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    gens=st.integers(2, 4).flatmap(
        lambda k: st.lists(target_points(k), min_size=1, max_size=5 - k)
    ),
    scale=st.tuples(
        st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)), TARGET_RADICANDS
    ),
    rnd=st.randoms(use_true_random=False),
)
def test_validation_witnesses_match_fraction_keys(gens, scale, rnd):
    # integer keys name the same images, in the same order, as Fraction
    # keys; surd multiples of points stand in for some of them
    points = list(close_generators(gens).points)
    c = Surd.of(*scale)
    kept = [
        TargetPoint(tuple(x * c for x in p.coords)) if rnd.random() < 0.3 else p
        for p in rnd.sample(points, rnd.randint(1, len(points)))
    ]
    rep = validate_target(TargetSpec(kind=FINITE, k=points[0].k, points=tuple(kept)))
    assert rep.witnesses == fraction_key_witnesses(kept)


def unit_vectors(k):
    """Unit vectors of k entries drawn from 0 and [2^-30, 1]."""
    entry = st.one_of(st.just(0.0), st.floats(2**-30, 1))
    return st.lists(entry, min_size=k, max_size=k).filter(any).map(normalize)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(x=st.integers(2, 5).flatmap(unit_vectors))
def test_family_distance_matches_mpmath_minimum(x):
    # the S_{<=j} closed form against the least distance from x to its
    # restrictions to j coordinates, at 50 digits.  Its square is 2 minus a
    # float near 2, so it is off by a few 2^-53 at most: d is within
    # relative 1e-12 from d = 2^-5 on, and within 2^-50 / d below
    k = len(x)
    for j in range(1, k + 1):
        got, want = family_distance(x, j), float(brute_family_distance(x, j))
        assert abs(got**2 - want**2) <= 1e-12 * want**2 + 2**-50
        if want >= 2**-5:
            assert abs(got - want) <= 1e-12 * want
    for kind in (FULL_SPHERE, HYPERPLANE):
        spec = TargetSpec(kind=kind, k=k)
        assert spec.distance(x).hex() == family_distance(x, k - spec.codim).hex()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    spec=st.one_of(
        st.sampled_from([FULL_SPHERE, HYPERPLANE]).flatmap(
            lambda kind: st.builds(TargetSpec, st.just(kind), st.integers(2, 5))
        ),
        st.integers(2, 5).flatmap(target_points).map(lambda g: close_generators([g])),
    ),
    data=st.data(),
)
def test_far_rows_hold_the_farthest_row(spec, data):
    # the verify screen settles only far_rows for the target distance, so
    # a row of the largest distance above floor must be among them; the
    # set's own points are drawn too, at distance 0 or a rounding from it
    rows = data.draw(st.lists(unit_vectors(spec.k), min_size=1, max_size=12))
    if spec.points:
        rows += data.draw(st.lists(st.sampled_from([p.unit() for p in spec.points])))
    dists = [spec.distance(x) for x in rows]
    floor = data.draw(
        st.sampled_from([0.0] + dists + [nextafter(d, 0.0) for d in dists]),
        label="floor",
    )
    far = spec.far_rows(np.array(rows), floor)
    top = max(dists)
    if top > floor:
        assert any(far[i] for i, d in enumerate(dists) if d == top)


def assert_verification_matches_scalar(A, spec, M, L, tolerances):
    """Every report float and count equals the scalar passes', bit for bit,
    or both raise the same DomainError."""
    try:
        pairs = scalar_backward(A, spec, M, L)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            verify_construction(A, spec, M, L, 0.05)
        assert str(got.value) == str(exc)
        return
    k = len(A.steps[0].values)
    forward = scalar_forward(A, spec, M, L)
    for tol in tolerances:
        rep = verify_construction(A, spec, M, L, 0.05, tolerance=tol)
        assert rep.forward_hausdorff.hex() == forward.hex()
        assert rep.backward_hausdorff.hex() == max([0.0] + [d for _, d in pairs]).hex()
        assert rep.backward_max_residual.hex() == max([0.0] + [r for r, _ in pairs]).hex()
        assert rep.backward_violations == factorial(k) * sum(r > tol for r, _ in pairs)
        assert rep.tail_tuple_count == factorial(k) * len(pairs)


VERIFY_SPECS = [
    TargetSpec(kind=HYPERPLANE, k=2),
    TargetSpec(kind=HYPERPLANE, k=3),
    TargetSpec(kind=HYPERPLANE, k=4),
    TargetSpec(kind=FULL_SPHERE, k=2),
    TargetSpec(kind=FULL_SPHERE, k=3),
    close_generators([TargetPoint.from_ints(1, 2)]),
    close_generators([TargetPoint.from_qr([(1, 1), (1, 2), (0, 1)])]),
    close_generators([TargetPoint.from_qr([(1, 2), (1, 3), (1, 5)])]),
]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    spec=st.one_of(
        st.sampled_from(VERIFY_SPECS),
        st.integers(2, 3).flatmap(target_points).map(lambda g: close_generators([g])),
    ),
    M=st.integers(2, 16),
    data=st.data(),
)
def test_verification_matches_scalar_passes(spec, M, data):
    # a later step's elements have no origin up to M, so extra steps take
    # the DomainError path; one tolerance is a residual the tail realizes
    L = data.draw(st.integers(1, M - 1), label="L")
    extra = data.draw(st.sampled_from([0, 0, 0, 1]), label="extra")
    A = construct(spec, M + extra)
    try:
        realized = [r for r, _ in scalar_backward(A, spec, M, L)]
    except DomainError:
        realized = []
    tols = [1e-3, 1e-9, 0.0]
    if realized:
        r = data.draw(st.sampled_from(realized), label="realized")
        tols += [r, nextafter(r, 0.0)]  # at r and one ulp below
    assert_verification_matches_scalar(A, spec, M, L, tols)


def test_verification_edge_tails_match_scalar_passes():
    hyp2, hyp3 = TargetSpec(kind=HYPERPLANE, k=2), TargetSpec(kind=HYPERPLANE, k=3)
    full2 = TargetSpec(kind=FULL_SPHERE, k=2)
    # tolerances at realized residuals, the largest among them, and one ulp
    # below, where the bracket alone cannot tell
    A = construct(hyp3, 20)
    residuals = sorted(r for r, _ in scalar_backward(A, hyp3, 20, 10))
    middle, top = residuals[len(residuals) // 2], residuals[-1]
    assert_verification_matches_scalar(
        A, hyp3, 20, 10, [middle, nextafter(middle, 0.0), top, nextafter(top, 0.0)]
    )
    # small L: tail elements with several origins take every origin pick
    A = construct(hyp3, 12)
    values = [v for rec in A.steps for v in rec.values]
    assert any(values.count(e) > 1 for e in A.elements if e >= max(A.steps[0].values))
    assert_verification_matches_scalar(A, hyp3, 12, 1, [1e-3, 0.0])
    # k=2 tails across 2^512, where normalize scales the squares down
    A = construct(full2, 105)
    tail = [e for e in A.elements if e >= max(A.steps[89].values)]
    assert tail[0] < 1 << 500 and tail[-1] > 1 << 512
    assert_verification_matches_scalar(A, full2, 105, 90, [1e-3, 0.0])
    assert_verification_matches_scalar(A, full2, 105, 100, [1e-3])  # all past
    # L = 1: some origin picks predict a vector of norm 0
    spec = close_generators([TargetPoint.from_qr([(1, 1), (2, 3), (0, 1)])])
    A = construct(spec, 20)
    assert_verification_matches_scalar(A, spec, 20, 1, [1e-3, 0.0])
    # k=4: the hyperplane screen settles the row of largest z in each slice
    hyp4 = TargetSpec(kind=HYPERPLANE, k=4)
    assert_verification_matches_scalar(construct(hyp4, 16), hyp4, 16, 4, [1e-3, 0.0])
    # k=3 tails across 2^500, through the 501..512-bit band where normalize
    # may take either path, and past 2^512
    A = construct(hyp3, 105)
    bits = [e.bit_length() for e in A.elements if e >= max(A.steps[94].values)]
    assert bits[0] <= 500 and any(500 < b <= 512 for b in bits) and bits[-1] > 512
    assert_verification_matches_scalar(A, hyp3, 105, 95, [1e-3, 0.0])
    # a tail thinner than k: no tuple at all
    spec = close_generators([TargetPoint.from_ints(1, 0, 0)])
    A = construct(spec, 8)
    assert len([e for e in A.elements if e >= max(A.steps[6].values)]) < 3
    assert_verification_matches_scalar(A, spec, 8, 7, [1e-3])
    # every element with several origins: the trace again, as later steps
    A = construct(hyp3, 12)
    A = replace(A, steps=A.steps + tuple(
        replace(rec, step=rec.step + 12) for rec in A.steps))
    assert_verification_matches_scalar(A, hyp3, 24, 6, [1e-3, 0.0])
    # all residuals exactly zero
    for spec, M in ((hyp2, 30), (hyp3, 45)):
        A = construct(spec, M)
        assert {r for r, _ in scalar_backward(A, spec, M, M - 1)} == {0.0}
        assert_verification_matches_scalar(A, spec, M, M - 1, [1e-3, 0.0, -1.0])


# bit lengths around both edges of the band (SCALE_BITS, SCALE_BITS + 12]
# and far past it; below a 3,000-bit maximum, 1,450 bits scale to subnormals
TAIL_BITS = [1, 2, 30, 64, 499, 500, 501, 502, 511, 512, 513, 514, 1450, 1600, 3000]


def assert_tail_floats_match_normalize(tail, rng):
    """Rows ending at each j, divided out of ``_tail_floats``' tables, equal
    normalize bit for bit; band rows are NaN, not computed."""
    floats, squares, key = _tail_floats(tail)
    for j, e in enumerate(tail):
        # every pair, the whole prefix and a random subset
        rows = [[i, j] for i in range(j)] + [list(range(j + 1))]
        rows.append(sorted(rng.sample(range(j), rng.randint(0, j))) + [j])
        for row in rows:
            f, q = floats[key[j], row].tolist(), squares[key[j], row].tolist()
            if 500 < e.bit_length() <= 512:
                assert np.isnan(q).all()
                continue
            n = sqrt(fsum(q))
            want = normalize(tuple(tail[i] for i in row))
            assert [(x / n).hex() for x in f] == [x.hex() for x in want]
    return floats


def test_tail_floats_cover_the_band_and_subnormals():
    rng = random.Random(0)
    tail = sorted(rng.randrange(1 << (b - 1), 1 << b) for b in TAIL_BITS)
    floats = assert_tail_floats_match_normalize(tail, rng)
    assert ((0 < floats) & (floats < np.finfo(float).tiny)).any()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    bits=st.lists(
        st.sampled_from(TAIL_BITS) | st.integers(1, 3000), min_size=1, max_size=14
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_tail_floats_match_normalize(bits, seed):
    rng = random.Random(seed)
    tail = sorted({rng.randrange(1 << (b - 1), 1 << b) for b in bits})
    assert_tail_floats_match_normalize(tail, rng)


@pytest.mark.parametrize("k, M", [(3, 6), (3, 15), (4, 10), (3, 30), (5, 6)])
def test_repetition_min_matches_scalar_minimum(k, M):
    got = repetition_demo(k, M).with_repetition_min_dist
    assert got.hex() == scalar_repetition_min(k, M).hex()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    k=st.integers(2, 6),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
    x_kind=st.sampled_from(["fresh", "member", "ulp"]),
)
def test_nearest_is_the_least_distance(k, n, seed, x_kind):
    # unit rows with duplicates and one-ulp neighbours, so brackets tie
    rng = np.random.default_rng(seed)
    rows = np.abs(rng.standard_normal((n, k)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    copies = rng.integers(n, size=(2, n // 3))
    rows[copies[0]] = rows[copies[1]]
    shifted = rng.integers(n, size=(2, n // 3))
    rows[shifted[0]] = np.nextafter(rows[shifted[1]], 2.0)
    if x_kind == "fresh":
        x = np.abs(rng.standard_normal(k))
        x /= np.linalg.norm(x)
    else:
        x = rows[rng.integers(n)]
        if x_kind == "ulp":
            x = np.nextafter(x, 0.0)
    x = tuple(x.tolist())
    want = min(distance(x, r) for r in rows.tolist())
    assert _nearest(x, rows).hex() == want.hex()
    if x_kind == "member":
        assert want == 0.0


@settings(max_examples=20, derandomize=True, deadline=None)
@given(k=st.integers(3, 4), M=st.integers(2, 16))
@example(k=5, M=6)  # five arrangements of theta against all 120 orderings
def test_distinct_tail_min_matches_every_ordered_tuple(k, M):
    try:
        got = repetition_demo(k, M).distinct_tail_min_dist
    except DomainError:  # a tail thinner than k
        assume(False)
    assert got.hex() == scalar_distinct_tail_min(k, M).hex()


@settings(max_examples=25, derandomize=True, deadline=None)
@given(gen=st.integers(2, 4).flatmap(target_points), M=st.integers(1, 60))
@example(gen=TargetPoint.from_qr([(1, 1), (2, 3), (0, 1)]), M=60)
def test_step_errors_obey_the_integer_lemma(gen, M):
    # the certificate's lemma: with S = sum (c_i - floor(m! y_i))^2, the
    # true direction error is at most sqrt(S)/m!, and S <= k (k+m)^2, at
    # most 100 (k+m)^2 for k <= 100, puts that within 10(k+m)/m!; errors
    # near 1e-80 at m = 60 need the 400 digits
    k = gen.k
    with mpmath.workdps(400):
        for rec in construct(close_generators([gen]), M).steps:
            m = rec.step
            v = [mpmath.mpf(x.q.numerator) / x.q.denominator * mpmath.sqrt(x.r)
                 for x in rec.target.coords]
            y = [t / mpmath.sqrt(mpmath.fsum(t * t for t in v)) for t in v]
            c = [mpmath.mpf(e) for e in rec.values]
            w = [t / mpmath.sqrt(mpmath.fsum(t * t for t in c)) for t in c]
            err = mpmath.sqrt(mpmath.fsum((a - b) ** 2 for a, b in zip(w, y)))
            f = [int(mpmath.floor(mpmath.factorial(m) * t)) for t in y]
            assert tuple(f) == rec.floors
            S = sum((e - fi) ** 2 for e, fi in zip(rec.values, f))
            assert err <= mpmath.sqrt(S) / mpmath.factorial(m)
            assert S <= k * (k + m) ** 2


def proportional_points(k):
    """Points whose coordinates come in proportional pairs q sqrt(r) and
    f q sqrt(r): restrictions to two such pairs name one direction with
    different coordinates, so the representative kept shows."""
    half = (k + 1) // 2
    return st.tuples(
        st.lists(TARGET_COORDS, min_size=half, max_size=half),
        st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)),
    ).flatmap(
        lambda base_f: st.permutations(
            base_f[0] + [(q * base_f[1], r) for q, r in base_f[0]][: k - half]
        )
    ).filter(lambda pairs: any(q for q, _ in pairs)).map(TargetPoint.from_qr)


# the oracle walks every mask and permutation, about 3 s per k=6 generator,
# so k=6 enters through the explicit example
@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    gens=st.integers(2, 5).flatmap(
        lambda k: st.lists(
            st.one_of(target_points(k), proportional_points(k)),
            min_size=1,
            max_size=max(1, 4 - k),
        )
    ),
)
@example(
    # zeros, a repeated coordinate and two proportional pairs at k=6
    gens=[TargetPoint.from_qr([(1, 3), (2, 5), (0, 1), (6, 5), (3, 3), (1, 3)])],
)
@example(gens=[TargetPoint.from_qr([(1, 3), (2, 5), (6, 5), (3, 3)])])
def test_closure_matches_mask_permutation_oracle(gens):
    got = close_generators(gens).points
    want = mask_permutation_closure(gens).points
    assert [p.key() for p in got] == [p.key() for p in want]
    assert [p.coords for p in got] == [p.coords for p in want]


def charged_generators(k):
    """One or two generators below k=6.  A generic k=6 generator closes to
    about 13,000 points in 1.5 s, so k=6 takes one generator with a zero,
    which closes to at most 4,050."""
    points = st.one_of(target_points(k), proportional_points(k))
    if k < 6:
        return st.lists(points, min_size=1, max_size=2)
    with_zero = points.filter(lambda p: any(c.is_zero() for c in p.coords))
    return st.lists(with_zero, min_size=1, max_size=1)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(gens=st.integers(2, 6).flatmap(charged_generators))
@example(gens=[TargetPoint.from_qr([(1, 3), (2, 5), (0, 1), (6, 5), (3, 3), (1, 3)])])
def test_closure_charges_exactly_its_arrangements(gens):
    # the budget gate charges a lower bound, then the exact count, before
    # expanding: the brute-force count passes and one less is refused
    count = sum(brute_arrangement_count(p) for p in gens)
    with mock.patch.dict(os.environ, {"DIRECTIONS_BUDGET": str(count)}):
        close_generators(gens)
    with mock.patch.dict(os.environ, {"DIRECTIONS_BUDGET": str(count - 1)}):
        with pytest.raises(ResourceError):
            close_generators(gens)


@pytest.mark.parametrize("kind", [FULL_SPHERE, HYPERPLANE])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dense_stream_matches_level_sort(k, kind):
    want = level_sorted_directions(k, j=k - (kind == HYPERPLANE))
    if kind == HYPERPLANE and k == 2:
        # the union is {(1, 0), (0, 1)}; later levels hold no vector
        want = cycle(islice(want, 2))
    got = dense_prefix(TargetSpec(kind=kind, k=k), 400)
    assert got == [TargetPoint.from_ints(*v) for v in islice(want, 400)]
