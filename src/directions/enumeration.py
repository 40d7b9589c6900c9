"""Ground sets and their finite direction clouds.

A ground set is a finite prefix A of positive integers given by a rule
(naturals, primes, powers, polynomial values, an explicit list, or the
output of the target constructor).  Its direction cloud is the exact set of
primitive vectors of all ordered k-tuples over A, optionally restricted to
tuples with pairwise distinct entries.

Enumeration is exhaustive below a tuple budget and refuses above it; the
caller can instead request seeded uniform sampling, which is always flagged
in the result so sampled and exhaustive clouds are never confused.  One
numpy kernel reduces every cloud at every element width: elements below
2^62 ride in int64 arrays, larger ones (the constructor's factorial-scale
values beyond 20!) in object arrays of Python ints.  A direction depends
only on the primitive form of its tuple, so the width changes no row.
A block of n^2 or more tuples reads from an n x n pair table (n^2 gcds, at
most one per tuple) whose first two entries share a factor, and divides those.

An exhaustive cloud is closed under coordinate permutations, so it keeps
only its sorted chamber, the rows with nondecreasing entries: nondecreasing
index tuples (strictly increasing in distinct mode) over the sorted
elements, reduced by their gcd, which keeps them sorted.  ``count`` sums
the rows' exact orbit sizes k!/prod(m!) (``orbit_sizes``), and iteration,
CSV export and ``unit_points`` see every row through one expansion,
``orbit_rows``, which builds each distinct arrangement once.
Dedupe and expansion share one row sort: object rows become int64 ranks
among their distinct values, then one ``np.sort`` of packed int64 keys for
nonnegative int64 rows with k * bit_length(max) <= 63, else ``lexsort``.
An expansion charges its count * k entries to the budget before it is built.
One writer formats every CSV: small nonnegative int64 entries from tables of
tokens, everything else from array slices with ``%s``, the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import SCALE_BITS, _sieve_primes
from .errors import DomainError, ResourceError

DEFAULT_BUDGET = 10**8

# int64 holds values only below 2^63; keep reduction safely inside and give
# wider elements an object array of Python ints
_INT64_LIMIT = 1 << 62

_CHUNK = 1 << 20

# rows per slice of Python objects when writing, and per block of unit rows,
# to bound peak memory
_ITER_ROWS = 1 << 14


def budget() -> int:
    """Tuple/memory budget; override with env var DIRECTIONS_BUDGET."""
    raw = os.environ.get("DIRECTIONS_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceError(f"DIRECTIONS_BUDGET={raw!r} is not an integer") from exc
    if value < 1:
        raise ResourceError("DIRECTIONS_BUDGET must be positive")
    return value


def check_budget(size: int | float, what: str) -> None:
    """The one budget gate: refuse ``size`` units of ``what`` over the cap."""
    cap = budget()
    if size > cap:
        try:
            shown = f"{size}"
        except ValueError:  # an int past sys.get_int_max_str_digits()
            shown = f"a {size.bit_length()}-bit number"
        raise ResourceError(
            f"{what}: {shown} exceeds the budget {cap}; "
            "raise DIRECTIONS_BUDGET to allow it"
        )


@dataclass(frozen=True)
class GroundSet:
    """A materialized prefix A ∩ [1, N] of a ground-set rule.

    ``steps`` holds the target constructor's step records, the whole trace
    of a constructed set: its elements are their values.
    """

    rule: str
    elements: tuple[int, ...]
    bound: int
    steps: tuple = field(default=(), compare=False)

    def __post_init__(self):
        prev = 0
        for e in self.elements:
            if e <= prev:
                raise DomainError("elements must be strictly increasing")
            prev = e
        if self.elements and self.elements[-1] > self.bound:
            raise DomainError("element exceeds the stated bound")

    def __len__(self) -> int:
        return len(self.elements)


def ground_set(rule: str, N: int) -> GroundSet:
    """Materialize A ∩ [1, N] for one of the built-in rules.

    Rules: "naturals", "primes", "powers-of-<b>" (b >= 2), "poly-<d>"
    (values n^d, d >= 1).
    """
    if N < 1:
        raise DomainError("bound must be >= 1")
    check_budget(N, "bound N")
    if rule == "naturals":
        elements = list(range(1, N + 1))
    elif rule == "primes":
        elements = _sieve_primes(N)
    elif rule.startswith("powers-of-"):
        try:
            b = int(rule.removeprefix("powers-of-"))
        except ValueError as exc:
            raise DomainError(f"bad rule {rule!r}") from exc
        if b < 2:
            raise DomainError("power base must be >= 2")
        elements = []
        v = 1
        while v <= N:
            elements.append(v)
            v *= b
    elif rule.startswith("poly-"):
        try:
            d = int(rule.removeprefix("poly-"))
        except ValueError as exc:
            raise DomainError(f"bad rule {rule!r}") from exc
        if d < 1:
            raise DomainError("polynomial degree must be >= 1")
        elements = []
        n = 1
        while n**d <= N:
            elements.append(n**d)
            n += 1
    else:
        raise DomainError(f"unknown ground-set rule {rule!r}")
    return GroundSet(rule=rule, elements=tuple(elements), bound=N)


def explicit_ground_set(values: Sequence[int]) -> GroundSet:
    cleaned = sorted(set(values))
    if any(v < 1 for v in cleaned):
        raise DomainError("ground-set elements must be positive")
    bound = cleaned[-1] if cleaned else 0
    return GroundSet(rule="explicit", elements=tuple(cleaned), bound=bound)


@dataclass(frozen=True)
class DirectionCloud:
    """Deduplicated primitive directions of k-tuples over a ground set.

    rows is the (n, k) array ``_reduce_numpy`` returns: int64 when every
    element fits a machine word, else object.  An exhaustive cloud holds its
    sorted chamber, one row per permutation orbit; ``sampled`` marks clouds
    built from seeded uniform draws, whose rows are every distinct draw.
    """

    k: int
    rows: np.ndarray
    distinct_entries_only: bool
    rule: str
    bound: int
    sampled: bool = False
    sample_size: int = 0
    seed: int | None = None

    @property
    def count(self) -> int:
        if self.sampled:
            return len(self.rows)
        return int(np.sum(orbit_sizes(self.rows)))

    @property
    def is_empty(self) -> bool:
        return len(self.rows) == 0

    def as_set(self) -> set[tuple[int, ...]]:
        return set(map(tuple, self._full_rows.tolist()))

    @cached_property
    def _full_rows(self) -> np.ndarray:
        """Every row, lexicographic; a chamber is charged and expanded once."""
        if self.sampled:
            return self.rows
        check_budget(self.count * self.k, "expanded cloud entries (count k)")
        return orbit_rows(self.rows)

    def unit_points(self) -> np.ndarray:
        """Float unit vectors, one row per direction, in ``_full_rows`` order."""
        if self.is_empty:
            return np.zeros((0, self.k))
        return unit_rows(self._full_rows)


def orbit_rows(rows: np.ndarray) -> np.ndarray:
    """Every arrangement of each sorted row's entries, lexicographic.

    Each pass places one of the distinct entries a row has left, so every
    arrangement is built once and the work follows the output, not k!;
    the last entry left has one place.
    """
    # entries as lists of 1-D columns: each pass gathers columns, not rows
    placed, rest = [], list(rows.T)
    for _ in range(rows.shape[1] - 1):
        # rows sorted, so entry j is a value not yet tried if it differs
        # from entry j - 1
        fresh = [slice(None)] + [rest[j] != rest[j - 1] for j in range(1, len(rest))]
        placed = [np.concatenate([col[p] for p in fresh]) for col in placed]
        placed.append(np.concatenate([rest[j][p] for j, p in enumerate(fresh)]))
        rest = [np.concatenate([rest[c + (c >= j)][p] for j, p in enumerate(fresh)])
                for c in range(len(rest) - 1)]
    out = np.column_stack(placed + rest)
    del placed, rest  # no column held during the sort
    return _sort_rows(out, unique=False)


def orbit_sizes(rows: np.ndarray) -> np.ndarray:
    """Each sorted row's arrangement count k!/prod(m!), m its entries'
    multiplicities: int64 while k! times the row count is below 2^63, so no
    count or sum of counts overflows, else Python ints."""
    n, k = rows.shape
    # arrangements of a row's first t + 1 entries, a multinomial that grows
    # by (t + 1) / run, run the new entry's place among equals
    run = orbit = 1 if factorial(k) * n < 1 << 63 else np.ones(n, object)
    for t in range(1, k):
        run = np.where(rows[:, t] == rows[:, t - 1], run + 1, 1)
        orbit = orbit * (t + 1) // run
    return orbit


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Float unit vectors of a nonempty int64 or object array of rows."""
    return _unit_in_place(_row_floats(rows))


def _row_floats(rows: np.ndarray) -> np.ndarray:
    """New float rows, object rows scaled as ``core.scaled_floats`` scales one:
    past SCALE_BITS bits by the same int/int division, in one array division,
    else by ``astype``, since float(c) is c / 1 correctly rounded."""
    if rows.dtype == object:
        bits = np.frompyfunc(int.bit_length, 1, 1)(rows.max(axis=1))
        wide = np.flatnonzero(bits > SCALE_BITS)
        if len(wide):  # on a copy, so the caller's rows keep their ints
            rows = rows.copy()
            rows[wide] = rows[wide] / np.left_shift(1, bits[wide] - SCALE_BITS)[:, None]
    return rows.astype(np.float64)


def _unit_in_place(pts: np.ndarray) -> np.ndarray:
    """pts with each row divided by its norm in place: np.linalg.norm's body
    without its copies, in blocks of rows so the squares stay small."""
    for start in range(0, len(pts), _ITER_ROWS):
        part = pts[start : start + _ITER_ROWS]
        part /= np.sqrt(np.add.reduce(part * part, axis=1))[:, None]
    return pts


def _distinct_mask(cols: np.ndarray) -> np.ndarray:
    k = cols.shape[1]
    mask = np.ones(len(cols), dtype=bool)
    for i, j in combinations(range(k), 2):
        mask &= cols[:, i] != cols[:, j]
    return mask


def _chamber_blocks(n: int, k: int, distinct: bool) -> Iterator[np.ndarray]:
    """Sorted index tuples in lexicographic order, blocks of first indices.

    i_0 <= ... <= i_(k-1) < n exactly when the i_t + t strictly increase
    below n + k - 1, so both modes extend first indices a < m strictly.
    A block holds at most _CHUNK tuples unless one first index has more.
    """
    m = n if distinct else n + k - 1
    unsort = 0 if distinct else np.arange(k)
    a = 0
    while a <= m - k:
        b, size = a + 1, comb(m - 1 - a, k - 1)
        while b <= m - k and size + comb(m - 1 - b, k - 1) <= _CHUNK:
            size += comb(m - 1 - b, k - 1)
            b += 1
        rows = np.arange(a, b)[:, None]
        for _ in range(k - 1):  # extend each row by every entry above its last
            counts = m - 1 - rows[:, -1]
            ends = np.cumsum(counts)
            step = np.arange(ends[-1]) - np.repeat(ends - counts, counts)
            last = np.repeat(rows[:, -1] + 1, counts) + step
            rows = np.column_stack([np.repeat(rows, counts, axis=0), last])
        yield rows - unsort
        a = b


def _sampled_block(
    n: int, k: int, sample: int, seed: int, distinct: bool
) -> Iterator[np.ndarray]:
    """The seeded draw as a one-block stream holding no reference to it, so
    the reducer can drop it; distinct indices pick distinct entries."""
    def draw() -> np.ndarray:
        idx = np.random.default_rng(seed).integers(0, n, size=(sample, k))
        return idx[_distinct_mask(idx)] if distinct else idx
    yield draw()


def _sort_rows(rows: np.ndarray, unique: bool) -> np.ndarray:
    """Lexicographically sorted rows, same dtype, each once if ``unique``;
    packed keys hold entry 0 in their top bits, so they sort in row order,
    and object rows sort as int64 ranks among their distinct values."""
    n, k = rows.shape
    if rows.dtype == object:
        flat = rows.ravel().tolist()
        values = sorted(set(flat))
        rank = {v: i for i, v in enumerate(values)}
        ranks = np.fromiter(map(rank.__getitem__, flat), np.int64, n * k)
        return np.array(values, dtype=object)[_sort_rows(ranks.reshape(n, k), unique)]
    packs = rows.dtype == np.int64 and n and rows.min() >= 0
    bits = int(rows.max()).bit_length() if packs else 64
    if k * bits <= 63:
        key = np.zeros(n, dtype=np.int64)
        for j in range(k):
            key <<= bits
            key |= rows[:, j]
        key.sort()
        if unique:
            key = key[np.r_[True, key[1:] != key[:-1]]]
        rows = np.empty((len(key), k), dtype=np.int64)
        for j in range(k):  # column by column: no (n, k) shift temporary
            np.right_shift(key, bits * (k - 1 - j), out=rows[:, j])
        rows &= (1 << bits) - 1
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    if unique:
        rows = np.concatenate([rows[:1], rows[1:][(rows[1:] != rows[:-1]).any(axis=1)]])
    return rows


def _divide_gcd(rows: np.ndarray, live: np.ndarray | None = None) -> None:
    """Divide each row of positive entries by its gcd, in place.

    Most rows turn primitive within two columns, so later columns are read
    only for rows whose running gcd is still above 1, and only those rows
    are divided; ``live``, if given, lists rows whose first pair shares a factor.
    """
    if live is None:
        g = np.gcd(rows[:, 0], rows[:, 1])
        live = np.flatnonzero(g > 1)
        g = g[live]
    else:
        g = np.gcd(rows[live, 0], rows[live, 1])
    for j in range(2, rows.shape[1]):
        g = np.gcd(g, rows[live, j])
        keep = g > 1
        live, g = live[keep], g[keep]
    rows[live] //= g[:, None]


def _shared_pairs(elems: np.ndarray) -> np.ndarray:
    """Boolean n x n table: whether elements i and j share a factor."""
    return np.gcd.outer(elems, elems) > 1


def _reduce_numpy(
    elems: np.ndarray, k: int, blocks: Iterable[np.ndarray]
) -> np.ndarray:
    """Sorted distinct primitive forms of the tuples the index blocks pick.

    elems is an int64 array or an object array of Python ints; every step
    here works on both.  A block of n^2 or more tuples reads its ``live`` rows
    from a ``_shared_pairs`` table, which is dropped before the rows are gathered.
    """
    pieces = []
    for idx in blocks:
        live = None if len(elems) ** 2 > len(idx) else np.flatnonzero(
            _shared_pairs(elems)[idx[:, 0], idx[:, 1]])
        rows = elems[idx]
        del idx  # free the index block before the sort
        if len(rows):
            _divide_gcd(rows, live)
            pieces.append(_sort_rows(rows, unique=True))
    if not pieces:
        return np.zeros((0, k), dtype=np.int64)
    if len(pieces) == 1:
        return pieces[0]
    return _sort_rows(np.concatenate(pieces), unique=True)


def directions(
    A: GroundSet,
    k: int,
    distinct_entries_only: bool = False,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> DirectionCloud:
    """The direction cloud of A, exact unless sampling is requested.

    Exhaustive mode enumerates the sorted tuples and refuses when the |A|^k
    ordered tuples they stand for exceed the budget; pass ``sample`` (uniform
    tuple draws whose sample * k entries are budget-capped) for a flagged
    sampled cloud.
    In distinct mode sampled draws with repeated entries are discarded, so
    the realized draw count can be slightly below ``sample``.
    """
    if k < 2:
        raise DomainError("dimension k must be >= 2")
    n = len(A.elements)
    if sample is None:
        if distinct_entries_only and n < k:
            raise DomainError(
                f"distinct-entry tuples need |A| >= k, got |A|={n}, k={k}"
            )
        if n > 1:  # n^k >= 2^k, which refuses a huge k before n^k is built
            check_budget(1 << k, f"{n}^{k} tuples (at least 2^{k}; or pass a sample)")
        check_budget(n**k, f"{n}^{k} tuples (or pass a sample size)")
    elif sample < 1:
        raise DomainError("sample size must be >= 1")
    else:
        # _sampled_block draws sample x k int64 indices at once
        check_budget(sample * k, "sampled draw entries")
        if seed < 0:
            raise DomainError("seed must be >= 0")
    elems = A.elements
    if n == 0 or (distinct_entries_only and n < k):
        rows = np.zeros((0, k), dtype=np.int64)
    else:
        if sample is None:
            blocks = _chamber_blocks(n, k, distinct_entries_only)
        else:
            blocks = _sampled_block(n, k, sample, seed, distinct_entries_only)
        dtype = object if elems[-1] >= _INT64_LIMIT else np.int64
        rows = _reduce_numpy(np.array(elems, dtype=dtype), k, blocks)
    return DirectionCloud(
        k=k,
        rows=rows,
        distinct_entries_only=distinct_entries_only,
        rule=A.rule,
        bound=A.bound,
        sampled=sample is not None,
        sample_size=sample or 0,
        seed=None if sample is None else seed,
    )


def _write_csv(path: str, header: Sequence[str], rows: np.ndarray) -> None:
    """LF-terminated CSV of a 2-D array, the same bytes on every platform.

    Nonnegative int64 cells come from tables of ``b"%d,"`` and ``b"%d\\n"``
    tokens, NUL padding dropped, when max < size bounds the tables' cost;
    all else goes through ``%s``: str of an int, repr of a float.
    """
    top = int(rows.max()) if rows.dtype == np.int64 and rows.size else 0
    tokens = 0 < top < rows.size and rows.min() >= 0
    if tokens:
        digits = np.arange(top + 1).astype(f"S{len(str(top))}")
        comma, newline = np.char.add(digits, b","), np.char.add(digits, b"\n")
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), _ITER_ROWS):
            chunk = rows[start : start + _ITER_ROWS]
            if tokens:
                cells = comma[chunk]
                cells[:, -1] = newline[chunk[:, -1]]
                fh.write(cells.tobytes().translate(None, b"\0"))
            else:
                fh.write((line * len(chunk) % tuple(chunk.ravel().tolist())).encode())


def export_csv(cloud: DirectionCloud, path: str) -> None:
    """One primitive direction per row, plain integer entries."""
    _write_csv(path, [f"c{i}" for i in range(cloud.k)], cloud._full_rows)


def cloud_metadata(cloud: DirectionCloud) -> dict:
    meta = {
        "rule": cloud.rule,
        "N": cloud.bound,
        "k": cloud.k,
        "distinct": cloud.distinct_entries_only,
        "count": cloud.count,
        "sampled": cloud.sampled,
    }
    if cloud.sampled:
        meta["sample_size"] = cloud.sample_size
        meta["seed"] = cloud.seed
    return meta
