"""Ground sets and their finite direction clouds.

A ground set is a finite prefix A of positive integers given by a rule
(naturals, primes, powers, polynomial values, an explicit list, or the
output of the target constructor).  Its direction cloud is the exact set of
primitive vectors of all ordered k-tuples over A, optionally restricted to
tuples with pairwise distinct entries.

Enumeration is exhaustive below a tuple budget and refuses above it; the
caller can instead request seeded uniform sampling, which is always flagged
in the result so sampled and exhaustive clouds are never confused.  Small
machine-word elements run vectorized through numpy; anything larger (the
constructor's factorial-scale values beyond 20!) takes a big-integer path.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, ResourceError

DEFAULT_BUDGET = 10**8

# int64 holds products only up to 2^63; keep reduction safely inside
_INT64_LIMIT = 1 << 62

_CHUNK = 1 << 20


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


@dataclass(frozen=True)
class GroundSet:
    """A materialized prefix A ∩ [1, N] of a ground-set rule.

    ``provenance`` and ``steps`` are filled only by the target constructor:
    provenance maps each element to the (coordinate, step) pairs that
    produced it, and steps keeps the per-step construction records.
    """

    rule: str
    elements: tuple[int, ...]
    bound: int
    provenance: Mapping[int, tuple[tuple[int, int], ...]] | None = field(
        default=None, compare=False
    )
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

    def max(self) -> int:
        if not self.elements:
            raise DomainError("empty ground set has no maximum")
        return self.elements[-1]


def _sieve_primes(n: int) -> list[int]:
    if n < 2:
        return []
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return [int(p) for p in np.nonzero(mask)[0]]


def ground_set(rule: str, N: int) -> GroundSet:
    """Materialize A ∩ [1, N] for one of the built-in rules.

    Rules: "naturals", "primes", "powers-of-<b>" (b >= 2), "poly-<d>"
    (values n^d, d >= 1).
    """
    if N < 1:
        raise DomainError("bound must be >= 1")
    if N > budget():
        raise ResourceError(
            f"bound {N} exceeds the memory budget {budget()}; "
            "raise DIRECTIONS_BUDGET to allow it"
        )
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


def explicit_ground_set(values: Sequence[int], rule: str = "explicit") -> GroundSet:
    cleaned = sorted(set(values))
    if any(v < 1 for v in cleaned):
        raise DomainError("ground-set elements must be positive")
    bound = cleaned[-1] if cleaned else 0
    return GroundSet(rule=rule, elements=tuple(cleaned), bound=bound)


@dataclass(frozen=True)
class DirectionCloud:
    """Deduplicated primitive directions of k-tuples over a ground set.

    rows is an (n, k) int64 array when every element fits a machine word,
    otherwise a tuple of int tuples.  ``sampled`` marks clouds built from
    seeded uniform draws instead of full enumeration.
    """

    k: int
    rows: object
    distinct_entries_only: bool
    rule: str
    bound: int
    sampled: bool = False
    sample_size: int = 0
    seed: int | None = None

    @property
    def count(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        return len(self.rows) == 0

    def as_set(self) -> set[tuple[int, ...]]:
        if isinstance(self.rows, np.ndarray):
            return {tuple(int(c) for c in row) for row in self.rows}
        return set(self.rows)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if isinstance(self.rows, np.ndarray):
            for row in self.rows:
                yield tuple(int(c) for c in row)
        else:
            yield from self.rows

    def unit_points(self) -> np.ndarray:
        """Float unit vectors, one row per direction."""
        if self.is_empty:
            return np.zeros((0, self.k))
        if isinstance(self.rows, np.ndarray):
            pts = self.rows.astype(np.float64)
        else:
            pts = np.array([_scaled_floats(row) for row in self.rows])
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _scaled_floats(row: tuple[int, ...]) -> list[float]:
    """The row over a power of two that keeps its squared norm finite.

    int/int division rounds correctly, so a row below 2^60 converts
    exactly as float(c) would, and a larger one only by a power of two
    more, which normalization cancels.
    """
    d = 1 << max(0, max(row).bit_length() - 60)
    return [c / d for c in row]


def _distinct_mask(cols: np.ndarray) -> np.ndarray:
    k = cols.shape[1]
    mask = np.ones(len(cols), dtype=bool)
    for i, j in combinations(range(k), 2):
        mask &= cols[:, i] != cols[:, j]
    return mask


def _reduce_rows(rows: np.ndarray) -> np.ndarray:
    g = np.gcd.reduce(rows, axis=1)
    return rows // g[:, None]


def _exhaustive_numpy(
    elems: np.ndarray, k: int, distinct: bool
) -> np.ndarray:
    n = len(elems)
    total = n**k
    shape = (n,) * k
    pieces = []
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        idx = np.unravel_index(flat, shape)
        rows = elems[np.stack(idx, axis=1)]
        if distinct:
            rows = rows[_distinct_mask(rows)]
        if len(rows):
            pieces.append(np.unique(_reduce_rows(rows), axis=0))
    if not pieces:
        return np.zeros((0, k), dtype=np.int64)
    return np.unique(np.concatenate(pieces), axis=0)


def _sampled_numpy(
    elems: np.ndarray, k: int, distinct: bool, sample: int, seed: int
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(elems), size=(sample, k))
    rows = elems[idx]
    if distinct:
        rows = rows[_distinct_mask(rows)]
    if len(rows) == 0:
        return np.zeros((0, k), dtype=np.int64)
    return np.unique(_reduce_rows(rows), axis=0)


def _reduce_python(
    tuples: Iterable[tuple[int, ...]], k: int, distinct: bool
) -> tuple[tuple[int, ...], ...]:
    """Sorted distinct primitive forms of big-integer tuples."""
    seen: set[tuple[int, ...]] = set()
    for tup in tuples:
        if distinct and len(set(tup)) != k:
            continue
        g = gcd(*tup)
        seen.add(tuple(c // g for c in tup))
    return tuple(sorted(seen))


def directions(
    A: GroundSet,
    k: int,
    distinct_entries_only: bool = False,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> DirectionCloud:
    """The direction cloud of A, exact unless sampling is requested.

    Exhaustive mode enumerates all |A|^k ordered tuples and refuses when
    that count exceeds the budget; pass ``sample`` (a number of uniform
    tuple draws) to get a flagged sampled cloud instead.  In distinct mode
    sampled draws with repeated entries are discarded, so the realized draw
    count can be slightly below ``sample``.
    """
    if k < 2:
        raise DomainError("dimension k must be >= 2")
    n = len(A.elements)
    if sample is None:
        if distinct_entries_only and n < k:
            raise DomainError(
                f"distinct-entry tuples need |A| >= k, got |A|={n}, k={k}"
            )
        total = n**k
        if total > budget():
            raise ResourceError(
                f"{n}^{k} = {total} tuples exceed the budget {budget()}; "
                "pass a sample size or raise DIRECTIONS_BUDGET"
            )
    elif sample < 1:
        raise DomainError("sample size must be >= 1")
    elems = A.elements
    if n == 0 or (distinct_entries_only and n < k):
        rows: object = np.zeros((0, k), dtype=np.int64)
    elif elems[-1] < _INT64_LIMIT:
        arr = np.asarray(elems, dtype=np.int64)
        if sample is None:
            rows = _exhaustive_numpy(arr, k, distinct_entries_only)
        else:
            rows = _sampled_numpy(arr, k, distinct_entries_only, sample, seed)
    else:
        if sample is None:
            tuples = product(elems, repeat=k)
        else:
            rng = random.Random(seed)
            tuples = (
                tuple(elems[rng.randrange(n)] for _ in range(k))
                for _ in range(sample)
            )
        rows = _reduce_python(tuples, k, distinct_entries_only)
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


def _write_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """LF-terminated CSV, the same bytes on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_csv(cloud: DirectionCloud, path: str) -> None:
    """One primitive direction per row, plain integer entries."""
    _write_csv(path, [f"c{i}" for i in range(cloud.k)], cloud)


def cloud_metadata(cloud: DirectionCloud) -> dict:
    meta = {
        "schema_version": 1,
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
