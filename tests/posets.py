"""Exhaustive poset enumeration up to isomorphism, the generator of the
test corpora.

Posets are reflexive order relations given as bit rows (bit j of row i set
iff i >= j).  Each size is generated from the previous one by adjoining a new
maximal element over every order ideal; every finite poset arises this way
by peeling a maximal element.  Extensions are bucketed by their sorted
(row, column) popcounts, an isomorphism invariant, and deduplicated within a
bucket with ``are_isomorphic``; each class is then named by its canonical
form.
"""

from __future__ import annotations

from functools import lru_cache

from critalg.iso import are_isomorphic, canonical_form
from critalg.quivers import Quiver, _bits, cover_arrows, transpose


@lru_cache(maxsize=None)
def posets_up_to_iso(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives of all posets with exactly n elements, sorted."""
    if n == 0:
        return ((),)
    k = n - 1
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for base in posets_up_to_iso(k):
        for ideal in _ideals(base, k):
            rows = base + ((1 << k) | ideal,)
            key = tuple(sorted(zip(map(int.bit_count, rows), map(int.bit_count, transpose(rows)))))
            bucket = buckets.setdefault(key, [])
            if not any(are_isomorphic(n, rows, n, other) for other in bucket):
                bucket.append(rows)
    return tuple(sorted(canonical_form(n, list(rows)) for bucket in buckets.values() for rows in bucket))


def _ideals(rows: tuple[int, ...], k: int):
    """Down-closed subsets: every element's row (its down-set) stays inside."""
    for mask in range(1 << k):
        if not any(rows[x] & ~mask for x in _bits(mask)):
            yield mask


def hasse_quiver_of(rows: tuple[int, ...]) -> Quiver:
    """The Hasse quiver of an order relation (names are 1-based positions)."""
    names = [str(i + 1) for i in range(len(rows))]
    return Quiver(names, [(names[a], names[b]) for a, b in cover_arrows(rows)])
