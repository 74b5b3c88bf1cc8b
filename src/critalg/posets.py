"""Exhaustive poset enumeration up to isomorphism.

Posets are reflexive order relations given as bit rows (bit j of row i set
iff i >= j).  Each size is generated from the previous one by adjoining a new
maximal element over every order ideal, with canonical-form deduplication;
every finite poset arises this way by peeling a maximal element.
"""

from __future__ import annotations

from functools import lru_cache

from .iso import canonical_form
from .quivers import Quiver, _bits, cover_arrows


@lru_cache(maxsize=None)
def posets_up_to_iso(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives of all posets with exactly n elements."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    if n == 1:
        return ((1,),)
    out = {}
    for base in posets_up_to_iso(n - 1):
        k = n - 1
        for ideal in _ideals(base, k):
            rows = list(base) + [(1 << k) | ideal]
            key = canonical_form(n, rows)
            out.setdefault(key, key)
    return tuple(sorted(out))


def _ideals(rows: tuple[int, ...], k: int):
    """Down-closed subsets: every element's row (its down-set) stays inside."""
    for mask in range(1 << k):
        if not any(rows[x] & ~mask for x in _bits(mask)):
            yield mask


def hasse_quiver_of(rows: tuple[int, ...]) -> Quiver:
    """The Hasse quiver of an order relation (names are 1-based positions)."""
    names = [str(i + 1) for i in range(len(rows))]
    return Quiver(names, [(names[a], names[b]) for a, b in cover_arrows(rows)])
