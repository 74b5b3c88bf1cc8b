"""Finite acyclic quivers, reachability orders, and contour combinatorics.

Vertices are user-chosen string tokens externally and dense integer indices
internally; vertex subsets are bitmasks throughout, which keeps the
exponential subcategory scans cheap at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import TriangularityViolation


def _bits(mask: int):
    """The set bits of ``mask``, ascending, one lowest set bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Quiver:
    """A finite directed graph without parallel arrows.

    Vertex names keep their declared order; arrows are stored as index pairs.
    Loops and cycles are representable; reachability and the topological
    order raise TriangularityViolation on them.
    """

    def __init__(self, vertices: Sequence[str], arrows: Iterable[tuple[str, str]]):
        names = [str(v) for v in vertices]
        if len(set(names)) != len(names):
            raise ValueError("duplicate vertex names")
        self.names: tuple[str, ...] = tuple(names)
        self.index: dict[str, int] = {v: i for i, v in enumerate(names)}
        seen = set()
        arr = []
        for s, t in arrows:
            s, t = str(s), str(t)
            if s not in self.index or t not in self.index:
                raise ValueError(f"arrow endpoint not a declared vertex: {s}->{t}")
            pair = (self.index[s], self.index[t])
            if pair in seen:
                continue
            seen.add(pair)
            arr.append(pair)
        self.arrows: tuple[tuple[int, int], ...] = tuple(sorted(arr))
        self.n = len(names)
        self.out_mask = [0] * self.n
        self.in_mask = [0] * self.n
        for s, t in self.arrows:
            self.out_mask[s] |= 1 << t
            self.in_mask[t] |= 1 << s

    # -- basic views ------------------------------------------------------

    def arrow_names(self) -> list[tuple[str, str]]:
        return [(self.names[s], self.names[t]) for s, t in self.arrows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and self.names == other.names
            and self.arrows == other.arrows
        )

    def __hash__(self) -> int:
        return hash((self.names, self.arrows))

    def __repr__(self) -> str:
        arrows = ", ".join(f"{a}->{b}" for a, b in self.arrow_names())
        return f"Quiver({list(self.names)}, [{arrows}])"

    # -- reachability ------------------------------------------------------

    @cached_property
    def _reach_rows(self) -> tuple[int, ...]:
        """Bit rows of the strict+reflexive reachability closure.

        Raises TriangularityViolation on a directed cycle.
        """
        order = self.topological_order()
        rows = [1 << i for i in range(self.n)]
        for v in reversed(order):
            acc = 1 << v
            for w in _bits(self.out_mask[v]):
                acc |= rows[w]
            rows[v] = acc
        return tuple(rows)

    def topological_order(self) -> list[int]:
        indeg = [m.bit_count() for m in self.in_mask]
        ready = [i for i in reversed(range(self.n)) if not indeg[i]]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in _bits(self.out_mask[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != self.n:
            raise TriangularityViolation("quiver has a directed cycle")
        return order

    def reaches(self, x: int, y: int) -> bool:
        return bool(self._reach_rows[x] >> y & 1)


@dataclass(frozen=True)
class Path:
    """A directed path given by its vertex sequence (length = #arrows)."""

    vertices: tuple[str, ...]

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def interior(self) -> frozenset[str]:
        return frozenset(self.vertices[1:-1])

    def contains_subpath(self, other: "Path") -> bool:
        """True if ``other``'s vertex run occurs contiguously inside this path."""
        a, b = self.vertices, other.vertices
        if len(b) > len(a):
            return False
        return any(a[i : i + len(b)] == b for i in range(len(a) - len(b) + 1))


@dataclass(frozen=True)
class Contour:
    """An unordered pair of distinct parallel paths of positive length."""

    p: Path
    q: Path

    @property
    def source(self) -> str:
        return self.p.source

    @property
    def target(self) -> str:
        return self.p.target


def is_bypass(quiver: Quiver, s: int, t: int) -> bool:
    """True iff the arrow s->t coexists with a path s ~> t of length >= 2.

    Raises TriangularityViolation on a directed cycle."""
    return any(quiver.reaches(m, t) for m in _bits(quiver.out_mask[s] & ~(1 << t)))


def has_bypass(quiver: Quiver) -> bool:
    """True iff some arrow is a bypass (``is_bypass``)."""
    return any(is_bypass(quiver, s, t) for s, t in quiver.arrows)


def covers(rows: Sequence[int]) -> list[int]:
    """The cover rows of a relation: bit b of row a iff b is in ``rows[a]``,
    b != a, and no c outside {a, b} has c in ``rows[a]`` and b in ``rows[c]``.

    That is the cover relation of an order, and the arrow skeleton of any
    hom support, transitively closed or not.  Bit b of ``rows[a]`` reads
    a >= b; diagonal bits may be set or not.
    """
    out = []
    for a, row in enumerate(rows):
        below = row & ~(1 << a)
        deeper = 0
        for c in _bits(below):
            deeper |= rows[c] & ~(1 << c)
        out.append(below & ~deeper)
    return out


def cover_arrows(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (a, b) of ``covers(rows)``, in index order."""
    return [(a, b) for a, row in enumerate(covers(rows)) for b in _bits(row)]


def classes(masks: Iterable[int]) -> list[int]:
    """The classes of the nonzero ``masks`` under the transitive closure of
    "intersects", each as the union of its members: pairwise disjoint masks."""
    out: list[int] = []
    for mask in masks:
        if not mask:
            continue
        merged, rest = mask, []
        for c in out:
            if c & mask:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        out = rest
    return out


def transpose(rows: Sequence[int]) -> list[int]:
    """The bit rows of the reversed relation: bit v of row w iff bit w of row v."""
    cols = [0] * len(rows)
    for v, row in enumerate(rows):
        for w in _bits(row):
            cols[w] |= 1 << v
    return cols


def _sub_rows(rows: Sequence[int], mask: int) -> list[int]:
    """A relation given by bit rows, restricted to the members of ``mask``
    and re-indexed into induced positions: one pass over the members gives
    each its induced bit, and each member's row gathers the bits of the
    members it holds."""
    local = {}
    for w in _bits(mask):
        local[w] = 1 << len(local)
    out = []
    for v in local:
        row = 0
        for w in _bits(rows[v] & mask):
            row |= local[w]
        out.append(row)
    return out


def all_paths(quiver: Quiver, src: int, dst: int) -> list[tuple[int, ...]]:
    """All directed paths src ~> dst as vertex index tuples, in lexicographic
    order (memoized).

    Exponential in general: a small-input oracle, not for production paths.
    Iterative, so long chains cannot exhaust the interpreter's stack.
    """
    cache = quiver.__dict__.setdefault("_path_cache", {})
    stack = [src]
    while stack:
        v = stack[-1]
        key = (v, dst)
        if key in cache:
            stack.pop()
            continue
        if v == dst:
            cache[key] = [(v,)]
            stack.pop()
            continue
        succ = [m for m in _bits(quiver.out_mask[v]) if quiver.reaches(m, dst)]
        pending = [m for m in succ if (m, dst) not in cache]
        if pending:
            stack.extend(pending)
            continue
        cache[key] = [(v,) + tail for m in succ for tail in cache[(m, dst)]]
        stack.pop()
    return cache[(src, dst)]


def lexmin_path(quiver: Quiver, src: int, dst: int) -> tuple[int, ...]:
    """The first path src ~> dst in ``all_paths`` order, without enumeration:
    from each vertex, step to the smallest successor that still reaches dst."""
    if not quiver.reaches(src, dst):
        raise ValueError(f"no path {quiver.names[src]} ~> {quiver.names[dst]}")
    path = [src]
    while path[-1] != dst:
        path.append(next(m for m in _bits(quiver.out_mask[path[-1]]) if quiver.reaches(m, dst)))
    return tuple(path)


def contours(quiver: Quiver) -> list[Contour]:
    """All contours, grouped by endpoint pair in vertex order."""
    out = []
    for x in range(quiver.n):
        for y in range(quiver.n):
            if x == y or not quiver.reaches(x, y):
                continue
            paths = [p for p in all_paths(quiver, x, y) if len(p) > 1]
            if len(paths) < 2:
                continue
            paths.sort()
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    out.append(
                        Contour(
                            Path(tuple(quiver.names[v] for v in paths[i])),
                            Path(tuple(quiver.names[v] for v in paths[j])),
                        )
                    )
    return out


def is_interlaced(contour: Contour) -> bool:
    """True iff the two paths share a vertex besides the endpoints."""
    return bool(contour.p.interior & contour.q.interior)


def _interlacing_components(paths: list[tuple[frozenset, tuple]]) -> list[int]:
    """Union-find over paths, joining interlaced pairs; returns root per path."""
    parent = list(range(len(paths)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if paths[i][0] & paths[j][0]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    return [find(i) for i in range(len(paths))]


def is_irreducible(quiver: Quiver, contour: Contour) -> bool:
    """True iff no chain of pairwise-interlaced parallel paths joins p to q.

    Decided as disconnection in the interlacing graph over all parallel
    paths with the contour's endpoints.
    """
    x = quiver.index[contour.source]
    y = quiver.index[contour.target]
    paths = [p for p in all_paths(quiver, x, y) if len(p) > 1]
    keyed = [
        (frozenset(quiver.names[v] for v in p[1:-1]), tuple(quiver.names[v] for v in p))
        for p in paths
    ]
    roots = _interlacing_components(keyed)
    by_verts = {k[1]: roots[i] for i, k in enumerate(keyed)}
    return by_verts[contour.p.vertices] != by_verts[contour.q.vertices]


def irreducible_contours(quiver: Quiver) -> list[Contour]:
    return [c for c in contours(quiver) if is_irreducible(quiver, c)]


def convex_mask(reach_rows: Sequence[int], mask: int) -> bool:
    """True iff no vertex outside ``mask`` lies below one member and above
    another, for the reflexive reachability rows of an acyclic quiver."""
    entered = 0
    for x in _bits(mask):
        entered |= reach_rows[x]
    return not any(reach_rows[z] & mask for z in _bits(entered & ~mask))
