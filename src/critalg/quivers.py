"""Finite acyclic quivers, reachability orders, and contour combinatorics.

Vertices are user-chosen string tokens externally and dense integer indices
internally; vertex subsets are bitmasks throughout, which keeps the
exponential subcategory scans cheap at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import NotAPartialOrder, TriangularityViolation


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class Quiver:
    """A finite directed graph without parallel arrows.

    Vertex names keep their declared order; arrows are stored as index pairs.
    Loops and cycles are representable (the predicates below test for them);
    the algebra layer rejects them where required.
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
        indeg = [_popcount(self.in_mask[i]) for i in range(self.n)]
        stack = sorted(i for i in range(self.n) if indeg[i] == 0)
        order = []
        ready = stack[::-1]
        while ready:
            v = ready.pop()
            order.append(v)
            for w in sorted(_bits(self.out_mask[v])):
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


def is_triangular(quiver: Quiver) -> bool:
    """True iff the quiver has no directed cycle (loops included)."""
    try:
        quiver.topological_order()
    except TriangularityViolation:
        return False
    return True


def reachability(quiver: Quiver) -> set[tuple[str, str]]:
    """The partial order x >= y iff a directed path x ~> y exists (reflexive)."""
    rows = quiver._reach_rows
    return {
        (quiver.names[x], quiver.names[y])
        for x in range(quiver.n)
        for y in _bits(rows[x])
    }


def has_bypass(quiver: Quiver) -> bool:
    """True iff some arrow x->y coexists with a path x ~> y of length >= 2."""
    if not is_triangular(quiver):
        # fall back to a local check that ignores cycles through the arrow
        for s, t in quiver.arrows:
            for m in _bits(quiver.out_mask[s] & ~(1 << t)):
                if _reachable_avoiding(quiver, m, t, avoid=-1):
                    return True
        return False
    for s, t in quiver.arrows:
        for m in _bits(quiver.out_mask[s] & ~(1 << t)):
            if quiver.reaches(m, t):
                return True
    return False


def _reachable_avoiding(quiver: Quiver, src: int, dst: int, avoid: int) -> bool:
    seen = 0
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        if seen >> v & 1:
            continue
        seen |= 1 << v
        for w in _bits(quiver.out_mask[v]):
            if w != avoid:
                stack.append(w)
    return False


def hasse_reduction(pairs: Iterable[tuple[str, str]]) -> Quiver:
    """Transitive reduction of a finite partial order into its Hasse quiver.

    ``pairs`` are read as x >= y; reflexive pairs may be present or absent.
    """
    pairs = [(str(a), str(b)) for a, b in pairs]
    names = []
    seen = set()
    for a, b in pairs:
        for v in (a, b):
            if v not in seen:
                seen.add(v)
                names.append(v)
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    ge = [0] * n
    for a, b in pairs:
        ge[idx[a]] |= 1 << idx[b]
    for i in range(n):
        ge[i] |= 1 << i
    for a in range(n):
        for b in range(n):
            if a != b and ge[a] >> b & 1 and ge[b] >> a & 1:
                raise NotAPartialOrder(f"{names[a]} and {names[b]} compare both ways")
    # transitive closure (the input may be any generating set of the order)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            acc = ge[a]
            for b in _bits(ge[a]):
                acc |= ge[b]
            if acc != ge[a]:
                ge[a] = acc
                changed = True
    for a in range(n):
        for b in range(n):
            if a != b and ge[a] >> b & 1 and ge[b] >> a & 1:
                raise NotAPartialOrder(f"{names[a]} and {names[b]} compare both ways")
    return Quiver(names, [(names[a], names[b]) for a, b in cover_arrows(ge)])


def cover_arrows(rows: Sequence[int]) -> list[tuple[int, int]]:
    """The covering pairs (a, b) of a transitively closed order relation:
    b lies strictly below a, and no c lies strictly between them.

    Bit b of ``rows[a]`` reads a >= b; diagonal bits may be set or not.
    """
    arrows = []
    for a, row in enumerate(rows):
        below = row & ~(1 << a)
        deeper = 0
        for c in _bits(below):
            deeper |= rows[c] & ~(1 << c)
        arrows.extend((a, b) for b in _bits(below & ~deeper))
    return arrows


def transpose(rows: Sequence[int]) -> list[int]:
    """The bit rows of the reversed relation: bit v of row w iff bit w of row v."""
    cols = [0] * len(rows)
    for v, row in enumerate(rows):
        for w in _bits(row):
            cols[w] |= 1 << v
    return cols


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


def is_convex(quiver: Quiver, subset: Iterable[str]) -> bool:
    """True iff every directed path between members of the subset stays inside."""
    mask = 0
    for v in subset:
        mask |= 1 << quiver.index[str(v)]
    return convex_mask(quiver._reach_rows, mask)


def convex_mask(reach_rows: Sequence[int], mask: int) -> bool:
    """True iff no vertex outside ``mask`` lies below one member and above
    another, for the reflexive reachability rows of an acyclic quiver."""
    entered = 0
    for x in _bits(mask):
        entered |= reach_rows[x]
    return not any(reach_rows[z] & mask for z in _bits(entered & ~mask))


def opposite(quiver: Quiver) -> Quiver:
    """All arrows reversed; an involution."""
    return Quiver(quiver.names, [(b, a) for a, b in quiver.arrow_names()])
