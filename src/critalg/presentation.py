"""Schurian algebra presentations.

Two layers share one core class:

* ``IncidenceQuotient`` -- a bypass-free Hasse quiver plus monomial zero pairs,
  with the hom support computed by the domination rule (hom(x,y) = 1 iff
  x ~> y and no zero pair (s,t) has x ~> s and t ~> y) and a certification
  status for the irreducible-contour condition on the zero generators.
* ``SchurianAlgebra`` -- any 0/1 hom-support function on an acyclic vertex set,
  as produced by full subcategories, vertex killing, and templates.  The
  arrow skeleton, reachability, and zero pairs are all derived from hom.

Zero relations are stored as endpoint pairs: parallel paths are identified,
so a monomial generator kills the whole hom space and the endpoints are a
complete description.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    EmptySelection,
    MalformedRelation,
    NotAHasseDiagram,
    TriangularityViolation,
)
from .quivers import Quiver, _bits, _popcount, has_bypass, is_triangular, lexmin_path, transpose

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Validity:
    """Certification status of an incidence quotient's presentation."""

    certified: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.certified


CERTIFIED = Validity(True)


class SchurianAlgebra:
    """A schurian triangular algebra presented by a 0/1 hom-support matrix.

    ``hom_rows[x]`` has bit y set iff the hom space from x to y is nonzero.
    The quiver is the arrow skeleton derived from hom; zero pairs are the
    skeleton-connected pairs with hom 0.
    """

    def __init__(self, names: Sequence[str], hom_rows: Sequence[int], label: str = "",
                 validity: Validity | None = None):
        self.names = tuple(str(v) for v in names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate vertex names")
        self.index = {v: i for i, v in enumerate(self.names)}
        self.n = len(self.names)
        self.hom_rows = tuple(int(r) for r in hom_rows)
        self.label = label
        self.validity = validity
        self._cache: dict = {}
        for i in range(self.n):
            if not self.hom_rows[i] >> i & 1:
                raise ValueError(f"hom({self.names[i]},{self.names[i]}) must be 1")
        self._check_acyclic()

    # -- construction helpers ---------------------------------------------

    def _check_acyclic(self):
        # hom(x,y)=1 for x != y orients x above y; antisymmetry <=> triangular
        for i in range(self.n):
            for j in _bits(self.hom_rows[i] & ~(1 << i)):
                if self.hom_rows[j] >> i & 1:
                    raise TriangularityViolation(
                        f"hom is nonzero both ways between {self.names[i]} and {self.names[j]}"
                    )
        self.quiver.topological_order()

    @cached_property
    def quiver(self) -> Quiver:
        """Arrow skeleton: x->y iff hom(x,y)=1 with no hom-factorization."""
        arrows = []
        cols = transpose(self.hom_rows)
        for x in range(self.n):
            row = self.hom_rows[x] & ~(1 << x)
            for y in _bits(row):
                through = row & cols[y] & ~(1 << y)
                if not through:
                    arrows.append((self.names[x], self.names[y]))
        return Quiver(self.names, arrows)

    @cached_property
    def reach_rows(self) -> tuple[int, ...]:
        return self.quiver._reach_rows

    @cached_property
    def zero_pairs(self) -> tuple[tuple[str, str], ...]:
        out = []
        for x in range(self.n):
            row = self.reach_rows[x] & ~self.hom_rows[x]
            for y in _bits(row):
                out.append((self.names[x], self.names[y]))
        return tuple(sorted(out))

    # -- queries -----------------------------------------------------------

    def hom(self, x: str, y: str) -> int:
        return self.hom_rows[self.index[str(x)]] >> self.index[str(y)] & 1

    def hom_bit(self, x: int, y: int) -> int:
        return self.hom_rows[x] >> y & 1

    def sources(self) -> list[str]:
        q = self.quiver
        return [q.names[i] for i in range(q.n) if q.in_mask[i] == 0]

    def sinks(self) -> list[str]:
        q = self.quiver
        return [q.names[i] for i in range(q.n) if q.out_mask[i] == 0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SchurianAlgebra)
            and self.names == other.names
            and self.hom_rows == other.hom_rows
        )

    def __hash__(self) -> int:
        return hash((self.names, self.hom_rows))

    def __repr__(self) -> str:
        tag = self.label or "schurian"
        return f"<{tag}: {self.n} vertices, {len(self.quiver.arrows)} arrows, {len(self.zero_pairs)} zero pairs>"

    # -- derived algebras ----------------------------------------------------

    def restrict_mask(self, mask: int, label: str = "") -> "SchurianAlgebra":
        keep = [i for i in range(self.n) if mask >> i & 1]
        if not keep:
            raise EmptySelection("empty vertex selection")
        names = [self.names[i] for i in keep]
        pos = {v: p for p, v in enumerate(keep)}
        rows = []
        for i in keep:
            r = 0
            for j in _bits(self.hom_rows[i] & mask):
                r |= 1 << pos[j]
            rows.append(r)
        return SchurianAlgebra(names, rows, label=label)

    def mask_of(self, vertices: Iterable[str]) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << self.index[str(v)]
        return mask


class IncidenceQuotient(SchurianAlgebra):
    """kQ/(I + J): a Hasse quiver with commutativity relations and zero pairs."""

    def __init__(self, hasse: Quiver, zeros: Iterable[tuple[str, str]], label: str = ""):
        if not is_triangular(hasse):
            raise TriangularityViolation("Hasse quiver has a directed cycle")
        if has_bypass(hasse):
            raise NotAHasseDiagram("quiver has a bypass; not a Hasse diagram")
        self.hasse = hasse
        zset = []
        for s, t in zeros:
            s, t = str(s), str(t)
            if s not in hasse.index or t not in hasse.index:
                raise MalformedRelation(f"zero pair mentions unknown vertex: {s} ~> {t}")
            si, ti = hasse.index[s], hasse.index[t]
            if si == ti:
                raise MalformedRelation(f"zero pair with equal endpoints: {s} ~> {t}")
            if not hasse.reaches(si, ti) or (si, ti) in hasse.arrows:
                # relations need a realizing path of length >= 2; in a Hasse
                # quiver an arrow excludes any longer parallel path
                raise MalformedRelation(
                    f"no path of length >= 2 realizes the zero pair {s} ~> {t}"
                )
            zset.append((si, ti))
        self.declared_zeros = tuple(sorted(set(zset)))
        rows = _hom_from_zeros(hasse, self.declared_zeros)
        super().__init__(hasse.names, rows, label=label, validity=None)
        self.validity = _certify(hasse, self.declared_zeros)

    @property
    def is_incidence_algebra(self) -> bool:
        return not self.declared_zeros


def _hom_from_zeros(hasse: Quiver, zeros: Sequence[tuple[int, int]]) -> list[int]:
    reach = hasse._reach_rows
    rows = list(reach)
    for x in range(hasse.n):
        killed = 0
        for s, t in zeros:
            if reach[x] >> s & 1:
                killed |= reach[t]
        rows[x] = reach[x] & ~killed
        rows[x] |= 1 << x
    return rows


def _certify(hasse: Quiver, zeros: Sequence[tuple[int, int]]) -> Validity:
    """The sufficient gate for strong simple connectedness of the quotient:
    no realizing path of a zero generator may lie completely inside an
    irreducible contour.

    Decided in polynomial time, without listing paths or contours.  The
    paths x ~> y of length >= 2 are joined by chains of interlaced paths
    exactly when their interiors lie in one connected component of the
    comparability graph on the open interval (x, y) (``_interval_classes``),
    so (x, y) carries an irreducible contour iff that graph is disconnected:
    call (x, y) split.  A zero pair (s, t) then fails iff some split (x, y)
    has x >= s and t >= y, and then every realizing path fails alike.

    Each failing pair gets one reason: the first hit of the enumerating
    definition, which tries the s ~> t paths in lexicographic index order,
    each against the irreducible contours in ``quivers.irreducible_contours``
    order.  The witness w is the least s ~> t path, as all fail alike.  The
    contour lies on the first split (x, y) in index order with x >= s and
    t >= y; it is the sorted pair of a, the least x ~> y path through w, and
    b, the least x ~> y path whose interior lies in another component.
    """
    if not zeros:
        return CERTIFIED
    reach = hasse._reach_rows
    above = _above_rows(hasse)
    splits: dict[int, int] = {}
    reasons = []
    for s, t in zeros:
        for x in _bits(above[s]):
            if x not in splits:
                splits[x] = _split_row(hasse, above, x)
            ys = splits[x] & reach[t]
            if ys:
                y = (ys & -ys).bit_length() - 1
                reasons.append(_contour_reason(hasse, above, s, t, x, y))
                break
    if reasons:
        return Validity(False, tuple(reasons))
    return CERTIFIED


def _above_rows(hasse: Quiver) -> list[int]:
    """Bit rows of the reflexive order read upwards: bit x of row y iff x ~> y."""
    reach = hasse._reach_rows
    rows = [1 << v for v in range(hasse.n)]
    # more descendants first is a topological order
    for v in sorted(range(hasse.n), key=lambda v: -_popcount(reach[v])):
        for u in _bits(hasse.in_mask[v]):
            rows[v] |= rows[u]
    return rows


def _interval_classes(hasse: Quiver, above: Sequence[int], x: int, y: int) -> list[int]:
    """The connected components of the comparability graph on the open
    interval (x, y), as pairwise disjoint vertex masks.

    The interval is the union of the cones {v : m >= v > y} over the
    successors m of x that reach y.  Each cone is connected, and a
    comparability edge between two cones puts its lower end in both, so the
    components are the classes of cones under "intersects".
    """
    reach = hasse._reach_rows
    strictly_above_y = above[y] & ~(1 << y)
    classes: list[int] = []
    for m in _bits(hasse.out_mask[x]):
        cone = reach[m] & strictly_above_y
        if not cone:
            continue
        merged, rest = cone, []
        for c in classes:
            if c & cone:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        classes = rest
    return classes


def _split_row(hasse: Quiver, above: Sequence[int], x: int) -> int:
    """Bit y set iff the open interval (x, y) is disconnected."""
    reach = hasse._reach_rows
    once = twice = 0
    for m in _bits(hasse.out_mask[x]):
        twice |= once & reach[m]
        once |= reach[m]
    # a y with one in-arrow z has z in every cone, so only a y below two
    # successors and with two in-arrows can split
    row = 0
    for y in _bits(twice):
        if _popcount(hasse.in_mask[y]) >= 2 and len(_interval_classes(hasse, above, x, y)) >= 2:
            row |= 1 << y
    return row


def _contour_reason(hasse: Quiver, above: Sequence[int], s: int, t: int, x: int, y: int) -> str:
    names, reach = hasse.names, hasse._reach_rows
    w = lexmin_path(hasse, s, t)
    a = lexmin_path(hasse, x, s) + w[1:] + lexmin_path(hasse, t, y)[1:]
    home = next(c for c in _interval_classes(hasse, above, x, y) if c >> a[1] & 1)
    m = next(
        m for m in _bits(hasse.out_mask[x]) if reach[m] >> y & 1 and not home >> m & 1
    )
    p, q = sorted((a, (x,) + lexmin_path(hasse, m, y)))

    def show(path):
        return "->".join(names[v] for v in path)

    return (
        f"zero {names[s]} ~> {names[t]}: path {show(w)} lies in the irreducible "
        f"contour {show(p)} / {show(q)}"
    )


def from_poset(hasse: Quiver, zeros: Iterable[tuple[str, str]] = (), label: str = "") -> IncidenceQuotient:
    return IncidenceQuotient(hasse, zeros, label=label)


def hom_support(algebra: SchurianAlgebra, x: str, y: str) -> int:
    return algebra.hom(x, y)


def full_subcategory(algebra: SchurianAlgebra, vertices: Iterable[str], label: str = "") -> SchurianAlgebra:
    """The endomorphism algebra of the sum of the chosen projectives.

    Presented by the hom matrix restricted to the subset; the arrow skeleton
    and zero pairs are recomputed on the subset.
    """
    verts = [str(v) for v in vertices]
    if not verts:
        raise EmptySelection("full subcategory on the empty set")
    mask = algebra.mask_of(verts)
    return algebra.restrict_mask(mask, label=label or f"{algebra.label}|sub")


def convex_hull(algebra: SchurianAlgebra, i: str, j: str, label: str = "") -> SchurianAlgebra:
    """Full subcategory on all vertices lying on a directed path i ~> k ~> j.

    Falls back to {i, j} when j is unreachable from i.  The result is full
    and convex, hence restriction-faithful for extension groups.
    """
    mask = hull_mask(algebra, algebra.index[str(i)], algebra.index[str(j)])
    return algebra.restrict_mask(mask, label=label or f"{algebra.label}|hull({i},{j})")


def hull_mask(algebra: SchurianAlgebra, ii: int, jj: int) -> int:
    reach = algebra.reach_rows
    mask = (1 << ii) | (1 << jj)
    for k in range(algebra.n):
        if reach[ii] >> k & 1 and reach[k] >> jj & 1:
            mask |= 1 << k
    return mask


def opposite_algebra(algebra: SchurianAlgebra) -> SchurianAlgebra:
    cached = algebra._cache.get("op")
    if cached is None:
        cached = SchurianAlgebra(
            algebra.names, transpose(algebra.hom_rows), label=(algebra.label + "^op") if algebra.label else "op",
            validity=algebra.validity,
        )
        algebra._cache["op"] = cached
        cached._cache["op"] = algebra
    return cached


def kill_vertices(algebra: SchurianAlgebra, victims: Iterable[str], label: str = "") -> SchurianAlgebra:
    """The quotient by the idempotents of the killed vertices.

    hom survives iff it was nonzero and at least one skeleton path avoids the
    killed set (all parallel paths are identified, so routing entirely through
    the killed set forces zero).
    """
    vmask = algebra.mask_of(victims)
    keep = ((1 << algebra.n) - 1) & ~vmask
    if keep == 0:
        raise EmptySelection("cannot kill every vertex")
    avoid_reach = _reach_within(algebra.quiver, keep)
    kept = [i for i in range(algebra.n) if keep >> i & 1]
    pos = {v: p for p, v in enumerate(kept)}
    rows = []
    for i in kept:
        r = 1 << pos[i]
        for j in _bits(algebra.hom_rows[i] & keep & ~(1 << i)):
            if avoid_reach[i] >> j & 1:
                r |= 1 << pos[j]
        rows.append(r)
    return SchurianAlgebra(
        [algebra.names[i] for i in kept], rows, label=label or f"{algebra.label}/ideal"
    )


def _reach_within(q: Quiver, mask: int) -> list[int]:
    rows = [1 << i if mask >> i & 1 else 0 for i in range(q.n)]
    order = [v for v in q.topological_order() if mask >> v & 1]
    for v in reversed(order):
        acc = rows[v]
        for w in _bits(q.out_mask[v] & mask):
            acc |= rows[w]
        rows[v] = acc
    return rows


def minimal_zero_pairs(algebra: SchurianAlgebra) -> list[tuple[str, str]]:
    """Zero pairs not implied by another zero pair (a generating set)."""
    zs = [(algebra.index[a], algebra.index[b]) for a, b in algebra.zero_pairs]
    reach = algebra.reach_rows
    out = []
    for s, t in zs:
        implied = any(
            (s2, t2) != (s, t) and reach[s] >> s2 & 1 and reach[t2] >> t & 1
            for s2, t2 in zs
        )
        if not implied:
            out.append((algebra.names[s], algebra.names[t]))
    return out


def as_incidence_quotient(algebra: SchurianAlgebra) -> IncidenceQuotient:
    """Re-present a schurian algebra whose skeleton is a Hasse quiver.

    Raises NotAHasseDiagram when the skeleton has a bypass, and InternalError
    if the rebuilt hom differs (the algebra was not an incidence quotient)."""
    if isinstance(algebra, IncidenceQuotient):
        return algebra
    from .errors import InternalError

    rebuilt = IncidenceQuotient(algebra.quiver, minimal_zero_pairs(algebra), label=algebra.label)
    if rebuilt.hom_rows != algebra.hom_rows:
        raise InternalError("hom support is not generated by zero endpoint pairs")
    return rebuilt


def sources(algebra: SchurianAlgebra) -> list[str]:
    return algebra.sources()


def sinks(algebra: SchurianAlgebra) -> list[str]:
    return algebra.sinks()


# -- minimal relations -------------------------------------------------------


def second_syzygy_multiplicity(algebra: SchurianAlgebra, i: int, b: int) -> int:
    """Multiplicity of the projective at b in the second resolution term of
    the simple at i, computed locally from hom and the arrow skeleton.

    Derived from the kernel of Q_1 -> rad P_i: the kernel space at b is cut
    by branch coordinates A(b) = {arrow targets a of i with hom(a,b)=1}; each
    in-arrow z->b glues the branches it sees (A(z)) and is "marking" when its
    kernel space surjects onto its trace (hom(i,z)=0 or a branch is dropped).
    The multiplicity is #unmarked components minus hom(i,b).
    """
    if b == i:
        return 0
    q = algebra.quiver
    branches = [a for a in _bits(q.out_mask[i]) if algebra.hom_bit(a, b)]
    if not branches:
        return 0
    pos = {a: k for k, a in enumerate(branches)}
    parent = list(range(len(branches)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    marked_elems = []
    bset = set(branches)
    for z in _bits(q.in_mask[b]):
        if z == i:
            continue
        az = [a for a in _bits(q.out_mask[i]) if algebra.hom_bit(a, z)]
        trace = [a for a in az if a in bset]
        if not trace:
            continue
        first = pos[trace[0]]
        for a in trace[1:]:
            ra, rf = find(pos[a]), find(first)
            if ra != rf:
                parent[ra] = rf
        if algebra.hom_bit(i, z) == 0 or len(trace) < len(az):
            marked_elems.append(first)
    marked_roots = {find(k) for k in marked_elems}
    roots = {find(k) for k in range(len(branches))}
    unmarked = len(roots - marked_roots)
    return max(unmarked - algebra.hom_bit(i, b), 0)


def minimal_relation_pairs_combinatorial(algebra: SchurianAlgebra) -> set[tuple[str, str]]:
    """Endpoint pairs of minimal relations, decided without resolutions."""
    out = set()
    reach = algebra.reach_rows
    for i in range(algebra.n):
        for b in _bits(reach[i] & ~(1 << i)):
            if second_syzygy_multiplicity(algebra, i, b) >= 1:
                out.add((algebra.names[i], algebra.names[b]))
    return out


def minimal_relation_pairs(algebra: SchurianAlgebra) -> set[tuple[str, str]]:
    """Pairs (x, y) admitting a minimal relation (second extension group
    nonzero).  The resolution engine decides; the combinatorial rule is
    cross-checked and any divergence is logged with the engine winning.
    """
    from .homology import ext_dim  # local import to avoid a cycle

    engine = set()
    for x in range(algebra.n):
        for y in _bits(algebra.reach_rows[x] & ~(1 << x)):
            if ext_dim(algebra, algebra.names[x], algebra.names[y], 2) >= 1:
                engine.add((algebra.names[x], algebra.names[y]))
    fast = minimal_relation_pairs_combinatorial(algebra)
    if fast != engine:
        log.warning(
            "minimal-relation fast path disagrees with the engine on %s: fast-only=%s engine-only=%s",
            algebra.label or "algebra",
            sorted(fast - engine),
            sorted(engine - fast),
        )
    return engine
