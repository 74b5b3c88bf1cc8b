"""Schurian algebra presentations.

Two layers share one core class:

* ``IncidenceQuotient`` -- a bypass-free Hasse quiver plus monomial zero pairs,
  with the hom support computed by the domination rule (hom(x,y) = 1 iff
  x ~> y and no zero pair (s,t) has x ~> s and t ~> y) and a certification
  status for the irreducible-contour condition on the zero generators.
* ``SchurianAlgebra`` -- any 0/1 hom-support function on an acyclic vertex set,
  as produced by full subcategories (``restrict_mask``), opposite algebras,
  and templates.  The arrow skeleton, reachability, and zero pairs are all
  derived from hom.

Zero relations are stored as endpoint pairs: parallel paths are identified,
so a monomial generator kills the whole hom space and the endpoints are a
complete description.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    EmptySelection,
    InternalError,
    MalformedRelation,
    NotAHasseDiagram,
    NotIntervalMonotone,
    TriangularityViolation,
)
from .quivers import Quiver, _bits, _sub_rows, classes, cover_arrows, has_bypass, lexmin_path, transpose


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

    The support must be triangular (hom lies in a partial order) and
    interval-monotone: hom(x,z) = 1 forces hom(x,y) = hom(y,z) = 1 for every
    y between x and z.  The constructor checks both unless ``monotone``
    vouches for them.  Three constructions satisfy both by construction and
    skip the checks:

    * the domination rule of ``from_poset``: hom lies in the reachability
      order of a checked Hasse quiver; and if y lies between x and z and a
      zero pair (s,t) has x ~> s and t ~> y (or y ~> s and t ~> z), then it
      also has x ~> s and t ~> z, so hom(x,z) = 0;
    * ``restrict_mask``: hom only loses pairs, so it lies in the restricted
      order and the intervals of the restriction lie in those of the ambient
      algebra;
    * ``opposite_algebra``: both conditions read the same in the opposite.
    """

    def __init__(self, names: Sequence[str], hom_rows: Sequence[int], label: str = "",
                 validity: Validity | None = None, monotone: bool = False):
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
        if not monotone:
            self._check_acyclic()
            self._check_monotone()

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

    def _check_monotone(self):
        # a skeleton path from y to z meets every vertex between them, so it
        # suffices that hom(x,y) = 0 with x ~> y stays zero one arrow beyond
        # y; the transpose checks hom(y,z) one arrow before y alike
        q, names = self.quiver, self.names
        for flip, rows, reach, step in ((False, self.hom_rows, self.reach_rows, q.out_mask),
                                        (True, self.hom_cols, transpose(self.reach_rows), q.in_mask)):
            for x in range(self.n):
                for y in _bits(reach[x] & ~rows[x]):
                    beyond = step[y] & rows[x]
                    if beyond:
                        w = beyond.bit_length() - 1
                        ends, zero = ((w, x), (y, x)) if flip else ((x, w), (x, y))
                        raise NotIntervalMonotone(
                            "hom support is not interval-monotone: hom({},{}) = 1 but hom({},{}) = 0"
                            .format(*(names[v] for v in ends + zero))
                        )

    @cached_property
    def quiver(self) -> Quiver:
        """Arrow skeleton: x->y iff hom(x,y)=1 with no hom-factorization."""
        names = self.names
        return Quiver(names, [(names[x], names[y]) for x, y in cover_arrows(self.hom_rows)])

    @cached_property
    def hom_cols(self) -> tuple[int, ...]:
        """The transpose of ``hom_rows``: bit x of column y iff hom(x,y) = 1."""
        return tuple(transpose(self.hom_rows))

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
        mask &= (1 << self.n) - 1
        if not mask:
            raise EmptySelection("empty vertex selection")
        names = [self.names[i] for i in _bits(mask)]
        return SchurianAlgebra(names, _sub_rows(self.hom_rows, mask), label=label, monotone=True)

    def mask_of(self, vertices: Iterable[str]) -> int:
        mask = 0
        for v in vertices:
            mask |= 1 << self.index[str(v)]
        return mask


class IncidenceQuotient(SchurianAlgebra):
    """kQ/(I + J): a Hasse quiver with commutativity relations and zero pairs.

    The arrow skeleton is the Hasse quiver itself, so it is not rebuilt from
    hom.  An arrow x->y keeps hom(x,y) = 1, as a zero pair needs a path of
    length >= 2 inside [x, y], and no vertex lies strictly between x and y
    to factor it.  Along a longer path x->m ~> y, hom(x,m) = hom(m,y) = 1 by
    monotonicity, so every other nonzero hom factors through m.
    """

    def __init__(self, hasse: Quiver, zeros: Iterable[tuple[str, str]], label: str = ""):
        reach = hasse._reach_rows  # raises TriangularityViolation on a directed cycle
        if has_bypass(hasse):
            raise NotAHasseDiagram("quiver has a bypass; not a Hasse diagram")
        self.hasse = self.quiver = hasse
        zset = []
        for s, t in zeros:
            s, t = str(s), str(t)
            if s not in hasse.index or t not in hasse.index:
                raise MalformedRelation(f"zero pair mentions unknown vertex: {s} ~> {t}")
            si, ti = hasse.index[s], hasse.index[t]
            if si == ti:
                raise MalformedRelation(f"zero pair with equal endpoints: {s} ~> {t}")
            if not reach[si] >> ti & 1 or (si, ti) in hasse.arrows:
                # relations need a realizing path of length >= 2; in a Hasse
                # quiver an arrow excludes any longer parallel path
                raise MalformedRelation(
                    f"no path of length >= 2 realizes the zero pair {s} ~> {t}"
                )
            zset.append((si, ti))
        self.declared_zeros = tuple(sorted(set(zset)))
        rows = _hom_from_zeros(hasse, self.declared_zeros)
        super().__init__(hasse.names, rows, label=label, validity=None, monotone=True)
        self.validity = _certify(hasse, self.declared_zeros)


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
    above = _above_rows(hasse)
    reasons = tuple(_contour_reason(hasse, above, *hit) for hit in _failures(hasse, above, zeros))
    return Validity(False, reasons) if reasons else CERTIFIED


def _certifies(hasse: Quiver, zeros: Sequence[tuple[int, int]]) -> bool:
    """``_certify(hasse, zeros).certified``, decided at the first failing
    pair and without reasons."""
    return not zeros or next(_failures(hasse, _above_rows(hasse), zeros), None) is None


def _failures(hasse: Quiver, above: Sequence[int], zeros: Sequence[tuple[int, int]]):
    """(s, t, x, y) for each failing zero pair (s, t), in order, with (x, y)
    the first split in index order that has x >= s and t >= y."""
    reach = hasse._reach_rows
    splits: dict[int, int] = {}
    for s, t in zeros:
        for x in _bits(above[s]):
            if x not in splits:
                splits[x] = _split_row(hasse, above, x)
            ys = splits[x] & reach[t]
            if ys:
                yield s, t, x, (ys & -ys).bit_length() - 1
                break


def _above_rows(hasse: Quiver) -> list[int]:
    """Bit rows of the reflexive order read upwards: bit x of row y iff x ~> y."""
    reach = hasse._reach_rows
    rows = [1 << v for v in range(hasse.n)]
    # more descendants first is a topological order
    for v in sorted(range(hasse.n), key=lambda v: -reach[v].bit_count()):
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
    strictly_above_y = above[y] & ~(1 << y)
    return classes(hasse._reach_rows[m] & strictly_above_y for m in _bits(hasse.out_mask[x]))


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
        if hasse.in_mask[y].bit_count() >= 2 and len(_interval_classes(hasse, above, x, y)) >= 2:
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


def opposite_algebra(algebra: SchurianAlgebra) -> SchurianAlgebra:
    # the opposite refers back to its source weakly, so that the pair is no
    # reference cycle and is freed as soon as the source is dropped
    cached = algebra._cache.get("op")
    if isinstance(cached, weakref.ref):
        cached = cached()
    if cached is None:
        cached = SchurianAlgebra(
            algebra.names, algebra.hom_cols, label=(algebra.label + "^op") if algebra.label else "op",
            validity=algebra.validity, monotone=True,
        )
        algebra._cache["op"] = cached
        cached._cache["op"] = weakref.ref(algebra)
    return cached


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
    rebuilt = IncidenceQuotient(algebra.quiver, minimal_zero_pairs(algebra), label=algebra.label)
    if rebuilt.hom_rows != algebra.hom_rows:
        raise InternalError("hom support is not generated by zero endpoint pairs")
    return rebuilt


# -- minimal relations -------------------------------------------------------


def second_syzygy_multiplicity(out: Sequence[int], into: Sequence[int], cols: Sequence[int], i: int, b: int) -> int:
    """Multiplicity of the projective at b in the second resolution term of
    the simple at i, computed locally from the arrow skeleton's out- and
    in-masks ``out`` and ``into`` and the hom columns ``cols``.

    Derived from the kernel of Q_1 -> rad P_i: the kernel space at b is cut
    by branch coordinates A(b) = {arrow targets a of i with hom(a,b)=1}; each
    in-arrow z->b glues the branches it sees (its trace A(z) & A(b)) and is
    "marking" when its kernel space surjects onto its trace (hom(i,z)=0 or a
    branch of A(z) is dropped).  The multiplicity is the number of classes
    of A(b) under the traces that hold no marking trace, minus hom(i,b).
    """
    branches = out[i] & cols[b]
    if b == i or not branches:
        return 0
    traces, marked = [], 0
    for z in _bits(into[b] & ~(1 << i)):
        az = out[i] & cols[z]
        trace = az & branches
        traces.append(trace)
        if not cols[z] >> i & 1 or trace != az:
            marked |= trace
    unmarked = sum(not c & marked for c in classes([*(1 << a for a in _bits(branches)), *traces]))
    return max(unmarked - (cols[b] >> i & 1), 0)
