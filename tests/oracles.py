"""The representation engine: the reference that the scalar engine is tested
against.

A module is a representation: a dimension per vertex and a rational matrix
per arrow.  Its minimal projective resolution is computed by iterating
projective cover and kernel (``_resolve_by_covers``), with no use of the
scalar shortcuts of ``critalg.homology``; the tests check that both engines
agree on terms, syzygy dimensions and differentials.  Kept deliberately
naive.  The convex hull of a vertex pair, which the scan and property tests
use as a reference subcategory, is here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from critalg.errors import InternalError
from critalg.homology import ProjResolution, _assert_simple_resolution_shape, _slot_layout
from critalg.linalg import Matrix, Row, nullspace, rref, solve_in_rowspace, zeros
from critalg.presentation import SchurianAlgebra
from critalg.quivers import _bits


class Representation:
    """A finite-dimensional module, vertexwise."""

    __slots__ = ("algebra", "dims", "maps")

    def __init__(self, algebra: SchurianAlgebra, dims, maps=None):
        self.algebra = algebra
        self.dims = list(dims)
        self.maps = dict(maps or {})

    def map(self, u: int, v: int) -> Matrix:
        m = self.maps.get((u, v))
        if m is None:
            return zeros(self.dims[v], self.dims[u])
        return m

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def dim_at(self, name: str) -> int:
        return self.dims[self.algebra.index[str(name)]]

    def dims_by_name(self) -> dict[str, int]:
        return {self.algebra.names[i]: d for i, d in enumerate(self.dims) if d}


@dataclass
class RepMorphism:
    """Vertexwise matrices source -> target."""

    source: Representation
    target: Representation
    blocks: dict[int, Matrix]

    def block(self, v: int) -> Matrix:
        b = self.blocks.get(v)
        if b is None:
            return zeros(self.target.dims[v], self.source.dims[v])
        return b


def _thin(algebra: SchurianAlgebra, mask: int) -> Representation:
    """The module with dimension 1 on the vertices of ``mask``, 0 elsewhere,
    and the identity on every arrow between them."""
    out_mask = algebra.quiver.out_mask
    maps = {(u, v): [[Fraction(1)]] for u in _bits(mask) for v in _bits(out_mask[u] & mask)}
    return Representation(algebra, [mask >> z & 1 for z in range(algebra.n)], maps)


def simple(algebra: SchurianAlgebra, x: str) -> Representation:
    return _thin(algebra, 1 << algebra.index[str(x)])


def projective(algebra: SchurianAlgebra, x: str) -> Representation:
    return _thin(algebra, algebra.hom_rows[algebra.index[str(x)]])


def injective(algebra: SchurianAlgebra, x: str) -> Representation:
    i = algebra.index[str(x)]
    return _thin(algebra, sum(1 << z for z in range(algebra.n) if algebra.hom_bit(z, i)))


# -- matrix products ------------------------------------------------------------


def mat_vec(mat: Matrix, vec: Row) -> Row:
    return [sum((Fraction(a) * b for a, b in zip(row, vec)), Fraction(0)) for row in mat]


def row_times_mat(vec: Row, mat: Matrix) -> Row:
    if not mat:
        return []
    ncols = len(mat[0])
    out = [Fraction(0)] * ncols
    for a, row in zip(vec, mat):
        if a:
            for j in range(ncols):
                out[j] += Fraction(a) * row[j]
    return out


# -- radical, covers, kernels ---------------------------------------------------


def _radical_bases(M: Representation) -> list[Matrix]:
    """Per vertex, an RREF row basis of the radical (sum of arrow images)."""
    A = M.algebra
    out = []
    for v in range(A.n):
        rows = []
        for u in _bits(A.quiver.in_mask[v]):
            m = M.maps.get((u, v))
            if m:
                for c in range(M.dims[u]):
                    rows.append([m[r][c] for r in range(M.dims[v])])
        basis, _ = rref(rows) if rows else ([], [])
        out.append(basis)
    return out


def _submodule(M: Representation, bases: list[Matrix]) -> Representation:
    """The submodule of M spanned at each vertex by the RREF rows ``bases``,
    with the induced arrow maps.  Every arrow image is solved in the span at
    its target, so a basis that is not a submodule raises InternalError."""
    A = M.algebra
    pivots = [[next(i for i, x in enumerate(r) if x) for r in b] for b in bases]
    dims = [len(b) for b in bases]
    maps = {}
    for (u, v) in A.quiver.arrows:
        if dims[u] == 0 or M.dims[v] == 0:
            continue
        m = M.map(u, v)
        cols = [solve_in_rowspace(bases[v], pivots[v], mat_vec(m, b)) for b in bases[u]]
        if dims[v]:
            maps[(u, v)] = [[cols[c][r] for c in range(dims[u])] for r in range(dims[v])]
    return Representation(A, dims, maps)


def radical(M: Representation) -> Representation:
    """rad M with the induced arrow maps."""
    return _submodule(M, _radical_bases(M))


def _complement_vectors(dim: int, rad_basis: Matrix) -> list[list[Fraction]]:
    """Standard basis vectors completing the radical to the whole space."""
    pivots = {next(i for i, x in enumerate(r) if x) for r in rad_basis}
    return [[Fraction(1 if j == c else 0) for j in range(dim)] for c in range(dim) if c not in pivots]


def _transport(M: Representation, v0: int, w) -> dict[int, list[Fraction]]:
    """Images of a generator at v0 under the path action, per supported vertex.

    Requires M to satisfy the algebra's relations (true for every module this
    engine builds): any in-arrow from a hom-supported vertex gives the same
    value, so the first one is taken.
    """
    A = M.algebra
    order = A._cache.get("topo")
    if order is None:
        order = A._cache["topo"] = A.quiver.topological_order()
    out = {v0: [Fraction(x) for x in w]}
    for z in order:
        if z == v0 or not A.hom_bit(v0, z):
            continue
        for u in _bits(A.quiver.in_mask[z]):
            if u in out and A.hom_bit(v0, u):
                out[z] = mat_vec(M.map(u, z), out[u])
                break
    return out


def _sum_rep(algebra: SchurianAlgebra, slots: list[list[int]]) -> Representation:
    """The direct sum of projectives laid out by ``slots``."""
    dims = [len(s) for s in slots]
    maps = {}
    for (u, v) in algebra.quiver.arrows:
        if dims[u] == 0 or dims[v] == 0:
            continue
        pos_v = {c: r for r, c in enumerate(slots[v])}
        m = zeros(dims[v], dims[u])
        for cidx, c in enumerate(slots[u]):
            r = pos_v.get(c)
            if r is not None:
                m[r][cidx] = Fraction(1)
        maps[(u, v)] = m
    return Representation(algebra, dims, maps)


def projective_cover(M: Representation):
    """(summand vertex names, covering epimorphism).  The zero module gets
    an empty cover."""
    A = M.algebra
    if M.is_zero():
        return (), RepMorphism(Representation(A, [0] * A.n), M, {})
    bases = _radical_bases(M)
    summands: list[int] = []
    gens: list[tuple[int, list[Fraction]]] = []
    for v in range(A.n):
        for w in _complement_vectors(M.dims[v], bases[v]):
            summands.append(v)
            gens.append((v, w))
    slots = _slot_layout(A, summands)
    transported = [_transport(M, v, w) for v, w in gens]
    blocks = {}
    for z in range(A.n):
        if not slots[z]:
            continue
        cols = []
        for c in slots[z]:
            vec = transported[c].get(z)
            if vec is None:
                raise InternalError(
                    "generator transport failed; the presentation violates "
                    "interval monotonicity"
                )
            cols.append(vec)
        blocks[z] = [[col[r] for col in cols] for r in range(M.dims[z])]
    names = tuple(A.names[v] for v in summands)
    return names, RepMorphism(_sum_rep(A, slots), M, blocks)


def _kernel_with_basis(f: RepMorphism):
    """ker f with the restricted arrow maps, and its vertexwise bases."""
    bases = [nullspace(f.block(v), d) if d else [] for v, d in enumerate(f.source.dims)]
    return _submodule(f.source, bases), bases


# -- resolutions ------------------------------------------------------------------


def _resolve_by_covers(algebra: SchurianAlgebra, M: Representation) -> ProjResolution:
    """The minimal resolution of any nonzero module, by projective cover and
    kernel on representations."""
    if M.is_zero():
        raise ValueError("cannot resolve the zero module")
    label = _module_label(M)
    terms = []
    diffs = []
    syz = []
    current = M
    prev_slots = basis_in_prev = None
    while True:
        names, F = projective_cover(current)
        summands = [algebra.index[x] for x in names]
        slots = _slot_layout(algebra, summands)
        if basis_in_prev is not None:
            diffs.append(_scalar_diff(terms[-1], prev_slots, basis_in_prev, summands, slots, F))
        terms.append(tuple(summands))
        K, bases = _kernel_with_basis(F)
        syz.append(tuple(K.dims))
        if K.is_zero():
            break
        if len(terms) > algebra.n:
            raise InternalError(
                f"resolution of {label} over {algebra.label or 'algebra'} "
                f"exceeded the length cap {algebra.n}"
            )
        current, prev_slots, basis_in_prev = K, slots, bases
    res = ProjResolution(algebra, label, tuple(terms), tuple(diffs), tuple(syz))
    simple_vertex = _simple_vertex(M)
    if simple_vertex is not None:
        _assert_simple_resolution_shape(algebra, simple_vertex, res)
    return res


def _module_label(M: Representation) -> str:
    v = _simple_vertex(M)
    if v is not None:
        return f"S{M.algebra.names[v]}"
    return "M" + "".join(f"({M.algebra.names[i]}:{d})" for i, d in enumerate(M.dims) if d)


def _simple_vertex(M: Representation) -> int | None:
    nz = [i for i, d in enumerate(M.dims) if d]
    if len(nz) == 1 and M.dims[nz[0]] == 1:
        return nz[0]
    return None


def _scalar_diff(prev_term, prev_slots, basis_in_prev, summands, slots, F) -> Matrix:
    """One scalar per (previous summand, new summand): the coordinate of the
    new generator, written in the enclosing sum of projectives, at the slot of
    the previous summand.  ``prev_slots`` and ``slots`` are the slot layouts
    of the previous and the new sum."""
    mat = zeros(len(prev_term), len(summands))
    # column c of F at the summand's vertex, restricted to the generator slot,
    # is the new generator in syzygy coordinates; push it down to coordinates
    # of the previous sum of projectives via basis_in_prev.
    for c, b in enumerate(summands):
        g = slots[b].index(c)
        wq = row_times_mat([row[g] for row in F.blocks[b]], basis_in_prev[b])
        for pos, prev_c in enumerate(prev_slots[b]):
            if wq[pos]:
                mat[prev_c][c] = wq[pos]
    return mat


def pd(algebra: SchurianAlgebra, M: Representation) -> int:
    """Projective dimension of any nonzero module."""
    return _resolve_by_covers(algebra, M).length


# -- convex hulls -----------------------------------------------------------------


def convex_hull(algebra: SchurianAlgebra, i: str, j: str) -> SchurianAlgebra:
    """The full subcategory on i, j and every vertex on a path i ~> k ~> j."""
    reach, ii, jj = algebra.reach_rows, algebra.index[i], algebra.index[j]
    mask = sum(1 << k for k in range(algebra.n) if reach[ii] >> k & 1 and reach[k] >> jj & 1)
    return algebra.restrict_mask(mask | 1 << ii | 1 << jj)
