"""Exact-arithmetic homology engine for schurian algebras.

The minimal projective resolution of a simple is computed on scalar
matrices alone (``_resolve_simple``).  Hom spaces between indecomposable
projectives are at most one-dimensional, so a map between sums of them is
one scalar per summand pair, and every syzygy is a subspace of the
coordinates of its term: at a vertex z, the summands b with hom(b, z) = 1.
Radicals, generators and kernels are then row reductions of those scalars.

Other modules are representations: a dimension per vertex and a rational
matrix per arrow.  They are resolved by iterating projective cover and
kernel (``_resolve_by_covers``), the loop that the scalar engine is tested
against.

The ground field is the rationals: all structure constants here are 0 or 1,
so the computed dimensions are characteristic-free, and exact elimination
avoids floating point entirely.

This module is both the production engine and the brute-force oracle that the
combinatorial criteria are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError, NotAMorphism
from .linalg import (
    Matrix,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    row_times_mat,
    rref,
    solve_in_rowspace,
    zeros,
)
from .presentation import SchurianAlgebra, opposite_algebra
from .quivers import _bits


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

    def total_dim(self) -> int:
        return sum(self.dims)

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

    def check_commutes(self):
        A = self.source.algebra
        for (u, v) in A.quiver.arrows:
            left = mat_mul(self.block(v), self.source.map(u, v))
            right = mat_mul(self.target.map(u, v), self.block(u))
            if left != right:
                raise NotAMorphism(
                    f"blocks do not commute with the arrow {A.names[u]}->{A.names[v]}"
                )


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


# -- radical / top / socle ----------------------------------------------------


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


def top(M: Representation) -> dict[str, int]:
    """Multiplicities of the simples in M / rad M."""
    A = M.algebra
    bases = _radical_bases(M)
    return {
        A.names[v]: M.dims[v] - len(bases[v])
        for v in range(A.n)
        if M.dims[v] - len(bases[v]) > 0
    }


def socle(M: Representation) -> dict[str, int]:
    """Multiplicities of the simples in the largest semisimple submodule."""
    A = M.algebra
    out = {}
    for v in range(A.n):
        if M.dims[v] == 0:
            continue
        rows = []
        for w in _bits(A.quiver.out_mask[v]):
            m = M.maps.get((v, w))
            if m:
                rows.extend(m)
        if rows:
            d = M.dims[v] - rank(rows)
        else:
            d = M.dims[v]
        if d:
            out[A.names[v]] = d
    return out


def composition_multiplicity(M: Representation, x: str) -> int:
    return M.dim_at(x)


def loewy_length(M: Representation) -> int:
    if M.is_zero():
        raise ValueError("the zero module has no Loewy length")
    cur, k = M, 0
    while not cur.is_zero():
        cur = radical(cur)
        k += 1
    return k


# -- covers, kernels, resolutions --------------------------------------------


def _complement_vectors(dim: int, rad_basis: Matrix) -> list[list[Fraction]]:
    """Standard basis vectors completing the radical to the whole space."""
    if not rad_basis:
        return [[Fraction(1 if j == c else 0) for j in range(dim)] for c in range(dim)]
    pivots = {next(i for i, x in enumerate(r) if x) for r in rad_basis}
    free = [c for c in range(dim) if c not in pivots]
    return [[Fraction(1 if j == c else 0) for j in range(dim)] for c in free]


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


def _slot_layout(algebra: SchurianAlgebra, summands) -> list[list[int]]:
    """Slot layout of a direct sum of indecomposable projectives: per vertex,
    the positions of the summands that are nonzero there, ascending."""
    slots = [[] for _ in range(algebra.n)]
    for c, a in enumerate(summands):
        for z in _bits(algebra.hom_rows[a]):
            slots[z].append(c)
    return slots


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


def kernel(f: RepMorphism) -> Representation:
    """Vertexwise nullspaces with the restricted arrow maps."""
    f.check_commutes()
    K, _ = _kernel_with_basis(f)
    return K


def _kernel_with_basis(f: RepMorphism):
    bases = [nullspace(f.block(v), d) if d else [] for v, d in enumerate(f.source.dims)]
    return _submodule(f.source, bases), bases


@dataclass
class ProjResolution:
    """0 -> Q_p -> ... -> Q_1 -> Q_0 -> M -> 0, minimal.

    ``terms[k]`` lists the vertex indices of the indecomposable summands of
    Q_k (ascending, with multiplicity).  ``diffs[k]`` is the scalar matrix of
    Q_{k+1} -> Q_k (rows: summands of Q_k; columns: summands of Q_{k+1}).
    ``syzygy_dims[k]`` records the vertexwise dimensions of ker(Q_k -> ...).
    """

    algebra: SchurianAlgebra
    resolved: str
    terms: tuple[tuple[int, ...], ...]
    diffs: tuple[Matrix, ...]
    syzygy_dims: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def term_names(self, k: int) -> tuple[str, ...]:
        if k >= len(self.terms):
            return ()
        return tuple(self.algebra.names[v] for v in self.terms[k])

    def multiplicity(self, k: int, x: str) -> int:
        if k >= len(self.terms):
            return 0
        i = self.algebra.index[str(x)]
        return sum(1 for v in self.terms[k] if v == i)

    def support(self, k: int) -> set[str]:
        return set(self.term_names(k))


def minimal_projective_resolution(algebra: SchurianAlgebra, M: Representation) -> ProjResolution:
    """A simple is resolved on scalar matrices by ``_resolve_simple``; any
    other module by iterating projective cover and kernel."""
    if M.is_zero():
        raise ValueError("cannot resolve the zero module")
    i = _simple_vertex(M)
    if i is None:
        return _resolve_by_covers(algebra, M)
    res = _resolve_simple(algebra, i)
    _assert_simple_resolution_shape(algebra, i, res)
    return res


def _resolve_simple(algebra: SchurianAlgebra, i: int) -> ProjResolution:
    """The minimal projective resolution of the simple at i, on scalars alone.

    Each term is a sum of thin projectives P_b, and its coordinates at a
    vertex z are the summands b with hom(b, z) = 1.  The syzygy at z is kept
    as an RREF row basis over all of the term's summands, zero off those
    coordinates.  An arrow into z keeps the coordinates present at both ends,
    so the radical of the syzygy at z is spanned by the basis vectors at z's
    in-neighbours, read at the pivot columns of the basis at z: that reading
    gives their coordinates in the basis, and it drops the coordinates absent
    at z.  The basis vectors off the radical's pivots complete it and
    generate the top; each is a summand P_z of the next term and the column
    of the differential into this one.  The next syzygy at y is the nullspace
    of that differential on the rows and columns present at y.  The radical
    lies in the syzygy because the hom support is interval-monotone.
    """
    rows, in_mask, n = algebra.hom_rows, algebra.quiver.in_mask, algebra.n
    zero, one = Fraction(0), Fraction(1)
    summands = (i,)
    syzygy = {y: [[one]] for y in _bits(rows[i] & ~(1 << i))}
    terms, diffs, syz = [summands], [], [_dims(syzygy, n)]
    while syzygy:
        if len(terms) > n:
            raise InternalError(
                f"resolution of S{algebra.names[i]} over {algebra.label or 'algebra'} "
                f"exceeded the length cap {n}"
            )
        new, gens = [], []
        for z, basis in syzygy.items():
            pivots = [next(g for g, x in enumerate(v) if x) for v in basis]
            rad = [[v[p] for p in pivots] for u in _bits(in_mask[z]) for v in syzygy.get(u, ())]
            if len(basis) == 1:
                taken = (0,) if any(r[0] for r in rad) else ()
            else:
                taken = set(rref(rad)[1])
            for c, v in enumerate(basis):
                if c not in taken:
                    new.append(z)
                    gens.append(v)
        diffs.append([[v[g] for v in gens] for g in range(len(summands))])
        support = 0
        for z in new:
            support |= rows[z]
        nxt = {}
        for y in _bits(support):
            rs = [g for g, b in enumerate(summands) if rows[b] >> y & 1]
            cs = [c for c, z in enumerate(new) if rows[z] >> y & 1]
            mat = [[gens[c][g] for c in cs] for g in rs]
            if len(cs) == 1:
                ker = [] if any(r[0] for r in mat) else [[one]]
            else:
                ker = nullspace(mat, len(cs))
            basis = []
            for v in ker:
                full = [zero] * len(new)
                for c, x in zip(cs, v):
                    full[c] = x
                basis.append(full)
            if basis:
                nxt[y] = basis
        summands, syzygy = tuple(new), nxt
        terms.append(summands)
        syz.append(_dims(syzygy, n))
    return ProjResolution(algebra, f"S{algebra.names[i]}", tuple(terms), tuple(diffs), tuple(syz))


def _dims(syzygy: dict[int, Matrix], n: int) -> tuple[int, ...]:
    dims = [0] * n
    for y, basis in syzygy.items():
        dims[y] = len(basis)
    return tuple(dims)


def _resolve_by_covers(algebra: SchurianAlgebra, M: Representation) -> ProjResolution:
    """The minimal resolution of any nonzero module, by projective cover and
    kernel on representations; the reference that ``_resolve_simple`` is
    tested against."""
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


def _assert_simple_resolution_shape(algebra, i: int, res: ProjResolution):
    """Structural facts that hold over any triangular schurian algebra and
    double as engine self-checks: the simple never recurs in the radical of
    the first term nor in later terms; the first syzygy's top is the set of
    arrow targets; every summand vertex is reachable from the resolved one."""
    name = algebra.names[i]
    for k, term in enumerate(res.terms):
        for v in term:
            if k >= 1 and algebra.hom_bit(v, i):
                raise InternalError(
                    f"S{name} occurs as a composition factor of term {k} of its own resolution"
                )
            if not algebra.reach_rows[i] >> v & 1:
                raise InternalError(
                    f"summand P{algebra.names[v]} of term {k} is not reachable from {name}"
                )
    if len(res.terms) > 1:
        targets = sorted(_bits(algebra.quiver.out_mask[i]))
        if list(res.terms[1]) != targets:
            raise InternalError(
                f"first term of the resolution of S{name} is not the arrow-target sum"
            )


# -- dimensions ---------------------------------------------------------------


def resolution_of_simple(algebra: SchurianAlgebra, x: str) -> ProjResolution:
    i = algebra.index[str(x)]
    key = ("res", i)
    cached = algebra._cache.get(key)
    if cached is None:
        res = minimal_projective_resolution(algebra, simple(algebra, x))
        # the cache keeps the fields alone: a resolution refers to its algebra
        algebra._cache[key] = (res.resolved, res.terms, res.diffs, res.syzygy_dims)
        return res
    return ProjResolution(algebra, *cached)


def pd(algebra: SchurianAlgebra, M: Representation) -> int:
    if M.is_zero():
        raise ValueError("pd of the zero module is undefined")
    sv = _simple_vertex(M)
    if sv is not None:
        return resolution_of_simple(algebra, algebra.names[sv]).length
    return minimal_projective_resolution(algebra, M).length


def pd_of_simple(algebra: SchurianAlgebra, x: str) -> int:
    return resolution_of_simple(algebra, x).length


def idim_of_simple(algebra: SchurianAlgebra, x: str) -> int:
    return pd_of_simple(opposite_algebra(algebra), x)


def idim(algebra: SchurianAlgebra, M: Representation) -> int:
    """Injective dimension, computed over the opposite algebra."""
    if M.is_zero():
        raise ValueError("id of the zero module is undefined")
    sv = _simple_vertex(M)
    if sv is not None:
        return idim_of_simple(algebra, algebra.names[sv])
    return minimal_injective_coresolution(algebra, M).length


def gl_dim(algebra: SchurianAlgebra) -> int:
    if algebra.n == 0:
        return 0
    return max(pd_of_simple(algebra, x) for x in algebra.names)


def ext_dim(algebra: SchurianAlgebra, x: str, y: str, k: int) -> int:
    if k < 0:
        raise ValueError("negative degree")
    return resolution_of_simple(algebra, x).multiplicity(k, y)


def dual_representation(M: Representation) -> Representation:
    """The standard dual over the opposite algebra (dims kept, maps transposed)."""
    op = opposite_algebra(M.algebra)
    maps = {}
    for (u, v), m in M.maps.items():
        if m and m[0]:
            maps[(v, u)] = [[m[r][c] for r in range(len(m))] for c in range(len(m[0]))]
    return Representation(op, M.dims, maps)


def minimal_injective_coresolution(algebra: SchurianAlgebra, M: Representation | str) -> ProjResolution:
    """The minimal coresolution, computed as the projective resolution of the
    dual module over the opposite algebra; terms read as injective summands.
    A simple, given by its vertex name, shares the opposite algebra's cache
    of resolutions of simples."""
    op = opposite_algebra(algebra)
    if isinstance(M, str):
        return resolution_of_simple(op, M)
    return minimal_projective_resolution(op, dual_representation(M))


# -- audits -------------------------------------------------------------------


def materialize_differential(res: ProjResolution, k: int) -> dict[int, Matrix]:
    """Vertexwise matrices of Q_{k+1} -> Q_k."""
    A = res.algebra
    slots_prev = _slot_layout(A, res.terms[k])
    slots_next = _slot_layout(A, res.terms[k + 1])
    scal = res.diffs[k]
    out = {}
    for v in range(A.n):
        if not slots_prev[v] or not slots_next[v]:
            continue
        m = zeros(len(slots_prev[v]), len(slots_next[v]))
        for rpos, c_prev in enumerate(slots_prev[v]):
            for cpos, c_next in enumerate(slots_next[v]):
                m[rpos][cpos] = Fraction(scal[c_prev][c_next])
        out[v] = m
    return out


def verify_exactness(res: ProjResolution, module_dims: list[int] | None = None) -> bool:
    """Vertexwise rank-nullity audit across consecutive differentials."""
    A = res.algebra
    if module_dims is None:
        sv = A.index[res.resolved[1:]] if res.resolved.startswith("S") else None
        module_dims = [0] * A.n
        if sv is not None:
            module_dims[sv] = 1
    dims = [[len(s) for s in _slot_layout(A, term)] for term in res.terms]
    ranks = []
    for k in range(len(res.diffs)):
        mats = materialize_differential(res, k)
        ranks.append([rank(mats[v]) if v in mats else 0 for v in range(A.n)])
    for v in range(A.n):
        for k in range(len(res.terms)):
            rk_in = ranks[k][v] if k < len(ranks) else 0
            if k == 0:
                image_out = module_dims[v]
            else:
                image_out = ranks[k - 1][v]
            if dims[k][v] != rk_in + image_out:
                return False
    return True


def verify_minimality(res: ProjResolution) -> bool:
    """No differential entry between like-vertex summands (all entries lie in
    the radical)."""
    for k, scal in enumerate(res.diffs):
        prev, nxt = res.terms[k], res.terms[k + 1]
        for r, pv in enumerate(prev):
            for c, nv in enumerate(nxt):
                if pv == nv and scal[r][c] != 0:
                    return False
    return True
