"""Exact-arithmetic homology engine for schurian algebras.

The minimal projective resolution of a simple is computed on scalar
matrices alone (``_resolve_simple``).  Hom spaces between indecomposable
projectives are at most one-dimensional, so a map between sums of them is
one scalar per summand pair, and every syzygy is a subspace of the
coordinates of its term: at a vertex z, the summands b with hom(b, z) = 1.
Radicals, generators and kernels are then row reductions of those scalars.
Every dimension the package reports (pd, id, gl.dim, Ext) is read off these
resolutions of simples.

The ground field is the rationals: all structure constants here are 0 or 1,
so the computed dimensions are characteristic-free, and exact elimination
avoids floating point entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .linalg import Matrix, nullspace, rank, rref, zeros
from .presentation import SchurianAlgebra, opposite_algebra
from .quivers import _bits


def _slot_layout(algebra: SchurianAlgebra, summands) -> list[list[int]]:
    """Slot layout of a direct sum of indecomposable projectives: per vertex,
    the positions of the summands that are nonzero there, ascending."""
    slots = [[] for _ in range(algebra.n)]
    for c, a in enumerate(summands):
        for z in _bits(algebra.hom_rows[a]):
            slots[z].append(c)
    return slots


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


def minimal_projective_resolution(algebra: SchurianAlgebra, i: int) -> ProjResolution:
    """The minimal projective resolution of the simple at the vertex index i,
    checked against the shape that every such resolution has."""
    res = _resolve_simple(algebra, i)
    _assert_simple_resolution_shape(algebra, i, res)
    return res


def _resolve_simple(algebra: SchurianAlgebra, i: int) -> ProjResolution:
    """The minimal projective resolution of the simple at i, on scalars alone.

    Each term is a sum of thin projectives P_b, and its coordinates at a
    vertex z are the summands b with hom(b, z) = 1.  The syzygy at z is kept
    as an RREF row basis over all of the term's summands, zero off those
    coordinates.  ``projective_cover`` picks the generators of its top, each
    a summand of the next term and the column of the differential into this
    one.  The next syzygy at y is the nullspace of that differential on the
    rows and columns present at y.
    """
    rows, n = algebra.hom_rows, algebra.n
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
        new, gens = projective_cover(algebra, syzygy)
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


def projective_cover(algebra: SchurianAlgebra, syzygy: dict[int, Matrix]):
    """(summand vertices, generators) of the projective cover of a syzygy
    held as ``_resolve_simple`` holds it.

    An arrow into z keeps the coordinates present at both ends, so the
    radical of the syzygy at z is spanned by the basis vectors at z's
    in-neighbours, read at the pivot columns of the basis at z: that reading
    gives their coordinates in the basis, and it drops the coordinates absent
    at z.  The basis vectors off the radical's pivots complete it and
    generate the top, one summand P_z each.  The radical lies in the syzygy
    because the hom support is interval-monotone.
    """
    in_mask = algebra.quiver.in_mask
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
    return new, gens


def _dims(syzygy: dict[int, Matrix], n: int) -> tuple[int, ...]:
    dims = [0] * n
    for y, basis in syzygy.items():
        dims[y] = len(basis)
    return tuple(dims)


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
        if res.terms[1] != tuple(_bits(algebra.quiver.out_mask[i])):
            raise InternalError(
                f"first term of the resolution of S{name} is not the arrow-target sum"
            )


# -- dimensions ---------------------------------------------------------------


def resolution_of_simple(algebra: SchurianAlgebra, x: str) -> ProjResolution:
    i = algebra.index[str(x)]
    key = ("res", i)
    cached = algebra._cache.get(key)
    if cached is None:
        res = minimal_projective_resolution(algebra, i)
        # the cache keeps the fields alone: a resolution refers to its algebra
        algebra._cache[key] = (res.resolved, res.terms, res.diffs, res.syzygy_dims)
        return res
    return ProjResolution(algebra, *cached)


def pd_of_simple(algebra: SchurianAlgebra, x: str) -> int:
    return resolution_of_simple(algebra, x).length


def idim_of_simple(algebra: SchurianAlgebra, x: str) -> int:
    return pd_of_simple(opposite_algebra(algebra), x)


def gl_dim(algebra: SchurianAlgebra) -> int:
    if algebra.n == 0:
        return 0
    return max(pd_of_simple(algebra, x) for x in algebra.names)


def ext_dim(algebra: SchurianAlgebra, x: str, y: str, k: int) -> int:
    if k < 0:
        raise ValueError("negative degree")
    return resolution_of_simple(algebra, x).multiplicity(k, y)


def minimal_injective_coresolution(algebra: SchurianAlgebra, x: str) -> ProjResolution:
    """The minimal injective coresolution of the simple at x: the opposite
    algebra's cached resolution of that simple, its terms read as injective
    summands."""
    return resolution_of_simple(opposite_algebra(algebra), x)


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


def verify_exactness(res: ProjResolution) -> bool:
    """Vertexwise rank-nullity audit across consecutive differentials of the
    resolution of a simple, whose vertex is read off the first term."""
    A = res.algebra
    sv = res.terms[0][0]
    dims = [[len(s) for s in _slot_layout(A, term)] for term in res.terms]
    ranks = []
    for k in range(len(res.diffs)):
        mats = materialize_differential(res, k)
        ranks.append([rank(mats[v]) if v in mats else 0 for v in range(A.n)])
    for v in range(A.n):
        for k in range(len(res.terms)):
            rk_in = ranks[k][v] if k < len(ranks) else 0
            if k == 0:
                image_out = int(v == sv)
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
