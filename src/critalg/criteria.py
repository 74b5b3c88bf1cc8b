"""Combinatorial syzygy criteria, critical algebras, and the gl.dim <= 2 test.

The homology engine is the authority throughout: every combinatorial
prediction in this module is either derived exactly from the first terms of a
minimal resolution or is confirmed by the engine before being reported.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import (
    ClassificationGap,
    InternalError,
    InvalidTemplate,
    NotAnIncidenceAlgebra,
    NotAThirdSyzygyPair,
    TimeBudgetExceeded,
)
from .homology import (
    ProjResolution,
    ext_dim,
    gl_dim,
    pd_of_simple,
    idim_of_simple,
    resolution_of_simple,
    verify_exactness,
    verify_minimality,
)
from .iso import are_isomorphic
from .presentation import (
    IncidenceQuotient,
    SchurianAlgebra,
    from_poset,
    opposite_algebra,
    second_syzygy_multiplicity,
)
from .quivers import Quiver, _bits, _sub_rows, convex_mask, covers, transpose

log = logging.getLogger(__name__)


# -- second resolution term from relations ------------------------------------


def second_term_from_relations(algebra: SchurianAlgebra, i: str) -> dict[str, int]:
    """Multiset of second-term summands of the resolution of the simple at i,
    predicted from minimal relations alone (no resolution computed)."""
    ii = algebra.index[str(i)]
    q = algebra.quiver
    out = {}
    for b in _bits(algebra.reach_rows[ii] & ~(1 << ii)):
        m = second_syzygy_multiplicity(q.out_mask, q.in_mask, algebra.hom_cols, ii, b)
        if m:
            out[algebra.names[b]] = m
    return out


def second_term_engine(algebra: SchurianAlgebra, i: str) -> dict[str, int]:
    res = resolution_of_simple(algebra, i)
    out: dict[str, int] = {}
    for name in res.term_names(2):
        out[name] = out.get(name, 0) + 1
    return out


# -- syzygy configurations and the third-term test -----------------------------


@dataclass(frozen=True)
class SyzygyConfig:
    """Level-two resolution data around a candidate third-term summand."""

    source: str
    target: str
    r_set: tuple[str, ...]
    s_set: tuple[str, ...]
    r: int
    s: int
    v: int
    monomials: int
    mu_q1: int
    mu_q2: int
    hom_source_target: int

    @property
    def kernel_multiplicity(self) -> int:
        """mu of the target simple in ker f_2, by additivity along the
        resolution's short exact sequences."""
        return self.mu_q2 - self.mu_q1 + self.hom_source_target


def _path_counts_to(q: Quiver, dst: int) -> list[int]:
    """The number of paths v ~> dst for every vertex v, capped at 2 (all
    that ``build_syzygy_config`` asks), summed over successors in reverse
    topological order."""
    counts = [0] * q.n
    counts[dst] = 1
    for v in reversed(q.topological_order()):
        if v != dst:
            counts[v] = min(2, sum(counts[m] for m in _bits(q.out_mask[v])))
    return counts


def build_syzygy_config(algebra: SchurianAlgebra, i: str, j: str) -> SyzygyConfig:
    ii, jj = algebra.index[str(i)], algebra.index[str(j)]
    res = resolution_of_simple(algebra, i)
    q1 = res.terms[1] if len(res.terms) > 1 else ()
    q2 = res.terms[2] if len(res.terms) > 2 else ()
    reach = algebra.reach_rows
    r_set = sorted({b for b in q2 if reach[b] >> jj & 1 and algebra.hom_bit(b, jj)})
    s_set = sorted(
        {
            a
            for a in q1
            if any(reach[a] >> b & 1 and algebra.hom_bit(a, b) for b in r_set)
        }
    )
    paths_to_j = _path_counts_to(algebra.quiver, jj)
    v = 0
    monomials = 0
    for a in s_set:
        if algebra.hom_bit(a, jj):
            if paths_to_j[a] >= 2:
                v += 1
        elif reach[a] >> jj & 1:
            monomials += 1
    return SyzygyConfig(
        source=str(i),
        target=str(j),
        r_set=tuple(algebra.names[b] for b in r_set),
        s_set=tuple(algebra.names[a] for a in s_set),
        r=len(r_set),
        s=len(s_set),
        v=v,
        monomials=monomials,
        mu_q1=sum(algebra.hom_bit(a, jj) for a in q1),
        mu_q2=sum(algebra.hom_bit(b, jj) for b in q2),
        hom_source_target=algebra.hom_bit(ii, jj) if ii != jj else 0,
    )


def _third_test_from_config(algebra: SchurianAlgebra, cfg: SyzygyConfig) -> bool:
    jj = algebra.index[cfg.target]
    q = algebra.quiver
    minimal_witness = any(
        second_syzygy_multiplicity(q.out_mask, q.in_mask, algebra.hom_cols, algebra.index[a], jj) >= 1
        for a in cfg.s_set
    )
    count_ok = cfg.kernel_multiplicity >= 1
    # when every in-arrow of j carries no second-syzygy mass, the syzygy's
    # j-component cannot be radical-covered and tops regardless of witnesses
    # (this repairs the witness clause, which fails when the only relations
    # into j factor through a deeper generator)
    if count_ok and not minimal_witness:
        syz = resolution_of_simple(algebra, cfg.source).syzygy_dims
        zero_inflow = len(syz) < 3 or all(syz[2][z] == 0 for z in _bits(algebra.quiver.in_mask[jj]))
    else:
        zero_inflow = False
    literal_ok = cfg.monomials >= cfg.s - cfg.r + 1
    if literal_ok != count_ok:
        log.debug(
            "monomial-count clause and kernel multiplicity diverge at (%s,%s): "
            "literal=%s kernel=%s (s=%d r=%d v=%d monomials=%d)",
            cfg.source, cfg.target, literal_ok, count_ok, cfg.s, cfg.r, cfg.v, cfg.monomials,
        )
    return count_ok and (minimal_witness or zero_inflow)


def third_syzygy_test_auto(algebra: SchurianAlgebra, i: str, j: str) -> tuple[bool, str]:
    """Predict whether the projective at j is a summand of the third
    resolution term of the simple at i, from level-two data only, dualizing
    when s < r.

    The count clause is the exact kernel multiplicity; the witness clause
    demands a minimal relation from the middle set to j.  The literal
    monomial count (>= s - r + 1) is computed alongside and divergences are
    logged: they arise exactly when commutativity relations do the killing.

    Returns (prediction, side) with side one of "primal", "dual",
    "primal-unmet" (neither side satisfies s >= r; the primal answer is
    returned and flagged).
    """
    cfg = build_syzygy_config(algebra, i, j)
    if cfg.s >= cfg.r:
        return _third_test_from_config(algebra, cfg), "primal"
    op = opposite_algebra(algebra)
    cfg_op = build_syzygy_config(op, j, i)
    if cfg_op.s >= cfg_op.r:
        return _third_test_from_config(op, cfg_op), "dual"
    return _third_test_from_config(algebra, cfg), "primal-unmet"


# -- resolution structure audit ------------------------------------------------


@dataclass(frozen=True)
class ResolutionAudit:
    source: str
    exact: bool
    minimal: bool
    first_term_is_arrow_targets: bool
    summands_are_composition_factors: bool
    zero_path_clause: bool
    all_summands_reachable: bool

    @property
    def passed(self) -> bool:
        return all(
            (
                self.exact,
                self.minimal,
                self.first_term_is_arrow_targets,
                self.summands_are_composition_factors,
                self.zero_path_clause,
                self.all_summands_reachable,
            )
        )


def audit_resolution_structure(algebra: SchurianAlgebra, i: str) -> ResolutionAudit:
    """Check the structural description of a simple's minimal resolution:
    the first term collects the arrow targets, later summands are composition
    factors of the preceding term, fresh summands force zero paths from the
    preceding top, and every summand is reachable from the resolved vertex."""
    ii = algebra.index[str(i)]
    res = resolution_of_simple(algebra, i)
    q = algebra.quiver
    first_ok = True
    if len(res.terms) > 1:
        first_ok = res.terms[1] == tuple(_bits(q.out_mask[ii]))
    comp_ok = True
    zero_ok = True
    reach_ok = True
    reach = algebra.reach_rows
    for k, term in enumerate(res.terms):
        for vtx in term:
            if not reach[ii] >> vtx & 1:
                reach_ok = False
        if k == 0:
            continue
        prev = res.terms[k - 1]
        for vtx in term:
            if not any(algebra.hom_bit(c, vtx) for c in prev):
                comp_ok = False
        if k >= 3:
            ker_prev = res.syzygy_dims[k - 2]
            for vtx in set(term):
                if ker_prev[vtx] == 0:
                    for h in set(res.terms[k - 2]):
                        if reach[h] >> vtx & 1 and algebra.hom_bit(h, vtx):
                            zero_ok = False
    return ResolutionAudit(
        source=str(i),
        exact=verify_exactness(res),
        minimal=verify_minimality(res),
        first_term_is_arrow_targets=first_ok,
        summands_are_composition_factors=comp_ok,
        zero_path_clause=zero_ok,
        all_summands_reachable=reach_ok,
    )


# -- critical templates ---------------------------------------------------------


@dataclass(frozen=True)
class CriticalTemplate:
    kind: str  # "A", "B", or "Q"
    param: int
    opposite: bool = False

    @property
    def display(self) -> str:
        base = f"{self.kind}_{self.param}"
        return base + ("^op" if self.opposite else "")


def critical_template(kind: str, param: int, opposite: bool = False) -> SchurianAlgebra:
    """Generator for the catalogue of critical algebras.

    A_1: a 4-chain with two overlapping zero pairs.  A_l (l >= 2): one middle
    vertex fanning out to l parallel vertices, all fan targets killed from the
    source.  B_1: the 6-vertex two-route shape with the two single-path
    relations monomial.  B_m (m >= 3): m upper and m-1 lower vertices in a
    zigzag, the two extreme lower routes killed.  Q_n (n >= 2): the cyclic
    double fan with no zero pairs at all.
    """
    kind = str(kind).upper()
    param = int(param)
    if kind == "A" and param >= 1:
        if param == 1:
            q = Quiver(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")])
            alg = from_poset(q, [("1", "3"), ("2", "4")], label="A_1")
        else:
            names = [str(k) for k in range(1, param + 4)]
            mids = names[2:-1]
            arrows = [("1", "2")] + [("2", b) for b in mids] + [(b, names[-1]) for b in mids]
            alg = from_poset(Quiver(names, arrows), [("1", b) for b in mids], label=f"A_{param}")
    elif kind == "B" and (param == 1 or param >= 3):
        if param == 1:
            q = Quiver(
                ["1", "2", "3", "4", "5", "6"],
                [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("3", "5"), ("4", "6"), ("5", "6")],
            )
            alg = from_poset(q, [("1", "4"), ("1", "5"), ("2", "6")], label="B_1")
        else:
            m = param
            i = "1"
            ups = [str(1 + k) for k in range(1, m + 1)]
            downs = [str(1 + m + h) for h in range(1, m)]
            j = str(2 * m + 1)
            arrows = [(i, a) for a in ups]
            arrows += [(ups[k], downs[k]) for k in range(m - 1)]
            arrows += [(ups[k + 1], downs[k]) for k in range(m - 1)]
            arrows += [(b, j) for b in downs]
            alg = from_poset(
                Quiver([i] + ups + downs + [j], arrows),
                [(ups[0], j), (ups[-1], j)],
                label=f"B_{m}",
            )
    elif kind == "Q" and param >= 2:
        n = param
        t = "1"
        ups = [str(1 + k) for k in range(1, n + 1)]
        downs = [str(1 + n + h) for h in range(1, n + 1)]
        s = str(2 * n + 2)
        arrows = [(t, a) for a in ups]
        arrows += [(ups[k], downs[k]) for k in range(n)]
        arrows += [(ups[k], downs[(k + 1) % n]) for k in range(n)]
        arrows += [(b, s) for b in downs]
        alg = from_poset(Quiver([t] + ups + downs + [s], arrows), [], label=f"Q_{n}")
    else:
        raise InvalidTemplate(f"no template {kind}_{param}")
    if opposite:
        out = opposite_algebra(alg)
        out.label = f"{kind}_{param}^op"
        return out
    return alg


def template_catalogue() -> list[tuple[str, str]]:
    """Kinds and parameter ranges of the catalogue."""
    return [
        ("A", "l >= 1 (size l + 3)"),
        ("B", "1 or m >= 3 (size 6 or 2m + 1)"),
        ("Q", "n >= 2 (size 2n + 2; pure incidence)"),
    ]


def _candidates_for_size(n: int) -> list[CriticalTemplate]:
    out = []
    if n - 3 >= 1:
        out.append(CriticalTemplate("A", n - 3))
    if n == 6:
        out.append(CriticalTemplate("B", 1))
    if n >= 7 and n % 2 == 1 and (n - 1) // 2 >= 3:
        out.append(CriticalTemplate("B", (n - 1) // 2))
    if n >= 6 and n % 2 == 0 and (n - 2) // 2 >= 2:
        out.append(CriticalTemplate("Q", (n - 2) // 2))
    return out


# hom rows of each catalogue template built so far, keyed by (kind, param,
# opposite); rows only, so that no algebra stays alive
_TEMPLATE_ROWS: dict[tuple[str, int, bool], tuple[int, ...]] = {}


def _template_rows(kind: str, param: int, opposite: bool) -> tuple[int, ...]:
    key = (kind, param, opposite)
    rows = _TEMPLATE_ROWS.get(key)
    if rows is None:
        rows = _TEMPLATE_ROWS[key] = critical_template(kind, param, opposite=opposite).hom_rows
    return rows


def classify_critical(B: SchurianAlgebra) -> CriticalTemplate:
    """Identify a critical algebra in the catalogue, up to isomorphism and
    opposite.  A miss raises ClassificationGap (a genuine finding, not a user
    error)."""
    for cand in _candidates_for_size(B.n):
        for opp in (False, True):
            rows = _template_rows(cand.kind, cand.param, opp)
            if are_isomorphic(B.n, list(B.hom_rows), len(rows), list(rows)):
                return CriticalTemplate(cand.kind, cand.param, opp)
    raise ClassificationGap(
        f"critical algebra on {B.n} vertices matches no catalogue template"
    )


# -- criticality ----------------------------------------------------------------


@dataclass(frozen=True)
class CriticalityResult:
    is_critical: bool
    reasons: tuple[str, ...] = ()
    source: str | None = None
    sink: str | None = None

    def __bool__(self) -> bool:
        return self.is_critical


def _lone_ends(rows: Sequence[int], cols: Sequence[int], mask: int) -> tuple[int, int] | None:
    """The lone source and lone sink of the algebra induced on ``mask``, as
    indices into the hom rows ``rows`` and their transpose ``cols``, or None
    unless there is exactly one of each and they differ.  Hom is triangular,
    so a member has an in-arrow of the induced skeleton exactly when another
    member has nonzero hom to it (and an out-arrow, dually)."""
    src = snk = None
    for x in _bits(mask):
        bit = 1 << x
        if cols[x] & mask == bit:
            if src is not None:
                return None
            src = x
        if rows[x] & mask == bit:
            if snk is not None:
                return None
            snk = x
    if src is None or snk is None or src == snk:
        return None
    return src, snk


def _pd_le2_fast(rows: Sequence[int], i: int) -> bool:
    """Exact: pd of the simple at i, over the algebra with hom rows ``rows``,
    is <= 2 iff the cover of ker f_1 has the same vertexwise dimensions (its
    kernel is then zero).  Decided on the rows alone, without linear algebra
    or an algebra object."""
    cols = transpose(rows)
    out = covers(rows)
    into = transpose(out)
    q2 = [0] * len(rows)
    for b in range(len(rows)):
        m = second_syzygy_multiplicity(out, into, cols, i, b)
        if m:
            for v in _bits(rows[b]):
                q2[v] += m
    for v, col in enumerate(cols):
        ker1 = (out[i] & col).bit_count() - (v != i and col >> i & 1)
        if q2[v] != ker1:
            if q2[v] < ker1:
                raise InternalError("second-term dimensions below the first syzygy")
            return False
    return True


def _resolution_partitions(B: SchurianAlgebra, res: ProjResolution) -> bool:
    """Length exactly 3 and the term supports partition the vertex set."""
    if res.length != 3:
        return False
    seen: set[int] = set()
    for term in res.terms:
        sup = set(term)
        if sup & seen:
            return False
        seen |= sup
    return seen == set(range(B.n))


def _satisfies_i_iv(B: SchurianAlgebra, src: str, snk: str) -> bool:
    """Engine check of conditions ii)-iv) of a critical algebra on B, whose
    lone source and lone sink (condition i) are ``src`` and ``snk``."""
    if not _resolution_partitions(B, resolution_of_simple(B, src)):
        return False
    op = opposite_algebra(B)
    if not _resolution_partitions(op, resolution_of_simple(op, snk)):
        return False
    for x in B.names:
        if x != src and pd_of_simple(B, x) > 2:
            return False
        if x != snk and idim_of_simple(B, x) > 2:
            return False
    return True


def _i_iv_family(
    algebra: SchurianAlgebra, masks: Iterable[int], *, audit: bool = False, deadline: float | None = None
) -> Iterator[tuple[int, _CriticalShape]]:
    """Each of ``masks`` whose induced algebra satisfies conditions i)-iv),
    in the order given, with that algebra as a ``_CriticalShape``.  The size
    and the lone source and sink are decided on the ambient hom rows, and
    the combinatorial pd screen on the induced hom rows, so only the masks
    that pass all three reach an induced algebra, which the engine confirms
    (with audit=True the screen is bypassed).  Past ``deadline``, a
    ``time.monotonic`` reading checked at every mask, the scan raises
    TimeBudgetExceeded.

    The induced algebra on a mask is ``_sub_rows(rows, mask)`` under the
    members' names, and the screen, the engine, the classification and the
    local ends read the rows alone.  So each induced shape is decided once
    per call, keyed on those rows: its first mask decides it, and later
    masks of the shape reuse the verdict."""
    rows = algebra.hom_rows
    cols = algebra.hom_cols
    shapes: dict[tuple[int, ...], _CriticalShape | None] = {}
    for mask in masks:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded("subset scan ran past the time budget")
        if mask.bit_count() < 4:
            continue
        ends = _lone_ends(rows, cols, mask)
        if ends is None:
            continue
        key = tuple(_sub_rows(rows, mask))
        try:
            shape = shapes[key]
        except KeyError:
            shape = shapes[key] = _decide_shape(algebra, mask, key, ends, audit)
        if shape is not None:
            yield mask, shape


def _decide_shape(
    algebra: SchurianAlgebra, mask: int, key: Sequence[int], ends: tuple[int, int], audit: bool
) -> _CriticalShape | None:
    """The induced algebra on ``mask``, with hom rows ``key`` and lone ends
    at the ambient indices ``ends``, as a ``_CriticalShape`` if it satisfies
    i)-iv), else None.  The pd screen reads ``key``, so the algebra is built
    only for the shapes that pass it."""
    if not audit and _pd_le2_fast(key, (mask & ((1 << ends[0]) - 1)).bit_count()):
        return None
    B = algebra.restrict_mask(mask)
    src, snk = algebra.names[ends[0]], algebra.names[ends[1]]
    if not _satisfies_i_iv(B, src, snk):
        return None
    return _critical_shape(B, src, snk)


def check_critical(B: SchurianAlgebra) -> CriticalityResult:
    """Conditions i)-iv) on B, which make B critical: they imply
    minimality over proper full convex subcategories.

    Let C be a full convex subcategory of B.  A vertex of B outside C that
    lies above a vertex of C has no vertex of C above it, so restricting a
    minimal B-resolution of a C-module gives a minimal C-resolution, and
    Ext over C is Ext over B.  If C satisfies i)-iv) too, its source i' has
    pd_B S_i' >= pd_C S_i' = 3, so by iv) i' is the source of B; dually the
    sink of C is the sink of B.  Every vertex of B lies between its lone
    source and lone sink, so the convex C holds them all and C = B."""
    ends = _lone_ends(B.hom_rows, B.hom_cols, (1 << B.n) - 1)
    if ends is None or not _satisfies_i_iv(B, B.names[ends[0]], B.names[ends[1]]):
        return CriticalityResult(False, ("conditions i)-iv) fail for the algebra itself",))
    return CriticalityResult(True, (), B.names[ends[0]], B.names[ends[1]])


# -- search ---------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalReport:
    subset: tuple[str, ...]
    template: CriticalTemplate | None
    source: str
    sink: str
    resolution_terms: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class _CriticalShape:
    """A critical algebra up to the names of its vertices: its template
    (None when unclassified), and its source, its sink and the terms of its
    source simple's resolution as vertex indices."""

    template: CriticalTemplate | None
    source: int
    sink: int
    terms: tuple[tuple[int, ...], ...]

    def report(self, names: Sequence[str]) -> CriticalReport:
        """The report on this shape with its vertices named ``names``."""
        return CriticalReport(
            subset=tuple(names),
            template=self.template,
            source=names[self.source],
            sink=names[self.sink],
            resolution_terms=tuple(tuple(names[v] for v in term) for term in self.terms),
        )


def find_all_critical_subcategories(
    algebra: SchurianAlgebra, *, audit: bool = False, budget_seconds: float | None = None
) -> list[CriticalReport]:
    """Every vertex subset whose induced algebra is critical, that is,
    satisfies i)-iv) (see ``check_critical`` for why that suffices).
    Subsets need not be convex in the ambient algebra.  Deterministic order:
    by vertex-index tuple."""
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    names = algebra.names
    reports = [
        shape.report([names[i] for i in _bits(mask)])
        for mask, shape in _i_iv_family(algebra, range(1, 1 << algebra.n), audit=audit, deadline=deadline)
    ]
    reports.sort(key=lambda r: tuple(algebra.index[x] for x in r.subset))
    return reports


def _critical_shape(B: SchurianAlgebra, src: str, snk: str) -> _CriticalShape:
    """The shape of a critical algebra B with the given source and sink."""
    try:
        tpl = classify_critical(B)
    except ClassificationGap:
        tpl = None
    return _CriticalShape(tpl, B.index[src], B.index[snk], resolution_of_simple(B, src).terms)


def _critical_report(B: SchurianAlgebra, src: str, snk: str) -> CriticalReport:
    """The report on a critical algebra B with the given source and sink."""
    return _critical_shape(B, src, snk).report(B.names)


def build_critical_candidate(algebra: SchurianAlgebra, i: str, j: str) -> SchurianAlgebra:
    """The endomorphism algebra of the projectives over {i} + S + R + {j}.
    Raises NotAThirdSyzygyPair unless pd of the simple at i is 3 with the
    projective at j in the third term.

    S and R lie in the convex hull of (i, j), and the resolution over the
    hull is the ambient one restricted to it (see ``check_critical``), so
    both are read off the ambient resolution."""
    if pd_of_simple(algebra, i) != 3 or ext_dim(algebra, i, j, 3) < 1:
        raise NotAThirdSyzygyPair(f"({i}, {j}) is not a third-syzygy pair")
    cfg = build_syzygy_config(algebra, i, j)
    mask = algebra.mask_of({str(i), str(j), *cfg.r_set, *cfg.s_set})
    return algebra.restrict_mask(mask, label=f"{algebra.label}|candidate({i},{j})")


def find_critical_subcategory_guided(
    algebra: SchurianAlgebra, *, budget_seconds: float | None = None
) -> list[CriticalReport]:
    """Resolution-guided search: walk (pd 3 simple, third-term summand)
    pairs and build candidates.  Complete when gl.dim >= 3; may find nothing
    on gl.dim <= 2 inputs even when critical subcategories exist.  The
    clock is read once per new candidate: past ``budget_seconds`` the search
    raises TimeBudgetExceeded."""
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    reports = []
    seen = set()
    for i in algebra.names:
        res = resolution_of_simple(algebra, i)
        if res.length != 3:
            continue
        for j in sorted(res.support(3), key=lambda x: algebra.index[x]):
            B = build_critical_candidate(algebra, i, j)
            key = tuple(sorted(algebra.index[x] for x in B.names))
            if key in seen:
                continue
            seen.add(key)
            if deadline is not None and time.monotonic() > deadline:
                raise TimeBudgetExceeded("guided search ran past the time budget")
            chk = check_critical(B)
            if not chk:
                log.warning(
                    "guided candidate on {%s} from (%s,%s) is not critical: %s",
                    ",".join(B.names), i, j, "; ".join(chk.reasons),
                )
                continue
            reports.append(_critical_report(B, chk.source, chk.sink))
    reports.sort(key=lambda r: tuple(algebra.index[x] for x in r.subset))
    return reports


# -- the main criterion -----------------------------------------------------------


@dataclass(frozen=True)
class GlDim2Verdict:
    certified_at_most_two: bool
    critical: tuple[CriticalReport, ...]
    hypotheses_certified: bool
    engine_gl_dim: int

    @property
    def verdict(self) -> str:
        return "certified_gldim_le_2" if self.certified_at_most_two else "critical_found"


def gldim2_criterion(algebra: SchurianAlgebra, *, budget_seconds: float | None = None) -> GlDim2Verdict:
    """No critical full subcategory certifies gl.dim <= 2; finding one says
    nothing (the converse fails).  The engine's global dimension is computed
    alongside and must agree with an absence verdict on certified inputs.
    Past ``budget_seconds`` the subset scan raises TimeBudgetExceeded."""
    certified = bool(algebra.validity)
    reports = tuple(find_all_critical_subcategories(algebra, budget_seconds=budget_seconds))
    g = gl_dim(algebra)
    if not reports and g > 2 and certified:
        raise InternalError(
            f"no critical subcategory found but gl.dim = {g} on a certified input"
        )
    return GlDim2Verdict(
        certified_at_most_two=not reports,
        critical=reports,
        hypotheses_certified=certified,
        engine_gl_dim=g,
    )


def pd_spectrum_check(algebra: SchurianAlgebra) -> bool:
    """Projective dimensions of the simples cover every value up to gl.dim."""
    if algebra.n == 0:
        return True
    dims = {pd_of_simple(algebra, x) for x in algebra.names}
    return dims.issuperset(range(gl_dim(algebra) + 1))


# -- the incidence-algebra criterion ----------------------------------------------


def igusa_zacharia(P: IncidenceQuotient, *, budget_seconds: float | None = None) -> bool:
    """The classical incidence-algebra test: gl.dim <= 2 iff no full subposet
    is a cyclic double fan with three or more arms, and every crown-shaped
    full subposet sits inside a resolving double diamond.  Each induced
    shape is tested against each pattern once per call.  The clock is read
    at every subset: past ``budget_seconds`` the test raises
    TimeBudgetExceeded."""
    if not isinstance(P, IncidenceQuotient) or P.declared_zeros:
        raise NotAnIncidenceAlgebra("the test applies to incidence algebras only")
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    rows = P.reach_rows
    n = P.n
    # a Q template has no zero pairs, so its hom support is its order
    for k in range(3, (n - 2) // 2 + 1):
        fan = _template_rows("Q", k, False)
        tested: dict[tuple[int, ...], bool] = {}
        if any(_isomorphic_once(tested, rows, m, fan) for m in _masks_of_size(n, 2 * k + 2, deadline)):
            return False
    crown = _template_rows("Q", 2, False)
    # two diamonds stacked through a middle element
    resolving = Quiver(
        ["t", "l", "r", "m", "bl", "br", "b"],
        [("t", "l"), ("t", "r"), ("l", "m"), ("r", "m"), ("m", "bl"), ("m", "br"), ("bl", "b"), ("br", "b")],
    )._reach_rows
    crowns: dict[tuple[int, ...], bool] = {}
    resolvers: dict[tuple[int, ...], bool] = {}
    for mask in _masks_of_size(n, 6, deadline):
        if not _isomorphic_once(crowns, rows, mask, crown):
            continue
        if not any(
            _isomorphic_once(resolvers, rows, mask | 1 << w, resolving)
            for w in range(n)
            if not mask >> w & 1
        ):
            return False
    return True


def _isomorphic_once(
    tested: dict[tuple[int, ...], bool], rows: Sequence[int], mask: int, target: Sequence[int]
) -> bool:
    """Whether the relation ``rows`` restricted to ``mask`` is isomorphic to
    ``target``.  ``tested`` holds the answer for every induced shape already
    tested against ``target``, so each shape is tested once."""
    key = tuple(_sub_rows(rows, mask))
    found = tested.get(key)
    if found is None:
        found = tested[key] = are_isomorphic(len(key), key, len(target), target)
    return found


def _masks_of_size(n: int, size: int, deadline: float | None = None) -> Iterator[int]:
    """The masks with ``size`` of the n vertices, lazily, in combination
    order.  Past ``deadline``, a ``time.monotonic`` reading checked at every
    mask, raises TimeBudgetExceeded."""
    for combo in combinations(range(n), size):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeBudgetExceeded("subset scan ran past the time budget")
        yield sum(1 << c for c in combo)


# -- simple-connectedness obstruction -----------------------------------------------


def convex_crown_witness(algebra: SchurianAlgebra) -> tuple[str, ...] | None:
    """A convex full subcategory isomorphic to a cyclic two-layer crown.

    Such a subcategory is a hereditary algebra whose quiver has a cycle as
    underlying graph, so it is not simply connected and the ambient algebra
    is certifiably not strongly simply connected.  The certification gate
    does not (and cannot cheaply) exclude these; theorems carrying the
    strong hypothesis may fail exactly on such inputs.
    """
    n = algebra.n
    for arms in range(2, n // 2 + 1):
        size = 2 * arms
        # the crown is Q_arms without its source and sink
        target = _sub_rows(_template_rows("Q", arms, False), (1 << (size + 1)) - 2)
        for mask in _masks_of_size(n, size):
            if not convex_mask(algebra.reach_rows, mask):
                continue
            B = algebra.restrict_mask(mask)
            if len(B.quiver.arrows) != 2 * arms:
                continue
            if are_isomorphic(B.n, list(B.hom_rows), size, target):
                return B.names
    return None
