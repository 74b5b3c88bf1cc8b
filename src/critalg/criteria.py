"""Combinatorial syzygy criteria, critical algebras, and the gl.dim <= 2 test.

The homology engine is the authority throughout: every combinatorial
prediction in this module is either derived exactly from the first terms of a
minimal resolution or is confirmed by the engine before being reported.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import (
    ClassificationGap,
    DualizationRequired,
    InternalError,
    InvalidTemplate,
    NotAnIncidenceAlgebra,
    NotAThirdSyzygyPair,
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
    hull_mask,
    opposite_algebra,
    second_syzygy_multiplicity,
)
from .quivers import Quiver, _bits, _popcount, convex_mask

log = logging.getLogger(__name__)


# -- second resolution term from relations ------------------------------------


def second_term_from_relations(algebra: SchurianAlgebra, i: str) -> dict[str, int]:
    """Multiset of second-term summands of the resolution of the simple at i,
    predicted from minimal relations alone (no resolution computed)."""
    ii = algebra.index[str(i)]
    out = {}
    for b in _bits(algebra.reach_rows[ii] & ~(1 << ii)):
        m = second_syzygy_multiplicity(algebra, ii, b)
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
    dualized: bool = False

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


def build_syzygy_config(algebra: SchurianAlgebra, i: str, j: str, *, dualized: bool = False) -> SyzygyConfig:
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
        dualized=dualized,
    )


def third_syzygy_test(algebra: SchurianAlgebra, i: str, j: str) -> bool:
    """Predict whether the projective at j is a summand of the third
    resolution term of the simple at i, from level-two data only.

    Requires s >= r (raises DualizationRequired otherwise).  The count clause
    is the exact kernel multiplicity; the witness clause demands a minimal
    relation from the middle set to j.  The literal monomial count
    (>= s - r + 1) is computed alongside and divergences are logged: they
    arise exactly when commutativity relations do the killing.
    """
    cfg = build_syzygy_config(algebra, i, j)
    if cfg.s < cfg.r:
        raise DualizationRequired(f"s={cfg.s} < r={cfg.r} for ({i}, {j})")
    return _third_test_from_config(algebra, cfg)


def _second_kernel_dims(algebra: SchurianAlgebra, i: int) -> list[int]:
    """Vertexwise dimensions of ker f_2 from the level-two resolution terms."""
    res = resolution_of_simple(algebra, algebra.names[i])
    q1 = res.terms[1] if len(res.terms) > 1 else ()
    q2 = res.terms[2] if len(res.terms) > 2 else ()
    out = []
    for v in range(algebra.n):
        ker1 = sum(algebra.hom_bit(a, v) for a in q1)
        if v != i:
            ker1 -= algebra.hom_bit(i, v)
        out.append(sum(algebra.hom_bit(b, v) for b in q2) - ker1)
    return out


def _third_test_from_config(algebra: SchurianAlgebra, cfg: SyzygyConfig) -> bool:
    jj = algebra.index[cfg.target]
    ii = algebra.index[cfg.source]
    minimal_witness = any(
        second_syzygy_multiplicity(algebra, algebra.index[a], jj) >= 1
        for a in cfg.s_set
    )
    count_ok = cfg.kernel_multiplicity >= 1
    # when every in-arrow of j carries no second-syzygy mass, the syzygy's
    # j-component cannot be radical-covered and tops regardless of witnesses
    # (this repairs the witness clause, which fails when the only relations
    # into j factor through a deeper generator)
    if count_ok and not minimal_witness:
        kdims = _second_kernel_dims(algebra, ii)
        zero_inflow = all(
            kdims[z] == 0 for z in _bits(algebra.quiver.in_mask[jj])
        )
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
    """The third-term test, dualizing when s < r.

    Returns (prediction, side) with side one of "primal", "dual",
    "primal-unmet" (neither side satisfies s >= r; the primal answer is
    returned and flagged).
    """
    cfg = build_syzygy_config(algebra, i, j)
    if cfg.s >= cfg.r:
        return _third_test_from_config(algebra, cfg), "primal"
    op = opposite_algebra(algebra)
    cfg_op = build_syzygy_config(op, j, i, dualized=True)
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
        first_ok = list(res.terms[1]) == sorted(_bits(q.out_mask[ii]))
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

    @property
    def size(self) -> int:
        return template_size(self.kind, self.param)


def template_size(kind: str, param: int) -> int:
    if kind == "A":
        return param + 3
    if kind == "B":
        return 6 if param == 1 else 2 * param + 1
    if kind == "Q":
        return 2 * param + 2
    raise InvalidTemplate(f"unknown template kind {kind!r}")


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


def classify_critical(B: SchurianAlgebra) -> CriticalTemplate:
    """Identify a critical algebra in the catalogue, up to isomorphism and
    opposite.  A miss raises ClassificationGap (a genuine finding, not a user
    error)."""
    for cand in _candidates_for_size(B.n):
        for opp in (False, True):
            tpl = critical_template(cand.kind, cand.param, opposite=opp)
            if are_isomorphic(B.n, list(B.hom_rows), tpl.n, list(tpl.hom_rows)):
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


def _induced(algebra: SchurianAlgebra, mask: int) -> SchurianAlgebra:
    cache = algebra._cache.setdefault("induced", {})
    got = cache.get(mask)
    if got is None:
        got = algebra.restrict_mask(mask)
        cache[mask] = got
    return got


def _unique_source_sink(B: SchurianAlgebra):
    srcs = B.sources()
    snks = B.sinks()
    if len(srcs) == 1 and len(snks) == 1 and srcs[0] != snks[0]:
        return srcs[0], snks[0]
    return None


def _level2_dims(B: SchurianAlgebra, i: int) -> tuple[list[int], list[int]]:
    """(dims of ker f_1, dims of the second term) for the simple at i,
    computed without linear algebra."""
    q = B.quiver
    branches = list(_bits(q.out_mask[i]))
    ker1 = [0] * B.n
    for v in range(B.n):
        tot = sum(B.hom_bit(a, v) for a in branches)
        if v != i:
            tot -= B.hom_bit(i, v)
        ker1[v] = tot
    q2 = [0] * B.n
    for b in range(B.n):
        m = second_syzygy_multiplicity(B, i, b)
        if m:
            for v in _bits(B.hom_rows[b]):
                q2[v] += m
    return ker1, q2


def _pd_le2_fast(B: SchurianAlgebra, i: int) -> bool:
    """Exact: pd of the simple at i is <= 2 iff the cover of ker f_1 has the
    same vertexwise dimensions (its kernel is then zero)."""
    ker1, q2 = _level2_dims(B, i)
    for v in range(B.n):
        if q2[v] != ker1[v]:
            if q2[v] < ker1[v]:
                raise InternalError("second-term dimensions below the first syzygy")
            return False
    return True


def _gldim_le2_fast(B: SchurianAlgebra) -> bool:
    return all(_pd_le2_fast(B, i) for i in range(B.n))


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


def _satisfies_i_iv(B: SchurianAlgebra) -> tuple[bool, str, str] | None:
    """Engine check of the four defining conditions of a critical algebra;
    returns (True, source, sink) or None."""
    pair = _unique_source_sink(B)
    if pair is None:
        return None
    src, snk = pair
    if not _resolution_partitions(B, resolution_of_simple(B, src)):
        return None
    op = opposite_algebra(B)
    if not _resolution_partitions(op, resolution_of_simple(op, snk)):
        return None
    for x in B.names:
        if x != src and pd_of_simple(B, x) > 2:
            return None
        if x != snk and idim_of_simple(B, x) > 2:
            return None
    return True, src, snk


def _i_iv_family(
    algebra: SchurianAlgebra, *, audit: bool = False, deadline: float | None = None
) -> dict[int, tuple[str, str]]:
    """All vertex-subset masks whose induced algebra satisfies conditions
    i)-iv).  The combinatorial pd screen prunes before the engine confirms;
    with audit=True the screen is bypassed entirely."""
    import time

    from .errors import TimeBudgetExceeded

    out: dict[int, tuple[str, str]] = {}
    full = (1 << algebra.n) - 1
    for mask in range(1, full + 1):
        if deadline is not None and mask % 256 == 0 and time.monotonic() > deadline:
            raise TimeBudgetExceeded("subset scan ran past the time budget")
        if _popcount(mask) < 4:
            continue
        B = _induced(algebra, mask)
        pair = _unique_source_sink(B)
        if pair is None:
            continue
        if not audit and _pd_le2_fast(B, B.index[pair[0]]):
            continue
        got = _satisfies_i_iv(B)
        if got is not None:
            out[mask] = (got[1], got[2])
    return out


def _convex_obstruction(B: SchurianAlgebra, family_masks) -> int | None:
    """A proper convex subset of B whose induced algebra satisfies i)-iv)."""
    full = (1 << B.n) - 1
    for mask in family_masks:
        if mask != full and convex_mask(B.reach_rows, mask):
            return mask
    return None


def check_critical(B: SchurianAlgebra) -> CriticalityResult:
    """Conditions i)-iv), plus minimality over proper full convex
    subcategories (non-convex subsets do not count against minimality)."""
    got = _satisfies_i_iv(B)
    if got is None:
        return CriticalityResult(False, ("conditions i)-iv) fail for the algebra itself",))
    _, src, snk = got
    family = _i_iv_family(B)
    obstruction = _convex_obstruction(B, family)
    if obstruction is not None:
        members = ",".join(B.names[i] for i in _bits(obstruction))
        return CriticalityResult(
            False,
            (f"proper full convex subcategory {{{members}}} satisfies i)-iv)",),
            src,
            snk,
        )
    return CriticalityResult(True, (), src, snk)


def is_critical(B: SchurianAlgebra) -> bool:
    return check_critical(B).is_critical


# -- search ---------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalReport:
    subset: tuple[str, ...]
    template: CriticalTemplate | None
    source: str
    sink: str
    resolution_terms: tuple[tuple[str, ...], ...]

    @property
    def template_display(self) -> str:
        return self.template.display if self.template else "unclassified"


def _local_mask(parent_mask: int, sub_mask: int) -> int:
    """Re-index a submask of an ambient vertex mask into induced positions."""
    out = 0
    pos = 0
    m = parent_mask
    i = 0
    while m:
        if m & 1:
            if sub_mask >> i & 1:
                out |= 1 << pos
            pos += 1
        m >>= 1
        i += 1
    return out


def find_all_critical_subcategories(
    algebra: SchurianAlgebra, *, audit: bool = False, budget_seconds: float | None = None
) -> list[CriticalReport]:
    """Every vertex subset whose induced algebra is critical.  Subsets need
    not be convex in the ambient algebra; minimality inside each candidate is
    over its own convex subsets.  Deterministic order: by vertex-index tuple."""
    import time

    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    family = _i_iv_family(algebra, audit=audit, deadline=deadline)
    masks = sorted(family)
    critical_masks = []
    for m in masks:
        B = _induced(algebra, m)
        sub_family = [_local_mask(m, o) for o in masks if o != m and o & m == o]
        if _convex_obstruction(B, sub_family) is None:
            critical_masks.append(m)
    return [
        _critical_report(_induced(algebra, mask), *family[mask])
        for mask in sorted(critical_masks, key=lambda m: tuple(_bits(m)))
    ]


def _critical_report(B: SchurianAlgebra, src: str, snk: str) -> CriticalReport:
    """The report on a critical algebra B with the given source and sink."""
    try:
        tpl = classify_critical(B)
    except ClassificationGap:
        tpl = None
    res = resolution_of_simple(B, src)
    return CriticalReport(
        subset=B.names,
        template=tpl,
        source=src,
        sink=snk,
        resolution_terms=tuple(res.term_names(k) for k in range(len(res.terms))),
    )


def build_critical_candidate(algebra: SchurianAlgebra, i: str, j: str) -> SchurianAlgebra:
    """The endomorphism algebra of the projectives over {i} + S + R + {j},
    built inside the convex hull of (i, j).  Raises NotAThirdSyzygyPair unless
    pd of the simple at i is 3 with the projective at j in the third term."""
    if pd_of_simple(algebra, i) != 3 or ext_dim(algebra, i, j, 3) < 1:
        raise NotAThirdSyzygyPair(f"({i}, {j}) is not a third-syzygy pair")
    ii, jj = algebra.index[str(i)], algebra.index[str(j)]
    C = _induced(algebra, hull_mask(algebra, ii, jj))
    cfg = build_syzygy_config(C, i, j)
    keep = {str(i), str(j), *cfg.r_set, *cfg.s_set}
    mask = C.mask_of(keep)
    return C.restrict_mask(mask, label=f"{algebra.label}|candidate({i},{j})")


def find_critical_subcategory_guided(algebra: SchurianAlgebra) -> list[CriticalReport]:
    """Resolution-guided search: walk (pd 3 simple, third-term summand)
    pairs and build candidates.  Complete when gl.dim >= 3; may find nothing
    on gl.dim <= 2 inputs even when critical subcategories exist."""
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


def find_critical_subcategory(
    algebra: SchurianAlgebra, strategy: str = "exhaustive"
) -> CriticalReport | None:
    """The lexicographically smallest critical subcategory, or None."""
    if strategy == "exhaustive":
        reports = find_all_critical_subcategories(algebra)
    elif strategy == "guided":
        reports = find_critical_subcategory_guided(algebra)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return reports[0] if reports else None


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


def gldim2_criterion(algebra: SchurianAlgebra) -> GlDim2Verdict:
    """No critical full subcategory certifies gl.dim <= 2; finding one says
    nothing (the converse fails).  The engine's global dimension is computed
    alongside and must agree with an absence verdict on certified inputs."""
    certified = bool(algebra.validity) if algebra.validity is not None else False
    reports = tuple(find_all_critical_subcategories(algebra))
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


def _sub_rows(rows: list[int] | tuple[int, ...], mask: int) -> list[int]:
    """A relation given by bit rows, restricted to the members of ``mask``."""
    return [_local_mask(mask, rows[i]) for i in _bits(mask)]


def igusa_zacharia(P: IncidenceQuotient) -> bool:
    """The classical incidence-algebra test: gl.dim <= 2 iff no full subposet
    is a cyclic double fan with three or more arms, and every crown-shaped
    full subposet sits inside a resolving double diamond."""
    if not isinstance(P, IncidenceQuotient) or P.declared_zeros:
        raise NotAnIncidenceAlgebra("the test applies to incidence algebras only")
    rows = P.reach_rows
    n = P.n
    # a Q template has no zero pairs, so its hom support is its order
    for k in range(3, (n - 2) // 2 + 1):
        fan = critical_template("Q", k).hom_rows
        size = 2 * k + 2
        if any(are_isomorphic(size, _sub_rows(rows, m), size, fan) for m in _masks_of_size(n, size)):
            return False
    crown = critical_template("Q", 2).hom_rows
    # two diamonds stacked through a middle element
    resolving = Quiver(
        ["t", "l", "r", "m", "bl", "br", "b"],
        [("t", "l"), ("t", "r"), ("l", "m"), ("r", "m"), ("m", "bl"), ("m", "br"), ("bl", "b"), ("br", "b")],
    )._reach_rows
    for mask in _masks_of_size(n, 6):
        if not are_isomorphic(6, _sub_rows(rows, mask), 6, crown):
            continue
        if not any(
            are_isomorphic(7, _sub_rows(rows, mask | 1 << w), 7, resolving)
            for w in range(n)
            if not mask >> w & 1
        ):
            return False
    return True


def _masks_of_size(n: int, size: int) -> list[int]:
    from itertools import combinations

    out = []
    for combo in combinations(range(n), size):
        m = 0
        for c in combo:
            m |= 1 << c
        out.append(m)
    return out


# -- simple-connectedness obstruction -----------------------------------------------


def convex_crown_witness(algebra: SchurianAlgebra) -> tuple[str, ...] | None:
    """A convex full subcategory isomorphic to a cyclic two-layer crown.

    Such a subcategory is a hereditary algebra whose quiver has a cycle as
    underlying graph, so it is not simply connected and the ambient algebra
    is certifiably not strongly simply connected.  The certification gate
    does not (and cannot cheaply) exclude these; theorems carrying the
    strong hypothesis may fail exactly on such inputs.
    """
    from itertools import combinations

    n = algebra.n
    for arms in range(2, n // 2 + 1):
        size = 2 * arms
        # the crown is Q_arms without its source and sink
        target = _sub_rows(critical_template("Q", arms).hom_rows, (1 << (size + 1)) - 2)
        for combo in combinations(range(n), size):
            mask = 0
            for c in combo:
                mask |= 1 << c
            if not convex_mask(algebra.reach_rows, mask):
                continue
            B = _induced(algebra, mask)
            if len(B.quiver.arrows) != 2 * arms:
                continue
            if are_isomorphic(B.n, list(B.hom_rows), size, target):
                return tuple(algebra.names[c] for c in combo)
    return None


# -- subcategory sweep helper ------------------------------------------------------


def proper_subcategories_gldim_le2(algebra: SchurianAlgebra, sample_confirm: int = 8) -> bool:
    """True iff every proper full convex subcategory has gl.dim <= 2.

    The fast dimension screen decides; screen failures are confirmed by the
    engine, and a deterministic sample of passes is engine-verified too.
    """
    full = (1 << algebra.n) - 1
    passes = []
    for mask in range(1, full):
        if not convex_mask(algebra.reach_rows, mask):
            continue
        B = _induced(algebra, mask)
        if _gldim_le2_fast(B):
            passes.append(mask)
            continue
        if gl_dim(B) > 2:
            return False
        raise InternalError("dimension screen claimed gl.dim >= 3 falsely")
    step = max(1, len(passes) // sample_confirm) if passes else 1
    for mask in passes[::step]:
        if gl_dim(_induced(algebra, mask)) > 2:
            raise InternalError("dimension screen claimed gl.dim <= 2 falsely")
    return True
