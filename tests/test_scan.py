"""The subset scan's mask-level decisions against induced algebras.

The scan decides the lone source and sink of every vertex subset on the
ambient hom rows, and builds an induced algebra only for the first subset
of each induced shape that passes, once the pd screen has passed on the
shape's hom rows; ``check_critical`` tests conditions i)-iv) only, since
they imply minimality over proper convex subsets.  The oracles below build
the induced algebra of every subset, as the scan once did, and must agree
with it.
"""

import pathlib
import random
from itertools import combinations

import pytest

from critalg.criteria import (
    CriticalityResult,
    _critical_report,
    _i_iv_family,
    _lone_ends,
    _pd_le2_fast,
    _satisfies_i_iv,
    build_critical_candidate,
    build_syzygy_config,
    check_critical,
    critical_template,
    find_all_critical_subcategories,
    igusa_zacharia,
)
from critalg.homology import idim_of_simple, minimal_injective_coresolution, pd_of_simple, resolution_of_simple
from critalg.iso import are_isomorphic
from critalg.presentation import SchurianAlgebra, from_poset
from critalg.quivers import Quiver, _bits, _sub_rows, convex_mask, transpose
from critalg.randgen import RandomModel, random_algebra
from critalg.specfile import load_algebra
from oracles import convex_hull
from posets import hasse_quiver_of, posets_up_to_iso

TEMPLATES = [("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 3), ("Q", 2), ("Q", 3)]


def induced_ends(B):
    """The lone source and sink of B read off its arrow skeleton, or None."""
    srcs, snks = B.sources(), B.sinks()
    if len(srcs) == 1 and len(snks) == 1 and srcs[0] != snks[0]:
        return srcs[0], snks[0]
    return None


def shuffled_poset_algebras(rng):
    """Every poset on at most 6 elements under a random relabelling (so index
    order need not be a linear extension), with no zero pairs and with two
    random zero sets."""
    for n in range(1, 7):
        for rows in posets_up_to_iso(n):
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [0] * n
            for v in range(n):
                shuffled[perm[v]] = sum(1 << perm[w] for w in range(n) if rows[v] >> w & 1)
            q = hasse_quiver_of(tuple(shuffled))
            legal = [
                (q.names[i], q.names[j])
                for i in range(n)
                for j in range(n)
                if i != j and q.reaches(i, j) and (i, j) not in q.arrows
            ]
            yield from_poset(q, [])
            for _ in range(2 if legal else 0):
                yield from_poset(q, rng.sample(legal, rng.randint(1, len(legal))))


def test_mask_ends_match_induced_algebras():
    algebras = list(shuffled_poset_algebras(random.Random(5)))
    algebras += [critical_template(k, p, opposite=o) for k, p in TEMPLATES for o in (False, True)]
    lone = 0
    for A in algebras:
        rows = A.hom_rows
        cols = transpose(rows)
        for mask in range(1, 1 << A.n):
            ends = _lone_ends(rows, cols, mask)
            got = None if ends is None else (A.names[ends[0]], A.names[ends[1]])
            assert got == induced_ends(A.restrict_mask(mask)), (A, mask)
            lone += got is not None
    assert lone > 0


def _random_scan_instance():
    return random_algebra(RandomModel(seed=3, n=9))


def _chain(n):
    return from_poset(Quiver([str(k) for k in range(n)], [(str(k), str(k + 1)) for k in range(n - 1)]))


def screened_shapes(A):
    """The distinct hom rows of the algebras induced on subsets with at least
    four members and a lone source and sink whose simple has pd > 2, by
    building every one and resolving with the engine."""
    shapes = set()
    for mask in range(1, 1 << A.n):
        if mask.bit_count() >= 4:
            B = A.restrict_mask(mask)
            ends = induced_ends(B)
            if ends is not None and pd_of_simple(B, ends[0]) > 2:
                shapes.add(B.hom_rows)
    return shapes


@pytest.mark.parametrize(
    "make, shapes",
    [(lambda: critical_template("A", 5), 4), (_random_scan_instance, 0), (lambda: _chain(16), 0)],
    ids=["A_5", "random", "chain16"],
)
def test_scan_builds_one_algebra_per_shape(make, shapes, monkeypatch):
    # the scan decides each induced shape once, and runs the pd screen on its
    # hom rows before building it: it builds one algebra per distinct hom
    # rows among the subsets with lone ends whose source simple has pd > 2.
    # A chain is hereditary, so no simple over a subset of it has pd > 2
    # (brute force there would build 64 839 algebras)
    A = make()
    if A.n < 16:
        assert len(screened_shapes(A)) == shapes
    calls = [0]
    real = SchurianAlgebra.restrict_mask

    def counting(self, mask, label=""):
        calls[0] += 1
        return real(self, mask, label)

    monkeypatch.setattr(SchurianAlgebra, "restrict_mask", counting)
    find_all_critical_subcategories(A)
    assert calls[0] == shapes


def induced_i_iv(B):
    """Every subset of B whose induced algebra satisfies i)-iv), in mask
    order, with that algebra and its source and sink, found by building the
    induced algebra of each subset."""
    for mask in range(1, 1 << B.n):
        if mask.bit_count() < 4:
            continue
        C = B.restrict_mask(mask)
        ends = induced_ends(C)
        if ends is None or _pd_le2_fast(C.hom_rows, C.index[ends[0]]):
            continue
        if _satisfies_i_iv(C, *ends):
            yield mask, C, ends


def scanned_family(B):
    """The masks of ``induced_i_iv``."""
    return [mask for mask, _, _ in induced_i_iv(B)]


def per_mask_reports(A):
    """find_all_critical_subcategories with no shape shared between masks:
    every subset in A's scanned family has its own induced algebra and
    report."""
    reports = [_critical_report(C, *ends) for _, C, ends in induced_i_iv(A)]
    return sorted(reports, key=lambda r: [A.index[x] for x in r.subset])


def test_scan_decides_each_shape_as_every_mask_would():
    # a mask reuses the verdict of the first mask with the same induced hom
    # rows; the reports must be those of each mask's own induced algebra
    corpus = _catalogue_up_to(12) + list(shuffled_poset_algebras(random.Random(5)))
    corpus += [random_algebra(RandomModel(seed=seed, n=9 + seed % 4)) for seed in range(8)]
    hits = shapes = 0
    for A in corpus:
        want = per_mask_reports(A)
        assert find_all_critical_subcategories(A) == want, A
        assert find_all_critical_subcategories(A, audit=True) == want, A
        hits += len(want)
        shapes += len({tuple(_sub_rows(A.hom_rows, A.mask_of(r.subset))) for r in want})
    assert hits > 2 * shapes > 0


def iz_per_mask(P):
    """igusa_zacharia with every subset tested afresh against its pattern."""
    rows, n = P.reach_rows, P.n
    for k in range(3, (n - 2) // 2 + 1):
        fan, size = critical_template("Q", k).hom_rows, 2 * k + 2
        for combo in combinations(range(n), size):
            if are_isomorphic(size, _sub_rows(rows, sum(1 << c for c in combo)), size, fan):
                return False
    crown = critical_template("Q", 2).hom_rows
    resolving = Quiver(
        ["t", "l", "r", "m", "bl", "br", "b"],
        [("t", "l"), ("t", "r"), ("l", "m"), ("r", "m"), ("m", "bl"), ("m", "br"), ("bl", "b"), ("br", "b")],
    )._reach_rows
    for combo in combinations(range(n), 6):
        mask = sum(1 << c for c in combo)
        if are_isomorphic(6, _sub_rows(rows, mask), 6, crown) and not any(
            are_isomorphic(7, _sub_rows(rows, mask | 1 << w), 7, resolving) for w in range(n) if not mask >> w & 1
        ):
            return False
    return True


def test_iz_tests_each_shape_as_every_mask_would():
    posets = [from_poset(hasse_quiver_of(rows), []) for n in range(1, 8) for rows in posets_up_to_iso(n)]
    posets += [critical_template("Q", k) for k in (3, 4)]
    posets += [random_algebra(RandomModel(seed=seed, n=8 + seed % 4, zero_rate=0)) for seed in range(12)]
    verdicts = [igusa_zacharia(P) for P in posets]
    assert verdicts == [iz_per_mask(P) for P in posets]
    assert len(set(verdicts)) == 2


def scan_then_keep_convex(B, convex_family):
    """check_critical as it was, given the proper convex members of B's
    scanned family: report the least of them."""
    ends = induced_ends(B)
    if ends is None or not _satisfies_i_iv(B, *ends):
        return CriticalityResult(False, ("conditions i)-iv) fail for the algebra itself",))
    if convex_family:
        members = ",".join(B.names[i] for i in _bits(convex_family[0]))
        return CriticalityResult(False, (f"proper full convex subcategory {{{members}}} satisfies i)-iv)",), *ends)
    return CriticalityResult(True, (), *ends)


def guided_candidates(A):
    """The distinct candidates the guided search builds on A."""
    seen = {}
    for i in A.names:
        if pd_of_simple(A, i) != 3:
            continue
        for j in resolution_of_simple(A, i).support(3):
            B = build_critical_candidate(A, i, j)
            seen.setdefault(B.names, B)
    return list(seen.values())


def _catalogue_up_to(size):
    out = []
    for kind, params in (("A", range(1, 10)), ("B", (1, 3, 4, 5)), ("Q", range(2, 6))):
        for p in params:
            for opp in (False, True):
                T = critical_template(kind, p, opposite=opp)
                if T.n <= size:
                    out.append(T)
    return out


def _random_corpus(count, sizes=(4, 5, 6, 7)):
    seed = 0
    out = []
    while len(out) < count:
        A = random_algebra(RandomModel(seed=seed, n=sizes[seed % len(sizes)]))
        seed += 1
        if A.validity.certified:
            out.append(A)
    return out


def test_convex_first_check_critical_matches_scan_then_filter():
    # the old check scanned every subset, then kept the proper convex ones;
    # the scan restricted to the proper convex subsets must find the same
    # ones, in the same order, and check_critical, which tests i)-iv) alone,
    # must give the old result
    candidates = [B for T in _catalogue_up_to(12) for B in guided_candidates(T)]
    assert max(B.n for B in candidates) == 12
    for A in _random_corpus(300):
        candidates.append(A)
        candidates.extend(guided_candidates(A))
    outcomes = set()
    convex_hits = 0
    for B in candidates:
        full = (1 << B.n) - 1
        convex_family = [m for m in scanned_family(B) if m != full and convex_mask(B.reach_rows, m)]
        convex = (m for m in range(1, full) if convex_mask(B.reach_rows, m))
        assert [m for m, _ in _i_iv_family(B, convex)] == convex_family, B
        got = check_critical(B)
        assert got == scan_then_keep_convex(B, convex_family), B
        outcomes.add(got.reasons[0].split()[0] if got.reasons else "critical")
        convex_hits += len(convex_family)
    assert convex_hits > 0
    assert outcomes == {"critical", "conditions"}


def oracle_i_iv(C):
    """Conditions i)-iv) on C, read off its skeleton and the engine: one
    source and one sink; the resolution of the source simple and the
    coresolution of the sink simple have length 3 with term supports that
    partition the vertices; every other simple has pd, and id, at most 2."""
    srcs, snks = C.sources(), C.sinks()
    if len(srcs) != 1 or len(snks) != 1:
        return False
    src, snk = srcs[0], snks[0]
    for res in (resolution_of_simple(C, src), minimal_injective_coresolution(C, snk)):
        supports = [res.support(k) for k in range(len(res.terms))]
        if len(supports) != 4 or sum(map(len, supports)) != C.n or set().union(*supports) != set(C.names):
            return False
    return all(pd_of_simple(C, x) <= 2 for x in C.names if x != src) and all(
        idim_of_simple(C, x) <= 2 for x in C.names if x != snk
    )


def convex_in(C, names):
    """No vertex of C outside ``names`` lies on a path between two inside."""
    inside = [C.index[x] for x in names]
    q = C.quiver
    return not any(
        q.reaches(s, x) and q.reaches(x, t)
        for x in range(C.n)
        if C.names[x] not in names
        for s in inside
        for t in inside
    )


def oracle_critical_subsets(A):
    """The subsets of A whose induced algebra satisfies i)-iv) and has no
    proper convex subset that does, by brute force over every mask."""
    family = [m for m in range(1, 1 << A.n) if oracle_i_iv(A.restrict_mask(m))]
    critical = []
    for m in family:
        C = A.restrict_mask(m)
        inner = [o for o in family if o != m and o & m == o]
        if not any(convex_in(C, {A.names[i] for i in _bits(o)}) for o in inner):
            critical.append(tuple(A.names[i] for i in _bits(m)))
    return sorted(critical, key=lambda sub: [A.index[x] for x in sub])


def test_i_iv_imply_minimality():
    # restriction to a convex subcategory keeps Ext, so a proper convex
    # subset satisfying i)-iv) would have the algebra's source and sink and
    # hence be everything: the scan needs no minimality check
    for algebras in (_catalogue_up_to(10), _random_corpus(40, sizes=(8, 9))):
        hits = 0
        for A in algebras:
            expected = oracle_critical_subsets(A)
            assert [r.subset for r in find_all_critical_subcategories(A)] == expected, A
            hits += len(expected)
        assert hits > 0


def test_iv_is_not_implied_by_ii_and_iii():
    # the whole algebra passes ii) and iii), but id S3 = 3 breaks iv): only
    # iv) rejects it, and without iv) the scan would report it too
    A = load_algebra((pathlib.Path(__file__).parent / "regressions" / "iv-decides.alg").read_text())
    res, cores = resolution_of_simple(A, "1"), minimal_injective_coresolution(A, "8")
    assert [sorted(res.support(k), key=int) for k in range(4)] == [["1"], ["5", "7"], ["2", "4", "6"], ["3", "8"]]
    assert [sorted(cores.support(k), key=int) for k in range(4)] == [["8"], ["2", "3", "4"], ["5", "6", "7"], ["1"]]
    assert idim_of_simple(A, "3") == 3
    assert not check_critical(A)
    assert [r.subset for r in find_all_critical_subcategories(A)] == [
        ("1", "2", "4", "5", "7", "8"),
        ("1", "3", "6", "7"),
        ("1", "4", "7", "8"),
        ("1", "6", "7", "8"),
    ]


def hull_candidate(A, i, j):
    """build_critical_candidate as it was: S and R read off the resolution
    over the convex hull of (i, j)."""
    C = convex_hull(A, i, j)
    cfg = build_syzygy_config(C, i, j)
    return C.restrict_mask(C.mask_of({i, j, *cfg.r_set, *cfg.s_set}), label=f"{A.label}|candidate({i},{j})")


def test_candidate_from_ambient_resolution_matches_hull():
    # the resolution over the convex hull of (i, j) is the ambient one
    # restricted to the hull, so S and R can be read off the ambient one
    corpus = [random_algebra(RandomModel(seed=seed, n=8 + seed % 4)) for seed in range(200)]
    pairs = 0
    for A in _catalogue_up_to(12) + corpus:
        for i in A.names:
            if pd_of_simple(A, i) != 3:
                continue
            for j in resolution_of_simple(A, i).support(3):
                got, want = build_critical_candidate(A, i, j), hull_candidate(A, i, j)
                assert (got.names, got.hom_rows, got.label) == (want.names, want.hom_rows, want.label), (A, i, j)
                pairs += 1
    assert pairs > 100
