"""The subset scan's mask-level decisions against induced algebras.

The scan decides the lone source and sink of every vertex subset on the
ambient hom rows and builds an induced algebra only for the subsets that
pass; ``check_critical`` tests conditions i)-iv) only, since they imply
minimality over proper convex subsets.  The oracles below build the induced
algebra of every subset, as the scan once did, and must agree with it.
"""

import pathlib
import random

import pytest

from critalg.criteria import (
    CriticalityResult,
    _i_iv_family,
    _lone_ends,
    _pd_le2_fast,
    _satisfies_i_iv,
    build_critical_candidate,
    build_syzygy_config,
    check_critical,
    critical_template,
    find_all_critical_subcategories,
)
from critalg.homology import idim_of_simple, minimal_injective_coresolution, pd_of_simple, resolution_of_simple
from critalg.posets import hasse_quiver_of, posets_up_to_iso
from critalg.presentation import SchurianAlgebra, convex_hull, from_poset
from critalg.quivers import _bits, convex_mask, transpose
from critalg.randgen import RandomModel, random_algebra
from critalg.specfile import load_algebra

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


@pytest.mark.parametrize("make", [lambda: critical_template("A", 5), _random_scan_instance], ids=["A_5", "random"])
def test_scan_builds_only_masks_with_lone_ends(make, monkeypatch):
    A = make()
    expected = sum(
        1
        for mask in range(1, 1 << A.n)
        if mask.bit_count() >= 4 and induced_ends(A.restrict_mask(mask)) is not None
    )
    calls = [0]
    real = SchurianAlgebra.restrict_mask

    def counting(self, mask, label=""):
        calls[0] += 1
        return real(self, mask, label)

    monkeypatch.setattr(SchurianAlgebra, "restrict_mask", counting)
    find_all_critical_subcategories(A)
    assert 0 < calls[0] == expected < (1 << A.n) - 1


def scanned_family(B):
    """Every subset of B whose induced algebra satisfies i)-iv), in mask
    order, found by building the induced algebra of each subset."""
    family = []
    for mask in range(1, 1 << B.n):
        if mask.bit_count() < 4:
            continue
        C = B.restrict_mask(mask)
        ends = induced_ends(C)
        if ends is None or _pd_le2_fast(C, C.index[ends[0]]):
            continue
        if _satisfies_i_iv(C, *ends):
            family.append(mask)
    return family


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
