import hashlib
import random

import pytest

from critalg.errors import TriangularityViolation
from critalg.presentation import opposite_algebra
from critalg.quivers import (
    Quiver,
    all_paths,
    contours,
    convex_mask,
    cover_arrows,
    has_bypass,
    is_interlaced,
    is_irreducible,
    lexmin_path,
)
from posets import hasse_quiver_of, posets_up_to_iso


def q(names, arrows):
    return Quiver(names.split(), [tuple(a.split("-")) for a in arrows])


def reduction(pairs):
    """The Hasse quiver of a transitively closed order given as named pairs
    (x, y) for x >= y, through ``cover_arrows``."""
    names = sorted({v for p in pairs for v in p})
    rows = [sum(1 << names.index(y) for x, y in pairs if x == v) for v in names]
    return Quiver(names, [(names[a], names[b]) for a, b in cover_arrows(rows)])


def reachability(Q):
    return {(Q.names[x], Q.names[y]) for x in range(Q.n) for y in range(Q.n) if Q.reaches(x, y)}


def test_reachability_transitivity():
    Q = q("1 2 3", ["1-2", "2-3"])
    assert Q.reaches(0, 2) and not Q.reaches(2, 0)


def test_reachability_no_arrows_is_identity():
    Q = Quiver(["1", "2"], [])
    assert Q._reach_rows == (0b01, 0b10)


def test_reachability_matches_dfs_oracle(diamond6, oracles):
    Q = diamond6.hasse
    arrows = Q.arrow_names()
    rel = reachability(Q)
    for x in Q.names:
        for y in Q.names:
            assert ((x, y) in rel) == oracles.reaches(arrows, x, y)
    assert ("1", "6") in rel


def test_reachability_raises_on_cycle():
    Q = Quiver(["1", "2"], [("1", "2"), ("2", "1")])
    with pytest.raises(TriangularityViolation):
        Q._reach_rows


def test_is_triangular():
    assert q("1 2 3", ["1-2", "2-3"]).topological_order() == [0, 1, 2]
    with pytest.raises(TriangularityViolation):
        Quiver(["1", "2"], [("1", "2"), ("2", "1")]).topological_order()


def test_diamond6_quiver_is_triangular(diamond6):
    assert sorted(diamond6.hasse.topological_order()) == list(range(diamond6.n))


def test_has_bypass():
    assert has_bypass(q("1 2 3", ["1-2", "2-3", "1-3"]))
    assert not has_bypass(q("1 2 3", ["1-2", "2-3"]))
    long = q("1 2 3 4", ["1-2", "2-3", "3-4", "1-4"])
    assert has_bypass(long)


def test_hasse_reduction_drops_implied_pair():
    Q = reduction([("1", "2"), ("2", "3"), ("1", "3")])
    assert set(Q.arrow_names()) == {("1", "2"), ("2", "3")}


def test_hasse_reduction_identity_order():
    Q = reduction([("1", "1"), ("2", "2")])
    assert Q.arrow_names() == []


def test_hasse_reduction_square():
    pairs = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("1", "4")]
    Q = reduction(pairs)
    assert set(Q.arrow_names()) == {("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")}


def test_reduction_closure_round_trip_random():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(1, 8)
        pairs = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    pairs.add((str(i), str(j)))
        # close transitively to make a genuine partial order
        changed = True
        while changed:
            changed = False
            for a, b in list(pairs):
                for c, d in list(pairs):
                    if b == c and (a, d) not in pairs:
                        pairs.add((a, d))
                        changed = True
        pairs |= {(str(i), str(i)) for i in range(n)}
        Q = reduction(pairs)
        assert not has_bypass(Q)
        assert reachability(Q) == pairs


def test_transitive_reductions_agree_with_brute_force_covers():
    # every poset on at most 6 elements, relabelled by a random permutation so
    # that index order need not be a linear extension
    rng = random.Random(29)
    for n in range(1, 7):
        for rows in posets_up_to_iso(n):
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [0] * n
            for v in range(n):
                shuffled[perm[v]] = sum(1 << perm[w] for w in range(n) if rows[v] >> w & 1)
            below = {(a, b) for a in range(n) for b in range(n) if a != b and shuffled[a] >> b & 1}
            covers = {
                (a, b) for a, b in below
                if not any((a, c) in below and (c, b) in below for c in range(n))
            }
            named = {(str(a + 1), str(b + 1)) for a, b in covers}
            assert set(hasse_quiver_of(tuple(shuffled)).arrow_names()) == named


def test_poset_enumeration_is_pinned():
    # the canonical forms of the posets with at most 7 elements, as the
    # enumeration that canonicalized every extension listed them
    out = [posets_up_to_iso(n) for n in range(8)]
    assert [len(forms) for forms in out] == [1, 1, 2, 5, 16, 63, 318, 2045]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "6414de95821e55119504c9fc8df018f38ea99317d4665a09eeab21d052bcc982"
    )


def test_contours_chain_empty(chain3):
    assert contours(chain3.hasse) == []


def test_contours_square(square):
    cs = contours(square.hasse)
    assert len(cs) == 1
    c = cs[0]
    assert {c.p.vertices, c.q.vertices} == {("1", "2", "4"), ("1", "3", "4")}


def test_contours_diamond6_against_path_oracle(diamond6, oracles):
    Q = diamond6.hasse
    cs = contours(Q)
    mid = [c for c in cs if c.source == "2" and c.target == "5"]
    assert len(mid) == 1
    assert {mid[0].p.vertices, mid[0].q.vertices} == {("2", "3", "5"), ("2", "4", "5")}
    # every endpoint pair with k >= 2 long paths contributes k-choose-2 contours
    arrows = Q.arrow_names()
    expected = 0
    for x in Q.names:
        for y in Q.names:
            if x == y:
                continue
            k = len([p for p in oracles.paths(arrows, x, y) if len(p) > 2])
            expected += k * (k - 1) // 2
    assert len(cs) == expected


def test_interlaced_and_irreducible(square):
    c = contours(square.hasse)[0]
    assert not is_interlaced(c)
    assert is_irreducible(square.hasse, c)


def test_interlaced_shared_interior():
    Q = q("1 2 3 4 5", ["1-2", "1-3", "2-4", "3-4", "4-5"])
    cs = [c for c in contours(Q) if c.source == "1" and c.target == "5"]
    assert len(cs) == 1
    assert is_interlaced(cs[0])


def test_crown_contour_reducible_but_not_interlaced(crown):
    Q = crown.hasse
    names = crown.names  # 1; 2,3; 4,5; 6
    disjoint = [
        c
        for c in contours(Q)
        if c.source == "1" and c.target == "6" and not is_interlaced(c)
    ]
    assert disjoint, "the crown has endpoint-disjoint long contours"
    for c in disjoint:
        assert not is_irreducible(Q, c)


def test_is_convex(diamond6, chain3):
    assert convex_mask(diamond6.reach_rows, diamond6.mask_of(diamond6.names))
    assert not convex_mask(chain3.reach_rows, chain3.mask_of(["1", "3"]))
    assert convex_mask(diamond6.reach_rows, diamond6.mask_of(["2", "3", "4", "5"]))


def test_opposite_preserves_acyclicity_and_contours(diamond6, square, crown):
    for A in (diamond6, square, crown):
        op = opposite_algebra(A).quiver
        assert set(op.arrow_names()) == {(b, a) for a, b in A.hasse.arrow_names()}
        assert sorted(op.topological_order()) == list(range(A.n))
        assert len(contours(op)) == len(contours(A.hasse))


def test_degenerate_quivers_are_total():
    empty = Quiver([], [])
    single = Quiver(["x"], [])
    for Q in (empty, single):
        assert Q.topological_order() == list(range(Q.n))
        assert not has_bypass(Q)
        assert contours(Q) == []


def _recursive_all_paths(Q, src, dst):
    """The recursive enumeration all_paths replaced, as the order reference."""
    if src == dst:
        return [(src,)]
    out = []
    for m in sorted(b for b in range(Q.n) if Q.out_mask[src] >> b & 1):
        if Q.reaches(m, dst):
            out.extend((src,) + tail for tail in _recursive_all_paths(Q, m, dst))
    return out


def test_all_paths_order_and_derived_helpers(diamond6, crown):
    for Q in (diamond6.hasse, crown.hasse):
        for x in range(Q.n):
            for y in range(Q.n):
                paths = all_paths(Q, x, y)
                assert paths == _recursive_all_paths(Q, x, y)
                assert paths == sorted(paths)
                if paths:
                    assert lexmin_path(Q, x, y) == paths[0]
                else:
                    with pytest.raises(ValueError):
                        lexmin_path(Q, x, y)


def test_all_paths_long_chain_is_iterative():
    n = 3000
    Q = Quiver([str(k) for k in range(n)], [(str(k), str(k + 1)) for k in range(n - 1)])
    assert all_paths(Q, 0, n - 1) == [tuple(range(n))]
    assert lexmin_path(Q, 0, n - 1) == tuple(range(n))
