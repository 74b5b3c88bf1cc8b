import random

import pytest

from critalg.errors import NotAPartialOrder, TriangularityViolation
from critalg.posets import hasse_quiver_of, posets_up_to_iso
from critalg.quivers import (
    Quiver,
    all_paths,
    contours,
    has_bypass,
    hasse_reduction,
    is_convex,
    is_interlaced,
    is_irreducible,
    is_triangular,
    lexmin_path,
    opposite,
    reachability,
)


def q(names, arrows):
    return Quiver(names.split(), [tuple(a.split("-")) for a in arrows])


def test_reachability_transitivity():
    Q = q("1 2 3", ["1-2", "2-3"])
    assert ("1", "3") in reachability(Q)


def test_reachability_no_arrows_is_identity():
    Q = Quiver(["1", "2"], [])
    assert reachability(Q) == {("1", "1"), ("2", "2")}


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
        reachability(Q)


def test_is_triangular():
    assert is_triangular(q("1 2 3", ["1-2", "2-3"]))
    assert not is_triangular(Quiver(["1", "2"], [("1", "2"), ("2", "1")]))


def test_diamond6_quiver_is_triangular(diamond6):
    assert is_triangular(diamond6.hasse)


def test_has_bypass():
    assert has_bypass(q("1 2 3", ["1-2", "2-3", "1-3"]))
    assert not has_bypass(q("1 2 3", ["1-2", "2-3"]))
    long = q("1 2 3 4", ["1-2", "2-3", "3-4", "1-4"])
    assert has_bypass(long)


def test_hasse_reduction_drops_implied_pair():
    Q = hasse_reduction([("1", "2"), ("2", "3"), ("1", "3")])
    assert set(Q.arrow_names()) == {("1", "2"), ("2", "3")}


def test_hasse_reduction_identity_order():
    Q = hasse_reduction([("1", "1"), ("2", "2")])
    assert Q.arrow_names() == []


def test_hasse_reduction_square():
    pairs = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("1", "4")]
    Q = hasse_reduction(pairs)
    assert set(Q.arrow_names()) == {("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")}


def test_hasse_reduction_rejects_non_antisymmetric():
    with pytest.raises(NotAPartialOrder):
        hasse_reduction([("1", "2"), ("2", "1")])


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
        Q = hasse_reduction(pairs)
        assert not has_bypass(Q)
        closure = {p for p in reachability(Q) if p[0] in {a for a, _ in pairs} | {b for _, b in pairs}}
        assert closure == pairs


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
            pairs = [(str(a + 1), str(b + 1)) for a, b in below] + [(str(v + 1), str(v + 1)) for v in range(n)]
            rng.shuffle(pairs)
            assert set(hasse_reduction(pairs).arrow_names()) == named


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
    assert is_convex(diamond6.hasse, list(diamond6.names))
    assert not is_convex(chain3.hasse, ["1", "3"])
    assert is_convex(diamond6.hasse, ["2", "3", "4", "5"])


def test_opposite_involution(diamond6):
    Q = diamond6.hasse
    assert opposite(opposite(Q)) == Q
    assert set(opposite(q("1 2", ["1-2"])).arrow_names()) == {("2", "1")}


def test_opposite_preserves_acyclicity_and_contours(diamond6, square, crown):
    for Q in (diamond6.hasse, square.hasse, crown.hasse):
        assert is_triangular(opposite(Q))
        assert len(contours(opposite(Q))) == len(contours(Q))


def test_degenerate_quivers_are_total():
    empty = Quiver([], [])
    single = Quiver(["x"], [])
    for Q in (empty, single):
        assert is_triangular(Q)
        assert not has_bypass(Q)
        assert contours(Q) == []
        assert opposite(Q) == Q


def test_has_bypass_on_cyclic_arrow_sets():
    # total even when cycles make reachability ill-posed
    cyc = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1"), ("1", "3")])
    assert has_bypass(cyc)
    plain = Quiver(["1", "2"], [("1", "2"), ("2", "1")])
    assert not has_bypass(plain)


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
