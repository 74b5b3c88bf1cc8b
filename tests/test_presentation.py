import random

import pytest

from critalg.errors import (
    EmptySelection,
    MalformedRelation,
    NotAHasseDiagram,
    TriangularityViolation,
)
from critalg.homology import ext_dim, idim_of_simple, pd_of_simple
from critalg.criteria import critical_template, second_term_from_relations
from critalg.presentation import (
    IncidenceQuotient,
    SchurianAlgebra,
    as_incidence_quotient,
    from_poset,
    minimal_zero_pairs,
    opposite_algebra,
)
from critalg.quivers import Quiver, convex_mask, covers
from critalg.randgen import RandomModel, random_algebra
from critalg.specfile import load_algebra, render_spec
from oracles import convex_hull, projective
from posets import hasse_quiver_of, posets_up_to_iso
from test_gate import legal_zero_pairs


def test_fixture_certification(diamond6, chain6):
    assert diamond6.validity.certified
    assert chain6.validity.certified


def test_zero_pair_needs_length_two():
    q = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3")])
    with pytest.raises(MalformedRelation):
        from_poset(q, [("1", "2")])


def test_bypass_rejected():
    q = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])
    with pytest.raises(NotAHasseDiagram):
        from_poset(q, [])


def test_cyclic_quiver_rejected():
    q = Quiver(["1", "2", "3"], [("1", "2"), ("2", "3"), ("3", "1")])
    with pytest.raises(TriangularityViolation, match="quiver has a directed cycle"):
        from_poset(q, [])


def test_each_quiver_is_sorted_once(diamond6, monkeypatch):
    # reachability is cached on the quiver, and the cycle check, the bypass
    # check, the zero pairs and the gate all read it
    sorts = []
    sort = Quiver.topological_order
    monkeypatch.setattr(Quiver, "topological_order", lambda q: sorts.append(q) or sort(q))
    load_algebra(render_spec(diamond6))
    assert len(sorts) == 1
    from_poset(Quiver(diamond6.names, diamond6.hasse.arrow_names()), [("1", "4"), ("3", "6")])
    assert len(sorts) == 2


def test_hom_support_examples(diamond6):
    assert diamond6.hom("1", "5") == 0
    assert diamond6.hom("2", "5") == 1
    for x in diamond6.names:
        assert diamond6.hom(x, x) == 1


def test_hom_support_matches_projective_dims(diamond6, chain6, crown):
    # the quotient formula against the engine-built projective
    for A in (diamond6, chain6, crown):
        for x in A.names:
            P = projective(A, x)
            for y in A.names:
                assert P.dim_at(y) == A.hom(x, y)


def test_full_subcategory_a1_shape(diamond6, chain6, arc4):
    from critalg.criteria import classify_critical

    for A in (diamond6, chain6):
        B = A.restrict_mask(A.mask_of(["1", "2", "5", "6"]))
        assert set(B.quiver.arrow_names()) == {("1", "2"), ("2", "5"), ("5", "6")}
        assert ("1", "5") in B.zero_pairs and ("2", "6") in B.zero_pairs
        assert classify_critical(B).display == "A_1"


def test_full_subcategory_identity(diamond6):
    assert diamond6.restrict_mask(diamond6.mask_of(diamond6.names)) == diamond6


def test_full_subcategory_idempotent(diamond6):
    B = diamond6.restrict_mask(diamond6.mask_of(["1", "2", "5", "6"]))
    assert B.restrict_mask(B.mask_of(B.names)) == B


def test_full_subcategory_empty(diamond6):
    with pytest.raises(EmptySelection):
        diamond6.restrict_mask(diamond6.mask_of([]))


def test_convex_hull_examples(diamond6, chain3, chain6):
    assert set(convex_hull(diamond6, "1", "6").names) == set(diamond6.names)
    assert convex_hull(chain3, "1", "1").names == ("1",)
    assert convex_hull(chain6, "2", "5").names == ("2", "3", "4", "5")


def test_convex_hull_unreachable_pair():
    q = Quiver(["1", "2", "3"], [("1", "2")])
    A = from_poset(q, [])
    assert set(convex_hull(A, "3", "1").names) == {"1", "3"}


def _hull_pairs(A):
    # genuine hulls only: the {i,j} fallback for unreachable pairs is a
    # totality convention, not a convex subcategory
    for i in A.names:
        for j in A.names:
            if A.reach_rows[A.index[i]] >> A.index[j] & 1:
                yield i, j


def test_convex_hull_is_convex(diamond6, chain6):
    for A in (diamond6, chain6):
        for i, j in _hull_pairs(A):
            C = convex_hull(A, i, j)
            assert convex_mask(A.reach_rows, A.mask_of(C.names))


def test_hull_ext_restriction(diamond6, chain6):
    # extension dimensions restrict along full convex subcategories
    for A in (diamond6, chain6):
        for i, j in _hull_pairs(A):
            C = convex_hull(A, i, j)
            for x in C.names:
                for y in C.names:
                    for k in range(4):
                        assert ext_dim(C, x, y, k) == ext_dim(A, x, y, k)


def test_opposite_algebra_involution(diamond6, arc4):
    for A in (diamond6, arc4):
        assert opposite_algebra(opposite_algebra(A)) == A


def test_opposite_arc4_zeros(arc4):
    op = opposite_algebra(arc4)
    assert set(op.quiver.arrow_names()) == {("2", "1"), ("3", "2"), ("4", "3")}
    assert ("3", "1") in op.zero_pairs and ("4", "2") in op.zero_pairs


def test_pd_id_duality(diamond6):
    op = opposite_algebra(diamond6)
    for x in diamond6.names:
        assert pd_of_simple(diamond6, x) == idim_of_simple(op, x)


def test_mask_reindexing_matches_brute_force(diamond6, chain6, crown, arc4, square):
    # every vertex mask: the restriction keeps hom between survivors
    corpus = [diamond6, chain6, crown, arc4, square, random_algebra(RandomModel(seed=5, n=8))]
    for A in corpus:
        for mask in range(1 << A.n):
            kept = [v for i, v in enumerate(A.names) if mask >> i & 1]
            if not kept:
                with pytest.raises(EmptySelection):
                    A.restrict_mask(mask)
                continue
            R = A.restrict_mask(mask)
            assert R.names == tuple(kept)
            for x in kept:
                for y in kept:
                    assert R.hom(x, y) == A.hom(x, y)


def test_minimal_relation_pairs(arc4, square, chain3):
    def pairs(A):
        return {(x, y) for x in A.names for y in A.names if ext_dim(A, x, y, 2)}

    assert pairs(arc4) == {("1", "3"), ("2", "4")}
    assert pairs(square) == {("1", "4")}
    assert pairs(chain3) == set()


def test_minimal_relation_fast_path_agrees(diamond6, chain6, crown, square):
    from critalg.homology import resolution_of_simple

    for A in (diamond6, chain6, crown, square):
        engine = set()
        for x in A.names:
            for b in resolution_of_simple(A, x).support(2):
                engine.add((x, b))
        assert {(x, b) for x in A.names for b in second_term_from_relations(A, x)} == engine


def test_sources_sinks(diamond6, arc4):
    assert diamond6.sources() == ["1"] and diamond6.sinks() == ["6"]
    assert arc4.sources() == ["1"] and arc4.sinks() == ["4"]
    single = from_poset(Quiver(["z"], []), [])
    assert single.sources() == ["z"] == single.sinks()


def test_certification_rejects_contour_interior_zero():
    # killing one branch of the crown's fan lies inside an irreducible contour
    q = Quiver(
        ["t", "a1", "a2", "b1", "b2", "s"],
        [("t", "a1"), ("t", "a2"), ("a1", "b1"), ("a1", "b2"),
         ("a2", "b1"), ("a2", "b2"), ("b1", "s"), ("b2", "s")],
    )
    A = from_poset(q, [("a1", "s")])
    assert not A.validity.certified
    assert any("irreducible contour" in r for r in A.validity.reasons)


def test_killed_square_diagonal_is_uncertified(square):
    # the realizing path 1->2->4 is one side of the irreducible square contour
    A = from_poset(square.hasse, [("1", "4")])
    assert not A.validity.certified


def test_crossing_path_does_not_block_certification():
    # zero (1,5): its paths pass through the square contour's sink but are
    # not contained in either side, so the gate accepts
    q = Quiver(["1", "2", "3", "4", "5"],
               [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "5")])
    A = from_poset(q, [("1", "5")])
    assert A.validity.certified


def test_minimal_zero_pairs_and_round_trip(diamond6, chain6, arc4):
    for A in (diamond6, chain6, arc4):
        assert sorted(minimal_zero_pairs(A)) == sorted(
            (A.names[s], A.names[t]) for s, t in A.declared_zeros
        )
        rebuilt = as_incidence_quotient(A.restrict_mask(A.mask_of(A.names)))
        assert rebuilt.hom_rows == A.hom_rows


def test_random_algebra_determinism_and_bounds():
    a = random_algebra(RandomModel(seed=11, n=7))
    b = random_algebra(RandomModel(seed=11, n=7))
    assert a.names == b.names and a.hom_rows == b.hom_rows
    assert a.hasse.arrow_names() == b.hasse.arrow_names()
    single = random_algebra(RandomModel(seed=3, n=1))
    assert single.n == 1 and single.declared_zeros == ()
    with pytest.raises(ValueError):
        RandomModel(seed=1, n=0)


def brute_force_skeleton(C):
    """x->y iff hom(x,y) = 1 and no z outside {x, y} has hom(x,z) = hom(z,y) = 1."""
    n, hom = C.n, C.hom_bit
    return [
        sum(1 << y for y in range(n) if y != x and hom(x, y)
            and not any(hom(x, z) and hom(z, y) for z in range(n) if z not in (x, y)))
        for x in range(n)
    ]


def test_trusted_constructions_pass_the_checks_they_skip(diamond6, chain6, crown, arc4, square):
    # from_poset, restrict_mask and opposite_algebra skip the triangularity
    # and monotonicity checks, and an incidence quotient takes its Hasse
    # quiver as skeleton; the full checks and rebuild must agree on the
    # corpus, and covers of the hom rows must be the brute-force skeleton
    rng = random.Random(7)
    corpus = [diamond6, chain6, crown, arc4, square]
    corpus += [critical_template(k, p) for k, p in (("A", 1), ("A", 3), ("B", 1), ("B", 3), ("Q", 3))]
    corpus += [random_algebra(RandomModel(seed=seed, n=5 + seed % 8, zero_rate=0.4)) for seed in range(40)]
    for n in range(1, 6):
        for rows in posets_up_to_iso(n):
            q = hasse_quiver_of(rows)
            corpus.append(from_poset(q, [z for z in legal_zero_pairs(q) if rng.random() < 0.4]))
    built = 0
    for A in corpus:
        if isinstance(A, IncidenceQuotient):
            assert A.quiver == SchurianAlgebra(A.names, A.hom_rows).quiver
        masks = range(1, 1 << A.n) if A.n <= 8 else [rng.randrange(1, 1 << A.n) for _ in range(64)]
        for B in [A, *(A.restrict_mask(m) for m in masks)]:
            for C in (B, opposite_algebra(B)):
                C._check_acyclic()
                C._check_monotone()
                assert covers(C.hom_rows) == brute_force_skeleton(C)
                built += 1
    assert built > 5000


def test_random_algebra_returns_its_last_attempt_uncertified():
    out = [random_algebra(RandomModel(seed=seed, n=12, zero_rate=0.5, max_attempts=1)) for seed in range(20)]
    assert {A.validity.certified for A in out} == {True, False}
