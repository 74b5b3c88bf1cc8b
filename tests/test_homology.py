from fractions import Fraction

import pytest

from critalg.homology import (
    ext_dim,
    gl_dim,
    idim_of_simple,
    minimal_injective_coresolution,
    pd_of_simple,
    resolution_of_simple,
    verify_exactness,
    verify_minimality,
)
from critalg.presentation import from_poset, opposite_algebra
from critalg.quivers import Quiver
from critalg.criteria import critical_template
from critalg.randgen import RandomModel, random_algebra
from oracles import (
    RepMorphism,
    Representation,
    _kernel_with_basis,
    _resolve_by_covers,
    injective,
    pd,
    projective,
    projective_cover,
    radical,
    simple,
)


def test_projective_dims(arc4, diamond6):
    assert projective(arc4, "1").dims_by_name() == {"1": 1, "2": 1}
    assert projective(diamond6, "2").dims_by_name() == {"2": 1, "3": 1, "4": 1, "5": 1}


def test_simple_and_injective(diamond6):
    assert simple(diamond6, "3").dims_by_name() == {"3": 1}
    assert injective(diamond6, "5").dims_by_name() == {
        # everything mapping nontrivially to 5: hom(x,5)=1 for x in {2,3,4,5}
        "2": 1, "3": 1, "4": 1, "5": 1,
    }


def test_projective_cover(diamond6, crown):
    names, f = projective_cover(simple(diamond6, "4"))
    assert names == ("4",)
    names, _ = projective_cover(radical(projective(diamond6, "1")))
    assert names == ("2",)
    names, _ = projective_cover(radical(projective(crown, "1")))
    assert names == ("2", "3")  # the two fan vertices


def test_cover_of_zero_module(diamond6):
    names, f = projective_cover(Representation(diamond6, [0] * diamond6.n))
    assert names == ()


def test_kernel_of_identity(arc4):
    P = projective(arc4, "1")
    ident = RepMorphism(P, P, {v: [[Fraction(1)]] for v in range(arc4.n) if P.dims[v]})
    assert _kernel_with_basis(ident)[0].is_zero()


def test_kernel_arc4_first_syzygy(arc4):
    # cover P2 -> rad P1 has kernel S3
    M = radical(projective(arc4, "1"))
    _, f = projective_cover(M)
    K, _ = _kernel_with_basis(f)
    assert K.dims_by_name() == {"3": 1}


def test_kernel_of_top_quotient_is_radical(arc4):
    P = projective(arc4, "1")
    S = simple(arc4, "1")
    quot = RepMorphism(P, S, {0: [[Fraction(1)]]})
    K, _ = _kernel_with_basis(quot)
    assert K.dims_by_name() == radical(P).dims_by_name() == {"2": 1}
    assert radical(S).is_zero()


def test_resolution_arc4(arc4):
    res = resolution_of_simple(arc4, "1")
    assert [res.term_names(k) for k in range(4)] == [("1",), ("2",), ("3",), ("4",)]
    assert res.length == 3


def test_resolution_of_projective_is_itself(diamond6):
    for x in diamond6.names:
        res = _resolve_by_covers(diamond6, projective(diamond6, x))
        assert res.length == 0
        assert res.term_names(0) == (x,)


def test_resolution_diamond6(diamond6):
    res = resolution_of_simple(diamond6, "1")
    assert res.length == 3
    assert "6" in res.support(3)


def test_resolution_rejects_zero(diamond6):
    with pytest.raises(ValueError):
        _resolve_by_covers(diamond6, Representation(diamond6, [0] * 6))


def test_gl_dims(diamond6, chain6, chain3):
    assert gl_dim(diamond6) == 3
    assert gl_dim(chain6) == 2
    assert gl_dim(chain3) == 1


def test_pd_zero_module_undefined(diamond6):
    with pytest.raises(ValueError):
        pd(diamond6, Representation(diamond6, [0] * 6))


def test_ext_dims(arc4, diamond6):
    assert ext_dim(arc4, "1", "4", 3) == 1
    for x in diamond6.names:
        assert ext_dim(diamond6, x, x, 0) == 1
    for l in (2, 3, 5):
        T = critical_template("A", l)
        i, j = "1", T.names[-1]
        assert ext_dim(T, i, j, 3) == l - 1


def test_composition_multiplicity(crown):
    # the crown's first syzygy of the source simple contains the sink once
    res = resolution_of_simple(crown, "1")
    sink = crown.names[-1]
    assert res.syzygy_dims[1][crown.index[sink]] == 1


def test_coresolutions(arc4, diamond6):
    co = minimal_injective_coresolution(arc4, "4")
    assert co.length == 3
    assert co.term_names(3) == ("1",)  # ends in I_1
    assert minimal_injective_coresolution(diamond6, "6").length == 3
    Ix = minimal_injective_coresolution(arc4, "1")
    assert Ix.length == 0


def test_exactness_and_minimality_audits(diamond6, chain6, crown, arc4, square):
    for A in (diamond6, chain6, crown, arc4, square):
        for x in A.names:
            res = resolution_of_simple(A, x)
            assert verify_exactness(res)
            assert verify_minimality(res)


def test_corrupted_resolution_fails_exactness(arc4):
    import dataclasses

    res = resolution_of_simple(arc4, "1")
    bad_diffs = list(res.diffs)
    bad_diffs[0] = [[Fraction(0)]]
    bad = dataclasses.replace(res, diffs=tuple(bad_diffs))
    assert not verify_exactness(bad)


def test_no_self_recurrence_in_terms(diamond6, chain6, crown):
    # the resolved simple never recurs as a composition factor of later terms
    for A in (diamond6, chain6, crown):
        for x in A.names:
            res = resolution_of_simple(A, x)
            for k in range(1, len(res.terms)):
                for v in res.term_names(k):
                    assert A.hom(v, x) == 0
            rad_dims = radical(projective(A, x))
            assert rad_dims.dim_at(x) == 0


def test_first_term_is_arrow_targets(diamond6, crown):
    for A in (diamond6, crown):
        q = A.quiver
        for x in A.names:
            res = resolution_of_simple(A, x)
            targets = sorted(
                (A.names[t] for s, t in q.arrows if A.names[s] == x), key=A.names.index
            )
            assert list(res.term_names(1)) == targets


def test_spectrum_is_interval(diamond6, chain6, crown, arc4, square):
    for A in (diamond6, chain6, crown, arc4, square):
        dims = {pd_of_simple(A, x) for x in A.names}
        assert dims == set(range(gl_dim(A) + 1))


def test_max_pd_module_has_max_pd_composition_factor(diamond6, chain6):
    # radicals and syzygies of projectives as sample modules
    for A in (diamond6, chain6):
        g = gl_dim(A)
        for x in A.names:
            M = radical(projective(A, x))
            if M.is_zero():
                continue
            if pd(A, M) == g:
                assert any(
                    M.dim_at(y) > 0 and pd_of_simple(A, y) == g for y in A.names
                )


def test_one_max_pd_vertex_avoids_the_others(diamond6, chain6, crown):
    for A in (diamond6, chain6, crown):
        g = gl_dim(A)
        heavy = [x for x in A.names if pd_of_simple(A, x) == g]
        witnesses = []
        for j in heavy:
            res = resolution_of_simple(A, j)
            factors = set()
            for term in range(len(res.terms)):
                for v in res.term_names(term):
                    for y in A.names:
                        if A.hom(v, y):
                            factors.add(y)
            if not (factors & (set(heavy) - {j})):
                witnesses.append(j)
        assert witnesses


def test_duality_over_random_instances():
    for seed in range(30):
        A = random_algebra(RandomModel(seed=seed, n=6))
        op = opposite_algebra(A)
        for x in A.names:
            assert pd_of_simple(A, x) == idim_of_simple(op, x)


def test_transport_computes_one_topological_order_per_algebra(monkeypatch):
    # the oracle's generator transport walks the algebra in topological
    # order; the order is computed once per algebra, not at every generator
    real = Quiver.topological_order

    def calls_to_resolve_chain(n):
        names = [str(k) for k in range(1, n + 1)]
        A = from_poset(Quiver(names, list(zip(names, names[1:]))))
        calls = [0]

        def counting(self):
            calls[0] += 1
            return real(self)

        monkeypatch.setattr(Quiver, "topological_order", counting)
        for x in A.names:
            _resolve_by_covers(A, simple(A, x))
        monkeypatch.setattr(Quiver, "topological_order", real)
        return calls[0]

    assert calls_to_resolve_chain(10) == calls_to_resolve_chain(30) <= 2
