import pytest

from critalg.errors import (
    ClassificationGap,
    InvalidTemplate,
    NotAnIncidenceAlgebra,
    NotAThirdSyzygyPair,
)
from critalg.criteria import (
    audit_resolution_structure,
    build_critical_candidate,
    build_syzygy_config,
    check_critical,
    classify_critical,
    critical_template,
    find_all_critical_subcategories,
    find_critical_subcategory_guided,
    gldim2_criterion,
    igusa_zacharia,
    pd_spectrum_check,
    second_term_engine,
    second_term_from_relations,
    third_syzygy_test_auto,
)
from critalg.homology import ext_dim, gl_dim, pd_of_simple
from critalg.presentation import from_poset
from critalg.quivers import Quiver, all_paths
from critalg.randgen import RandomModel, random_algebra


def test_second_term_examples(arc4, square, chain3):
    assert second_term_from_relations(arc4, "1") == {"3": 1}
    assert second_term_from_relations(square, "1") == {"4": 1}
    for x in chain3.names:
        assert second_term_from_relations(chain3, x) == {}


def test_second_term_matches_engine_on_fixtures(diamond6, chain6, crown, square, arc4):
    for A in (diamond6, chain6, crown, square, arc4):
        for x in A.names:
            assert second_term_from_relations(A, x) == second_term_engine(A, x)


def test_syzygy_config_arc4(arc4):
    cfg = build_syzygy_config(arc4, "1", "4")
    assert cfg.r_set == ("3",) and cfg.s_set == ("2",)
    assert cfg.r == cfg.s == 1 and cfg.v == 0 and cfg.monomials == 1


def test_syzygy_config_crown(crown):
    t, s = "1", crown.names[-1]
    cfg = build_syzygy_config(crown, t, s)
    assert cfg.r == 2 and cfg.s == 2
    assert cfg.v == 2 and cfg.monomials == 0


def test_syzygy_config_parallel_count_matches_enumeration(diamond6, chain6, crown, square, arc4):
    for A in (diamond6, chain6, crown, square, arc4):
        for i in A.names:
            for j in A.names:
                cfg = build_syzygy_config(A, i, j)
                jj = A.index[j]
                expected = sum(
                    1
                    for a in cfg.s_set
                    if A.hom(a, j) and len(all_paths(A.quiver, A.index[a], jj)) >= 2
                )
                assert cfg.v == expected


def test_syzygy_config_chain6(chain6):
    cfg = build_syzygy_config(chain6, "1", "6")
    assert cfg.s_set == () and cfg.r_set == ()


def test_third_syzygy_test_values(arc4, crown, chain6):
    assert third_syzygy_test_auto(arc4, "1", "4") == (True, "primal")
    assert third_syzygy_test_auto(crown, "1", crown.names[-1]) == (True, "primal")
    assert third_syzygy_test_auto(chain6, "1", "6") == (False, "primal")


def test_third_syzygy_requires_dualization():
    T = critical_template("A", 3)
    cfg = build_syzygy_config(T, "1", T.names[-1])
    assert cfg.s < cfg.r
    predicted, side = third_syzygy_test_auto(T, "1", T.names[-1])
    assert side == "dual" and predicted is True


def test_third_syzygy_equivalence_on_fixtures(diamond6, chain6, crown, square, arc4):
    for A in (diamond6, chain6, crown, square, arc4):
        for i in A.names:
            if pd_of_simple(A, i) < 2:
                continue
            for j in A.names:
                predicted, _ = third_syzygy_test_auto(A, i, j)
                assert predicted == (ext_dim(A, i, j, 3) >= 1), (A.label, i, j)


def test_resolution_audits_pass(diamond6, chain6, crown, square, arc4):
    for A in (diamond6, chain6, crown, square, arc4):
        for x in A.names:
            assert audit_resolution_structure(A, x).passed


def test_audit_clause_values(arc4):
    a = audit_resolution_structure(arc4, "1")
    assert a.first_term_is_arrow_targets and a.exact and a.minimal


def test_build_critical_candidate(diamond6, arc4, crown):
    B = build_critical_candidate(diamond6, "1", "6")
    assert B.names == ("1", "2", "4", "6")
    assert classify_critical(B).display == "A_1"
    assert build_critical_candidate(arc4, "1", "4") == arc4
    C = build_critical_candidate(crown, "1", crown.names[-1])
    assert C == crown


def test_build_critical_candidate_requires_pair(chain6):
    with pytest.raises(NotAThirdSyzygyPair):
        build_critical_candidate(chain6, "1", "6")


def test_is_critical_values(arc4, diamond6, square, crown):
    assert check_critical(arc4).is_critical
    assert not check_critical(diamond6).is_critical
    assert not check_critical(square).is_critical
    assert check_critical(crown).is_critical


def test_check_critical_reports_reason(diamond6):
    chk = check_critical(diamond6)
    assert not chk.is_critical and chk.reasons


def test_classify_round_trips():
    for kind, param in [("A", 1), ("A", 2), ("A", 4), ("B", 1), ("B", 3), ("Q", 2), ("Q", 3)]:
        for opp in (False, True):
            tpl = critical_template(kind, param, opposite=opp)
            got = classify_critical(tpl)
            assert (got.kind, got.param) == (kind, param)
            # self-opposite shapes may classify with either flag
            if not got.opposite == opp:
                other = critical_template(kind, param, opposite=not opp)
                from critalg.iso import canonical_form

                assert canonical_form(tpl.n, list(tpl.hom_rows)) == canonical_form(
                    other.n, list(other.hom_rows)
                )


def test_classify_full_subcategory(diamond6):
    B = diamond6.restrict_mask(diamond6.mask_of(["1", "2", "5", "6"]))
    assert classify_critical(B).display == "A_1"


def test_classification_gap_on_non_catalogue_critical():
    # the fan shape with an extra monomial to the sink: a genuinely critical
    # algebra outside the catalogue; the gap is the intended signal
    q = Quiver(["1", "2", "3", "4", "5"],
               [("1", "2"), ("2", "3"), ("2", "4"), ("3", "5"), ("4", "5")])
    A = from_poset(q, [("1", "3"), ("1", "4"), ("2", "5")])
    assert check_critical(A).is_critical
    with pytest.raises(ClassificationGap):
        classify_critical(A)


def test_invalid_template_parameters():
    for kind, param in [("A", 0), ("B", 2), ("B", 0), ("Q", 1), ("X", 3)]:
        with pytest.raises(InvalidTemplate):
            critical_template(kind, param)


def test_find_critical_diamond6(diamond6):
    reports = find_all_critical_subcategories(diamond6)
    subsets = {r.subset: r.template for r in reports}
    assert subsets[("1", "2", "5", "6")].display == "A_1"
    assert set(subsets) == {("1", "2", "4", "6"), ("1", "2", "5", "6"), ("1", "3", "5", "6")}
    assert reports[0].subset == ("1", "2", "4", "6")


def test_find_critical_chain6(chain6):
    reports = find_all_critical_subcategories(chain6)
    assert [(r.subset, r.template.display) for r in reports] == [(("1", "2", "5", "6"), "A_1")]


def test_find_critical_hereditary(chain3):
    assert find_all_critical_subcategories(chain3) == []


def test_guided_agrees_with_exhaustive(diamond6, chain6, crown):
    for A in (diamond6, chain6, crown):
        exhaustive = {r.subset for r in find_all_critical_subcategories(A)}
        for r in find_critical_subcategory_guided(A):
            assert r.subset in exhaustive


def test_guided_incomplete_on_gldim2(chain6):
    assert find_critical_subcategory_guided(chain6) == []
    assert find_all_critical_subcategories(chain6) != []


def test_gldim2_criterion(chain3, diamond6, chain6):
    v = gldim2_criterion(chain3)
    assert v.certified_at_most_two and v.verdict == "certified_gldim_le_2"
    v = gldim2_criterion(diamond6)
    assert not v.certified_at_most_two and v.engine_gl_dim == 3
    v = gldim2_criterion(chain6)
    assert not v.certified_at_most_two and v.engine_gl_dim == 2


def test_pd_spectrum_check(diamond6, square):
    assert pd_spectrum_check(diamond6)
    assert pd_spectrum_check(square)
    single = from_poset(Quiver(["1"], []), [])
    assert pd_spectrum_check(single)


def test_igusa_zacharia_crown(crown):
    from critalg.presentation import as_incidence_quotient

    P = as_incidence_quotient(crown)
    assert not igusa_zacharia(P)
    assert gl_dim(P) == 3


def test_igusa_zacharia_resolved_crown():
    q = Quiver(
        ["t", "l", "r", "m", "bl", "br", "b"],
        [("t", "l"), ("t", "r"), ("l", "m"), ("r", "m"),
         ("m", "bl"), ("m", "br"), ("bl", "b"), ("br", "b")],
    )
    P = from_poset(q, [])
    assert igusa_zacharia(P)
    assert gl_dim(P) <= 2


def test_igusa_zacharia_square(square):
    assert igusa_zacharia(square)
    assert gl_dim(square) == 2


def test_igusa_zacharia_rejects_zeros(chain6):
    with pytest.raises(NotAnIncidenceAlgebra):
        igusa_zacharia(chain6)


def test_criterion_on_random_certified_sample():
    # a quick soundness slice; the full corpus lives in the acceptance suite
    for seed in range(40):
        A = random_algebra(RandomModel(seed=seed, n=6))
        if not A.validity.certified:
            continue
        reports = find_all_critical_subcategories(A)
        if not reports:
            assert gl_dim(A) <= 2
        if gl_dim(A) >= 3:
            assert reports


@pytest.mark.parametrize("algebra", ["chain10", "A_5"])
def test_scan_keeps_no_induced_algebras(algebra):
    # the subset scan holds only the critical algebras it reports, and those
    # are gone once it returns
    import gc

    from critalg.presentation import SchurianAlgebra

    if algebra == "A_5":
        A = critical_template("A", 5)
    else:
        A = from_poset(Quiver([str(k) for k in range(10)], [(str(k), str(k + 1)) for k in range(9)]))

    def live():
        gc.collect()
        return sum(isinstance(o, SchurianAlgebra) for o in gc.get_objects())

    before = live()
    find_all_critical_subcategories(A)
    assert live() == before


def test_budget_abort():
    from critalg.errors import TimeBudgetExceeded

    q = Quiver([str(k) for k in range(1, 17)],
               [(str(k), str(k + 1)) for k in range(1, 16)])
    A = from_poset(q, [], label="big-chain")
    with pytest.raises(TimeBudgetExceeded):
        find_all_critical_subcategories(A, budget_seconds=1e-9)
