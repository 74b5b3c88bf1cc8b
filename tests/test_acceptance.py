"""End-to-end acceptance suite.

Each test prints one [PASS]/[FAIL] line (visible with -s or in captured
output).  The random corpus is seeded and shared across the suite: one
thousand certified instances with at most nine vertices.
"""

import random
import time

import pytest

from critalg.criteria import (
    check_critical,
    critical_template,
    find_all_critical_subcategories,
    igusa_zacharia,
    second_term_engine,
    second_term_from_relations,
    third_syzygy_test_auto,
)
from critalg.errors import SpecError
from critalg.homology import (
    ext_dim,
    gl_dim,
    idim_of_simple,
    pd_of_simple,
    resolution_of_simple,
)
from critalg.presentation import from_poset, opposite_algebra
from critalg.quivers import convex_mask
from critalg.randgen import RandomModel, random_algebra
from critalg.report import build_report, render_report
from critalg.specfile import parse_spec
from posets import hasse_quiver_of, posets_up_to_iso

CORPUS_SIZE = 1000

DIAMOND_DOC = """\
algebra diamond6
vertices 1 2 3 4 5 6
arrows 1->2 2->3 2->4 3->5 4->5 5->6
zero 1 ~> 4
zero 3 ~> 6
"""

CHAIN_DOC = """\
algebra chain6
vertices 1 2 3 4 5 6
arrows 1->2 2->3 3->4 4->5 5->6
zero 1 ~> 3
zero 4 ~> 6
"""


def _stamp(ok, text):
    print(("[PASS] " if ok else "[FAIL] ") + text)
    assert ok, text


def _run_cli(args):
    import io
    import sys

    from critalg.cli import main

    buf = io.BytesIO()

    class _Out:
        buffer = buf

        @staticmethod
        def flush():
            pass

    old = sys.stdout
    sys.stdout = _Out()
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def corpus():
    instances = []
    seed = 0
    while len(instances) < CORPUS_SIZE:
        n = 3 + seed % 7
        density = (0.25, 0.4, 0.6)[seed % 3]
        rate = (0.15, 0.3, 0.5)[seed % 5 % 3]
        A = random_algebra(RandomModel(seed=seed, n=n, edge_density=density, zero_rate=rate))
        seed += 1
        if A.validity.certified:
            instances.append(A)
    return instances


def test_worked_example_diamond(diamond6, tmp_path):
    path = tmp_path / "d6.alg"
    path.write_text(DIAMOND_DOC)
    t0 = time.monotonic()
    ok = gl_dim(diamond6) == 3
    reports = find_all_critical_subcategories(diamond6)
    hits = {
        (r.subset, r.template.kind, r.template.param, r.template.opposite)
        for r in reports
        if r.template
    }
    ok = ok and (("1", "2", "5", "6"), "A", 1, False) in hits
    code, out = _run_cli(["gldim", str(path)])
    ok = ok and code == 0 and b"gl.dim = 3" in out
    code, out = _run_cli(["critical", str(path), "--strategy", "exhaustive"])
    ok = ok and code == 0 and "{1,2,5,6} ≅ A_1".encode() in out
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _stamp(ok, f"six-vertex diamond: gl.dim 3 and {{1,2,5,6}} classified A_1 in {elapsed:.3f}s")


def test_worked_example_chain_converse(chain6, tmp_path):
    path = tmp_path / "c6.alg"
    path.write_text(CHAIN_DOC)
    t0 = time.monotonic()
    ok = gl_dim(chain6) == 2
    reports = find_all_critical_subcategories(chain6)
    ok = ok and any(
        r.subset == ("1", "2", "5", "6") and r.template and r.template.display == "A_1"
        for r in reports
    )
    code, out = _run_cli(["gldim", str(path)])
    ok = ok and code == 0 and b"gl.dim = 2" in out
    code, out = _run_cli(["critical", str(path)])
    ok = ok and code == 0 and "{1,2,5,6} ≅ A_1".encode() in out
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _stamp(ok, f"six-chain converse failure: gl.dim 2 yet {{1,2,5,6}} is critical A_1 in {elapsed:.3f}s")


TEMPLATE_LIST = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 5),
    ("B", 1), ("B", 3), ("B", 4),
    ("Q", 2), ("Q", 3), ("Q", 4),
]


def test_template_catalogue_suite():
    t0 = time.monotonic()
    ok = True
    for kind, param in TEMPLATE_LIST:
        for opp in (False, True):
            T = critical_template(kind, param, opposite=opp)
            chk = check_critical(T)
            src, snk = chk.source, chk.sink
            good = (
                chk.is_critical
                and gl_dim(T) == 3
                and pd_of_simple(T, src) == 3
                and idim_of_simple(T, snk) == 3
                and all(
                    pd_of_simple(T, x) <= 2 for x in T.names if x != src
                )
                and all(
                    idim_of_simple(T, x) <= 2 for x in T.names if x != snk
                )
                and _terms_partition(T, src)
                and _terms_partition(opposite_algebra(T), snk)
                and all(
                    gl_dim(T.restrict_mask(mask)) <= 2
                    for mask in range(1, (1 << T.n) - 1)
                    if convex_mask(T.reach_rows, mask)
                )
            )
            if not good:
                ok = False
                print(f"  template {kind}_{param} opposite={opp} failed")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _stamp(ok, f"template catalogue suite (criticality, dims, partitions, subcategory sweep) in {elapsed:.1f}s")


def _terms_partition(A, src):
    res = resolution_of_simple(A, src)
    if res.length != 3:
        return False
    seen = set()
    for k in range(len(res.terms)):
        sup = res.support(k)
        if sup & seen:
            return False
        seen |= sup
    return seen == set(A.names)


def test_criterion_soundness_random_corpus(corpus):
    t0 = time.monotonic()
    violations = []
    found = 0
    for A in corpus:
        reports = find_all_critical_subcategories(A)
        if reports:
            found += 1
        if not reports and gl_dim(A) > 2:
            violations.append(A.label)
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 300.0
    _stamp(
        ok,
        f"criterion soundness on {len(corpus)} certified instances "
        f"({found} with critical subcategories) in {elapsed:.1f}s; violations: {violations[:5]}",
    )


def test_second_term_agreement_corpus(corpus):
    mismatches = []
    for A in corpus:
        for i in A.names:
            if second_term_from_relations(A, i) != second_term_engine(A, i):
                mismatches.append((A.label, i))
    _stamp(
        not mismatches,
        f"second-term-from-relations agreement on the corpus; mismatches: {mismatches[:5]}",
    )


def test_third_term_agreement_corpus(corpus):
    mismatches = []
    unmet = 0
    pairs = 0
    for A in corpus:
        for i in A.names:
            if pd_of_simple(A, i) < 2:
                continue
            for j in A.names:
                predicted, side = third_syzygy_test_auto(A, i, j)
                if side == "primal-unmet":
                    unmet += 1
                pairs += 1
                if predicted != (ext_dim(A, i, j, 3) >= 1):
                    mismatches.append((A.label, i, j, side))
    _stamp(
        not mismatches,
        f"third-term test agreement on {pairs} pairs (s<r unmet on both sides: {unmet}); "
        f"mismatches: {mismatches[:5]}",
    )


def test_dimension_spectrum_corpus(corpus, diamond6, chain6, crown, arc4, square):
    bad = []
    for A in list(corpus) + [diamond6, chain6, crown, arc4, square]:
        dims = {pd_of_simple(A, x) for x in A.names}
        if dims != set(range(gl_dim(A) + 1)):
            bad.append(A.label)
    _stamp(not bad, f"pd spectrum covers 0..gl.dim on corpus and fixtures; failures: {bad[:5]}")


def test_self_avoidance_audit_corpus(corpus, diamond6, chain6, crown):
    from oracles import projective, radical

    bad = []
    for A in list(corpus) + [diamond6, chain6, crown]:
        for i in A.names:
            res = resolution_of_simple(A, i)
            if radical(projective(A, i)).dim_at(i) != 0:
                bad.append((A.label, i, "rad"))
            for k in range(1, len(res.terms)):
                if any(A.hom(v, i) for v in res.term_names(k)):
                    bad.append((A.label, i, k))
    _stamp(not bad, f"resolved simples never recur in their resolutions; failures: {bad[:5]}")


def test_incidence_test_exhaustive_posets():
    t0 = time.monotonic()
    mismatches = []
    total = 0
    for n in range(1, 8):
        for rows in posets_up_to_iso(n):
            total += 1
            P = from_poset(hasse_quiver_of(rows), [], label=f"poset{n}-{total}")
            if igusa_zacharia(P) != (gl_dim(P) <= 2):
                mismatches.append(rows)
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 600.0
    _stamp(
        ok,
        f"incidence-algebra test matches the engine on all {total} posets with <= 7 "
        f"elements in {elapsed:.1f}s; mismatches: {len(mismatches)}",
    )


def test_duality_corpus(corpus, diamond6, chain6, crown, arc4, square):
    bad = []
    for A in list(corpus)[:200] + [diamond6, chain6, crown, arc4, square]:
        op = opposite_algebra(A)
        for x in A.names:
            if pd_of_simple(A, x) != idim_of_simple(op, x):
                bad.append((A.label, x))
    _stamp(not bad, f"pd equals the opposite algebra's injective dimension; failures: {bad[:5]}")


def test_determinism_and_fuzz(diamond6, chain6, tmp_path):
    reports = []
    for A in (diamond6, chain6):
        for fmt in ("text", "json"):
            a = render_report(build_report(A), fmt)
            b = render_report(build_report(A), fmt)
            reports.append(a == b)
    rng = random.Random(2026)
    alphabet = "ab12 \t\n#->~>algebra vertices arrows zero é"
    crashes = 0
    for _ in range(100_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 48)))
        try:
            parse_spec(text).build()
        except SpecError:
            pass
        except Exception:
            crashes += 1
    ok = all(reports) and crashes == 0
    _stamp(ok, f"byte-identical reports and 100000 fuzz inputs with located diagnostics only (crashes: {crashes})")
