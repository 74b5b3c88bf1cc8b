"""Resolutions of simples on scalar matrices, against the cover/kernel loop.

``homology._resolve_simple`` resolves a simple without building a module;
``oracles._resolve_by_covers`` is the representation-based loop that it is
checked against.  The corpus is the template catalogue, the golden
description files, seeded random instances with 9 to 14 vertices and a
150-chain with zero pairs, each with its opposite.
"""

import gc
import hashlib
import random
import weakref
from pathlib import Path

import pytest

from critalg import cli, criteria, homology
from critalg.criteria import classify_critical, critical_template
from critalg.errors import NotIntervalMonotone
from critalg.homology import resolution_of_simple, verify_exactness, verify_minimality
from critalg.presentation import SchurianAlgebra, from_poset, opposite_algebra
from critalg.quivers import Quiver
from critalg.randgen import RandomModel, random_algebra
from critalg.specfile import load_algebra
from oracles import _resolve_by_covers, simple

GOLDEN = Path(__file__).parent / "golden"

# sha256 over the terms and syzygy dimensions of every simple of the corpus,
# recorded from the cover/kernel engine before the scalar one replaced it
CORPUS_DIGEST = "3fbd7b3a3ec1052e64204a87d354ae48e11f82e0edb38ebc2e58cde1db839feb"


@pytest.fixture(scope="module")
def corpus():
    algs = [critical_template(k, p) for k, ps in (("A", range(1, 10)), ("B", (1, 3, 4, 5)), ("Q", range(2, 6)))
            for p in ps]
    algs += [load_algebra(path.read_text()) for path in sorted(GOLDEN.glob("*.alg"))]
    algs += [random_algebra(RandomModel(seed, n)) for n in range(9, 15) for seed in (1, 2, 3)]
    names = [str(k) for k in range(1, 151)]
    chain = Quiver(names, list(zip(names, names[1:])))
    algs.append(from_poset(chain, [(names[v], names[v + 3]) for v in range(0, 147, 5)], label="chain150"))
    return algs + [opposite_algebra(a) for a in algs]


def test_resolutions_of_simples_match_the_recorded_digest(corpus):
    h = hashlib.sha256()
    for A in corpus:
        data = [(x, resolution_of_simple(A, x).terms, resolution_of_simple(A, x).syzygy_dims) for x in A.names]
        h.update(repr((A.names, A.hom_rows, data)).encode())
    assert h.hexdigest() == CORPUS_DIGEST


def test_scalar_engine_matches_the_cover_kernel_loop(corpus):
    # the generators are the syzygy's RREF basis vectors off the radical's
    # pivots, as the cover picks them, so even the differentials agree
    for A in corpus:
        for i, x in enumerate(A.names):
            got = homology._resolve_simple(A, i)
            want = _resolve_by_covers(A, simple(A, x))
            assert (got.terms, got.syzygy_dims, got.diffs) == (want.terms, want.syzygy_dims, want.diffs), (A.label, x)
            assert verify_exactness(got) and verify_minimality(got), (A.label, x)


def test_resolution_of_simple_goes_through_minimal_projective_resolution(monkeypatch, diamond6):
    # the traced resolution cache hit ratio counts these calls as misses
    calls = []
    inner = homology.minimal_projective_resolution

    def counted(algebra, i):
        calls.append(i)
        return inner(algebra, i)

    monkeypatch.setattr(homology, "minimal_projective_resolution", counted)
    A = SchurianAlgebra(diamond6.names, diamond6.hom_rows)
    first = resolution_of_simple(A, "1")
    assert resolution_of_simple(A, "1") == first
    assert calls == [0]


def test_an_algebra_and_its_cached_resolutions_need_no_cycle_collector(diamond6):
    # neither the resolution cache nor the opposite's link back to its source
    # forms a reference cycle, so dropping the algebra frees the pair at once
    gc.disable()
    try:
        A = SchurianAlgebra(diamond6.names, diamond6.hom_rows)
        op = opposite_algebra(A)
        assert opposite_algebra(op) is A
        assert [homology.pd_of_simple(A, x) for x in A.names] == [homology.pd_of_simple(diamond6, x) for x in A.names]
        assert [homology.idim_of_simple(A, x) for x in A.names] == [homology.idim_of_simple(diamond6, x) for x in A.names]
        refs = [weakref.ref(A), weakref.ref(op)]
        del A, op
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def _brute_monotone(rows):
    # "between" is read in the transitive closure of hom itself
    n = len(rows)
    reach = list(rows)
    for k in range(n):
        for x in range(n):
            if reach[x] >> k & 1:
                reach[x] |= reach[k]
    return all(
        rows[x] >> y & 1 and rows[y] >> z & 1
        for x in range(n) for z in range(n) if rows[x] >> z & 1
        for y in range(n) if reach[x] >> y & 1 and reach[y] >> z & 1
    )


def test_constructor_rejects_exactly_the_supports_that_are_not_interval_monotone():
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randrange(3, 8)
        rows = [1 << x | sum(1 << y for y in range(x + 1, n) if rng.random() < 0.5) for x in range(n)]
        monotone = _brute_monotone(rows)
        seen[monotone] += 1
        if monotone:
            SchurianAlgebra(range(n), rows)
        else:
            with pytest.raises(NotIntervalMonotone):
                SchurianAlgebra(range(n), rows)
    assert min(seen.values()) >= 50


def test_constructions_that_skip_the_check_are_interval_monotone():
    for seed in range(40):
        A = random_algebra(RandomModel(seed, 4 + seed % 6, zero_rate=0.4))
        restrictions = [A.restrict_mask(mask) for mask in range(1, 1 << A.n, 5)]
        for B in [A, opposite_algebra(A)] + restrictions:
            assert _brute_monotone(B.hom_rows), (A.label, B.names)


def test_classification_builds_each_template_once(monkeypatch):
    built = []

    def counted(kind, param, opposite=False):
        built.append((kind, param, opposite))
        return critical_template(kind, param, opposite=opposite)

    monkeypatch.setattr(criteria, "_TEMPLATE_ROWS", {})
    monkeypatch.setattr(criteria, "critical_template", counted)
    for kind, param in (("A", 2), ("B", 3), ("Q", 2)):
        B = critical_template(kind, param, opposite=True)
        for _ in range(3):
            assert (classify_critical(B).kind, classify_critical(B).param) == (kind, param)
    assert built and len(built) == len(set(built))


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    built = []
    inner = cli.build_parser

    def counted():
        built.append(1)
        return inner()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(3):
        assert cli.main(["templates", "--list"]) == 0
    assert len(built) == 1
    capsys.readouterr()
