"""Generated inputs: on Hasse quivers of random partial orders with random
zero sets, ``homology._resolve_simple`` must agree with the representation
engine of ``oracles`` at every simple, the boolean certification gate with
the one that gives reasons, and the level-2 data of the pd screen with the
engine.  Hypothesis shrinks a counterexample to a minimal order and zero
set."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from critalg.criteria import _pd_le2_fast  # noqa: E402
from critalg.homology import _resolve_simple, pd_of_simple, resolution_of_simple  # noqa: E402
from critalg.presentation import _certifies, _certify, from_poset, second_syzygy_multiplicity  # noqa: E402
from critalg.quivers import Quiver, _bits, cover_arrows  # noqa: E402
from oracles import _resolve_by_covers, simple  # noqa: E402


@st.composite
def hasse_quivers_with_zero_sets(draw, max_n=8):
    """(n, arrows, zero pairs): a partial order, drawn as one flag per pair
    i < j of up to ``max_n`` points and kept on the points that some flag
    relates; the arrows of its Hasse quiver; and a set of zero pairs among
    the comparable pairs that are not arrows.  A shrunk counterexample has
    its flags cleared and so loses the points they alone related."""
    size = draw(st.integers(1, max_n))
    pairs = [(i, j) for j in range(size) for i in range(j)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    related = [p for p, f in zip(pairs, flags) if f]
    touched = sorted({v for pair in related for v in pair}) or [0]
    n = len(touched)
    pos = {v: k for k, v in enumerate(touched)}
    ge = [0] * n
    for a, b in related:
        ge[pos[a]] |= 1 << pos[b]
    for i in range(n - 1, -1, -1):
        for j in _bits(ge[i]):
            ge[i] |= ge[j]
    names = [str(k) for k in range(1, n + 1)]
    arrows = cover_arrows(ge)
    quiver = Quiver(names, [(names[i], names[j]) for i, j in arrows])
    eligible = [(names[i], names[j]) for i in range(n) for j in _bits(ge[i]) if (i, j) not in arrows]
    zero = draw(st.lists(st.booleans(), min_size=len(eligible), max_size=len(eligible)))
    return n, quiver.arrow_names(), [p for p, z in zip(eligible, zero) if z]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(hasse_quivers_with_zero_sets())
def test_scalar_engine_matches_the_oracle_at_every_simple(presentation):
    n, arrows, zeros = presentation
    A = from_poset(Quiver([str(k) for k in range(1, n + 1)], arrows), zeros)
    for i, x in enumerate(A.names):
        got = _resolve_simple(A, i)
        want = _resolve_by_covers(A, simple(A, x))
        assert (got.terms, got.syzygy_dims, got.diffs) == (want.terms, want.syzygy_dims, want.diffs), x


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(hasse_quivers_with_zero_sets(max_n=10))
def test_certifies_matches_the_certified_flag(presentation):
    n, arrows, zeros = presentation
    q = Quiver([str(k) for k in range(1, n + 1)], arrows)
    pairs = [(q.index[s], q.index[t]) for s, t in zeros]
    assert _certifies(q, pairs) == _certify(q, pairs).certified


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(hasse_quivers_with_zero_sets(max_n=10), st.data())
def test_level2_data_matches_the_engine(presentation, data):
    # on the algebra and on its restriction to a drawn mask, whose skeleton
    # need not be a Hasse quiver: the pd screen is exact, and so is the
    # second-term multiplicity of every projective
    n, arrows, zeros = presentation
    A = from_poset(Quiver([str(k) for k in range(1, n + 1)], arrows), zeros)
    for B in (A, A.restrict_mask(data.draw(st.integers(1, (1 << n) - 1), label="mask"))):
        q = B.quiver
        for i, x in enumerate(B.names):
            assert _pd_le2_fast(B.hom_rows, i) == (pd_of_simple(B, x) <= 2), x
            res = resolution_of_simple(B, x)
            for b, y in enumerate(B.names):
                got = second_syzygy_multiplicity(q.out_mask, q.in_mask, B.hom_cols, i, b)
                assert got == res.multiplicity(2, y), (x, y)
