import gc
import random

from critalg.iso import are_isomorphic, canonical_form


def _random_digraph(rng, n):
    rows = []
    for i in range(n):
        r = 1 << i
        for j in range(n):
            if j != i and rng.random() < 0.4:
                r |= 1 << j
        rows.append(r)
    return rows


def _permuted(rows, perm):
    n = len(rows)
    out = [0] * n
    for v in range(n):
        r = 0
        for w in range(n):
            if rows[v] >> w & 1:
                r |= 1 << perm[w]
        out[perm[v]] = r
    return out


def test_isomorphism_accepts_permutations():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(1, 8)
        rows = _random_digraph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(n, rows, n, _permuted(rows, perm))


def test_isomorphism_agrees_with_canonical_form():
    rng = random.Random(23)
    graphs = []
    for _ in range(60):
        n = rng.randrange(2, 6)
        graphs.append((n, _random_digraph(rng, n)))
    for n1, r1 in graphs:
        for n2, r2 in graphs:
            expected = n1 == n2 and canonical_form(n1, r1) == canonical_form(n2, r2)
            assert are_isomorphic(n1, r1, n2, r2) == expected


def test_isomorphism_rejects_edge_tweak():
    rows = [0b0011, 0b0010, 0b1100, 0b1000]
    other = [0b0011, 0b0110, 0b1100, 0b1000]
    assert not are_isomorphic(4, rows, 4, other)


def test_symmetric_fan_is_fast():
    # a source fanning to twelve identical leaves: first-match must not
    # enumerate the symmetry orbit
    n = 13
    rows = [(1 << 0) | (((1 << n) - 1) & ~1)] + [1 << k for k in range(1, n)]
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    assert are_isomorphic(n, rows, n, _permuted(rows, perm))


def test_isomorphism_and_canonical_form_leave_no_cyclic_garbage():
    # the searches keep their state on explicit stacks, so a call frees all
    # it built at once, with no work left for the cycle collector
    rng = random.Random(5)
    rows = _random_digraph(rng, 7)
    perm = list(range(7))
    rng.shuffle(perm)
    gc.collect()
    gc.disable()
    try:
        assert are_isomorphic(7, rows, 7, _permuted(rows, perm))
        assert gc.collect() == 0
        assert not are_isomorphic(4, [0b0011, 0b0010, 0b1100, 0b1000], 4, [0b0011, 0b0110, 0b1100, 0b1000])
        assert gc.collect() == 0
        canonical_form(7, rows)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_crown_witness_detection(crown, diamond6):
    from critalg.criteria import convex_crown_witness

    hit = convex_crown_witness(crown)
    assert hit is not None
    middle = crown.restrict_mask(crown.mask_of(hit))
    assert len(middle.quiver.arrows) == 4
    assert convex_crown_witness(diamond6) is None
