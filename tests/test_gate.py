"""The certification gate against the contour-enumerating gate it replaced.

The reference below lists every irreducible contour and every realizing path
of each zero pair, exactly as the gate once did; it is exponential and fit
only for small inputs.  The gate must agree with it on the certified flag and
on every reason string, byte for byte, and the boolean gate that ``random``
asks first must agree with the certified flag.
"""

import random

from critalg.presentation import CERTIFIED, Validity, _certifies, from_poset
from critalg.quivers import Path, Quiver, all_paths, irreducible_contours
from posets import hasse_quiver_of, posets_up_to_iso


def enumerating_gate(hasse, zeros):
    if not zeros:
        return CERTIFIED
    irr = irreducible_contours(hasse)
    reasons = []
    for s, t in zeros:
        for p in all_paths(hasse, s, t):
            w = Path(tuple(hasse.names[v] for v in p))
            hit = next(
                (c for c in irr if c.p.contains_subpath(w) or c.q.contains_subpath(w)),
                None,
            )
            if hit is not None:
                reasons.append(
                    f"zero {hasse.names[s]} ~> {hasse.names[t]}: path "
                    f"{'->'.join(w.vertices)} lies in the irreducible contour "
                    f"{'->'.join(hit.p.vertices)} / {'->'.join(hit.q.vertices)}"
                )
                break
    if reasons:
        return Validity(False, tuple(reasons))
    return CERTIFIED


def legal_zero_pairs(q):
    return [
        (q.names[i], q.names[j])
        for i in range(q.n)
        for j in range(q.n)
        if i != j and q.reaches(i, j) and (i, j) not in q.arrows
    ]


def assert_gates_agree(q, zeros):
    A = from_poset(q, zeros)
    expected = enumerating_gate(A.hasse, A.declared_zeros)
    assert A.validity == expected, (q, zeros)
    # in the order drawn, as random_algebra passes them
    assert _certifies(q, [(q.index[s], q.index[t]) for s, t in zeros]) == expected.certified, (q, zeros)
    return expected.certified


def test_gate_matches_enumeration_on_small_posets():
    rng = random.Random(2)
    uncertified = 0
    for n in range(1, 7):
        for rows in posets_up_to_iso(n):
            q = hasse_quiver_of(rows)
            legal = legal_zero_pairs(q)
            assert_gates_agree(q, [])
            for z in legal:
                uncertified += not assert_gates_agree(q, [z])
            for _ in range(3 if legal else 0):
                uncertified += not assert_gates_agree(q, rng.sample(legal, rng.randint(1, len(legal))))
    assert uncertified > 0


def test_gate_matches_enumeration_with_shuffled_vertex_order():
    # index order is then no linear extension, which the witness and
    # contour choice depend on
    rng = random.Random(11)
    uncertified = 0
    for _ in range(3000):
        n = rng.randint(2, 11)
        below = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    below[i] |= 1 << j
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                if below[i] >> j & 1:
                    below[i] |= below[j]
        arrows = [
            (str(i), str(j))
            for i in range(n)
            for j in range(n)
            if below[i] >> j & 1 and not any(below[i] >> k & 1 and below[k] >> j & 1 for k in range(n))
        ]
        names = [str(v) for v in range(n)]
        rng.shuffle(names)
        q = Quiver(names, arrows)
        zeros = [z for z in legal_zero_pairs(q) if rng.random() < 0.3]
        uncertified += not assert_gates_agree(q, zeros)
    assert uncertified > 0
