"""Canonical forms for small labeled digraphs.

A relation on n vertices is given as bit rows; the canonical form is the
lexicographically smallest tuple of permuted rows over all vertex orderings.
Color refinement prunes the search; sizes here stay below ~20 vertices.
"""

from __future__ import annotations

from .quivers import _bits, transpose


def _refine(n: int, rows: list[int], cols: list[int], colors: list[int]) -> list[int]:
    while True:
        sig = []
        for v in range(n):
            out = tuple(sorted(colors[w] for w in _bits(rows[v])))
            inn = tuple(sorted(colors[w] for w in _bits(cols[v])))
            sig.append((colors[v], out, inn))
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [order[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _encode(n: int, rows: list[int], perm: list[int]) -> tuple[int, ...]:
    pos = [0] * n
    for newi, old in enumerate(perm):
        pos[old] = newi
    out = []
    for old in perm:
        r = 0
        for w in _bits(rows[old]):
            r |= 1 << pos[w]
        out.append(r)
    return tuple(out)


def canonical_form(n: int, rows: list[int]) -> tuple[int, ...]:
    """Smallest row-bit encoding over all orderings consistent with refinement."""
    if n == 0:
        return ()
    cols = transpose(rows)
    colors = _refine(n, rows, cols, [0] * n)
    best: list[tuple[int, ...] | None] = [None]

    def rec(perm: list[int], remaining: list[int], colors: list[int]):
        if not remaining:
            enc = _encode(n, rows, perm)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        cmin = min(colors[v] for v in remaining)
        cell = [v for v in remaining if colors[v] == cmin]
        for v in cell:
            nxt = list(colors)
            nxt[v] = -1 - len(perm)
            nxt2 = _refine(n, rows, cols, _normalize(nxt))
            rec(perm + [v], [w for w in remaining if w != v], nxt2)

    rec([], list(range(n)), colors)
    return best[0]  # type: ignore[return-value]


def _normalize(colors: list[int]) -> list[int]:
    order = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [order[c] for c in colors]


def are_isomorphic(n1: int, rows1: list[int], n2: int, rows2: list[int]) -> bool:
    """Backtracking isomorphism test with joint color refinement.

    Unlike the canonical form, this never enumerates a symmetry orbit: for
    isomorphic inputs the first consistent branch succeeds, which keeps
    highly symmetric shapes (fans, crowns) cheap.
    """
    if n1 != n2:
        return False
    n = n1
    if n == 0:
        return True
    # joint refinement: one run on the disjoint union, graph 2 shifted by n
    union = list(rows1) + [r << n for r in rows2]
    colors = _refine(2 * n, union, transpose(union), [0] * (2 * n))
    colors1, colors2 = colors[:n], colors[n:]
    if sorted(colors1) != sorted(colors2):
        return False
    by_color: dict[int, list[int]] = {}
    for w in range(n):
        by_color.setdefault(colors2[w], []).append(w)
    # most constrained A-vertices first
    order1 = sorted(range(n), key=lambda v: (len(by_color[colors1[v]]), v))
    mapping = [-1] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        a = order1[k]
        for b in by_color[colors1[a]]:
            if used[b]:
                continue
            ok = True
            for x in order1[:k]:
                y = mapping[x]
                if (rows1[a] >> x & 1) != (rows2[b] >> y & 1) or (
                    rows1[x] >> a & 1
                ) != (rows2[y] >> b & 1):
                    ok = False
                    break
            if ok:
                mapping[a] = b
                used[b] = True
                if extend(k + 1):
                    return True
                mapping[a] = -1
                used[b] = False
        return False

    return extend(0)
