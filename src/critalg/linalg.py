"""Exact rational row reduction.

Matrices are lists of row lists over Fraction (integers allowed on input;
normalized on reduction). Everything is deterministic: first usable pivot,
reduced row-echelon form, free columns in ascending order.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError

Row = list
Matrix = list


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column list)."""
    rows = [[Fraction(x) for x in r] for r in mat]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[0])


def nullspace(mat: Matrix, ncols: int) -> Matrix:
    """Row basis of {v : mat @ v = 0}, in RREF, free columns ascending."""
    reduced, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    out, _ = rref(basis)
    return out


def solve_in_rowspace(basis: Matrix, pivots: list[int], vec: Row) -> Row:
    """Coordinates of ``vec`` in an RREF row basis; raises if outside the span."""
    coeffs = [Fraction(vec[p]) for p in pivots]
    residual = [Fraction(x) for x in vec]
    for c, row in zip(coeffs, basis):
        if c:
            residual = [a - c * b for a, b in zip(residual, row)]
    if any(residual):
        raise InternalError("vector not in the expected row space")
    return coeffs


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]
