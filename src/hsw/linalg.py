"""Exact linear algebra over the integers by fraction-free elimination.

The dense routines run one elimination, Bareiss's integer-preserving
Gaussian elimination (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968): a step with
pivot p replaces each other row by (p * row - row[c] * pivot_row) // prev,
where prev is the pivot of the step before.  Sylvester's identity makes the
division exact, so entries stay integers (minors of the input) and never
need a common denominator.  Matrices are sequences of integer rows.

``sparse_rank`` ranks rows given as {column: entry} maps, which is what the
graded-module oracle's Hom systems are: each row is reduced only against
the pivot of its leading column, by a * row - b * pivot with the cofactors
of a gcd, and divided by its content, so rows with a zero in a pivot column
are never touched.  The dense ``rank`` is its oracle in the tests.  Nothing
is modified in place.  ``bezout`` gives the gcd of a list of integers with
one cofactor vector; the graded-module oracle splits its wall atoms by it.

This module is a leaf: it imports nothing from the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

IntMatrix = Sequence[Sequence[int]]


def _eliminate(rows: IntMatrix, ncols: int, full: bool = False):
    """Bareiss elimination of the first ncols columns.

    Returns (work, pivots, sign, d): work[:len(pivots)] is a row echelon
    form with pivots[i] the pivot column of row i, sign is the parity of the
    row swaps and d the last pivot (1 when there is none).  With full=True
    the rows above each pivot are cleared too (fraction-free Gauss-Jordan);
    every pivot entry then equals d and the leading rows are d times the
    reduced echelon form.
    """
    work = [list(row) for row in rows]
    nrows = len(work)
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        prow = work[r]
        p = prow[c]
        for i in range(0 if full else r + 1, nrows):
            if i == r:
                continue
            row = work[i]
            f = row[c]
            if f:
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                work[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
    return work, pivots, sign, prev


def _primitive(vec: list[int], unit: int = 1) -> list[int]:
    """vec divided by the gcd of its entries, times the sign of unit."""
    g = math.gcd(*vec)
    if g == 0:
        return vec
    if unit < 0:
        g = -g
    return [x // g for x in vec]


def bezout(values: Sequence[int]) -> tuple[int, list[int]]:
    """(g, x) with g the gcd of values (0 when all vanish) and sum x_i *
    values_i = g, by the extended Euclidean algorithm on the gcd so far and
    each nonzero value in turn.

    >>> bezout([0, -6, 4])
    (2, [0, -1, -1])
    """
    g, coeffs = 0, [0] * len(values)
    for i, a in enumerate(values):
        if a == 0:
            continue
        old_r, r, old_x, x, old_y, y = g, a, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_x, x = x, old_x - q * x
            old_y, y = y, old_y - q * y
        if old_r < 0:
            old_x, old_y = -old_x, -old_y
        h = old_x * g + old_y * a
        if h != math.gcd(g, a):
            raise RuntimeError(f"extended gcd of {g} and {a} returned {h}")
        coeffs = [c * old_x for c in coeffs]
        coeffs[i] += old_y
        g = h
    if sum(c * a for c, a in zip(coeffs, values)) != g:
        raise RuntimeError(f"cofactors {coeffs} do not combine {values} to {g}")
    return g, coeffs


def rank(rows: IntMatrix) -> int:
    """Rank of an integer matrix."""
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]))[1])


def sparse_rank(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows {column: entry}.

    The rows stream into a row echelon form with one pivot row per leading
    column.  A row whose leading column c holds a pivot p becomes a * row -
    b * p, with a = p[c] / g, b = row[c] / g and g = gcd(p[c], row[c]), so c
    cancels and the entries stay integers; it is then divided by its
    content and goes on to its next leading column.  A row that reaches a
    column with no pivot becomes that column's pivot, and a row that
    cancels to zero adds nothing.

    >>> sparse_rank([{0: 2, 3: 1}, {0: 4, 3: 2}, {}, {1: -1, 3: 7}])
    2
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            g = math.gcd(p[c], row[c])
            a, b = p[c] // g, row[c] // g
            out = {j: a * x for j, x in row.items()}
            for j, y in p.items():
                x = out.get(j, 0) - b * y
                if x:
                    out[j] = x
                else:
                    del out[j]
            if c in out:
                raise RuntimeError(f"column {c} did not cancel")
            g = math.gcd(*out.values())
            row = {j: x // g for j, x in out.items()} if g > 1 else out
    return len(pivots)


def det(rows: IntMatrix) -> int:
    """Determinant of a square integer matrix."""
    _, pivots, sign, d = _eliminate(rows, len(rows))
    return sign * d if len(pivots) == len(rows) else 0


def inverse(rows: IntMatrix) -> tuple[int, list[list[int]]]:
    """(det A, adj A) of an invertible square matrix A, so A^-1 = adj / det.

    Raises ValueError when A is singular.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    work, pivots, sign, d = _eliminate(aug, 2 * n, full=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return sign * d, [[sign * x for x in row[n:]] for row in work]


def nullspace(rows: IntMatrix, ncols: int) -> list[list[int]]:
    """Basis of {x : rows * x = 0} as primitive integer vectors.

    There is one vector per non-pivot column f, in increasing order of f:
    the positive multiple of the reduced-echelon solution with x_f = 1 and
    x_g = 0 for every other non-pivot column g.
    """
    work, pivots, _, d = _eliminate(rows, ncols, full=True)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = d
        for row, pc in zip(work, pivots):
            vec[pc] = -row[f]
        basis.append(_primitive(vec, d))
    return basis


def remainder(rows: IntMatrix, vec: Sequence[int], ncols: int) -> list[int]:
    """vec modulo the row space of rows, as a primitive integer vector.

    The remainder is the unique vector of vec + rowspace that vanishes on
    the pivot columns of the row space; the result is its primitive positive
    integer multiple, and it is zero exactly when vec lies in the row space.
    """
    work, pivots, _, d = _eliminate(rows, ncols, full=True)
    out = [d * x for x in vec]
    for row, pc in zip(work, pivots):
        f = vec[pc]
        if f:
            out = [a - f * b for a, b in zip(out, row)]
    return _primitive(out, d)
