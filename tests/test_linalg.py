import math
import random
from fractions import Fraction

import pytest

from hsw import linalg
from hsw.rootdata import datum_preset


# -- a plain Fraction reference ---------------------------------------------------------


def ref_rref(rows, ncols):
    """Reduced row echelon form over the rationals: (nonzero rows, pivots)."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [x - work[i][c] * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return work[:len(pivots)], pivots


def ref_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    work = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            out = -out
        out *= work[c][c]
        for i in range(c + 1, n):
            f = work[i][c] / work[c][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return out


def is_proportional(a, b):
    """a is a positive rational multiple of b."""
    lead = next(i for i, x in enumerate(b) if x)
    t = Fraction(a[lead], b[lead])
    return t > 0 and all(Fraction(x) == t * y for x, y in zip(a, b))


def primitive(vec):
    return math.gcd(*vec) == 1


# -- fixtures -----------------------------------------------------------------------------

CASES = [
    ([[0, 0, 0], [0, 0, 0]], 3),                    # zero matrix
    ([[1, 2, 3], [0, 0, 0], [2, 4, 6]], 3),         # zero row, rank deficient
    ([[0, 1], [1, 0]], 2),                          # row swap at the first pivot
    ([[0, 2, -1], [3, -1, 4], [6, 0, 7]], 3),       # swap, negative entries
    ([[2, -3, 5, 1]], 4),                           # one row, wide
    ([[1, 0], [2, 0], [-3, 0], [0, 0]], 2),         # tall, zero column
    ([[4, -6, 2, 8], [-2, 3, -1, -4], [1, 1, 1, 1]], 4),
    ([], 3),                                        # no rows at all
]


def random_cases(n=40, seed=3):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        basis = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rng.randint(1, m))]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(k)]
                for _ in range(m)]
        out.append((rows, k))
    return out


ALL = CASES + random_cases()


# -- tests ------------------------------------------------------------------------------


@pytest.mark.parametrize("rows,ncols", ALL)
def test_rank(rows, ncols):
    assert linalg.rank(rows) == len(ref_rref(rows, ncols)[1])


@pytest.mark.parametrize("rows,ncols", ALL)
def test_nullspace(rows, ncols):
    ref, pivots = ref_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    got = linalg.nullspace(rows, ncols)
    assert len(got) == len(free)
    for vec, fc in zip(got, free):
        want = [Fraction(0)] * ncols
        want[fc] = Fraction(1)
        for row, pc in zip(ref, pivots):
            want[pc] = -row[fc]
        assert all(isinstance(x, int) for x in vec)
        assert is_proportional(vec, want)
        assert primitive(vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


@pytest.mark.parametrize("rows,ncols", ALL)
def test_remainder(rows, ncols):
    ref, pivots = ref_rref(rows, ncols)
    rng = random.Random(ncols + len(rows))
    for _ in range(4):
        vec = [rng.randint(-5, 5) for _ in range(ncols)]
        want = [Fraction(x) for x in vec]
        for row, pc in zip(ref, pivots):
            f = want[pc]
            want = [x - f * y for x, y in zip(want, row)]
        got = linalg.remainder(rows, vec, ncols)
        if not any(want):
            assert not any(got)
        else:
            assert is_proportional(got, want)
            assert primitive(got)
            assert all(got[pc] == 0 for pc in pivots)


def test_remainder_small():
    rows = [[1, 2, 0], [0, 1, 1]]  # reduced echelon form [[1, 0, -2], [0, 1, 1]]
    assert linalg.remainder(rows, [2, 5, 1], 3) == [0, 0, 0]
    assert linalg.remainder(rows, [1, 0, 0], 3) == [0, 0, 1]
    assert linalg.remainder(rows, [0, 0, -3], 3) == [0, 0, -1]


@pytest.mark.parametrize("rows", [
    [], [[5]], [[0]], [[0, 1], [1, 0]], [[2, 1], [4, 2]],
    [[0, 2, -1], [3, -1, 4], [6, 0, 7]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[-2, 1, 0, 3], [1, -2, 1, 0], [0, 1, -2, 1], [3, 0, 1, -2]],
])
def test_det(rows):
    assert linalg.det(rows) == ref_det(rows)


def test_det_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # singular: last row a combination
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        assert linalg.det(rows) == ref_det(rows)


def test_inverse():
    rng = random.Random(5)
    mats = [[[0, 1], [1, 0]], [[2, 1], [1, 1]], [[0, 2, -1], [3, -1, 4], [6, 0, 7]]]
    for _ in range(40):
        n = rng.randint(1, 4)
        mats.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    for rows in mats:
        d = ref_det(rows)
        if d == 0:
            with pytest.raises(ValueError):
                linalg.inverse(rows)
            continue
        got_det, adj = linalg.inverse(rows)
        assert got_det == d
        n = len(rows)
        for i in range(n):
            for j in range(n):
                assert sum(rows[i][k] * adj[k][j] for k in range(n)) == (d if i == j else 0)


def test_inputs_are_not_modified():
    rows = [[0, 2], [3, 1]]
    linalg.rank(rows)
    linalg.nullspace(rows, 2)
    linalg.inverse(rows)
    assert rows == [[0, 2], [3, 1]]


def random_sparse_rows(rng, big=False):
    """Sparse rows with zero rows, repeated rows, explicit zero entries and
    rows that are combinations of earlier ones; entries above 2^64 if big."""
    ncols = rng.randint(1, 12)
    rows = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.4 and len(rows) > 1:
            p, q = rng.sample(rows, 2)
            a, b = rng.choice((-3, -1, 2, 5)), rng.choice((-2, 1, 7))
            rows.append({j: a * p.get(j, 0) + b * q.get(j, 0) for j in set(p) | set(q)})
        else:
            scale = (1 << 70) + 1 if big and rng.random() < 0.5 else 1
            rows.append({j: rng.choice((-6, -2, -1, 1, 3, 4)) * scale
                         for j in range(ncols) if rng.random() < 0.3})
            if rng.random() < 0.2:
                rows[-1][rng.randrange(ncols)] = 0
    return rows, ncols


@pytest.mark.parametrize("big", [False, True], ids=["small", "beyond-2^64"])
def test_sparse_rank_matches_bareiss(big):
    rng = random.Random(2024 + big)
    for _ in range(400):
        rows, ncols = random_sparse_rows(rng, big)
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        assert linalg.sparse_rank(rows) == linalg.rank(dense), rows


@pytest.mark.parametrize("rows,ncols", ALL)
def test_sparse_rank_on_the_dense_cases(rows, ncols):
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert linalg.sparse_rank(sparse) == len(ref_rref(rows, ncols)[1])


def test_sparse_rank_needs_the_cofactor_of_the_reduced_row():
    # 2*e0 against the pivot 3*e0 + e1: 3*(2, 0) - 2*(3, 1) = (0, -2), a
    # new pivot; without the factor 3 the row would not cancel column 0
    assert linalg.sparse_rank([{0: 3, 1: 1}, {0: 2}]) == 2
    assert linalg.sparse_rank([{0: 3, 1: 1}, {0: 6, 1: 2}, {0: 2, 1: 4}]) == 2
    rows = [{0: 1, 1: 1}, {1: 2}]
    linalg.sparse_rank(rows)
    assert rows == [{0: 1, 1: 1}, {1: 2}]


def test_bezout():
    b2 = datum_preset("B2")
    cases = [[], [0, 0], [-4], [0, -6, 4], [6, 10, 15], [-3, 0, 9], [12, -18, 0, 30],
             [(1 << 80) * 3, -(1 << 80) * 5], list(b2.simple_roots[0])]
    rng = random.Random(31)
    cases += [[rng.randint(-50, 50) for _ in range(rng.randint(1, 5))] for _ in range(200)]
    for values in cases:
        g, coeffs = linalg.bezout(values)
        assert g == math.gcd(*values) and len(coeffs) == len(values)
        assert sum(c * a for c, a in zip(coeffs, values)) == g
    # B2's first simple root, whose gcd is not 1, and its wall-atom covector
    assert b2.simple_roots[0] == (2, -2)
    assert linalg.bezout([2, -2]) == (2, [0, -1])
    assert linalg.bezout([0, 0]) == (0, [0, 0]) and linalg.bezout([-4]) == (4, [-1])
