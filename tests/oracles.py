"""Independent test oracles.

These deliberately avoid the library's own reduction pipeline: the SNF
diagonal is recomputed from determinant divisors (gcds of k x k minors,
exhaustively enumerated), and Z^2 group cohomology is recomputed from
the two-variable Koszul complex.  Both are only feasible at small sizes,
which is all the tests need.
"""

from itertools import combinations
from math import gcd

from leray.exactlinalg import (
    IntMatrix,
    cokernel_group,
    kernel,
    subquotient,
)


def minor_det(mat, row_idx, col_idx):
    """Determinant of the square submatrix via cofactor expansion."""
    n = len(row_idx)
    if n == 0:
        return 1
    if n == 1:
        return mat[row_idx[0], col_idx[0]]
    total = 0
    sign = 1
    for k, i in enumerate(row_idx):
        rest = row_idx[:k] + row_idx[k + 1:]
        a = mat[i, col_idx[0]]
        if a:
            total += sign * a * minor_det(mat, rest, col_idx[1:])
        sign = -sign
    return total


def determinant_divisor_diagonal(mat):
    """SNF diagonal from gcds of all k x k minors.

    d_k = gcd(k-minors) / gcd((k-1)-minors); the list stops at the rank.
    """
    diag = []
    prev = 1
    for k in range(1, min(mat.nrows, mat.ncols) + 1):
        g = 0
        for rows in combinations(range(mat.nrows), k):
            for cols in combinations(range(mat.ncols), k):
                g = gcd(g, minor_det(mat, rows, cols))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


def koszul_z2_cohomology(a1, a2):
    """H^*(Z^2, M) from the Koszul complex of two commuting matrices.

    0 -> M -> M (+) M -> M -> 0 with
    d0(m) = ((A1 - I)m, (A2 - I)m) and d1(m1, m2) = (A2 - I)m1 - (A1 - I)m2.
    Returns the three FgAbGroup values (H^0, H^1, H^2).
    """
    m = a1.nrows
    ident = IntMatrix.identity(m)
    b1 = a1 - ident
    b2 = a2 - ident
    d0 = b1.vstack(b2)
    d1 = b2.hstack(-b1)
    h0 = subquotient(kernel(d0), IntMatrix.zeros(m, 0)).quotient
    h1 = subquotient(kernel(d1), d0).quotient
    h2 = cokernel_group(d1)
    return (h0, h1, h2)


def random_matrix(rng, nrows, ncols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(ncols)]
                      for _ in range(nrows)])


def random_unimodular(rng, n, steps=12):
    """Product of random elementary matrices (det +-1)."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if n else 0):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            for t in range(n):
                rows[i][t] += c * rows[j][t]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            for t in range(n):
                rows[i][t] = -rows[i][t]
    return IntMatrix(rows)


def random_commuting_pair(rng, m):
    """Two commuting unimodular m x m matrices.

    Conjugates a unitriangular matrix and one of its integer powers by a
    random unimodular matrix; one factor is occasionally negated (still
    commuting, still unimodular).
    """
    p = random_unimodular(rng, m)
    pinv = p.inverse_unimodular()
    rows = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rng.randint(-3, 3)
    u1 = IntMatrix(rows)
    u2 = u1.power(rng.randint(-2, 2))
    if rng.random() < 0.3:
        u2 = -u2
    a1 = p * u1 * pinv
    a2 = p * u2 * pinv
    assert a1 * a2 == a2 * a1
    return a1, a2

