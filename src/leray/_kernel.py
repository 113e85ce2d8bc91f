"""Smith normal form kernel.

The one hot loop in the package: full SNF with unimodular transforms
over arbitrary-precision integers.  Frozen digests of the output in
tests/test_snf_golden.py pin it.
"""

from itertools import compress, islice
from operator import itemgetter

# perfbench records this in every run and refuses to compare runs whose
# backends differ, so it stays although there is only one kernel.
BACKEND = "pure"


def smith_with_transforms(a, nrows, ncols):
    """Diagonalize an integer matrix by unimodular row/column operations.

    ``a`` is a sequence of ``nrows`` rows, each of length ``ncols``; it is
    not mutated.  Returns ``(u, d, v, uinv, vinv)`` as lists of list rows
    with ``u @ a @ v == d``, ``u @ uinv == I``, ``v @ vinv == I``, and
    ``d`` diagonal with nonnegative entries in a divisibility chain.

    Pivoting: smallest nonzero absolute value, ties broken by lowest row
    then lowest column, so the output is deterministic.  The search scans
    the trailing block row-major and replaces its candidate only on a
    strictly smaller value, so the first entry of absolute value 1 is
    already the final choice (no nonzero entry is smaller, and every
    later tie loses); the scan stops there.

    The row and column operations skip zero source entries in ``d``,
    ``u``, ``v`` and the ``uinv``/``vinv`` bookkeeping.  Adding
    ``c * 0`` changes nothing, so the output is the same as with the
    dense loops, while the sparse coboundaries the pipeline produces
    cost far less.

    Divisibility repair: when d_i does not divide d_{i+1}, column i+1 is
    added to column i and the 2x2 block {i, i+1} is cleared again, which
    leaves gcd(d_i, d_{i+1}) at position i.  The pivot search and the
    clearing are confined to that block (``_clear_at`` is given i + 2 as
    its row and column bound): the rest of D is already diagonal, and a
    search over the whole trailing block could swap a smaller later
    entry into position i and leave D non-diagonal.  The row and column
    operations still update the full ``u``, ``v`` and inverses.
    """
    d = [list(row) for row in a]
    u = _identity(nrows)
    uinv = _identity(nrows)
    v = _identity(ncols)
    vinv = _identity(ncols)

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        if not _clear_at(d, u, uinv, v, vinv, nrows, ncols, t):
            break
        t += 1

    rank = t
    for i in range(rank):
        if d[i][i] < 0:
            _negate_row(d, u, uinv, i)

    # Enforce the divisibility chain d_i | d_{i+1}.
    fixing = True
    while fixing:
        fixing = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                _col_axpy(d, v, vinv, i, i + 1, 1)
                _clear_at(d, u, uinv, v, vinv, i + 2, i + 2, i)
                for j in (i, i + 1):
                    if d[j][j] < 0:
                        _negate_row(d, u, uinv, j)
                fixing = True
    return u, d, v, uinv, vinv


def _identity(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _negate_row(d, u, uinv, i):
    for row in (d[i], u[i]):
        for j in compress(range(len(row)), row):
            row[j] = -row[j]
    for row in _rows_with(uinv, i):
        row[i] = -row[i]


def _swap_rows(d, u, uinv, i, t):
    d[i], d[t] = d[t], d[i]
    u[i], u[t] = u[t], u[i]
    for row in uinv:
        row[i], row[t] = row[t], row[i]


def _swap_cols(d, v, vinv, j, t):
    for row in d:
        row[j], row[t] = row[t], row[j]
    for row in v:
        row[j], row[t] = row[t], row[j]
    vinv[j], vinv[t] = vinv[t], vinv[j]


def _rows_with(rows, k):
    """The rows with a nonzero entry in column k, picked at C speed.

    Lazy: each row is tested just before the loop reaches it.
    """
    return compress(rows, map(itemgetter(k), rows))


def _row_axpy(d, u, uinv, i, t, c):
    # row i += c * row t; inverse bookkeeping: uinv col t -= c * col i.
    # Zero source entries would add 0, so they are skipped.
    for src, dst in ((d[t], d[i]), (u[t], u[i])):
        for j in compress(range(len(src)), src):
            dst[j] += c * src[j]
    for row in _rows_with(uinv, i):
        row[t] -= c * row[i]


def _col_axpy(d, v, vinv, j, t, c):
    # col j += c * col t; inverse bookkeeping: vinv row t -= c * row j.
    # Zero source entries would add 0, so they are skipped.
    for rows in (d, v):
        for row in _rows_with(rows, t):
            row[j] += c * row[t]
    vt, vj = vinv[t], vinv[j]
    for k in compress(range(len(vj)), vj):
        vt[k] -= c * vj[k]


def _find_pivot(d, t, nrows, ncols):
    """(row, column) of the pivot in d[t:, t:], or None if it is zero.

    Row-major scan, replaced only on a strictly smaller absolute value;
    an entry of absolute value 1 cannot be beaten, so it ends the scan.
    """
    best = None
    for i in range(t, nrows):
        di = d[i]
        for j in compress(range(t, ncols), islice(di, t, None)):
            x = di[j]
            ax = -x if x < 0 else x
            if ax == 1:
                return i, j
            if best is None or ax < best[0]:
                best = (ax, i, j)
    return None if best is None else best[1:]


def _clear_at(d, u, uinv, v, vinv, nrows, ncols, t):
    """Pivot-select in d[t:, t:] and clear row t and column t.

    Returns False when the trailing block is entirely zero.
    """
    pivot = _find_pivot(d, t, nrows, ncols)
    if pivot is None:
        return False
    bi, bj = pivot
    if bi != t:
        _swap_rows(d, u, uinv, bi, t)
    if bj != t:
        _swap_cols(d, v, vinv, bj, t)

    while True:
        for i in range(t + 1, nrows):
            while d[i][t]:
                q = d[i][t] // d[t][t]
                if q:
                    _row_axpy(d, u, uinv, i, t, -q)
                if d[i][t]:
                    _swap_rows(d, u, uinv, i, t)
        for j in range(t + 1, ncols):
            while d[t][j]:
                q = d[t][j] // d[t][t]
                if q:
                    _col_axpy(d, v, vinv, j, t, -q)
                if d[t][j]:
                    _swap_cols(d, v, vinv, j, t)
        if not any(map(itemgetter(t), islice(d, t + 1, None))):
            break
    return True
