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

    ``v`` and ``uinv`` change only by column operations, so they are
    held transposed (``vt``, ``uinvt``) for the whole elimination and
    transposed back once on return.  Each of their column operations is
    then a row operation over the nonzeros of one row, and each column
    swap a swap of two row references, instead of a pass over every row.

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
    uinvt = _identity(nrows)
    vt = _identity(ncols)
    vinv = _identity(ncols)

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        if not _clear_at(d, u, uinvt, vt, vinv, nrows, ncols, t):
            break
        t += 1

    rank = t
    for i in range(rank):
        if d[i][i] < 0:
            _negate_row(d, u, uinvt, i)

    # Enforce the divisibility chain d_i | d_{i+1}.
    fixing = True
    while fixing:
        fixing = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i]:
                _col_axpy(d, vt, vinv, i, i + 1, 1)
                _clear_at(d, u, uinvt, vt, vinv, i + 2, i + 2, i)
                for j in (i, i + 1):
                    if d[j][j] < 0:
                        _negate_row(d, u, uinvt, j)
                fixing = True
    return u, d, _transpose(vt), _transpose(uinvt), vinv


def _identity(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def _negate_row(d, u, uinvt, i):
    # row i of d and u, and column i of uinv (row i of uinvt), negated.
    for row in (d[i], u[i], uinvt[i]):
        for j in compress(range(len(row)), row):
            row[j] = -row[j]


def _swap_rows(d, u, uinvt, i, t):
    # rows i and t of d and u, and columns i and t of uinv, swapped.
    for rows in (d, u, uinvt):
        rows[i], rows[t] = rows[t], rows[i]


def _swap_cols(d, vt, vinv, j, t):
    # columns j and t of d and v, and rows j and t of vinv, swapped.
    for row in d:
        row[j], row[t] = row[t], row[j]
    for rows in (vt, vinv):
        rows[j], rows[t] = rows[t], rows[j]


def _axpy(dst, src, c):
    """dst += c * src over the nonzeros of src: adding c * 0 changes
    nothing, so zero source entries are skipped."""
    for k in compress(range(len(src)), src):
        dst[k] += c * src[k]


def _row_axpy(d, u, uinvt, i, t, c):
    # row i += c * row t; inverse bookkeeping: uinv col t -= c * col i.
    _axpy(d[i], d[t], c)
    _axpy(u[i], u[t], c)
    _axpy(uinvt[t], uinvt[i], -c)


def _col_axpy(d, vt, vinv, j, t, c):
    # col j += c * col t; inverse bookkeeping: vinv row t -= c * row j.
    # d is searched for the rows with a nonzero in column t at C speed.
    for row in compress(d, map(itemgetter(t), d)):
        row[j] += c * row[t]
    _axpy(vt[j], vt[t], c)
    _axpy(vinv[t], vinv[j], -c)


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


def _clear_at(d, u, uinvt, vt, vinv, nrows, ncols, t):
    """Pivot-select in d[t:, t:] and clear row t and column t.

    Returns False when the trailing block is entirely zero.
    """
    pivot = _find_pivot(d, t, nrows, ncols)
    if pivot is None:
        return False
    bi, bj = pivot
    if bi != t:
        _swap_rows(d, u, uinvt, bi, t)
    if bj != t:
        _swap_cols(d, vt, vinv, bj, t)

    while True:
        for i in range(t + 1, nrows):
            while d[i][t]:
                q = d[i][t] // d[t][t]
                if q:
                    _row_axpy(d, u, uinvt, i, t, -q)
                if d[i][t]:
                    _swap_rows(d, u, uinvt, i, t)
        for j in range(t + 1, ncols):
            while d[t][j]:
                q = d[t][j] // d[t][t]
                if q:
                    _col_axpy(d, vt, vinv, j, t, -q)
                if d[t][j]:
                    _swap_cols(d, vt, vinv, j, t)
        if not any(map(itemgetter(t), islice(d, t + 1, None))):
            break
    return True
