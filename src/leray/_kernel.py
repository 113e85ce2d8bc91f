"""Smith normal form kernel.

The one hot loop in the package: Smith normal form over
arbitrary-precision integers, eliminating on sparse rows.  It has two
entries that run the same pivot loop: ``smith_with_transforms`` returns
D with its unimodular transforms, and ``invariant_factors`` returns
only D's nonzero diagonal, for callers that read a rank or a group and
no coordinates.  D is held as ``{column: value}`` rows, with the set of
rows holding a nonzero in each column; U, V^T, U_inv^T and V_inv, when
they are made, are sparse rows too, so every operation on a transform
is a row operation over one row's nonzeros.  Rows and columns are never
swapped: each pivot records its (row, column), and the permutation is
applied once, when the dense result is built.

Pivoting is Markowitz-style (Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations",
J. Symb. Comput. 32, 2001): the pivot column has the fewest nonzeros
left in the active block, and within it the pivot row has the smallest
absolute value, then the fewest nonzeros.  Ties go to the lowest index,
so the output is deterministic.  Frozen digests of the output in
tests/test_snf_golden.py pin it.
"""

from itertools import compress

# perfbench records this in every run and refuses to compare runs whose
# backends differ, so it stays although there is only one kernel.
BACKEND = "pure"


def smith_with_transforms(a, nrows, ncols):
    """Diagonalize an integer matrix by unimodular row/column operations.

    ``a`` is a sequence of ``nrows`` rows, each of length ``ncols``; it is
    not mutated.  Returns ``(u, d, v, uinv, vinv)`` as lists of list rows
    with ``u @ a @ v == d``, ``u @ uinv == I``, ``v @ vinv == I``, and
    ``d`` diagonal with nonnegative entries in a divisibility chain.
    """
    e = _Transforms(a, nrows, ncols)
    return e.dense(e.diagonalize())


def invariant_factors(a, nrows, ncols):
    """The nonzero diagonal of ``smith_with_transforms(a, nrows, ncols)``,
    as a list in divisibility order, from the same eliminations made on
    D alone: no transform is allocated or updated.  ``a`` is not
    mutated."""
    e = _Elimination(a, nrows, ncols)
    return [e.d[r][c] for r, c in e.diagonalize()]


def _axpy(dst, src, c):
    """dst += c * src over the nonzeros of src, dropping cancelled keys."""
    for k, x in src.items():
        y = dst.get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _identity(n):
    return [{i: 1} for i in range(n)]


def _negate(row):
    for k in row:
        row[k] = -row[k]


class _Elimination:
    """D of one SNF as sparse rows, and the operations that diagonalize
    it.  ``_Transforms`` makes the same operations on the transforms."""

    def __init__(self, a, nrows, ncols):
        self.nrows, self.ncols = nrows, ncols
        self.d = [dict(zip(compress(range(ncols), row), filter(None, row)))
                  for row in a]
        self.rows_of = [set() for _ in range(ncols)]
        for i, row in enumerate(self.d):
            for j in row:
                self.rows_of[j].add(i)
        # Columns not yet holding a pivot.  A zero column stays zero: row
        # operations add rows that are zero there, and column operations
        # change only columns with a nonzero in the pivot row.
        self.active = {j for j, rows in enumerate(self.rows_of) if rows}

    def diagonalize(self):
        """Bring D to Smith form; returns its pivots (row, column) in
        diagonal order, units first.

        Each pivot (r, c) is cleared by Euclid's algorithm: every other
        row of column c is reduced by row r, and while a remainder is
        left the smallest one becomes the pivot; then row r is reduced
        by column c the same way.  Once column c has only the pivot
        (r, c), reducing row r changes no other entry of D.  Cleared rows
        and columns leave the active block for good.  The diagonal is
        then made nonnegative, and 2x2 extended-gcd steps on pairs of
        pivots, (a, b) -> (gcd, lcm), restore the divisibility chain.
        """
        d = self.d
        pivots = []
        while (c := self.sparsest_column()) is not None:
            r, c = self.clear(c)
            self.active.discard(c)
            pivots.append((r, c))

        for r, c in pivots:
            if d[r][c] < 0:
                self.negate_row(r)

        # Units divide everything, so only the other pivots are paired.
        units = [p for p in pivots if d[p[0]][p[1]] == 1]
        rest = [p for p in pivots if d[p[0]][p[1]] != 1]
        for i, (ri, ci) in enumerate(rest):
            for rj, cj in rest[i + 1:]:
                if d[rj][cj] % d[ri][ci]:
                    self.gcd_step(ri, ci, rj, cj)
        return units + rest

    def sparsest_column(self):
        """The active column with the fewest nonzeros, lowest index
        first, or None when the active block is zero."""
        rows_of = self.rows_of
        counts = [(len(rows_of[j]), j) for j in self.active if rows_of[j]]
        return min(counts)[1] if counts else None

    def row_axpy(self, i, t, c):
        """Row i += c * row t."""
        di, rows_of = self.d[i], self.rows_of
        for k, x in self.d[t].items():
            y = di.get(k)
            if y is None:
                di[k] = c * x
                rows_of[k].add(i)
            elif y + c * x:
                di[k] = y + c * x
            else:
                del di[k]
                rows_of[k].discard(i)

    def col_axpy_on_pivot_row(self, r, j, t, c):
        """Column j += c * column t, where row r holds column t's only
        nonzero."""
        dr = self.d[r]
        y = dr.get(j, 0) + c * dr[t]
        if y:
            dr[j] = y
        else:
            del dr[j]
            self.rows_of[j].discard(r)

    def clear(self, c):
        """Clear a pivot's row and column by Euclid's algorithm, starting
        in column c; returns the pivot, the only nonzero left in its row
        and column."""
        d, rows_of = self.d, self.rows_of
        while True:
            while True:
                r = min(rows_of[c], key=lambda i: (abs(d[i][c]), len(d[i]), i))
                p = d[r][c]
                for i in [i for i in rows_of[c] if i != r]:
                    q = d[i][c] // p
                    if q:
                        self.row_axpy(i, r, -q)
                if len(rows_of[c]) == 1:
                    break
            dr = d[r]
            for j in [j for j in dr if j != c]:
                q = dr[j] // p
                if q:
                    self.col_axpy_on_pivot_row(r, j, c, -q)
            if len(dr) == 1:
                return r, c
            c = min(dr, key=lambda j: (abs(dr[j]), len(rows_of[j]), j))

    def negate_row(self, r):
        """Row r of D negated."""
        _negate(self.d[r])

    def gcd_step(self, ri, ci, rj, cj):
        """diag(a, b) at pivots (ri, ci), (rj, cj) -> diag(g, a b / g)
        for g = gcd(a, b) = s a + t b, a, b > 0; returns
        (s, t, a/g, b/g)."""
        d = self.d
        a, b = d[ri][ci], d[rj][cj]
        g, s, t = _xgcd(a, b)
        al, be = a // g, b // g
        d[ri][ci], d[rj][cj] = g, a * be
        return s, t, al, be


class _Transforms(_Elimination):
    """D and the four transforms of one SNF, as sparse rows: U, V^T,
    U_inv^T and V_inv, each updated by every operation on D."""

    def __init__(self, a, nrows, ncols):
        super().__init__(a, nrows, ncols)
        self.u = _identity(nrows)
        self.uinvt = _identity(nrows)
        self.vt = _identity(ncols)
        self.vinv = _identity(ncols)

    def row_axpy(self, i, t, c):
        """Row i += c * row t; U_inv column t -= c * column i."""
        super().row_axpy(i, t, c)
        _axpy(self.u[i], self.u[t], c)
        _axpy(self.uinvt[t], self.uinvt[i], -c)

    def col_axpy_on_pivot_row(self, r, j, t, c):
        """Column j += c * column t, where row r holds column t's only
        nonzero; V_inv row t -= c * row j."""
        super().col_axpy_on_pivot_row(r, j, t, c)
        _axpy(self.vt[j], self.vt[t], c)
        _axpy(self.vinv[t], self.vinv[j], -c)

    def negate_row(self, r):
        """Row r of D and U, and column r of U_inv, negated."""
        for row in (self.d[r], self.u[r], self.uinvt[r]):
            _negate(row)

    def gcd_step(self, ri, ci, rj, cj):
        """The step on D, with rows by [[s, t], [-b/g, a/g]] and columns
        by [[1, -t b/g], [1, s a/g]].  Both have determinant 1; U_inv and
        V_inv take their inverses."""
        s, t, al, be = super().gcd_step(ri, ci, rj, cj)
        _mix(self.u, ri, rj, s, t, -be, al)
        _mix(self.uinvt, ri, rj, al, be, -t, s)
        _mix(self.vt, ci, cj, 1, 1, -t * be, s * al)
        _mix(self.vinv, ci, cj, s * al, t * be, -1, 1)

    def dense(self, pivots):
        """The dense (u, d, v, uinv, vinv), rows and columns ordered with
        the pivots first, in the given order, and the rest ascending."""
        nrows, ncols = self.nrows, self.ncols
        row_order = [r for r, _ in pivots]
        col_order = [c for _, c in pivots]
        pivot_rows, pivot_cols = set(row_order), set(col_order)
        row_order += [i for i in range(nrows) if i not in pivot_rows]
        col_order += [j for j in range(ncols) if j not in pivot_cols]
        col_pos = {c: k for k, c in enumerate(col_order)}
        d = [_dense({col_pos[j]: x for j, x in self.d[i].items()}, ncols)
             for i in row_order]
        return ([_dense(self.u[i], nrows) for i in row_order], d,
                _dense_columns(self.vt, col_order, ncols),
                _dense_columns(self.uinvt, row_order, nrows),
                [_dense(self.vinv[j], ncols) for j in col_order])


def _mix(rows, i, j, a, b, c, e):
    """(row i, row j) <- (a row i + b row j, c row i + e row j)."""
    ri, rj = rows[i], rows[j]
    rows[i], rows[j] = _combine(ri, a, rj, b), _combine(ri, c, rj, e)


def _combine(x, a, y, b):
    out = {}
    for row, c in ((x, a), (y, b)):
        if c:
            _axpy(out, row, c)
    return out


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s a + t b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _dense(row, n):
    out = [0] * n
    for k, x in row.items():
        out[k] = x
    return out


def _dense_columns(rows, order, n):
    """The n x len(order) matrix whose column k is rows[order[k]]."""
    out = [[0] * len(order) for _ in range(n)]
    for k, j in enumerate(order):
        for i, x in rows[j].items():
            out[i][k] = x
    return out
