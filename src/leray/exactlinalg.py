"""Exact integer matrix algebra.

Everything downstream (simplicial cohomology, local systems, spectral
pages) reduces to Smith normal form computations on arbitrary-precision
integer matrices.  Intermediate SNF entries can grow far beyond machine
words, so plain Python ints are mandatory throughout; there is no float
anywhere in this module.

The main objects:

* :class:`IntMatrix` -- immutable dense integer matrix.
* :class:`SmithDecomposition` -- U @ A @ V = D with U, V unimodular.
* :class:`FgAbGroup` -- canonical form Z^r (+) Z/t1 (+) ... with the
  torsion coefficients >= 2 and divisibility-sorted, so group equality
  is structural comparison.
* :class:`Subquotient` -- a group Z/B presented inside an ambient free
  module, carrying lift/project maps so later differentials can be
  evaluated on actual representatives.
"""

from __future__ import annotations

from itertools import combinations, compress
from math import gcd
from operator import mul

from ._kernel import invariant_factors as _kernel_invariant_factors
from ._kernel import smith_with_transforms


class IntMatrix:
    """Immutable integer matrix, row-major.

    >>> IntMatrix([[1, 2], [3, 4]]) * IntMatrix.identity(2)
    IntMatrix([[1, 2], [3, 4]])
    """

    __slots__ = ("_nrows", "_ncols", "_data")

    def __init__(self, rows, shape=None):
        data = tuple(tuple(x for x in row) for row in rows)
        if shape is not None:
            nrows, ncols = shape
            if len(data) not in (0, nrows):
                raise ValueError("row count disagrees with shape")
            if len(data) == 0:
                data = tuple(() for _ in range(nrows)) if ncols == 0 else data
                if ncols != 0 and nrows != 0:
                    raise ValueError("missing entries for nonempty shape")
        else:
            nrows = len(data)
            ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError("entries must be int, got %r" % (x,))
        self._nrows = nrows
        self._ncols = ncols
        self._data = data

    @classmethod
    def _trusted(cls, rows, nrows, ncols):
        """Matrix from rows of ints the package computed itself.

        ``rows`` must hold ``nrows`` int sequences of length ``ncols``;
        nothing is checked.  Input from outside the package goes through
        the validating public constructor instead, so the entries of
        every matrix are checked once, where they enter.
        """
        m = object.__new__(cls)
        m._nrows = nrows
        m._ncols = ncols
        m._data = tuple(map(tuple, rows))
        return m

    @classmethod
    def identity(cls, n):
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        return cls._trusted(rows, n, n)

    @classmethod
    def zeros(cls, nrows, ncols):
        row = (0,) * ncols
        return cls._trusted((row,) * nrows, nrows, ncols)

    @classmethod
    def from_columns(cls, columns, nrows=None):
        cols = [tuple(c) for c in columns]
        if nrows is None:
            if not cols:
                raise ValueError("need nrows for an empty column list")
            nrows = len(cols[0])
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column length mismatch")
        return cls([[c[i] for c in cols] for i in range(nrows)],
                   shape=(nrows, len(cols)))

    @property
    def nrows(self):
        return self._nrows

    @property
    def ncols(self):
        return self._ncols

    @property
    def shape(self):
        return (self._nrows, self._ncols)

    @property
    def entries(self):
        """Row-major flat tuple of all entries."""
        return tuple(x for row in self._data for x in row)

    def rows(self):
        return self._data

    def column(self, j):
        return tuple(row[j] for row in self._data)

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self):
        return hash((self._nrows, self._ncols, self._data))

    def __repr__(self):
        if self._nrows * self._ncols == 0:
            return "IntMatrix.zeros(%d, %d)" % self.shape
        return "IntMatrix(%s)" % ([list(r) for r in self._data],)

    def __neg__(self):
        return IntMatrix._trusted(
            [[-x for x in row] for row in self._data], *self.shape)

    def __add__(self, other):
        self._check_same_shape(other)
        return IntMatrix._trusted(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self._data, other._data)], *self.shape)

    def __sub__(self, other):
        self._check_same_shape(other)
        return IntMatrix._trusted(
            [[a - b for a, b in zip(ra, rb)]
             for ra, rb in zip(self._data, other._data)], *self.shape)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._trusted(
                [[other * x for x in row] for row in self._data], *self.shape)
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self._ncols != other._nrows:
            raise ValueError("shape mismatch: %s * %s" % (self.shape, other.shape))
        # Row i of the product is the sum of a_ik * (row k of B) over the
        # nonzero a_ik, each row of B restricted to its nonzeros.  Integer
        # sums are exact, so the order of accumulation cannot change them.
        ncols = other._ncols
        columns = range(ncols)
        nonzeros = [list(zip(compress(columns, row), filter(None, row)))
                    for row in other._data]
        positions = range(self._ncols)
        out = []
        for row in self._data:
            acc = [0] * ncols
            for k in compress(positions, row):
                a = row[k]
                for j, b in nonzeros[k]:
                    acc[j] += a * b
            out.append(acc)
        return IntMatrix._trusted(out, self._nrows, ncols)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def apply(self, vector):
        """Matrix times column vector (tuple in, tuple out).

        Sums x_k times column k over the nonzero x_k only: the
        coordinate vectors ``Subquotient.lift`` passes hold a handful of
        nonzeros.
        """
        if len(vector) != self._ncols:
            raise ValueError("vector length mismatch")
        out = (0,) * self._nrows
        for k in compress(range(self._ncols), vector):
            x = vector[k]
            out = [s + row[k] * x for s, row in zip(out, self._data)]
        return tuple(out)

    def transpose(self):
        return IntMatrix._trusted(list(zip(*self._data)) or
                                  [()] * self._ncols,
                                  self._ncols, self._nrows)

    def hstack(self, other):
        if self._nrows != other._nrows:
            raise ValueError("row count mismatch")
        return IntMatrix._trusted(
            [ra + rb for ra, rb in zip(self._data, other._data)],
            self._nrows, self._ncols + other._ncols)

    def vstack(self, other):
        if self._ncols != other._ncols:
            raise ValueError("column count mismatch")
        return IntMatrix._trusted(self._data + other._data,
                                  self._nrows + other._nrows, self._ncols)

    def submatrix_columns(self, indices):
        indices = list(indices)
        return IntMatrix._trusted(
            [[row[j] for j in indices] for row in self._data],
            self._nrows, len(indices))

    def is_zero(self):
        return not any(map(any, self._data))

    def is_identity(self):
        return (self._nrows == self._ncols
                and all(self._data[i][j] == (1 if i == j else 0)
                        for i in range(self._nrows)
                        for j in range(self._ncols)))

    def inverse_unimodular(self):
        """Exact inverse of a unimodular matrix, by fraction-free
        Gauss-Jordan elimination on [A | I] (Bareiss, Math. Comp. 22,
        1968), with no SNF.

        Step k takes the first nonzero entry at or below the diagonal of
        column k as the pivot a, in row r, and replaces every other row
        x by (a x - x_k r) / a', with x_k the entry of x in column k and
        a' the pivot before (1 at first).  Every entry is then a minor
        of [A | I], so the division is exact.  The row
        operations T bring A to d I, d = +-det A the last pivot, so the
        right block is T = d A^-1, and A is unimodular exactly when
        d = +-1.  The result is checked by A A^-1 = I, explicitly, so
        ``python -O`` keeps the check.

        >>> IntMatrix([[2, 1], [1, 1]]).inverse_unimodular()
        IntMatrix([[1, -1], [-1, 2]])
        """
        n = self._nrows
        if n != self._ncols:
            raise ValueError("matrix is not unimodular")
        rows = [[*row, *(int(i == j) for j in range(n))]
                for i, row in enumerate(self._data)]
        last = 1
        for k in range(n):
            p = next((i for i in range(k, n) if rows[i][k]), None)
            if p is None:
                raise ValueError("matrix is not unimodular")
            rows[k], rows[p] = rows[p], rows[k]
            pivot_row = rows[k]
            a = pivot_row[k]
            for i, row in enumerate(rows):
                c = row[k]
                if i != k and (c or a != last):
                    rows[i] = [(a * x - c * y) // last
                               for x, y in zip(row, pivot_row)]
            last = a
        if last not in (1, -1):
            raise ValueError("matrix is not unimodular")
        inverse = IntMatrix._trusted([[last * x for x in row[n:]]
                                      for row in rows], n, n)
        if not (self * inverse).is_identity():
            raise AssertionError("inverse_unimodular: A A^-1 is not I")
        return inverse

    def power(self, n):
        """Integer power; negative exponents via the unimodular inverse."""
        if self._nrows != self._ncols:
            raise ValueError("power of a non-square matrix")
        base = self if n >= 0 else self.inverse_unimodular()
        k = abs(n)
        result = IntMatrix.identity(self._nrows)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s" % (self.shape, other.shape))


def action_inverses(mats, rank):
    """The exact inverses of ``mats``, once they are checked to define
    an action of Z^n on Z^rank: each is rank x rank and unimodular, and
    they commute pairwise.  Both ``from_monodromy`` and ``ZnModule``
    check their matrices here; a violation raises ValueError naming the
    first offending matrix or pair.

    >>> action_inverses([IntMatrix([[1, 2], [0, 1]])], 2)
    (IntMatrix([[1, -2], [0, 1]]),)
    """
    inverses = []
    for i, m in enumerate(mats):
        if m.shape != (rank, rank):
            raise ValueError("matrix %d shape mismatch: expected %d x %d"
                             % (i, rank, rank))
        try:
            inverses.append(m.inverse_unimodular())
        except ValueError:
            raise ValueError("matrix %d is not unimodular" % i) from None
    for i, j in combinations(range(len(mats)), 2):
        if mats[i] * mats[j] != mats[j] * mats[i]:
            raise ValueError("non-commuting matrices: %d and %d do not "
                             "commute" % (i, j))
    return tuple(inverses)


class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    D is rebuilt from ``diagonal`` on demand.  V's inverse is kept, as
    it decomposes the kernel basis (``kernel_decomposition``).  Two
    decompositions are equal when their five parts are.
    """

    __slots__ = ("U", "V", "diagonal", "U_inv", "V_inv")

    def __init__(self, U, V, diagonal, U_inv, V_inv):
        self.U = U
        self.V = V
        self.diagonal = diagonal
        self.U_inv = U_inv
        self.V_inv = V_inv

    def __eq__(self, other):
        if not isinstance(other, SmithDecomposition):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    @classmethod
    def identity(cls, n):
        """I_n's decomposition without an SNF: the kernel's is all I_n."""
        ident = IntMatrix.identity(n)
        return cls(ident, ident, (1,) * n, ident, ident)

    @property
    def rank(self):
        return len(self.diagonal)

    @property
    def D(self):
        nrows, ncols = self.U.nrows, self.V.nrows
        rows = [[0] * ncols for _ in range(nrows)]
        for i, x in enumerate(self.diagonal):
            rows[i][i] = x
        return IntMatrix._trusted(rows, nrows, ncols)

    def basis_coordinates(self, b: IntMatrix):
        """The unique coordinates of the columns of ``b`` in the basis
        zb = U_inv[:, :r] diag(d) of the column span of A, as an r x k
        matrix, or None if some column is not in that span.

        As U zb = [diag(d); 0], they are the rows of the one product
        U b divided by d_i, when (U b)[r:] = 0 and every division is
        exact.

        >>> dec = smith_normal_form(IntMatrix([[2], [0]]))
        >>> dec.basis_coordinates(IntMatrix([[4, -2], [0, 0]]))
        IntMatrix([[2, -1]])
        >>> dec.basis_coordinates(IntMatrix([[1], [0]])) is None
        True
        """
        y = (self.U * b).rows()
        r = self.rank
        if any(map(any, y[r:])):
            return None
        rows = []
        for row, d in zip(y, self.diagonal):
            if d != 1:
                if any(x % d for x in row):
                    return None
                row = [x // d for x in row]
            rows.append(row)
        return IntMatrix._trusted(rows, r, b.ncols)

    def kernel_decomposition(self) -> "SmithDecomposition":
        """A decomposition of K = V[:, r:], the basis ``kernel`` returns,
        made without an SNF: V^-1 K = [0; I], so with P moving the last
        n - r rows first, (P V^-1) K I = [I; 0].  U_inv = V P^-1 starts
        with K, so the basis zb of ``basis_coordinates`` is K itself.
        """
        r, n = self.rank, self.V.nrows
        order = [*range(r, n), *range(r)]
        ident = IntMatrix.identity(n - r)
        return SmithDecomposition(
            U=IntMatrix._trusted([self.V_inv.rows()[i] for i in order], n, n),
            V=ident, diagonal=(1,) * (n - r),
            U_inv=self.V.submatrix_columns(order), V_inv=ident)


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    The shape of D is checked on every kernel call: diagonal, then
    non-negative, a divisibility chain with zeros last (``_chain``).
    A violation raises AssertionError (explicitly, so ``python -O`` keeps
    the check); ``solve`` and ``Subquotient.project`` would otherwise
    return wrong coordinates without any error.  The check also proves
    that the ``D`` rebuilt from the diagonal equals the kernel's.

    A zero matrix, and so one without entries, never reaches the kernel:
    its transforms are the identities the kernel would return, so H^0's
    relations and a zero coboundary cost no SNF.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    r, c = a.shape
    if a.is_zero():
        u, v = IntMatrix.identity(r), IntMatrix.identity(c)
        return SmithDecomposition(U=u, V=v, diagonal=(), U_inv=u, V_inv=v)
    u, d, v, uinv, vinv = smith_with_transforms(a.rows(), r, c)
    for i, row in enumerate(d):
        x = row[i] if i < c else 0
        if row.count(0) != c - (x != 0):
            raise AssertionError("SNF postcondition: D is not diagonal "
                                 "in row %d" % i)
    diag = [d[i][i] for i in range(min(r, c))]
    while diag and not diag[-1]:
        diag.pop()
    return SmithDecomposition(
        U=IntMatrix._trusted(u, r, r),
        V=IntMatrix._trusted(v, c, c),
        diagonal=_chain(diag, min(r, c)),
        U_inv=IntMatrix._trusted(uinv, r, r),
        V_inv=IntMatrix._trusted(vinv, c, c),
    )


def invariant_factors(a: IntMatrix) -> tuple:
    """The nonzero invariant factors d_1 | d_2 | ... of A, which are
    ``smith_normal_form(a).diagonal``, from the kernel's eliminations on
    A alone: no transform is made.  Their count is the rank of A, and
    those >= 2 are the torsion of coker A.

    The result of every kernel call is checked as ``smith_normal_form``
    checks D's diagonal, and a zero matrix never reaches the kernel.

    >>> invariant_factors(IntMatrix([[2, 4], [6, 8]]))
    (2, 4)
    """
    if a.is_zero():
        return ()
    r, c = a.shape
    return _chain(_kernel_invariant_factors(a.rows(), r, c), min(r, c))


def _chain(diag, limit):
    """``diag`` as a tuple, once checked to be the nonzero diagonal of
    a Smith form with at most ``limit`` entries: positive, each dividing
    the next.  A violation raises AssertionError, explicitly, so
    ``python -O`` keeps the check."""
    for i, x in enumerate(diag):
        if x < 1 or i >= limit or (i and x % diag[i - 1]):
            raise AssertionError(
                "SNF postcondition: D[%d][%d] = %d breaks the "
                "non-negative divisibility chain" % (i, i, x))
    return tuple(diag)


def kernel(a: IntMatrix) -> IntMatrix:
    """Primitive basis of ker(A) as columns (a saturated sublattice).

    The basis columns are the trailing columns of the SNF transform V,
    hence extend to a basis of the whole domain: the kernel is returned
    as a direct summand, which is what lift/project maps need.
    """
    dec = smith_normal_form(a)
    return dec.V.submatrix_columns(range(dec.rank, a.ncols))


def solve(a: IntMatrix, b: IntMatrix):
    """Integer solution X of A X = B, or None when none exists.

    With U A V = D of rank r, A V = U_inv D: A V[:, :r] is the basis zb
    of ``basis_coordinates`` and A V[:, r:] = 0, so x = V[:, :r] c
    solves A x = b for the zb-coordinates c of b.
    """
    dec = smith_normal_form(a)
    c = dec.basis_coordinates(b)
    if c is None:
        return None
    return dec.V.submatrix_columns(range(dec.rank)) * c


def _scaled_columns(m: IntMatrix, diagonal) -> IntMatrix:
    """The first len(diagonal) columns of m, column i times diagonal[i]."""
    return IntMatrix._trusted(
        [list(map(mul, diagonal, row)) for row in m.rows()],
        m.nrows, len(diagonal))


def preimage_lattice(m: IntMatrix, lat: IntMatrix) -> IntMatrix:
    """Generators of {x : M x in columnspan(lat)}.

    ``lat`` columns live in the codomain of M.  The result is the top
    block of a basis of ker [M | lat]: x is in the preimage exactly when
    M x = lat y for some y, so the columns generate the full preimage
    sublattice of the domain (not merely a finite-index subgroup of it).
    When ``lat`` has independent columns, y is determined by x, so
    dropping the bottom block is injective on the kernel and maps its
    basis to a basis of the preimage.
    """
    if m.nrows != lat.nrows:
        raise ValueError("codomain mismatch")
    ker = kernel(m.hstack(lat))
    return IntMatrix._trusted(ker.rows()[:m.ncols], m.ncols, ker.ncols)


class FgAbGroup:
    """Finitely generated abelian group in canonical form.

    ``torsion`` entries are >= 2 and divisibility-sorted, so two values
    compare equal, and hash alike, exactly when the groups are
    isomorphic.

    >>> FgAbGroup(1, (2,)).render()
    'Z (+) Z/2'
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion):
        for i, t in enumerate(torsion):
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and t % torsion[i - 1]:
                raise ValueError("torsion must form a divisibility chain")
        self.free_rank = free_rank
        self.torsion = torsion

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return (self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return "FgAbGroup(free_rank=%r, torsion=%r)" % (self.free_rank,
                                                         self.torsion)

    @property
    def ngens(self):
        return self.free_rank + len(self.torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def torsion_order(self):
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def render(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " (+) ".join(parts) if parts else "0"

    def __str__(self):
        return self.render()


def group_from_divisors(divisors):
    """FgAbGroup from arbitrary cyclic orders (0 = infinite, 1 = trivial).

    >>> group_from_divisors([0, 6, 4]).render()
    'Z (+) Z/2 (+) Z/12'
    """
    free = sum(1 for d in divisors if d == 0)
    torsion = sorted(abs(d) for d in divisors if abs(d) >= 2)
    # Merge into a divisibility chain via repeated gcd/lcm exchanges.
    changed = True
    while changed:
        changed = False
        for i in range(len(torsion) - 1):
            a, b = torsion[i], torsion[i + 1]
            if b % a:
                g = gcd(a, b)
                torsion[i], torsion[i + 1] = g, a * b // g
                changed = True
        torsion.sort()
    torsion = [t for t in torsion if t > 1]
    return FgAbGroup(free, tuple(torsion))


def element_order(group: FgAbGroup, coords):
    """Order of the element with the given canonical coordinates.

    Returns 0 for infinite order, matching the Z/0 = Z convention.
    """
    if len(coords) != group.ngens:
        raise ValueError("coordinate length mismatch")
    if any(coords[i] for i in range(group.free_rank)):
        return 0
    # lcm of t / gcd(t, c) over torsion coordinates
    n = 1
    for t, c in zip(group.torsion, coords[group.free_rank:]):
        o = t // gcd(t, c % t) if c % t else 1
        n = n * o // gcd(n, o)
    return n


class Subquotient:
    """A subquotient Z/B of an ambient free module Z^n.

    ``cycle_gens`` columns are a basis of Z, ``boundary_gens`` columns a
    basis of B, with B contained in Z.  The quotient is presented in
    canonical form with generator order (free part first, then torsion
    ascending), and ``lift``/``project`` translate between canonical
    coordinates and ambient vectors.

    It is built from two Smith decompositions and makes none itself.
    ``cycles``, of a matrix whose columns span Z, gives the basis zb of
    Z and coordinates in it (``basis_coordinates``); ``relations`` is
    that of the zb-coordinates y of generators of B.  With U' y V' = D'
    of rank s and g = zb U'_inv, B = zb span(y) has the basis
    g[:, :s] diag(d'), the columns of g with d'_i = 0 or >= 2 lift the
    free and torsion generators, and U' maps zb-coordinates to
    canonical ones.
    """

    def __init__(self, cycles: SmithDecomposition,
                 relations: SmithDecomposition):
        self.ambient_rank = cycles.U.nrows
        self._cycles = cycles
        zb = _scaled_columns(cycles.U_inv, cycles.diagonal)
        self._gen_change = relations.U  # presentation coords = U' @ (Z-coords)
        diag, s = relations.diagonal, relations.rank
        self._free_idx = list(range(s, zb.ncols))
        self._torsion_idx = [i for i in range(s) if diag[i] >= 2]
        self.quotient = FgAbGroup(len(self._free_idx),
                                  tuple(diag[i] for i in self._torsion_idx))
        g = zb * relations.U_inv
        self.cycle_gens = zb
        self.boundary_gens = _scaled_columns(g, diag)
        # columns: ambient representatives of the canonical generators
        self.lift_matrix = g.submatrix_columns(self._free_idx +
                                               self._torsion_idx)

    def lift(self, coords):
        """Ambient representative of the element with canonical coordinates."""
        if len(coords) != self.quotient.ngens:
            raise ValueError("coordinate length mismatch")
        return self.lift_matrix.apply(tuple(coords))

    def project(self, vector):
        """Canonical coordinates of the class of an ambient vector in Z."""
        rows = [(x,) for x in vector]
        return self.project_matrix(
            IntMatrix._trusted(rows, len(rows), 1)).column(0)

    def project_matrix(self, mat: IntMatrix) -> IntMatrix:
        """Columnwise project: ambient columns to canonical coordinates."""
        c = self._cycles.basis_coordinates(mat)
        if c is None:
            raise ValueError("column not contained in the cycle span")
        return self._canonical(self._gen_change * c)

    def _canonical(self, w: IntMatrix) -> IntMatrix:
        """Canonical coordinates from presentation coordinates U' c: the
        free rows, then the torsion rows reduced mod their orders.

        The zb-coordinates of ``cycle_gens`` are the identity, so
        ``_canonical(_gen_change)`` is ``project_matrix(cycle_gens)``.
        """
        rows = [w.rows()[i] for i in self._free_idx]
        rows += [[x % t for x in w.rows()[i]]
                 for t, i in zip(self.quotient.torsion, self._torsion_idx)]
        return IntMatrix._trusted(rows, self.quotient.ngens, w.ncols)

    def __repr__(self):
        return "Subquotient(ambient=%d, quotient=%s)" % (
            self.ambient_rank, self.quotient.render())


def relations(cycles: SmithDecomposition,
              boundaries: IntMatrix) -> SmithDecomposition:
    """The relations a Subquotient takes: the decomposition, by one SNF,
    of the coordinates of ``boundaries`` in the basis zb of ``cycles``."""
    coords = cycles.basis_coordinates(boundaries)
    if coords is None:
        raise ValueError("boundary not contained in cycles")
    return smith_normal_form(coords)

