"""Exact integer matrix algebra.

Everything downstream (simplicial cohomology, local systems, spectral
pages) reduces to Smith normal form computations on arbitrary-precision
integer matrices.  Intermediate SNF entries can grow far beyond machine
words, so plain Python ints are mandatory throughout; there is no float
anywhere in this module.

The main objects:

* :class:`IntMatrix` -- immutable integer matrix, held as its nonzero
  rows, the form the SNF kernel eliminates on.
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

from ._kernel import _axpy
from ._kernel import invariant_factors as _kernel_invariant_factors
from ._kernel import smith_with_transforms as _kernel_smith_with_transforms


class IntMatrix:
    """Immutable integer matrix, held as its nonzero rows: one
    ``{column: value}`` dict per row, with no zero value
    (``nonzero_rows()``).  Every operation works on those rows, so a
    sparse matrix costs its nonzeros.  ``rows()`` makes the dense rows
    afresh on each read, for ``repr``, hashing, ``inverse_unimodular``
    and readers outside the package.

    >>> IntMatrix([[1, 2], [3, 4]]) * IntMatrix.identity(2)
    IntMatrix([[1, 2], [3, 4]])
    """

    __slots__ = ("_nrows", "_ncols", "_rows")

    def __init__(self, rows, shape=None):
        data = [tuple(row) for row in rows]
        if shape is not None:
            nrows, ncols = shape
            if len(data) not in (0, nrows):
                raise ValueError("row count disagrees with shape")
            if not data:
                if ncols != 0 and nrows != 0:
                    raise ValueError("missing entries for nonempty shape")
                data = [()] * nrows
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
        self._rows = tuple(_nonzero_rows(data, ncols))

    @classmethod
    def _trusted(cls, rows, nrows, ncols):
        """Matrix from its nonzero rows, as the package computed them:
        ``nrows`` dicts ``{column: value}``, with columns in
        ``range(ncols)`` and no zero value.  Nothing is checked, and the
        dicts are kept, so their maker must not change them after.
        Input from outside the package goes through the validating
        public constructor instead, so the entries of every matrix are
        checked once, where they enter."""
        m = object.__new__(cls)
        m._nrows = nrows
        m._ncols = ncols
        m._rows = tuple(rows)
        return m

    @classmethod
    def identity(cls, n):
        return cls._trusted([{i: 1} for i in range(n)], n, n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._trusted([{} for _ in range(nrows)], nrows, ncols)

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
        return tuple(x for row in self.rows() for x in row)

    def rows(self):
        """The dense rows, a tuple of int tuples, made on each read."""
        columns = range(self._ncols)
        return tuple(tuple(row.get(j, 0) for j in columns)
                     for row in self._rows)

    def nonzero_rows(self):
        """The rows as ``{column: value}`` dicts of their nonzero
        entries: the matrix itself, and the input of the kernel's
        ``invariant_factors``.  A reader must not change them."""
        return self._rows

    def column(self, j):
        return tuple(row.get(j, 0) for row in self._rows)

    def __getitem__(self, key):
        i, j = key
        return self._rows[i].get(range(self._ncols)[j], 0)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self._nrows, self._ncols, self.rows()))

    def __repr__(self):
        if self._nrows * self._ncols == 0:
            return "IntMatrix.zeros(%d, %d)" % self.shape
        return "IntMatrix(%s)" % ([list(r) for r in self.rows()],)

    def __neg__(self):
        return self * -1

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def _add(self, other, c):
        """self + c * other."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %s vs %s"
                             % (self.shape, other.shape))
        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            _axpy(row, rb, c)
            out.append(row)
        return IntMatrix._trusted(out, *self.shape)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._trusted(
                [{j: other * x for j, x in row.items()} if other else {}
                 for row in self._rows], *self.shape)
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self._ncols != other._nrows:
            raise ValueError("shape mismatch: %s * %s" % (self.shape, other.shape))
        # Row i of the product is the sum of a_ik * (row k of B) over the
        # nonzero a_ik.  Integer sums are exact, so the order of
        # accumulation cannot change them.
        right = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in right[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: x for j, x in acc.items() if x})
        return IntMatrix._trusted(out, self._nrows, other._ncols)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def apply(self, vector):
        """Matrix times column vector (tuple in, tuple out), over the
        nonzeros of each row."""
        if len(vector) != self._ncols:
            raise ValueError("vector length mismatch")
        return tuple(sum(x * vector[j] for j, x in row.items())
                     for row in self._rows)

    def transpose(self):
        out = [{} for _ in range(self._ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                out[j][i] = x
        return IntMatrix._trusted(out, self._ncols, self._nrows)

    def hstack(self, other):
        if self._nrows != other._nrows:
            raise ValueError("row count mismatch")
        n = self._ncols
        return IntMatrix._trusted(
            [{**ra, **{n + j: x for j, x in rb.items()}}
             for ra, rb in zip(self._rows, other._rows)],
            self._nrows, n + other._ncols)

    def vstack(self, other):
        if self._ncols != other._ncols:
            raise ValueError("column count mismatch")
        return IntMatrix._trusted(self._rows + other._rows,
                                  self._nrows + other._nrows, self._ncols)

    def submatrix_columns(self, indices):
        """The columns at ``indices``, which must be distinct, in their
        order."""
        indices = list(indices)
        position = {j: k for k, j in enumerate(indices)}
        if len(position) != len(indices):
            raise ValueError("repeated column index")
        return IntMatrix._trusted(
            [{position[j]: x for j, x in row.items() if j in position}
             for row in self._rows], self._nrows, len(position))

    def is_zero(self):
        return not any(self._rows)

    def is_identity(self):
        return (self._nrows == self._ncols
                and all(len(row) == 1 and row.get(i) == 1
                        for i, row in enumerate(self._rows)))

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
                for i, row in enumerate(self.rows())]
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
        inverse = IntMatrix._trusted(
            _nonzero_rows([[last * x for x in row[n:]] for row in rows], n),
            n, n)
        if not (self * inverse).is_identity():
            raise AssertionError("inverse_unimodular: A A^-1 is not I")
        return inverse

    def power(self, n):
        """Integer power; negative exponents via the unimodular inverse.
        By repeated squaring, with no product by the identity and no
        square after the last bit."""
        if self._nrows != self._ncols:
            raise ValueError("power of a non-square matrix")
        base = self if n >= 0 else self.inverse_unimodular()
        k = abs(n)
        if not k:
            return IntMatrix.identity(self._nrows)
        result = None
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base


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

    A transform is an IntMatrix or, from ``smith_normal_form``, the
    kernel's square list of dense rows, made an IntMatrix on its first
    read: a transform that no reader asks for is never converted.
    """

    __slots__ = ("diagonal", "_transforms")

    def __init__(self, U, V, diagonal, U_inv, V_inv):
        self.diagonal = diagonal
        self._transforms = [U, V, U_inv, V_inv]

    def _transform(k):
        def read(self):
            t = self._transforms[k]
            if type(t) is list:
                n = len(t)
                t = self._transforms[k] = IntMatrix._trusted(
                    _nonzero_rows(t, n), n, n)
            return t
        return property(read)

    U, V, U_inv, V_inv = map(_transform, range(4))
    del _transform

    def __eq__(self, other):
        if not isinstance(other, SmithDecomposition):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in ("diagonal", "U", "V", "U_inv", "V_inv"))

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
        rows = [{i: x} for i, x in enumerate(self.diagonal)]
        rows += [{} for _ in range(nrows - len(rows))]
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
        y = (self.U * b).nonzero_rows()
        r = self.rank
        if any(y[r:]):
            return None
        rows = []
        for row, d in zip(y, self.diagonal):
            if d != 1:
                if any(x % d for x in row.values()):
                    return None
                row = {j: x // d for j, x in row.items()}
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
        v_inv = self.V_inv.nonzero_rows()
        return SmithDecomposition(
            U=IntMatrix._trusted([v_inv[i] for i in order], n, n),
            V=ident, diagonal=(1,) * (n - r),
            U_inv=self.V.submatrix_columns(order), V_inv=ident)


def _nonzero_rows(rows, ncols):
    """``{column: value}`` dicts of the nonzero entries of dense rows."""
    columns = range(ncols)
    return [dict(zip(compress(columns, row), filter(None, row)))
            for row in rows]


def smith_with_transforms(a, nrows, ncols):
    """The kernel's ``smith_with_transforms`` on the dense rows ``a``.

    Every SNF with transforms goes through this name, with dense rows in
    and the kernel's dense 5-tuple out, so that a profiler can wrap it
    and certify each result against its input, as
    ``perfbench/tracing.py`` does.  With ``smith_normal_form``, it is
    the one place where a matrix is converted to or from dense rows."""
    return _kernel_smith_with_transforms(_nonzero_rows(a, ncols), nrows,
                                         ncols)


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
    relations and a zero coboundary cost no SNF.  The kernel's dense
    transforms are kept as they come and made IntMatrix on first read
    (``SmithDecomposition``).

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
    return SmithDecomposition(U=u, V=v, diagonal=_chain(diag, min(r, c)),
                              U_inv=uinv, V_inv=vinv)


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
    return _chain(_kernel_invariant_factors(a.nonzero_rows(), r, c),
                  min(r, c))


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
    s = len(diagonal)
    return IntMatrix._trusted(
        [{j: x * diagonal[j] for j, x in row.items() if j < s}
         for row in m.nonzero_rows()], m.nrows, s)


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
    return IntMatrix._trusted(ker.nonzero_rows()[:m.ncols], m.ncols,
                              ker.ncols)


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
        self.cycles = cycles  # the decomposition Z is presented by
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
        rows = [{0: x} if x else {} for x in vector]
        return self.project_matrix(
            IntMatrix._trusted(rows, len(rows), 1)).column(0)

    def project_matrix(self, mat: IntMatrix) -> IntMatrix:
        """Columnwise project: ambient columns to canonical coordinates."""
        c = self.cycles.basis_coordinates(mat)
        if c is None:
            raise ValueError("column not contained in the cycle span")
        return self._canonical(self._gen_change * c)

    @property
    def cycle_coordinates(self) -> IntMatrix:
        """The canonical coordinates of the cycle basis ``cycle_gens``,
        column by column: ``project_matrix(cycle_gens)``, read off the
        relations' transform with nothing solved."""
        return self._canonical(self._gen_change)

    def _canonical(self, w: IntMatrix) -> IntMatrix:
        """Canonical coordinates from presentation coordinates U' c: the
        free rows, then the torsion rows reduced mod their orders.

        The zb-coordinates of ``cycle_gens`` are the identity, so
        ``_canonical(_gen_change)`` is ``project_matrix(cycle_gens)``.
        """
        w_rows = w.nonzero_rows()
        rows = [w_rows[i] for i in self._free_idx]
        rows += [{j: x % t for j, x in w_rows[i].items() if x % t}
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

