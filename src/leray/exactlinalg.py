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

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import mul

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
        nonzeros = [[(j, b) for j, b in enumerate(row) if b]
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

        Sums x_k times column k over the nonzero x_k only: the vectors
        the solvers pass hold a handful of nonzeros.
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
        return all(x == 0 for row in self._data for x in row)

    def is_identity(self):
        return (self._nrows == self._ncols
                and all(self._data[i][j] == (1 if i == j else 0)
                        for i in range(self._nrows)
                        for j in range(self._ncols)))

    def inverse_unimodular(self):
        """Exact inverse of a unimodular matrix."""
        dec = smith_normal_form(self)
        if self._nrows != self._ncols or len(dec.diagonal) != self._nrows \
                or any(d != 1 for d in dec.diagonal):
            raise ValueError("matrix is not unimodular")
        # U A V = I  =>  A^{-1} = V U
        return dec.V * dec.U

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


def hstack_all(matrices, nrows=None):
    """Horizontal concatenation of a list of matrices (empty list allowed)."""
    mats = list(matrices)
    if not mats:
        if nrows is None:
            raise ValueError("need nrows for an empty stack")
        return IntMatrix.zeros(nrows, 0)
    out = mats[0]
    for m in mats[1:]:
        out = out.hstack(m)
    return out


def vstack_all(matrices, ncols=None):
    mats = list(matrices)
    if not mats:
        if ncols is None:
            raise ValueError("need ncols for an empty stack")
        return IntMatrix.zeros(0, ncols)
    out = mats[0]
    for m in mats[1:]:
        out = out.vstack(m)
    return out


def _from_columns(cols, nrows):
    """IntMatrix from column vectors the package computed itself."""
    if not cols:
        return IntMatrix.zeros(nrows, 0)
    return IntMatrix._trusted(zip(*cols), nrows, len(cols))


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    Only what callers read is kept: D is rebuilt from ``diagonal`` on
    demand, and V's inverse is not stored.
    """

    U: IntMatrix
    V: IntMatrix
    diagonal: tuple
    U_inv: IntMatrix

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

    def basis_coordinates(self, b):
        """The unique coordinates of ``b`` in the basis zb = U_inv[:, :r]
        diag(d) of the column span of A, or None if b is not in it: as
        U zb = [diag(d); 0], they are (U b)_i / d_i when (U b)[r:] = 0
        and every division is exact."""
        y = self.U.apply(tuple(b))
        r = self.rank
        if any(y[r:]):
            return None
        x = [0] * r
        for i in compress(range(r), y):
            x[i], rem = divmod(y[i], self.diagonal[i])
            if rem:
                return None
        return tuple(x)


# Input matrix -> its SmithDecomposition, while shared_smith_forms() is
# active; None otherwise.
_shared = None


@contextmanager
def shared_smith_forms():
    """Within the block, ``smith_normal_form`` decomposes each distinct
    input once and returns that decomposition for every equal input.

    The table lives as long as the block, so nothing is kept between
    blocks.  Outside any block every call reaches the kernel.

    >>> a = IntMatrix([[2, 4], [6, 8]])
    >>> with shared_smith_forms():
    ...     smith_normal_form(a) is smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    True
    >>> smith_normal_form(a) is smith_normal_form(a)
    False
    """
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    The shape of D is checked on every kernel call, in one pass over its
    rows: diagonal, non-negative, a divisibility chain with zeros last.
    A violation raises AssertionError (explicitly, so ``python -O`` keeps
    the check); ``solve`` and ``Subquotient.project`` would otherwise
    return wrong coordinates without any error.  The check also proves
    that the ``D`` rebuilt from the diagonal equals the kernel's.

    Inside ``shared_smith_forms()`` an input equal to one already
    decomposed gets the same decomposition back.

    >>> smith_normal_form(IntMatrix([[2, 4], [6, 8]])).diagonal
    (2, 4)
    """
    if _shared is None:
        return _decompose(a)
    dec = _shared.get(a)
    if dec is None:
        dec = _shared[a] = _decompose(a)
    return dec


def _decompose(a: IntMatrix) -> SmithDecomposition:
    r, c = a.shape
    u, d, v, uinv, _ = smith_with_transforms(a.rows(), r, c)
    diag = []
    for i, row in enumerate(d):
        x = row[i] if i < c else 0
        if row.count(0) != c - (x != 0):
            raise AssertionError("SNF postcondition: D is not diagonal "
                                 "in row %d" % i)
        if x:
            if x < 0 or len(diag) < i or (diag and x % diag[-1]):
                raise AssertionError(
                    "SNF postcondition: D[%d][%d] = %d breaks the "
                    "non-negative divisibility chain" % (i, i, x))
            diag.append(x)
    return SmithDecomposition(
        U=IntMatrix._trusted(u, r, r),
        V=IntMatrix._trusted(v, c, c),
        diagonal=tuple(diag),
        U_inv=IntMatrix._trusted(uinv, r, r),
    )


def rank(a: IntMatrix) -> int:
    return smith_normal_form(a).rank


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
    pad = (0,) * (a.ncols - dec.rank)
    cols = []
    for j in range(b.ncols):
        c = dec.basis_coordinates(b.column(j))
        if c is None:
            return None
        cols.append(dec.V.apply(c + pad))
    return _from_columns(cols, a.ncols)


def _scaled_columns(m: IntMatrix, diagonal) -> IntMatrix:
    """The first len(diagonal) columns of m, column i times diagonal[i]."""
    return IntMatrix._trusted(
        [list(map(mul, diagonal, row)) for row in m.rows()],
        m.nrows, len(diagonal))


def lattice_basis(gens: IntMatrix) -> IntMatrix:
    """A basis of the lattice spanned by the columns of ``gens``."""
    dec = smith_normal_form(gens)
    return _scaled_columns(dec.U_inv, dec.diagonal)


def preimage_lattice(m: IntMatrix, lat: IntMatrix) -> IntMatrix:
    """Generators of {x : M x in columnspan(lat)}.

    ``lat`` columns live in the codomain of M.  The result generates the
    full preimage sublattice of the domain (not merely a finite-index
    subgroup of it).
    """
    if m.nrows != lat.nrows:
        raise ValueError("codomain mismatch")
    block = m.hstack(lat)
    ker = kernel(block)
    top = IntMatrix._trusted(ker.rows()[:m.ncols], m.ncols, ker.ncols)
    return lattice_basis(top)


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in canonical form.

    ``torsion`` entries are >= 2 and divisibility-sorted, so two values
    compare equal exactly when the groups are isomorphic.

    >>> FgAbGroup(1, (2,)).render()
    'Z (+) Z/2'
    """

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("torsion must form a divisibility chain")

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

    def direct_sum(self, other):
        divisors = ([0] * (self.free_rank + other.free_rank)
                    + list(self.torsion) + list(other.torsion))
        return group_from_divisors(divisors)

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

    Two SNFs build it.  That of the cycle generators C gives the basis
    zb of Z and coordinates in it (``basis_coordinates``); those of the
    boundary generators form the relation matrix y.  With U' y V' = D'
    of rank s and g = zb U'_inv, B = zb span(y) has the basis
    g[:, :s] diag(d'), the columns of g with d'_i = 0 or >= 2 lift the
    free and torsion generators, and U' maps zb-coordinates to
    canonical ones.
    """

    def __init__(self, cycles: IntMatrix, boundaries: IntMatrix):
        if cycles.nrows != boundaries.nrows:
            raise ValueError("ambient rank mismatch")
        self.ambient_rank = cycles.nrows
        self._cycles = smith_normal_form(cycles)
        zb = _scaled_columns(self._cycles.U_inv, self._cycles.diagonal)
        coords = [self._cycles.basis_coordinates(boundaries.column(j))
                  for j in range(boundaries.ncols)]
        if None in coords:
            raise ValueError("boundary not contained in cycles")
        dec = smith_normal_form(_from_columns(coords, zb.ncols))
        self._gen_change = dec.U  # presentation coords = U @ (Z-coords)
        diag = dec.diagonal
        self._free_idx = list(range(dec.rank, zb.ncols))
        self._torsion_idx = [i for i in range(dec.rank) if diag[i] >= 2]
        self.quotient = FgAbGroup(len(self._free_idx),
                                  tuple(diag[i] for i in self._torsion_idx))
        g = zb * dec.U_inv
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
        c = self._cycles.basis_coordinates(vector)
        if c is None:
            raise ValueError("vector not contained in the cycle span")
        w = self._gen_change.apply(c)
        free = [w[i] for i in self._free_idx]
        tors = [w[i] % self.quotient.torsion[k]
                for k, i in enumerate(self._torsion_idx)]
        return tuple(free + tors)

    def project_matrix(self, mat: IntMatrix) -> IntMatrix:
        """Columnwise project: ambient columns to canonical coordinates."""
        return _from_columns(
            [self.project(mat.column(j)) for j in range(mat.ncols)],
            self.quotient.ngens)

    def is_zero_class(self, vector):
        return all(c == 0 for c in self.project(vector))

    def __repr__(self):
        return "Subquotient(ambient=%d, quotient=%s)" % (
            self.ambient_rank, self.quotient.render())


def subquotient(cycles: IntMatrix, boundaries: IntMatrix) -> Subquotient:
    """Present Z/B for column-generated Z and B with B contained in Z."""
    return Subquotient(cycles, boundaries)


def cokernel(a: IntMatrix) -> Subquotient:
    """Z^rows / im(A), presented with canonical generator expressions."""
    return Subquotient(IntMatrix.identity(a.nrows), a)


def cokernel_group(a: IntMatrix) -> FgAbGroup:
    """Isomorphism type of Z^rows / im(A)."""
    dec = smith_normal_form(a)
    divisors = list(dec.diagonal) + [0] * (a.nrows - dec.rank)
    return group_from_divisors(divisors)
