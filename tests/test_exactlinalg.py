import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from leray import _kernel, exactlinalg
from leray.exactlinalg import (
    FgAbGroup,
    IntMatrix,
    element_order,
    group_from_divisors,
    kernel,
    preimage_lattice,
    smith_normal_form,
    solve,
)

from oracles import (
    cokernel,
    determinant_divisor_diagonal,
    lattice_basis,
    random_matrix,
    random_unimodular,
    subquotient,
)


small_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda r: st.integers(min_value=0, max_value=5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=c, max_size=c),
            min_size=r, max_size=r).map(lambda rows: IntMatrix(rows, shape=(r, c)))))


def check_snf_identities(a):
    dec = smith_normal_form(a)
    assert dec.U * a * dec.V == dec.D
    assert (dec.U * dec.U_inv).is_identity()
    assert (dec.V * dec.V_inv).is_identity()
    for i in range(a.nrows):
        for j in range(a.ncols):
            if i != j:
                assert dec.D[i, j] == 0
    diag = dec.diagonal
    assert all(d > 0 for d in diag)
    for i in range(len(diag) - 1):
        assert diag[i + 1] % diag[i] == 0
    # everything past the rank is zero
    for i in range(len(diag), min(a.nrows, a.ncols)):
        assert dec.D[i, i] == 0
    return dec


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_identities_random(a):
    dec = check_snf_identities(a)
    assert dec.diagonal == determinant_divisor_diagonal(a)


# Diagonal entries sharing and missing small prime factors, so the
# divisibility repair has to move factors between positions.
STRUCTURED_ENTRIES = (0, 1, 2, 3, 4, 6, 9, 10, 12, 15, 18, 20)


@st.composite
def permuted_diagonals(draw):
    # Diagonal length first, so long diagonals (where a faulty repair
    # shows) are as likely as short ones.
    k = draw(st.integers(min_value=0, max_value=6))
    r = draw(st.integers(min_value=k, max_value=6))
    c = draw(st.integers(min_value=k, max_value=6))
    diag = draw(st.lists(st.sampled_from(STRUCTURED_ENTRIES),
                         min_size=k, max_size=k))
    rows = draw(st.permutations(range(r)))
    cols = draw(st.permutations(range(c)))
    m = [[0] * c for _ in range(r)]
    for k, x in enumerate(diag):
        m[rows[k]][cols[k]] = x
    return IntMatrix(m, shape=(r, c))


@settings(max_examples=500, deadline=None)
@given(permuted_diagonals())
def test_snf_permuted_structured_diagonals(a):
    dec = check_snf_identities(a)
    assert dec.diagonal == determinant_divisor_diagonal(a)
    theirs = sympy_snf(Matrix(a.nrows, a.ncols, list(a.entries)), domain=ZZ)
    expected = [abs(theirs[i, i]) for i in range(min(a.nrows, a.ncols))]
    assert list(dec.diagonal) == [x for x in expected if x]


@st.composite
def sparse_matrices(draw):
    """Up to 30 x 30, density 0.05-0.3, entries in [-9, 9] and now and
    then +-10^20, with some rows and columns zeroed: the sizes and the
    sparsity at which the kernel's choice of pivots matters."""
    r = draw(st.integers(min_value=0, max_value=30))
    c = draw(st.integers(min_value=0, max_value=30))
    density = draw(st.floats(min_value=0.05, max_value=0.3))
    rng = draw(st.randoms(use_true_random=False))
    rows = [[rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1,
                         1, 2, 3, 4, 5, 6, 7, 8, 9))
             if rng.random() < density else 0 for _ in range(c)]
            for _ in range(r)]
    if r and c:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            rows[rng.randrange(r)][rng.randrange(c)] = \
                rng.choice((-1, 1)) * 10 ** 20
    for i in draw(st.sets(st.integers(0, 29), max_size=3)):
        if i < r:
            rows[i] = [0] * c
    zero_cols = draw(st.sets(st.integers(0, 29), max_size=3))
    rows = [[0 if j in zero_cols else x for j, x in enumerate(row)]
            for row in rows]
    return IntMatrix(rows, shape=(r, c))


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_snf_sparse_against_sympy(a):
    dec = check_snf_identities(a)
    theirs = sympy_snf(Matrix(a.nrows, a.ncols, list(a.entries)), domain=ZZ)
    expected = [abs(theirs[i, i]) for i in range(min(a.nrows, a.ncols))]
    assert list(dec.diagonal) == [x for x in expected if x]
    copy = [list(row) for row in a.rows()]
    assert _kernel.smith_with_transforms(a.rows(), a.nrows, a.ncols) == \
        _kernel.smith_with_transforms(copy, a.nrows, a.ncols)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrices, permuted_diagonals(), sparse_matrices()))
@example(IntMatrix.zeros(0, 4))
@example(IntMatrix.zeros(4, 0))
@example(IntMatrix.zeros(3, 5))
@example(IntMatrix([[10 ** 20, 0, 6], [0, -(10 ** 20), 0], [4, 0, 0]]))
def test_invariant_factors_are_the_smith_diagonal(a):
    """The diagonal-only kernel entry eliminates as the transform entry
    does, so it gives the same diagonal."""
    assert exactlinalg.invariant_factors(a) == smith_normal_form(a).diagonal


@settings(max_examples=20, deadline=None)
@given(sparse_matrices())
def test_invariant_factors_against_sympy(a):
    theirs = sympy_snf(Matrix(a.nrows, a.ncols, list(a.entries)), domain=ZZ)
    expected = [abs(theirs[i, i]) for i in range(min(a.nrows, a.ncols))]
    assert list(exactlinalg.invariant_factors(a)) == [x for x in expected if x]


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5),
                                   (5, 2), (4, 4)])
def test_zero_matrix_skips_the_kernel(kernel_calls, shape):
    """A zero matrix gets, with no elimination, what the kernel returns
    for it: identity transforms and an empty diagonal."""
    r, c = shape
    a = IntMatrix.zeros(r, c)
    u, d, v, uinv, vinv = _kernel.smith_with_transforms(a.rows(), r, c)
    kernel_calls.refuse()
    dec = smith_normal_form(a)
    assert dec.U == IntMatrix(u, shape=(r, r)) == dec.U_inv
    assert dec.V == IntMatrix(v, shape=(c, c)) == dec.V_inv
    assert dec.D == IntMatrix(d, shape=(r, c))
    assert dec.diagonal == exactlinalg.invariant_factors(a) == ()


def test_snf_repair_stays_in_its_block():
    # Repairing d_0 = 6, d_1 = 6, d_2 = 9 must not pull the later 6 into
    # position 1: that once left D[1][2] = 6, and solve() then returned
    # (1, 8, 5, -2) for A x = A (1, 1, 1, 1).
    a = IntMatrix([[6, 0, 0, 0], [0, 6, 0, 0], [0, 0, 9, 0], [0, 0, 0, 10]])
    dec = check_snf_identities(a)
    assert dec.diagonal == (1, 6, 6, 90)
    ones = IntMatrix([[1], [1], [1], [1]])
    assert solve(a, a * ones) == ones


@pytest.mark.parametrize("d", [
    [[1, 6], [0, 6]],   # off the diagonal
    [[-2, 0], [0, 4]],  # negative
    [[2, 0], [0, 3]],   # not a divisibility chain
    [[0, 0], [0, 2]],   # zero before a nonzero
], ids=["non-diagonal", "negative", "non-dividing", "zero-first"])
def test_snf_postcondition_catches_bad_kernel_output(monkeypatch, d):
    def broken(a, nrows, ncols):
        ident = [[1, 0], [0, 1]]
        return ident, [row[:] for row in d], ident, ident, ident
    monkeypatch.setattr(exactlinalg, "smith_with_transforms", broken)
    with pytest.raises(AssertionError, match="SNF postcondition"):
        smith_normal_form(IntMatrix.identity(2))


@pytest.mark.parametrize("diag", [[2, 3], [-2, 4], [0, 2], [1, 1, 1]],
                         ids=["non-dividing", "negative", "zero",
                              "longer-than-the-shape"])
def test_invariant_factors_postcondition_catches_bad_kernel_output(
        monkeypatch, diag):
    monkeypatch.setattr(exactlinalg, "_kernel_invariant_factors",
                        lambda a, nrows, ncols: list(diag))
    with pytest.raises(AssertionError, match="SNF postcondition"):
        exactlinalg.invariant_factors(IntMatrix.identity(2))


def test_input_not_mutated():
    a = [[2, 4], [6, 8]]
    snapshot = [row[:] for row in a]
    for entry in (_kernel.smith_with_transforms, _kernel.invariant_factors):
        entry(a, 2, 2)
        assert a == snapshot


def test_snf_golden_examples():
    dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert dec.diagonal == (2, 4)  # d1 = gcd of entries, d1*d2 = |det| = 8
    assert smith_normal_form(IntMatrix.identity(3)).diagonal == (1, 1, 1)
    z = smith_normal_form(IntMatrix.zeros(2, 3))
    assert z.diagonal == ()
    assert z.D == IntMatrix.zeros(2, 3)


def test_snf_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        a = IntMatrix.zeros(*shape)
        dec = check_snf_identities(a)
        assert dec.diagonal == ()


def test_snf_deterministic():
    a = IntMatrix([[6, -4, 10], [2, 8, -2], [0, 12, 4]])
    d1 = smith_normal_form(a)
    d2 = smith_normal_form(a)
    assert d1.U == d2.U and d1.V == d2.V and d1.D == d2.D


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_kernel_saturated(a):
    k = kernel(a)
    assert (a * k).is_zero()
    assert k.ncols == a.ncols - smith_normal_form(a).rank
    if k.ncols:
        # primitive basis: SNF diagonal of the basis matrix is all ones
        assert smith_normal_form(k).diagonal == (1,) * k.ncols


def test_kernel_examples():
    k = kernel(IntMatrix([[1, 2]]))
    assert k.ncols == 1
    col = k.column(0)
    assert col in ((2, -1), (-2, 1))
    assert kernel(IntMatrix.identity(3)).ncols == 0
    k3 = kernel(IntMatrix.zeros(1, 3))
    assert k3.ncols == 3
    assert smith_normal_form(k3).diagonal == (1, 1, 1)


def test_cokernel_examples():
    assert cokernel(IntMatrix([[2]])).quotient == FgAbGroup(0, (2,))
    # coinvariant matrix of the T^2 bundle with windings (2, 4)
    g = cokernel(IntMatrix([[0, 2, 0, 4], [0, 0, 0, 0]])).quotient
    assert g == FgAbGroup(1, (2,))
    assert cokernel(IntMatrix.zeros(2, 2)).quotient == FgAbGroup(2, ())


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.integers(min_value=0, max_value=2 ** 30))
def test_cokernel_unimodular_invariance(a, seed):
    rng = random.Random(seed)
    u = random_unimodular(rng, a.nrows)
    v = random_unimodular(rng, a.ncols)
    assert cokernel(a).quotient == cokernel(u * a * v).quotient


def test_cokernel_presentation_roundtrip():
    a = IntMatrix([[2, 0], [0, 3], [0, 0]])
    cok = cokernel(a)
    assert cok.quotient == FgAbGroup(1, (6,))
    for j in range(cok.quotient.ngens):
        coords = tuple(1 if i == j else 0 for i in range(cok.quotient.ngens))
        assert cok.project(cok.lift(coords)) == coords
    # columns of A are boundaries, hence zero classes
    for j in range(a.ncols):
        assert cok.project(a.column(j)) == (0,) * cok.quotient.ngens


def test_subquotient_examples():
    sq = subquotient(IntMatrix.identity(2), IntMatrix([[2], [0]]))
    assert sq.quotient == FgAbGroup(1, (2,))
    trivial = subquotient(IntMatrix.identity(2), IntMatrix.identity(2))
    assert trivial.quotient.is_trivial()
    free = subquotient(IntMatrix([[1], [1]]), IntMatrix.zeros(2, 0))
    assert free.quotient == FgAbGroup(1, ())


def test_subquotient_boundary_not_contained():
    with pytest.raises(ValueError, match="boundary not contained in cycles"):
        subquotient(IntMatrix([[2], [0]]), IntMatrix([[1], [0]]))


def test_subquotient_project_outside_span():
    sq = subquotient(IntMatrix([[2], [0]]), IntMatrix.zeros(2, 0))
    with pytest.raises(ValueError, match="not contained in the cycle span"):
        sq.project((1, 0))
    assert sq.project((4, 0)) == (2,)


def test_subquotient_makes_two_smith_decompositions(kernel_calls):
    cycles = IntMatrix([[2, 0], [0, 3], [1, 1]])
    boundaries = IntMatrix([[4], [0], [2]])
    sq = subquotient(cycles, boundaries)
    assert sq.quotient == FgAbGroup(1, (2,))
    # the cycle generators (3 x 2), then the relation matrix (2 x 1)
    assert [(r, c) for r, c, _ in kernel_calls] == [(3, 2), (2, 1)]
    # the constructor takes both decompositions and makes none itself
    dec = smith_normal_form(cycles)
    rel = exactlinalg.relations(dec, boundaries)
    kernel_calls.refuse()
    assert vars(exactlinalg.Subquotient(dec, rel)) == vars(sq)


small_entries = st.sampled_from((0, 0, 1, -1, 2, -2, 3, 4, 6))


@st.composite
def cycles_and_boundaries(draw):
    """C = L R of rank at most j (so often rank-deficient) and B = C K."""
    n, k, j, m = (draw(st.integers(0, 4)) for _ in range(4))
    j = min(j, k)

    def matrix(r, c):
        return IntMatrix([[draw(small_entries) for _ in range(c)]
                          for _ in range(r)], shape=(r, c))
    c = matrix(n, j) * matrix(j, k)
    return c, c * matrix(k, m)


@settings(max_examples=300, deadline=None)
@given(cycles_and_boundaries())
def test_subquotient_two_snf_properties(cb):
    c, b = cb
    sq = subquotient(c, b)
    # boundary_gens is a basis of the lattice B spans
    assert sq.boundary_gens.ncols == smith_normal_form(b).rank
    assert solve(sq.boundary_gens, b) is not None
    assert solve(b, sq.boundary_gens) is not None
    ngens = sq.quotient.ngens
    for i in range(ngens):
        e = tuple(int(i == j) for j in range(ngens))
        assert sq.project(sq.lift(e)) == e
    for j in range(b.ncols):
        assert sq.project(b.column(j)) == (0,) * ngens
    x = solve(c, b)
    assert x is not None and c * x == b


def test_subquotient_zero_boundaries_equals_cycles_presentation():
    z = IntMatrix([[1, 0], [0, 2], [3, 3]])
    sq = subquotient(z, IntMatrix.zeros(3, 0))
    assert sq.quotient == FgAbGroup(2, ())


@settings(max_examples=300, deadline=None)
@given(cycles_and_boundaries())
def test_canonical_rows_of_gen_change_project_the_cycle_basis(cb):
    sq = subquotient(*cb)
    assert sq._canonical(sq._gen_change) == sq.project_matrix(sq.cycle_gens)


@st.composite
def maps_and_kernel_boundaries(draw):
    """(A, B): A often rank-deficient, B = kernel(A) M inside its kernel."""
    a = draw(small_matrices)
    k = kernel(a)
    m = draw(st.integers(0, 3))
    return a, k * IntMatrix([[draw(small_entries) for _ in range(m)]
                             for _ in range(k.ncols)], shape=(k.ncols, m))


@settings(max_examples=200, deadline=None)
@given(maps_and_kernel_boundaries())
@example((IntMatrix.zeros(2, 3), IntMatrix([[2], [0], [0]])))
@example((IntMatrix([[1, 0], [0, 3]]), IntMatrix.zeros(2, 1)))
def test_kernel_decomposition_decomposes_the_kernel_basis(ab):
    a, b = ab
    k = kernel(a)
    z = smith_normal_form(a).kernel_decomposition()
    assert z.U * k * z.V == z.D
    assert z.diagonal == (1,) * k.ncols
    assert (z.U * z.U_inv).is_identity()
    assert (z.V * z.V_inv).is_identity()
    sq = exactlinalg.Subquotient(z, exactlinalg.relations(z, b))
    assert sq.cycle_gens == k
    assert sq.quotient == subquotient(k, b).quotient


def reference_coordinates(dec, b):
    """zb-coordinates of the columns of b, one column at a time with
    dense sums: the r x k matrix, or None if a column is outside the
    integer span."""
    r, diag = dec.rank, dec.diagonal
    cols = []
    for j in range(b.ncols):
        y = [sum(row[t] * b[t, j] for t in range(b.nrows))
             for row in dec.U.rows()]
        if any(y[r:]) or any(y[i] % diag[i] for i in range(r)):
            return None
        cols.append([y[i] // diag[i] for i in range(r)])
    return IntMatrix([[c[i] for c in cols] for i in range(r)],
                     shape=(r, b.ncols))


@st.composite
def spans_and_columns(draw):
    """(A, K, B): A of rank at most j, boundaries A K inside its span,
    and B with columns A x for sparse x or arbitrary vectors."""
    n, k, j, m = (draw(st.integers(0, 4)) for _ in range(4))
    j = min(j, k)

    def matrix(r, c):
        return IntMatrix([[draw(small_entries) for _ in range(c)]
                          for _ in range(r)], shape=(r, c))
    a = matrix(n, j) * matrix(j, k)
    cols = []
    for in_span in draw(st.lists(st.booleans(), max_size=4)):
        if in_span:
            cols.append(a.apply(tuple(draw(small_entries) for _ in range(k))))
        else:
            cols.append(tuple(draw(small_entries) for _ in range(n)))
    return a, matrix(k, m), IntMatrix.from_columns(cols, nrows=n)


_DIAG_2_3 = IntMatrix([[2, 0], [0, 3], [0, 0]])


@settings(max_examples=300, deadline=None)
@given(spans_and_columns())
@example((_DIAG_2_3, IntMatrix.identity(2), IntMatrix.zeros(3, 0)))
@example((_DIAG_2_3, IntMatrix.identity(2), IntMatrix([[2], [3], [1]])))
@example((_DIAG_2_3, IntMatrix.zeros(2, 0), IntMatrix([[4], [1], [0]])))
def test_basis_coordinates_matches_per_column_reference(case):
    a, k, b = case
    dec = smith_normal_form(a)
    ref = reference_coordinates(dec, b)
    assert dec.basis_coordinates(b) == ref
    x = solve(a, b)
    assert (x is None) == (ref is None)
    if x is not None:
        assert a * x == b
    sq = subquotient(a, a * k)
    if ref is None:
        with pytest.raises(ValueError, match="not contained in the cycle"):
            sq.project_matrix(b)
        return
    got = sq.project_matrix(b)
    assert got.shape == (sq.quotient.ngens, b.ncols)
    for j in range(b.ncols):
        coords = sq.project(b.column(j))
        assert got.column(j) == coords
        # b_j and the lift of its class differ by a boundary
        diff = IntMatrix.from_columns(
            [[p - q for p, q in zip(b.column(j), sq.lift(coords))]],
            nrows=b.nrows)
        assert solve(sq.boundary_gens, diff) is not None


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(2, 5), st.data())
def test_basis_coordinates_rational_but_not_integral(k, extra, d, data):
    """Columns of M = [I; R] are in the rational span of A = d M but
    not in its integer span unless d divides the coefficients."""
    r = IntMatrix([[data.draw(small_entries) for _ in range(k)]
                   for _ in range(extra)], shape=(extra, k))
    m = IntMatrix.identity(k).vstack(r)
    a = m * d
    x = [data.draw(small_entries) for _ in range(k)]
    x[data.draw(st.integers(0, k - 1))] = 1 + d * data.draw(small_entries)
    b = m * IntMatrix.from_columns([x], nrows=k)
    dec = smith_normal_form(a)
    assert reference_coordinates(dec, b) is None
    assert dec.basis_coordinates(b) is None
    assert solve(a, b) is None
    # one column outside the integer span spoils the whole matrix
    both = b.hstack(a * IntMatrix.from_columns([x], nrows=k))
    assert dec.basis_coordinates(both) is None
    assert dec.basis_coordinates(both.submatrix_columns([1])) == \
        reference_coordinates(dec, both.submatrix_columns([1]))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_solve_roundtrip(a):
    # A times a known X is always solvable, and the solution solves it.
    x = IntMatrix([[(i * 7 + j * 3) % 5 - 2 for j in range(2)]
                   for i in range(a.ncols)], shape=(a.ncols, 2))
    b = a * x
    got = solve(a, b)
    assert got is not None
    assert a * got == b


def test_solve_unsolvable():
    assert solve(IntMatrix([[2]]), IntMatrix([[1]])) is None
    assert solve(IntMatrix.zeros(1, 1), IntMatrix([[1]])) is None


def test_lattice_basis_spans_same_lattice():
    gens = IntMatrix([[2, 4, 6], [0, 0, 2]])
    basis = lattice_basis(gens)
    assert basis.ncols == 2
    assert solve(basis, gens) is not None
    assert solve(gens, basis) is not None


def test_preimage_lattice():
    m = IntMatrix([[1, 0], [0, 2]])
    lat = IntMatrix([[2], [0]])
    pre = preimage_lattice(m, lat)
    # {(x, y) : (x, 2y) in span{(2,0)}} = {(x, 0) : x even} = 2Z x 0
    assert pre.ncols == 1
    col = pre.column(0)
    assert col in ((2, 0), (-2, 0))


@st.composite
def maps_and_lattices(draw):
    """(M, lat): M is n x k and lat has rank at most j, so its columns
    are often dependent; sometimes its first column is repeated."""
    n, k, j, l = (draw(st.integers(0, 3)) for _ in range(4))

    def matrix(r, c):
        return IntMatrix([[draw(small_entries) for _ in range(c)]
                          for _ in range(r)], shape=(r, c))
    lat = matrix(n, j) * matrix(j, l)
    if l and draw(st.booleans()):
        lat = lat.hstack(lat.submatrix_columns([0]))
    return matrix(n, k), lat


@settings(max_examples=150, deadline=None)
@given(maps_and_lattices())
@example((IntMatrix([[1, 0], [0, 2]]), IntMatrix([[2, 2], [0, 0]])))
@example((IntMatrix([[1, 1], [0, 2]]), IntMatrix([[2, 0, 2], [2, 4, 2]])))
def test_preimage_lattice_generates_the_preimage(case):
    m, lat = case
    pre = preimage_lattice(m, lat)
    assert pre.nrows == m.ncols
    # every column x has M x in span(lat)
    assert solve(lat, m * pre) is not None
    # every x of a box around 0 with M x in span(lat) is in span(pre)
    in_lat = smith_normal_form(lat)
    in_pre = smith_normal_form(pre)
    for x in product(range(-2, 3), repeat=m.ncols):
        col = IntMatrix.from_columns([x], nrows=m.ncols)
        if in_lat.basis_coordinates(m * col) is not None:
            assert in_pre.basis_coordinates(col) is not None
    # the oracle basis lies in the span of the result, and with
    # independent lat columns the result is itself a basis
    basis = lattice_basis(pre)
    assert solve(pre, basis) is not None
    if in_lat.rank == lat.ncols:
        assert pre.ncols == basis.ncols


def test_group_canonical_form():
    assert group_from_divisors([0, 6, 4]) == FgAbGroup(1, (2, 12))
    assert group_from_divisors([1, 1]) == FgAbGroup(0, ())
    assert group_from_divisors([2, 3]) == FgAbGroup(0, (6,))
    assert FgAbGroup(1, (2,)).render() == "Z (+) Z/2"
    assert FgAbGroup(0, ()).render() == "0"
    assert FgAbGroup(3, ()).render() == "Z^3"


def test_group_invalid_torsion_rejected():
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 6))


def test_element_order():
    g = FgAbGroup(1, (2, 4))
    assert element_order(g, (1, 0, 0)) == 0
    assert element_order(g, (0, 1, 0)) == 2
    assert element_order(g, (0, 1, 2)) == 2
    assert element_order(g, (0, 0, 1)) == 4
    assert element_order(g, (0, 0, 0)) == 1


def test_element_order_validates_length():
    with pytest.raises(ValueError, match="length"):
        element_order(FgAbGroup(1, (2,)), (1,))


def direct_sum(a, b):
    return group_from_divisors([0] * (a.free_rank + b.free_rank)
                               + list(a.torsion) + list(b.torsion))


def test_direct_sum():
    a = FgAbGroup(1, (2,))
    b = FgAbGroup(0, (3,))
    assert direct_sum(a, b) == FgAbGroup(1, (6,))
    assert direct_sum(a, FgAbGroup(2, ())) == FgAbGroup(3, (2,))


def test_unimodular_inverse():
    rng = random.Random(7)
    for _ in range(10):
        u = random_unimodular(rng, 4)
        assert (u * u.inverse_unimodular()).is_identity()
    with pytest.raises(ValueError, match="unimodular"):
        IntMatrix([[2, 0], [0, 1]]).inverse_unimodular()
    with pytest.raises(ValueError, match="unimodular"):
        IntMatrix([[1, 2, 3]]).inverse_unimodular()


def test_unimodular_inverse_is_the_smith_inverse(kernel_calls):
    """Fraction-free elimination gives V U from the SNF U A V = I, on
    seeded unimodular matrices of sizes 0 to 8, without calling the SNF
    kernel."""
    rng = random.Random(21)
    cases = [random_unimodular(rng, n, steps=rng.randint(0, 40))
             for n in range(9) for _ in range(20)]
    kernel_calls.refuse()
    inverses = [u.inverse_unimodular() for u in cases]
    kernel_calls.refusing = False
    for u, inv in zip(cases, inverses):
        dec = smith_normal_form(u)
        assert inv == dec.V * dec.U, u


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 1]], [[0, 1], [2, 0]], [[1, 1], [-1, 1]],
    [[0, 1, 0], [2, 0, 0], [0, 0, -1]],
    [[0, 0], [0, 1]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 1], [0, 1, 1]],
    [[1, 2, 3]], [[1], [0]]])
def test_unimodular_inverse_rejects(rows):
    """det = +-2, singular and non-square matrices are not unimodular."""
    with pytest.raises(ValueError, match="^matrix is not unimodular$"):
        IntMatrix(rows).inverse_unimodular()


def test_preimage_lattice_shape_mismatch():
    with pytest.raises(ValueError, match="codomain"):
        preimage_lattice(IntMatrix([[1, 0]]), IntMatrix([[1], [0]]))


def test_matrix_power():
    a = IntMatrix([[1, 1], [0, 1]])
    assert a.power(3) == IntMatrix([[1, 3], [0, 1]])
    assert a.power(-2) == IntMatrix([[1, -2], [0, 1]])
    assert a.power(0).is_identity()


def test_big_entries_no_overflow():
    rng = random.Random(3)
    a = random_matrix(rng, 6, 6, lo=-10 ** 12, hi=10 ** 12)
    check_snf_identities(a)


# Mostly zeros, with small entries and entries around +-10^30.
sparse_entries = st.one_of(
    st.just(0), st.just(0), st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=10 ** 30 - 3, max_value=10 ** 30 + 3),
    st.integers(min_value=-10 ** 30 - 3, max_value=-10 ** 30 + 3))


def sparse_rows(draw, nrows, ncols):
    rows = draw(st.lists(st.lists(sparse_entries, min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    # an all-zero row and an all-zero column, when the shape has room
    if nrows and ncols and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    return rows


def dense_product(a, b, inner, ncols):
    return [[sum(a[i][t] * b[t][j] for t in range(inner))
             for j in range(ncols)] for i in range(len(a))]


def assert_canonical(m, rows):
    """m equals the publicly constructed matrix, representation included."""
    ref = IntMatrix(rows, shape=m.shape)
    assert m == ref and hash(m) == hash(ref)
    assert all(type(row) is tuple for row in m.rows())
    assert type(m.rows()) is tuple


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_and_apply_match_dense_reference(data):
    r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    a_rows = sparse_rows(data.draw, r, k)
    b_rows = sparse_rows(data.draw, k, c)
    vec = tuple(data.draw(st.lists(sparse_entries, min_size=k, max_size=k)))
    a = IntMatrix(a_rows, shape=(r, k))
    b = IntMatrix(b_rows, shape=(k, c))
    assert_canonical(a * b, dense_product(a_rows, b_rows, k, c))
    assert a.apply(vec) == tuple(sum(row[t] * vec[t] for t in range(k))
                                 for row in a_rows)
    assert_canonical(a.transpose(),
                     [[a_rows[i][j] for i in range(r)] for j in range(k)])
    assert_canonical(-a, [[-x for x in row] for row in a_rows])
    assert_canonical(a * 3, [[3 * x for x in row] for row in a_rows])


def test_product_shapes_with_empty_dimensions():
    assert IntMatrix.zeros(0, 3) * IntMatrix.zeros(3, 2) == IntMatrix.zeros(0, 2)
    assert IntMatrix.zeros(2, 0) * IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)
    assert IntMatrix.zeros(2, 3) * IntMatrix.zeros(3, 0) == IntMatrix.zeros(2, 0)
    assert IntMatrix.zeros(2, 0).apply(()) == (0, 0)
    assert IntMatrix.zeros(0, 2).apply((1, 2)) == ()
    with pytest.raises(ValueError, match="shape mismatch"):
        IntMatrix.zeros(2, 3) * IntMatrix.zeros(2, 3)
    with pytest.raises(ValueError, match="length"):
        IntMatrix.zeros(2, 3).apply((1, 2))


def test_public_constructor_validates_entries():
    with pytest.raises(TypeError):
        IntMatrix([[1, True]])
    with pytest.raises(TypeError):
        IntMatrix([[1.0, 2]])
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix.from_columns([(1, False)])
