"""Independent test oracles.

These deliberately avoid the library's own reduction pipeline: the SNF
diagonal is recomputed from determinant divisors (gcds of k x k minors,
exhaustively enumerated), Z^2 group cohomology is recomputed from
the two-variable Koszul complex, and local-coefficient cohomology of
the test bases from the holonomy alone, without a cochain complex.
The first two are only feasible at small sizes, which is all the tests
need.  ``lattice_basis`` does use the library's
SNF; it is the reference basis that generator matrices, such as those
``preimage_lattice`` returns, are compared against.

The reference implementations below them are built on the library's
exact layer, by routes no command takes: ``subquotient`` from plain
matrices, the ``cokernel`` of one, ``integral_homology`` of a complex,
the ``invariants`` and ``coinvariants`` of commuting matrices,
``recursion_check``, which compares H^*(Z^2, M) with the recursion
through H^*(Z, M), ``simplicial_e1_page``, the first page of a graded
bundle on the simplicial cochains of any base, closed surfaces
included, with d1 stored, and ``simplicial_analysis``, the ``ncp``
pipeline on those pages instead of the one-vertex cell structure.

``dense_coboundary`` assembles a system's simplicial coboundary as
dense rows, reading a transport for every face of every simplex: the
reference for ``cohomology.build``.  ``ScanElimination`` is the SNF
kernel's elimination with its pivot columns found by a scan of every
active column: the reference for the kernel's count buckets.

``klein_bottle`` is a non-orientable closed test surface, with the
flat systems of its non-abelian fundamental group (``klein_transports``),
and ``flat_signs`` a random flat system of signs on any complex, by
elimination over F_2.

``iterated_connected_sum`` builds genus(g) one connected sum at a
time, a whole complex after each: the reference for the one-pass
``genus_surface``, and ``bfs_orientation`` orients a surface by its own
breadth-first pass: the reference for ``orientation``, which reads the
presentation's forest.  ``smith_gauge`` reads H_1 from the off-tree
rows of d_2 (``boundary_matrix``), by one SNF and a Hermite form over
every off-tree edge: the reference for ``TreeGauge``, which reads the
relators' exponent sums, equal up to ``basis_change``, and by its
classes of the off-tree edges (``offtree_classes``) for the transports
of ``from_monodromy`` (``class_power_table``).
``surface_word`` walks a closed orientable surface's one disk by its
coherent orientation, and ``check_surface_word`` certifies the word:
the reference for the relator of its reduced presentation.

``cup_intersection_form`` gives a surface's intersection form from its
triangles' cup products, the reference for the form its relator
gives (``word_intersection_form``) and for the ``ncp`` even complex.
The floating-point front end, ``winding_number``, ``chern_cocycle`` and
``torus_transition_data``, is kept here for acceptance criterion 09:
no command reads it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd

from leray._kernel import _Elimination
from leray.exactlinalg import (
    FgAbGroup,
    IntMatrix,
    SmithDecomposition,
    Subquotient,
    kernel,
    preimage_lattice,
    relations,
    smith_normal_form,
    solve,
)
from leray.group_cohomology import zn_cohomology
from leray.local_systems import (
    GradedKBundle,
    LocalSystem,
    from_monodromy,
    transport_along,
)
from leray.ncp_bundles import (
    FIBER_RANK,
    NcpAnalysis,
    d2_spec,
    is_rkk_trivial,
)
from leray.cohomology import build
from leray.simplicial import (
    SimplicialComplex,
    _hermite_from_the_right,
    torus2,
)
from leray.spectral import (
    SpectralPage,
    assemble,
    attach_d2,
    e2_page,
    first_page,
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


def lattice_basis(gens):
    """A basis of the lattice spanned by the columns of ``gens``: with
    U A V = D of rank r, the columns U_inv[:, :r] diag(d) span U_inv D,
    which is A V, and are independent."""
    dec = smith_normal_form(gens)
    return IntMatrix([[x * d for x, d in zip(row, dec.diagonal)]
                      for row in dec.U_inv.rows()],
                     shape=(gens.nrows, dec.rank))


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
    h2 = cokernel(d1).quotient
    return (h0, h1, h2)


def surface_cohomology(x, system):
    """H^0, ..., H^dim(x) of a flat system on a circle, the 2-sphere, the
    torus or a closed surface of higher genus, from its holonomy along
    the generator loops; no cochain complex is built.

    * circle: ker and coker of A - I;
    * sphere (Euler characteristic 2): (Z^m, 0, Z^m);
    * torus (Euler characteristic 0): the Koszul complex of (A, B);
    * genus g >= 2: H^0 the invariants, H^2 the coinvariants (Poincare
      duality), and H^1 only by its free rank, which the Euler
      characteristic fixes; it is returned as that int.
    """
    m = system.fiber_rank
    mats = [transport_along(system, loop) for loop in x.tree_gauge.loops]
    if x.dimension == 1:
        (a,) = mats
        a = a - IntMatrix.identity(m)
        return [FgAbGroup(kernel(a).ncols, ()), cokernel(a).quotient]
    chi = x.euler_characteristic()
    if chi == 2:
        return [FgAbGroup(m, ()), FgAbGroup(0, ()), FgAbGroup(m, ())]
    if chi == 0:
        return list(koszul_z2_cohomology(*mats))
    h0 = invariants(mats, m).group
    h2 = coinvariants(mats, m).quotient
    return [h0, h0.free_rank + h2.free_rank - chi * m, h2]


def matches_surface_cohomology(groups, expected):
    """Whether ``groups`` equal ``surface_cohomology``'s answer, an int
    standing for a group known by its free rank only."""
    return len(groups) == len(expected) and all(
        g.free_rank == want if isinstance(want, int) else g == want
        for g, want in zip(groups, expected))


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


def block_unipotent_family(rng, count):
    """``count`` commuting 6 x 6 matrices I + a N + b N^2 for one seeded
    strictly upper triangular N: two 3 x 3 diagonal blocks with a sparse
    coupling block, the shape of the benchmark's rank-6 systems, whose
    cohomology often has torsion."""
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            if (i < 3) == (j < 3) or rng.random() < 0.3:
                rows[i][j] = rng.randint(-2, 2)
    n = IntMatrix(rows)
    n2 = n * n
    ident = IntMatrix.identity(6)
    return [ident + n * rng.randint(-2, 2) + n2 * rng.randint(-1, 1)
            for _ in range(count)]


def flat_system_from_loops(x, mats) -> LocalSystem:
    """The flat system on a closed surface x whose transport around
    loop i of ``x.tree_gauge.loops`` is ``mats[i]``, which need not
    commute: the identity on tree edges, mats[i] along loop edge i, and
    each cotree edge solved from a triangle whose other two edges are
    known, peeling the cotree from its leaves.  The matrices must make
    the boundary word's holonomy the identity."""
    gauge = x.tree_gauge
    known = {e: IntMatrix.identity(len(mats[0].rows()))
             for e in x.simplices(1)
             if e not in gauge.offtree}
    known.update(zip(gauge.loop_edges, mats))
    while len(known) < x.n_simplices(1):
        for (u, v, w) in x.simplices(2):
            missing = [e for e in ((u, v), (v, w), (u, w)) if e not in known]
            if len(missing) != 1:
                continue
            # flatness on the triangle: T_vw T_uv = T_uw
            if missing == [(u, w)]:
                known[u, w] = known[v, w] * known[u, v]
            elif missing == [(u, v)]:
                known[u, v] = known[v, w].inverse_unimodular() * known[u, w]
            else:
                known[v, w] = known[u, w] * known[u, v].inverse_unimodular()
    return LocalSystem(x, len(mats[0].rows()), known)


def freely_trivial(word):
    """Whether ``word``, letters (i, s), reduces to the empty word."""
    stack = []
    for letter in word:
        if stack and stack[-1] == (letter[0], -letter[1]):
            stack.pop()
        else:
            stack.append(letter)
    return not stack


def gauge_twist(system, rng):
    """Conjugate a flat system by random unimodular gauges per vertex,
    tree edges included; holonomy, hence cohomology, is unchanged up to
    conjugation."""
    base = system.base
    m = system.fiber_rank
    g = {v: random_unimodular(rng, m) for v in range(base.vertex_count)}
    transports = {}
    for (u, v) in base.simplices(1):
        transports[(u, v)] = g[v] * system.transport(u, v) * \
            g[u].inverse_unimodular()
    return LocalSystem(base, m, transports)


def pinched_torus() -> SimplicialComplex:
    """The 5 x 5 grid torus with vertices (0, 0) and (2, 3) identified:
    they share no neighbour, so every edge still lies in two triangles,
    and the result is a closed orientable surface that is not a
    manifold at the pinch, with chi = -1 and fundamental group
    Z^2 * Z."""
    def vertex(i, j):
        v = 5 * (i % 5) + j % 5
        return 0 if v == 13 else v - (v > 13)
    tris = [(vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1))
            for i in range(5) for j in range(5)]
    tris += [(vertex(i, j), vertex(i, j + 1), vertex(i + 1, j + 1))
             for i in range(5) for j in range(5)]
    return SimplicialComplex(24, tris)


def _klein_vertex(i, j):
    """Grid point (i, j), 0 <= i, j <= 4, of ``klein_bottle``."""
    if i == 4:
        i, j = 0, -j
    return 4 * i + j % 4


def klein_bottle() -> SimplicialComplex:
    """The 4 x 4 grid with (i, 4) glued to (i, 0) and (4, j) to
    (0, -j): a closed surface that is not orientable, with H_1 =
    Z (+) Z/2."""
    tris = []
    for i in range(4):
        for j in range(4):
            a, b = _klein_vertex(i, j), _klein_vertex(i + 1, j + 1)
            tris += [(a, _klein_vertex(i + 1, j), b),
                     (a, _klein_vertex(i, j + 1), b)]
    return SimplicialComplex(16, tris)


def klein_transports(a, b):
    """The transports {edge: T} of the flat system on ``klein_bottle``
    of a representation of its fundamental group, given on the deck
    transformations t_a (x, y) -> (x, y + 4) and t_b (x, y) -> (x + 4,
    -y) of the plane, which satisfy t_b t_a t_b^-1 = t_a^-1, by
    matrices with b a b^-1 = a^-1; they need not commute.

    Each grid point (i, j), 0 <= i, j < 4, holds its own fiber; an edge
    from it to grid point (i', j') = g (i'', j''), where (i'', j'') has
    0 <= i'', j'' < 4, carries rho(g)^-1, read from the triangles' own
    lifts to the plane, so the system is flat."""
    ident = IntMatrix.identity(a.nrows)
    a_inv = a.inverse_unimodular()
    table = {}
    for i in range(4):
        for j in range(4):
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                ii, jj = i + di, j + dj
                if ii < 4:
                    g = a if jj == 4 else ident
                else:
                    g = b if jj == 0 else b * a_inv
                u, v = _klein_vertex(i, j), _klein_vertex(ii, jj)
                t = g.inverse_unimodular()
                table[min(u, v), max(u, v)] = t if u < v else g
    return table


def flat_signs(x, rng):
    """A uniformly random flat system of signs on x, as its transports
    {edge: +-1}: a 1-cocycle over F_2, found by elimination over F_2 on
    the triangle equations c(ab) + c(bc) + c(ac) = 0, with no cell
    model and no spanning tree.  The rows are kept reduced, so each
    holds one pivot column; the other columns take random values and
    fix the pivots."""
    edges = x.simplices(1)
    col = {e: k for k, e in enumerate(edges)}
    pivots = {}  # pivot column -> its row, as a bit mask
    for a, b, c in x.simplices(2):
        row = (1 << col[a, b]) | (1 << col[b, c]) | (1 << col[a, c])
        for p, r in pivots.items():
            if row >> p & 1:
                row ^= r
        if row:
            p = row.bit_length() - 1
            for q, r in pivots.items():
                if r >> p & 1:
                    pivots[q] = r ^ row
            pivots[p] = row
    bits = [rng.randint(0, 1) for _ in edges]
    for p, r in pivots.items():
        bits[p] = sum(bits[k] for k in range(len(edges))
                      if k != p and r >> k & 1) % 2
    return {e: 1 - 2 * bits[col[e]] for e in edges}


def dense_coboundary(x, system, p, sign=None) -> IntMatrix:
    """D_p of a system's simplicial cochains, assembled as dense rows:
    the block of (sigma, tau) for the l-th face tau of a (p+1)-simplex
    sigma is sign(l) times the transport from tau's minimal vertex to
    sigma's, read for every face.  ``sign`` defaults to the e1
    convention, (-1)^(p+1-l)."""
    if sign is None:
        def sign(l):
            return (-1) ** (p + 1 - l)
    m = system.fiber_rank
    nrows = x.n_simplices(p + 1) * m if p < x.dimension else 0
    ncols = x.n_simplices(p) * m
    rows = [[0] * ncols for _ in range(nrows)]
    for j, sigma in enumerate(x.simplices(p + 1) if nrows else ()):
        for l in range(p + 2):
            tau = sigma[:l] + sigma[l + 1:]
            t = system.transport(tau[0], sigma[0]).rows()
            ti = x.index(tau)
            for a, t_row in enumerate(t):
                row = rows[j * m + a]
                for b, v in enumerate(t_row, ti * m):
                    if v:
                        row[b] += sign(l) * v
    return IntMatrix(rows, shape=(nrows, ncols))


class ScanElimination(_Elimination):
    """The SNF kernel's eliminations, with each pivot column found by a
    scan of every active column for the fewest nonzeros, lowest index
    first, and no count buckets read."""

    def eliminate(self):
        rows_of = self.rows_of
        active = {j for j, rows in enumerate(rows_of) if rows}
        pivots = []
        while True:
            counts = [(len(rows_of[j]), j) for j in active if rows_of[j]]
            if not counts:
                return pivots
            r, c = self.clear(min(counts)[1])
            active.discard(c)
            pivots.append((r, c))


def iterated_connected_sum(g) -> SimplicialComplex:
    """genus(g) as ``genus_surface`` built it before its one pass: after
    each connected sum with the 7-vertex torus a whole complex is made,
    and the next sum removes that complex's last triangle."""
    x = torus = torus2()
    for _ in range(g - 1):
        base_tris = list(x.simplices(2))
        removed = base_tris.pop()  # the last triangle in sorted order
        other_tris = list(torus.simplices(2))
        target = other_tris.pop(0)
        relabel = dict(zip(sorted(target), sorted(removed)))
        fresh = x.vertex_count
        for v in range(torus.vertex_count):
            if v not in relabel:
                relabel[v] = fresh
                fresh += 1
        x = SimplicialComplex(fresh, base_tris + [
            tuple(sorted(relabel[v] for v in tri)) for tri in other_tris])
    return x


def bfs_orientation(x):
    """The coherent orientation of a closed, triangle-connected,
    orientable surface by its own breadth-first pass over the triangles,
    as ``SimplicialComplex.orientation`` found it before it read the
    presentation's forest: the reference for that rule, with the same
    messages.  Signs spread from the first triangle (+1): an edge that
    enters the boundaries of triangles j and k with coefficients s_j and
    s_k cancels exactly when eps_k = -eps_j s_j s_k."""
    tris = x.simplices(2)
    sides = {}  # edge -> [(triangle index, (-1)^l)]
    for j, tri in enumerate(tris):
        for l in range(3):
            sides.setdefault(tri[:l] + tri[l + 1:], []).append((j, (-1) ** l))
    if (x.dimension != 2 or len(sides) != x.n_simplices(1)
            or any(len(s) != 2 for s in sides.values())
            or len({v for tri in tris for v in tri}) != x.vertex_count):
        raise ValueError("not a closed connected surface")
    eps = [0] * len(tris)
    eps[0] = 1
    queue = [0]
    for j in queue:
        tri = tris[j]
        for l in range(3):
            (a, s_a), (b, s_b) = sides[tri[:l] + tri[l + 1:]]
            k = b if a == j else a
            sign = -eps[j] * s_a * s_b
            if not eps[k]:
                eps[k] = sign
                queue.append(k)
            elif eps[k] != sign:
                raise ValueError("surface is not orientable")
    if len(queue) != len(tris):
        raise ValueError("not a closed connected surface")
    return tuple(eps)


def boundary_matrix(x, p) -> IntMatrix:
    """Integral boundary C_p -> C_(p-1) of ``x``, with coefficient
    (-1)^l on face l."""
    rows = x.n_simplices(p - 1) if p >= 1 else 0
    entries = [{} for _ in range(rows)]
    for j, sigma in enumerate(x.simplices(p) if p >= 1 else ()):
        for l in range(p + 1):
            entries[x.index(sigma[:l] + sigma[l + 1:])][j] = (-1) ** l
    return IntMatrix._trusted(entries, rows, x.n_simplices(p))


@dataclass(frozen=True)
class SmithGauge:
    """The H_1 data of ``smith_gauge``: the ``TreeGauge`` attributes,
    and ``classes``, the class of each off-tree edge, dense."""

    offtree: list
    classes: tuple
    generator_classes: list
    loop_edges: list
    loops: list


def smith_gauge(x) -> SmithGauge:
    """The H_1 gauge of ``x`` by the rule ``TreeGauge`` followed before
    it read the relators: the reference for the relator rule.

    A 1-cycle is fixed by its coefficients on the off-tree edges of the
    presentation's tree, so H_1 is Z^k modulo the columns of A, the
    k x n_2 off-tree rows of d_2.  With U A V = D of rank r, H_1 has
    torsion exactly when D holds an entry >= 2, and rows r.. of U map
    each off-tree edge to its class.  Their Hermite form, read from the
    last off-tree edge, fixes the basis; where every pivot is 1, the
    loop edges are the off-tree edges at the pivots, else each loop
    runs the fundamental loops by the solution of H x = e_j.  Where the
    form has a pivot on an edge the forest erased, which the relators
    cannot see, the two rules pick different bases of one lattice."""
    p = x.presentation
    if p is None:
        raise ValueError("base complex is not connected")
    k, loop = len(p.offtree), p.fundamental_loop
    d2_rows = boundary_matrix(x, 2).nonzero_rows()
    h1 = smith_normal_form(IntMatrix._trusted(
        [d2_rows[x.index(e)] for e in p.offtree], k, x.n_simplices(2)))
    if any(d >= 2 for d in h1.diagonal):
        raise ValueError("base has torsion in H_1; unsupported")
    form = _hermite_from_the_right(h1.U.nonzero_rows()[h1.rank:], k)
    classes = tuple(tuple(row[j] for row in form) for j in range(k))
    pivots = [max(j for j, c in enumerate(row) if c) for row in form]
    if all(row[q] == 1 for row, q in zip(form, pivots)):
        loop_edges = [p.offtree[q] for q in pivots]
        loops = [loop(e) for e in loop_edges]
    else:
        loop_edges = None
        lift = solve(IntMatrix(form, shape=(len(form), k)),
                     IntMatrix.identity(len(form)))
        loops = [[0] + [v for e, n in zip(p.offtree, lift.column(j))
                        for v in loop(e, n)[1:]]
                 for j in range(len(form))]
    return SmithGauge(
        p.offtree, classes,
        [tuple((i, c) for i, c in enumerate(classes[j]) if c)
         for j in p.leftover], loop_edges, loops)


def basis_change(x) -> IntMatrix:
    """The matrix P with P c = c' for every generator of
    ``x.presentation``, c its class in ``smith_gauge(x)``'s basis and c'
    in ``x.tree_gauge``'s, solved from the generators' classes, which
    span H_1; None when no integer P exists.  The two bases are bases of
    one lattice exactly when P is unimodular."""
    old, new = smith_gauge(x), x.tree_gauge
    n = len(new.loops)

    def dense(classes):  # one row per generator
        return IntMatrix([[dict(c).get(i, 0) for i in range(n)]
                          for c in classes], shape=(len(classes), n))
    change = solve(dense(old.generator_classes), dense(new.generator_classes))
    return None if change is None else change.transpose()


def offtree_classes(x):
    """{off-tree edge: its class in H_1} in the basis of
    ``x.tree_gauge``, dense: ``smith_gauge(x)``'s classes, carried over
    by ``basis_change``."""
    gauge, change = smith_gauge(x), basis_change(x)
    return {e: change.apply(c) for e, c in zip(gauge.offtree, gauge.classes)}


def class_power_table(x, mats, fiber_rank):
    """The transport table of ``from_monodromy(x, mats)`` by classes:
    the identity on tree edges, and on each off-tree edge of class c in
    ``offtree_classes(x)`` prod_i m_i^(c_i) forwards and
    prod_i m_i^(-c_i) backwards: the reference for the table
    ``from_monodromy`` makes by flatness, which reads no such class."""
    ident = IntMatrix.identity(fiber_rank)
    table = {h: ident for (u, v) in x.simplices(1) for h in ((u, v), (v, u))}
    for (u, v), cls in offtree_classes(x).items():
        for key, sign in (((u, v), 1), ((v, u), -1)):
            table[key] = reduce(lambda a, b: a * b,
                                (m.power(sign * c) for m, c in zip(mats, cls)),
                                ident)
    return table


def surface_word(x):
    """The relator of the one-relator cell model of a closed oriented
    surface, by the walk of the one disk left by cutting it along the
    breadth-first tree and the cotree (Eppstein, SODA 2003): the
    reference for the one relator of ``x.presentation``, which reads no
    ``orientation``.  Letters (i, s), x_i^s, over the generators of
    ``tree_gauge.loops``.

    The boundary is walked on half-edges, each triangle's edges directed
    by the coherent ``orientation``: after u -> v comes v -> w of the
    same triangle, and while v -> w is a cotree edge, interior to the
    disk, the walk turns about v into the triangle across it.  A
    half-edge of loop edge (a, b), a < b, reads x_i from a to b and
    x_i^-1 back; tree edges read nothing.  The walk must cover every
    non-cotree half-edge exactly once, and the word is certified by
    ``check_surface_word``.  A failure raises ValueError, as on any
    complex that is not a closed orientable surface."""
    gauge = x.tree_gauge
    loop_edges = gauge.loop_edges or ()
    letters = {}
    for i, (a, b) in enumerate(loop_edges):
        letters[a, b], letters[b, a] = (i, 1), (i, -1)
    cotree = set(gauge.offtree) - set(loop_edges)
    after = {}  # half-edge -> the next one around its triangle
    for eps, (a, b, c) in zip(x.orientation, x.simplices(2)):
        cycle = (a, b, c) if eps > 0 else (a, c, b)
        for k in range(3):
            after[cycle[k - 2], cycle[k - 1]] = (cycle[k - 1], cycle[k])
    walk = [next(h for h in after if tuple(sorted(h)) not in cotree)]
    while len(walk) <= len(after):
        h = after[walk[-1]]
        while tuple(sorted(h)) in cotree:
            h = after[h[::-1]]
        if h == walk[0]:
            break
        walk.append(h)
    if len(walk) != 2 * (x.n_simplices(1) - len(cotree)):
        raise ValueError("the surface cut along its tree and cotree "
                         "is not one disk")
    word = tuple(letters[h] for h in walk if h in letters)
    check_surface_word(word, len(gauge.loops))
    return word


def check_surface_word(word, generators):
    """Certify ``word``, letters (i, s) with s = +-1, as the relator of
    a closed oriented surface on ``generators`` = 2 - chi generators,
    2g on a genus-g surface: its length is twice that, and each
    generator occurs twice, once with each sign.  A failure raises
    ValueError."""
    if len(word) != 2 * generators or sorted(word) != sorted(
            (i, s) for i in range(generators) for s in (-1, 1)):
        raise ValueError("boundary word %r is not a surface relator on "
                         "%d generators" % (word, generators))


def cup_intersection_form(x) -> IntMatrix:
    """The intersection form J of the canonical H_1 basis of a closed
    oriented surface, from the triangles' cup products.

    J_ij = sum_t eps_t alpha_i(a, b) alpha_j(b, c) over the triangles
    t = (a, b, c), with eps the orientation: the cup product of the
    cocycles alpha_i dual to the basis, evaluated on the fundamental
    class.  alpha_i is coordinate i of ``offtree_classes(x)`` on each
    off-tree edge and 0 on tree edges; it is a cocycle because every
    triangle boundary is null-homologous."""
    n = len(x.tree_gauge.loops)
    alpha = {e: [(i, c) for i, c in enumerate(cls) if c]
             for e, cls in offtree_classes(x).items()}
    form = [[0] * n for _ in range(n)]
    for eps, (a, b, c) in zip(x.orientation, x.simplices(2)):
        for i, u in alpha.get((a, b), ()):
            for j, v in alpha.get((b, c), ()):
                form[i][j] += eps * u * v
    return IntMatrix(form)


def word_intersection_form(word, generators) -> IntMatrix:
    """The intersection form read from a surface relator: J_ab =
    sum_k s_k alpha_a(p_k) [x_k = b] over the letters x_k^(s_k), where
    alpha_a counts x_a in p_k, the prefix before letter k, or through it
    when the letter is inverted."""
    form = [[0] * generators for _ in range(generators)]
    count = [0] * generators
    for b, s in word:
        if s < 0:
            count[b] -= 1
        for a in range(generators):
            form[a][b] += s * count[a]
        if s > 0:
            count[b] += 1
    return IntMatrix(form)


# --- the floating-point front end ---------------------------------------
#
# Winding numbers from phase samples and Chern cocycles from transition
# logs.  No command reads them: a ``bundle`` document gives its windings
# and Chern data as integers.  Acceptance criterion 09 runs them on
# honest transition data of the flat 7-vertex torus.

def winding_number(phases, tol=1e-6) -> int:
    """Winding of a circle-valued loop from sampled phase angles.

    The samples must traverse the loop densely enough that consecutive
    angles differ by less than pi (principal-branch condition), and the
    first and last samples must represent the same point.
    """
    total = 0.0
    for a, b in zip(phases, phases[1:]):
        inc = math.remainder(float(b) - float(a), 2.0 * math.pi)
        if abs(inc) >= math.pi - 1e-9:
            raise ValueError("undersampled loop: phase step of %.3f rad" % inc)
        total += inc
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > tol:
        raise ValueError("closure mismatch: %.6f turns is not an integer"
                         % turns)
    return int(nearest)


def chern_cocycle(transitions, base, tol=1e-6):
    """Integer 2-cochain from transition-log data.

    ``transitions`` maps each 2-simplex (u, v, w), u < v < w, to the
    triple (h_uv, h_vw, h_wu) of transition logs evaluated near that
    simplex; their sum must be within ``tol`` of an integer, which
    becomes the cocycle value.  A list in sorted 2-simplex order is also
    accepted.
    """
    tris = base.simplices(2)
    if not isinstance(transitions, dict):
        transitions = dict(zip(tris, transitions))
    values = []
    for tri in tris:
        try:
            triple = transitions[tri]
        except KeyError:
            raise ValueError("missing transition data for %r" % (tri,)) from None
        s = float(sum(triple))
        nearest = round(s)
        if abs(s - nearest) > tol:
            raise ValueError(
                "non-integral transition sum %.8f on %r: inconsistent data"
                % (s, tri))
        values.append(int(nearest))
    return tuple(values)


# --- degree-d transition data on the flat 7-vertex torus ---------------
#
# The 7-vertex torus is the unit-grid triangulation of the plane modulo
# L = ker(Z^2 -> Z/7, (x, y) -> x + 2y).  A degree-d line bundle is
# realized by the factor of automorphy  f(z + m) = e^{2 pi i d m_t s(z)} f(z)
# in L-adapted coordinates (s, t); vertex charts use the canonical lifts
# (c, 0), and the transition log between charts i and j near a triangle is
# d * (mu_i - mu_j)_t * (p - mu_i)_s  with mu the lift offsets and p the
# evaluation point.  The resulting cocycle pairs to _DEGREE_SIGN * d; the
# constant is the orientation of this chart atlas against the builtin
# coherent orientation and is fixed once here.

_L_BASIS = ((-2, 1), (1, 3))  # basis of L; det = -7
_DEGREE_SIGN = -1  # orientation of the chart atlas against the builtin
                   # coherent orientation; pins pairing(data(d)) == d


def _l_coords(point):
    """Exact (s, t) coordinates of an integer or rational point in the
    L-basis."""
    (a, c), (b, d) = _L_BASIS  # columns (a, c) and (b, d)
    det = a * d - b * c
    x, y = Fraction(point[0]), Fraction(point[1])
    s = (d * x - b * y) / det
    t = (-c * x + a * y) / det
    return s, t


def _torus_grid_lifts():
    """Lifted vertex triples for each triangle of the 7-vertex torus,
    keyed by the sorted vertex tuple; lifts are grid points in Z^2."""
    lifts = {}
    for i in range(7):
        for corners in (((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1))):
            tri = {}
            for (dx, dy) in corners:
                pt = (i + dx, dy)
                cls = (pt[0] + 2 * pt[1]) % 7
                tri[cls] = pt
            key = tuple(sorted(tri))
            lifts[key] = tri
    return lifts


def torus_transition_data(d: int):
    """Transition-log triples of a degree-d circle bundle on torus2.

    Returns {2-simplex: (h_uv, h_vw, h_wu)} suitable for
    :func:`chern_cocycle`; the extracted cocycle pairs to exactly d.
    """
    d = _DEGREE_SIGN * d
    data = {}
    for tri, lift in _torus_grid_lifts().items():
        mu = {}
        for cls, pt in lift.items():
            offset = (pt[0] - cls, pt[1])  # lift minus canonical lift (cls, 0)
            s, t = _l_coords(offset)
            if s.denominator != 1 or t.denominator != 1:
                raise AssertionError("lift offset is not in the sublattice")
            mu[cls] = (int(s), int(t))
        bary = (Fraction(sum(pt[0] for pt in lift.values()), 3),
                Fraction(sum(pt[1] for pt in lift.values()), 3))
        ps, pt_ = _l_coords(bary)

        def h(i, j):
            dt = mu[i][1] - mu[j][1]
            return float(d * dt * (ps - mu[i][0]))

        u, v, w = tri
        data[tri] = (h(u, v), h(v, w), h(w, u))
    return data


def subquotient(cycles: IntMatrix, boundaries: IntMatrix) -> Subquotient:
    """Present Z/B for column-generated Z and B with B contained in Z."""
    dec = smith_normal_form(cycles)
    return Subquotient(dec, relations(dec, boundaries))


def cokernel(a: IntMatrix) -> Subquotient:
    """Z^rows / im(A), presented with canonical generator expressions;
    the cycles are the identity, so A is its own relation matrix."""
    return Subquotient(SmithDecomposition.identity(a.nrows),
                       smith_normal_form(a))


def integral_homology(x):
    """H_p(X; Z) for p = 0..dim, via kernels/images of boundary matrices."""
    out = []
    for p in range(x.dimension + 1):
        dp = boundary_matrix(x, p)
        dnext = boundary_matrix(x, p + 1) if p + 1 <= x.dimension else \
            IntMatrix.zeros(x.n_simplices(p), 0)
        out.append(subquotient(kernel(dp), dnext).quotient)
    return out


@dataclass(frozen=True)
class Invariants:
    """The invariant subgroup of a fiber under commuting monodromy."""

    group: FgAbGroup
    basis: IntMatrix  # columns: a saturated basis inside Z^fiber_rank


def invariants(mats, fiber_rank) -> Invariants:
    """Common fixed subgroup: kernel of the stacked (A_i - I).

    >>> invariants([IntMatrix([[1, 2], [0, 1]]), IntMatrix([[1, 4], [0, 1]])], 2).group
    FgAbGroup(free_rank=1, torsion=())
    """
    ident = IntMatrix.identity(fiber_rank)
    stacked = reduce(IntMatrix.vstack, [m - ident for m in mats],
                     IntMatrix.zeros(0, fiber_rank))
    basis = kernel(stacked)
    return Invariants(FgAbGroup(basis.ncols, ()), basis)


def coinvariants(mats, fiber_rank) -> Subquotient:
    """Largest quotient with trivial action: cokernel of [A_1-I | ... ].

    Returned as a Subquotient of the fiber so classes of fiber vectors
    can be computed with ``project``.
    """
    ident = IntMatrix.identity(fiber_rank)
    return cokernel(reduce(IntMatrix.hstack, [m - ident for m in mats],
                           IntMatrix.zeros(fiber_rank, 0)))


def _induced_on_kernel(a1, k):
    """Matrix of a1 restricted to the saturated sublattice spanned by k."""
    x = solve(k, a1 * k)
    if x is None:
        raise AssertionError("action does not preserve the kernel")
    return x


def _inv_on_quotient(a1, rel):
    """Invariants of the action induced by a1 on Z^m / im(rel)."""
    m = a1.nrows
    ident = IntMatrix.identity(m)
    pre = preimage_lattice(a1 - ident, rel)
    return subquotient(pre, rel).quotient


@dataclass(frozen=True)
class RecursionReport:
    """Per-degree comparison of H^k(Z^2, M) against the Z-recursion."""

    groups: tuple           # H^0..H^2 of Z^2
    coinv_ends: tuple       # Coinv_Z H^{k-1}(Z, M) for k = 0..2
    inv_ends: tuple         # Inv_Z H^k(Z, M) for k = 0..2
    rank_ok: tuple
    torsion_ok: tuple

    @property
    def ok(self):
        return all(self.rank_ok) and all(self.torsion_ok)


def recursion_check(module) -> RecursionReport:
    """Rank and torsion consistency of the classifying-space answer with
    the recursion through the last Z-factor.

    For each k the recursion provides a short exact sequence with ends
    Coinv_Z H^{k-1}(Z, M) and Inv_Z H^k(Z, M), where Z acts through the
    first matrix and H^*(Z, M) is taken for the second.  The sequence
    determines the middle group only up to extension, so free ranks add
    exactly, and the middle torsion order divides the product of the
    ends'.
    """
    if module.n != 2:
        raise ValueError("recursion check needs n = 2")
    a1, a2 = module.action
    m = module.rank
    ident = IntMatrix.identity(m)
    groups = tuple(zn_cohomology(module))

    # H^*(Z, M) for the second factor, with the induced action of the first.
    k_basis = kernel(a2 - ident)
    a1_on_h0 = _induced_on_kernel(a1, k_basis)
    sub_ident = IntMatrix.identity(k_basis.ncols)

    inv_h0 = FgAbGroup(kernel(a1_on_h0 - sub_ident).ncols, ())
    coinv_h0 = cokernel(a1_on_h0 - sub_ident).quotient
    inv_h1 = _inv_on_quotient(a1, a2 - ident)
    coinv_h1 = cokernel((a1 - ident).hstack(a2 - ident)).quotient

    zero = FgAbGroup(0, ())
    coinv_ends = (zero, coinv_h0, coinv_h1)   # Coinv of H^{k-1}
    inv_ends = (inv_h0, inv_h1, zero)         # Inv of H^k

    rank_ok = tuple(
        groups[k].free_rank == coinv_ends[k].free_rank + inv_ends[k].free_rank
        for k in range(3))
    torsion_ok = tuple(
        (coinv_ends[k].torsion_order() * inv_ends[k].torsion_order())
        % groups[k].torsion_order() == 0
        for k in range(3))
    return RecursionReport(groups, coinv_ends, inv_ends, rank_ok, torsion_ok)


def simplicial_k_theory_bundle(spec) -> GradedKBundle:
    """The graded coefficient bundle of an ncp spec on the triangulation
    of its base.

    Even part: each generator loop acts on the fiber K0 = Z[1] (+) Z.beta
    by (1 w; 0 1) with w the corresponding winding.  Odd part: the
    classes [U_1], [U_2] are invariant, so the system is constant.
    """
    base = spec.base
    mats = [IntMatrix([[1, w], [0, 1]]) for w in spec.winding]
    even = from_monodromy(base, mats, fiber_rank=FIBER_RANK)
    odd = LocalSystem.constant(base, FIBER_RANK)
    return GradedKBundle(even=even, odd=odd)


def simplicial_e1_page(x, bundle) -> SpectralPage:
    """The first page of a graded bundle on the simplicial cochains of
    x, whatever x is: ``build`` of each parity under e1, and d1, their
    coboundaries, stored, so the E1 -> E2 turn can be taken.
    ``spectral.e1_page`` takes a closed orientable surface to its cell
    model instead; a test that means the simplicial pipeline takes
    this."""
    complexes = {s: build(x, bundle.part(s)) for s in (0, 1)}
    return first_page(complexes).with_differentials({
        (p, q): complexes[(p + q) % 2].differential(p)
        for p in range(x.dimension) for q in (0, 1)})


def simplicial_analysis(spec) -> NcpAnalysis:
    """``ncp_bundles.analyze`` on the simplicial cochains of the base:
    the same pages, injected d2, limit and verdict, from coboundaries of
    the size of the triangulation."""
    page1 = simplicial_e1_page(spec.base, simplicial_k_theory_bundle(spec))
    page2 = e2_page(page1)
    d2 = d2_spec(spec, page2)
    page2d = page2.with_differentials(d2.page_differentials)
    page3 = attach_d2(page2d)
    k0, k1 = assemble(page3)
    return NcpAnalysis(spec=spec, e1=page1, e2=page2d, d2=d2, e3=page3,
                       k_even=k0, k_odd=k1, verdict=is_rkk_trivial(spec))
