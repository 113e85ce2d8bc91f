"""Finite oriented simplicial complexes.

Stored simplices are strictly increasing vertex tuples (the canonical
orientation).  The l-th face of a stored simplex ``sigma`` is
``sigma[:l] + sigma[l + 1:]``, again increasing, so it is its own
canonical representative and enters the boundary with sign (-1)^l.

Built-in triangulations are constructed programmatically and verified
at build time rather than transcribed from tables: surfaces by their
Euler characteristic and a coherent orientation, which together fix
their integral homology (see ``_verify_surface``).

A connected complex of dimension <= 2 has a reduced ``Presentation``,
one vertex, generators and relators, which the cohomology of any local
system over it is computed on.  Everything else the base gives is read
from it: a surface's coherent ``orientation`` is its forest's signs,
checked; ``TreeGauge`` reads H_1 from the relators' exponent sums, to
fix what a monodromy prescription means; and
``local_systems.from_monodromy`` solves the prescription's transports
along the same forest.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from itertools import combinations

from .exactlinalg import IntMatrix, smith_normal_form, solve


# Most faces a complex may enumerate: its vertices plus the nonempty
# faces of each listed simplex, sum(2^|s| - 1), duplicates counted.  It
# is checked before any face is listed, so an oversized document fails
# at once instead of exhausting memory.  genus(8), the benchmarks'
# largest base, counts 721.  genus(g) is built in one pass, oriented by
# its presentation's forest and gauged from its relator, whose exponent
# sums vanish, all in about linear time: on one core of a 2-core x86
# host (CPython 3.11.7), genus(113) builds in 10-11 ms, and a cold ncp
# job on it (import, build, gauge and pages) takes 28-31 ms, peaking at
# 20 MiB, and the whole fresh process 72-83 ms (tools/cold_surfaces.py,
# 6 runs).  The largest builtins it admits are genus(113),
# circle(2500), simplex(12).
MAX_FACES = 10_000


def _check_faces(count):
    if count > MAX_FACES:
        raise ValueError("complex too large: more than %d faces to list"
                         % MAX_FACES)


class SimplicialComplex:
    """Finite simplicial complex, closed under faces by construction."""

    def __init__(self, vertex_count, top_simplices):
        _check_faces(vertex_count + sum(2 ** len(s) - 1
                                        for s in top_simplices))
        by_dim = {}
        for simp in top_simplices:
            verts = tuple(sorted(simp))
            if len(set(verts)) != len(verts):
                raise ValueError("repeated vertices in %r" % (simp,))
            if verts and (verts[0] < 0 or verts[-1] >= vertex_count):
                raise ValueError("vertex index out of range in %r" % (simp,))
            for k in range(1, len(verts) + 1):
                for sub in combinations(verts, k):
                    by_dim.setdefault(k - 1, set()).add(sub)
        by_dim.setdefault(0, set()).update((i,) for i in range(vertex_count))
        self.vertex_count = vertex_count
        self._simplices = {
            p: tuple(sorted(by_dim[p])) for p in sorted(by_dim)
        }
        self._index = {
            p: {s: i for i, s in enumerate(simps)}
            for p, simps in self._simplices.items()
        }
        self.dimension = max(self._simplices) if self._simplices else -1

    def simplices(self, p):
        """The ordered list C_p of p-simplices (strictly increasing tuples)."""
        return self._simplices.get(p, ())

    def n_simplices(self, p):
        return len(self.simplices(p))

    def index(self, simplex):
        verts = tuple(simplex)
        p = len(verts) - 1
        try:
            return self._index[p][verts]
        except KeyError:
            raise KeyError("simplex %r not in complex" % (verts,)) from None

    def has_simplex(self, simplex):
        verts = tuple(sorted(simplex))
        return verts in self._index.get(len(verts) - 1, {})

    def adjacent(self, u, v):
        return u != v and self.has_simplex((min(u, v), max(u, v)))

    def euler_characteristic(self):
        return sum((-1) ** p * self.n_simplices(p)
                   for p in range(self.dimension + 1))

    @cached_property
    def tree_gauge(self) -> "TreeGauge":
        """The complex's ``TreeGauge``, built on first use and kept, so
        every monodromy prescription on the complex shares it."""
        return TreeGauge(self)

    @cached_property
    def presentation(self) -> "Presentation | None":
        """The complex's reduced ``Presentation``, made on first use and
        kept, so every reader of its tree, generators or relators shares
        it; None on a complex that is empty or not connected."""
        n = self.vertex_count
        adj = {i: [] for i in range(n)}
        for (u, v) in self.simplices(1):  # edges come sorted, so do the lists
            adj[u].append(v)
            adj[v].append(u)
        # the breadth-first tree: each vertex's parent, vertex 0 its own
        parent = [0] + [-1] * (n - 1)
        queue = [0] if n else []
        for u in queue:
            for v in adj[u]:
                if parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        return Presentation(self, parent) if n and len(queue) == n else None

    @cached_property
    def orientation(self):
        """Signs eps per 2-simplex making their signed sum a cycle,
        computed on first use and kept, so a surface is oriented once;
        a non-surface raises on every use.

        This is also the certificate that the complex is a closed,
        triangle-connected, orientable surface.  The signs are the
        presentation's ``eps``, each triangle oriented against its
        parent in the forest, the first +1; they are checked, not
        spread again: dimension 2, one disk, and every edge, tree edges
        included, in exactly two triangles, so every vertex of the
        connected complex is in one.  Every edge must enter the
        boundaries of its two oriented triangles with opposite signs,
        as an edge the forest erased does by construction.  The result
        spans ker d_2.
        """
        p = self.presentation if self.dimension == 2 else None
        if p is None or len(p.disks) != 1:
            raise ValueError("not a closed connected surface")
        signs = {}  # edge -> its sign in each oriented triangle's boundary
        for e, (a, b, c) in zip(p.eps, self.simplices(2)):
            for edge, s in (((b, c), e), ((a, c), -e), ((a, b), e)):
                signs.setdefault(edge, []).append(s)
        if (len(signs) != self.n_simplices(1)
                or any(len(s) != 2 for s in signs.values())):
            raise ValueError("not a closed connected surface")
        if any(map(sum, signs.values())):
            raise ValueError("surface is not orientable")
        return tuple(p.eps)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self._simplices == other._simplices)

    def __hash__(self):
        return hash((self.vertex_count,
                     tuple(sorted(self._simplices.items()))))

    def __repr__(self):
        counts = tuple(self.n_simplices(p) for p in range(self.dimension + 1))
        return "SimplicialComplex(vertices=%d, counts=%s)" % (
            self.vertex_count, counts)


class Presentation:
    """The reduced presentation of a connected complex of dimension <= 2:
    one vertex, one generator x_i per edge that two kinds of collapse
    leave, and one relator per 2-cell they leave (Cohen, *A Course in
    Simple-Homotopy Theory*, GTM 10).  It needs no basis of H_1.

    ``parent`` is the breadth-first tree from vertex 0, one parent per
    vertex, and ``offtree`` lists the edges off it, in order; contracting
    the tree leaves one loop per off-tree edge.  An off-tree edge in
    exactly two triangles can join them: union-find over
    these edges, in order, takes a spanning forest of triangles, and
    erasing each edge it takes merges its two triangles, so each
    component becomes one disk.  The off-tree edges it does not take,
    ``leftover`` by index, are the ``generators``, in order, however many
    triangles they lie in.  On a closed orientable surface the forest is
    the cotree (Eppstein, SODA 2003).

    Each disk's boundary, walked once, is one of the ``relators``, a
    tuple of letters (i, s), x_i^s, the disks in the order of their
    least triangles.  Each triangle (a, b, c) is oriented relative to its
    parent in the forest, a disk's least one as a -> b -> c, so on a
    closed orientable surface, one disk, this is its ``orientation``,
    which checks it.  ``TreeGauge`` reads H_1 from the relators'
    exponent sums.  The walk goes on half-edges, keyed by (triangle,
    face), since an edge in three or more triangles can occur twice in
    one disk in the same direction: after u -> v comes v -> w of the
    same triangle, and while v -> w is erased, the walk crosses it into
    the triangle across, where it reads w -> v.  A half-edge of generator (a, b), a < b, reads x_i from a to b
    and x_i^-1 back; tree edges read nothing.  The walk starts at the
    disk's first half-edge that is not erased, its triangles in order,
    each from face 0 on, and must cover the n + 2 such half-edges of a
    disk of n triangles, else AssertionError is raised.  The relators
    are walked on first read.

    ``faces`` holds each triangle's faces by off-tree index, None on the
    tree; ``eps`` each triangle's orientation, +1 for a -> b -> c;
    ``disks`` each disk's triangles, breadth-first from its least; and
    ``up`` the erased edge from each other triangle towards its disk's
    least, by off-tree index.  Taken from the leaves,
    ``reversed(disk[1:])``, each triangle's other edges are on the tree,
    generators, or erased towards triangles already taken: the order in
    which ``local_systems.from_monodromy`` solves each erased edge's
    transport by flatness.
    """

    def __init__(self, x, parent):
        self.parent = parent
        tree = {(min(u, v), max(u, v)) for v, u in enumerate(parent) if v}
        self.offtree = [e for e in x.simplices(1) if e not in tree]
        index = {e: j for j, e in enumerate(self.offtree)}
        # per triangle, the off-tree index of its face l, (-1)^l in d_2,
        # or None on the tree; per off-tree edge, the triangles it bounds
        self.faces = [(index.get((b, c)), index.get((a, c)),
                       index.get((a, b))) for a, b, c in x.simplices(2)]
        sides = [[] for _ in self.offtree]
        for t, faces in enumerate(self.faces):
            for j in faces:
                if j is not None:
                    sides[j].append(t)
        root = list(range(len(self.faces)))

        def find(t):
            while root[t] != t:
                root[t] = t = root[root[t]]
            return t
        # per triangle, its erased faces l, each with the triangle u
        # across it and the same edge's face k there
        faces, self.leftover = self.faces, []
        self._erased = erased = [[] for _ in faces]
        for j, ts in enumerate(sides):
            if len(ts) == 2 and (a := find(ts[0])) != (b := find(ts[1])):
                root[a] = b
                t, u = ts
                l, k = faces[t].index(j), faces[u].index(j)
                erased[t].append((l, u, k))
                erased[u].append((k, t, l))
            else:
                self.leftover.append(j)
        self.generators = [self.offtree[j] for j in self.leftover]
        # each disk's triangles breadth-first, and the erased edge from
        # each triangle towards its disk's first
        self.eps, self.disks, self.up = [0] * len(faces), [], {}
        eps, up = self.eps, self.up
        for first in range(len(eps)):
            if not eps[first]:
                eps[first], disk = 1, [first]
                for t in disk:
                    for l, u, k in erased[t]:
                        if not eps[u]:
                            eps[u] = -eps[t] * _SIGNS[l] * _SIGNS[k]
                            up[u] = faces[t][l]
                            disk.append(u)
                self.disks.append(disk)

    @cached_property
    def relators(self):
        """One word per disk, by the walk of its boundary."""
        faces, eps = self.faces, self.eps
        across = {(t, l): (u, k) for t, links in enumerate(self._erased)
                  for l, u, k in links}
        letter = {j: i for i, j in enumerate(self.leftover)}
        relators = []
        for disk in self.disks:
            start = next((t, l) for t in sorted(disk)
                         for l in (0, eps[t] % 3, -eps[t] % 3)
                         if (t, l) not in across)
            (t, l), word, steps = start, [], 0
            while not steps or (t, l) != start:
                j = faces[t][l]
                if j is not None:  # a generator: tree edges read nothing
                    word.append((letter[j], eps[t] * _SIGNS[l]))
                steps += 1
                l = (l + eps[t]) % 3
                while (t, l) in across:
                    t, l = across[t, l]
                    l = (l + eps[t]) % 3
            if steps != len(disk) + 2:
                raise AssertionError("the walk does not go round one disk")
            relators.append(tuple(word))
        return relators

    def fundamental_loop(self, edge, n=1):
        """The fundamental loop of off-tree ``edge`` (u, v), u < v, run
        n times, backwards when n < 0: a vertex path at vertex 0, down
        the tree to u, across the edge, and up the tree from v."""
        parent, paths = self.parent, []
        for v in (edge if n > 0 else edge[::-1]):
            paths.append([v])
            while v:
                v = parent[v]
                paths[-1].append(v)
        return [0] + (paths[0][-2::-1] + paths[1]) * abs(n)


_SIGNS = (1, -1, 1)  # (-1)^l, the sign of face l in d_2


class TreeGauge:
    """The H_1 data of a connected complex with torsion-free H_1 that
    pins a commuting monodromy representation, read from its reduced
    presentation, ``x.presentation``, alone.

    ``loops`` holds one loop at vertex 0 per generator of H_1, in the
    canonical order, and ``generator_classes`` the class in H_1 of each
    generator of the presentation, in canonical coordinates, as its
    nonzero (coordinate, value) pairs.

    H_1 is Z^k, one coordinate per generator, modulo the exponent sums
    of the relators, the rows of an r x k matrix M.  The canonical basis
    is fixed by the Hermite form H of the class map Z^k -> H_1, read
    from the last generator (``_hermite_from_the_right``): it depends on
    the lattice of the integer vectors y with M y = 0 alone, so the
    basis, and with it what a monodromy prescription means, depends on
    the complex alone.  Where every pivot of H is 1, ``loop_edges``
    lists the generators at the pivots, in order, and generator i of
    H_1 is the class of the fundamental loop of the edge at pivot i,
    which is its loop.

    Where every exponent sum is zero, H is the identity and no matrix is
    made: generator i's class is e_i and ``loop_edges`` are the
    generators.  This holds on every closed orientable surface, whose
    one relator holds each generator once with each sign, on
    ``sphere2``, ``circle(n)`` and every graph.  Elsewhere U M V = D of
    rank r (one SNF): H_1 has torsion exactly when D holds an entry >= 2,
    and columns r.. of V map each generator to its class.  Where some
    pivot of H is not 1, the loop of generator j of H_1 runs the
    fundamental loops by the integer solution x of H x = e_j
    (``solve``), so only its class is kernel-free, and ``loop_edges`` is
    None.
    """

    def __init__(self, x: SimplicialComplex):
        if not x.vertex_count:
            raise ValueError("base complex has no vertex")
        p = x.presentation
        if p is None:
            raise ValueError("base complex is not connected")
        self.parent, self.offtree = p.parent, p.offtree
        k, loop = len(p.generators), p.fundamental_loop
        sums = [{} for _ in p.relators]
        for row, word in zip(sums, p.relators):
            for i, s in word:
                row[i] = row.get(i, 0) + s
                if not row[i]:
                    del row[i]
        if not any(sums):  # H is the identity
            self.loop_edges = p.generators
            self.generator_classes = [((i, 1),) for i in range(k)]
            self.loops = [loop(e) for e in self.loop_edges]
            return
        h1 = smith_normal_form(IntMatrix._trusted(sums, len(sums), k))
        if any(d >= 2 for d in h1.diagonal):
            raise ValueError("base has torsion in H_1; unsupported")
        form = _hermite_from_the_right(
            h1.V.transpose().nonzero_rows()[h1.rank:], k)
        self.generator_classes = [
            tuple((i, row[j]) for i, row in enumerate(form) if row[j])
            for j in range(k)]
        pivots = [max(j for j, c in enumerate(row) if c) for row in form]
        if all(row[q] == 1 for row, q in zip(form, pivots)):
            # column q_i of the form is e_i: generator i is the class of
            # the fundamental loop of generator q_i
            self.loop_edges = [p.generators[q] for q in pivots]
            self.loops = [loop(e) for e in self.loop_edges]
            return
        # no builtin reaches this, but an inline complex can: the
        # mapping cylinder of the degree-2 map of circles has one pivot 2
        self.loop_edges = None
        lift = solve(IntMatrix(form, shape=(len(form), k)),
                     IntMatrix.identity(len(form)))
        self.loops = [[0] + [v for e, n in zip(p.generators, lift.column(j))
                             for v in loop(e, n)[1:]]
                      for j in range(len(form))]


def _hermite_from_the_right(rows, ncols):
    """The Hermite normal form of a full-row-rank integer matrix A, given
    by its nonzero rows, read from its last column, as a list of dense
    rows.

    H is the one matrix with the row space of A whose row i ends in a
    positive pivot at column p_i, with p_0 < p_1 < ..., and whose
    entries below each pivot lie in [0, pivot).  Pivots are found from
    the right: the rows with a nonzero in a column are reduced to one
    by Euclid's algorithm, which becomes that column's pivot row.

    >>> _hermite_from_the_right([{1: 1, 2: 1}, {0: 1, 1: -1}], 3)
    [[-1, 1, 0], [1, 0, 1]]
    """
    h = [[row.get(j, 0) for j in range(ncols)] for row in rows]

    def add(i, k, c):  # row i += c * row k
        if c:
            h[i] = [x + c * y for x, y in zip(h[i], h[k])]

    placed, free = [], list(range(len(h)))
    for j in reversed(range(ncols)):
        live = [i for i in free if h[i][j]]
        while len(live) > 1:
            p = min(live, key=lambda i: (abs(h[i][j]), i))
            for i in live:
                if i != p:
                    add(i, p, -(h[i][j] // h[p][j]))
            live = [i for i in live if h[i][j]]
        if not live:
            continue
        p = live[0]
        if h[p][j] < 0:
            h[p] = [-x for x in h[p]]
        for i in placed:
            add(i, p, -(h[i][j] // h[p][j]))
        placed.append(p)
        free.remove(p)
    return [h[i] for i in reversed(placed)]


def simplex(p: int) -> SimplicialComplex:
    """The full p-simplex (contractible)."""
    if p < 0:
        raise ValueError("dimension must be >= 0")
    # (p + 1) vertices and 2^(p+1) - 1 faces; the exponent is capped
    # where the power alone already exceeds the bound
    _check_faces(p + 2 ** min(p + 1, MAX_FACES.bit_length()))
    return SimplicialComplex(p + 1, [tuple(range(p + 1))])


def circle(n: int) -> SimplicialComplex:
    """The n-gon, n >= 3."""
    if n < 3:
        raise ValueError("circle needs at least 3 vertices")
    _check_faces(4 * n)  # n vertices, n edges of 3 faces each
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SimplicialComplex(n, edges)


def sphere2() -> SimplicialComplex:
    """Boundary of the 3-simplex."""
    return SimplicialComplex(4, list(combinations(range(4), 3)))


def torus2() -> SimplicialComplex:
    """The 7-vertex minimal torus.

    Quotient of the unit-grid triangulation of the plane by the index-7
    sublattice ker(Z^2 -> Z/7, (x, y) -> x + 2y): triangles are
    {i, i+1, i+3} and {i, i+2, i+3} mod 7.
    """
    x = SimplicialComplex(7, _torus_triangles())
    _verify_surface(x, euler=0)
    return x


def _torus_triangles():
    """The 14 triangles of ``torus2``, sorted."""
    return sorted(tuple(sorted((i, (i + a) % 7, (i + 3) % 7)))
                  for i in range(7) for a in (1, 2))


def genus_surface(g: int) -> SimplicialComplex:
    """Closed oriented surface of genus g >= 1, as an iterated connected
    sum of 7-vertex tori; verified by Euler characteristic and a
    coherent orientation.

    The sums are made on triangle lists, in one pass, and the complex is
    made and verified once.  Each sum removes the largest triangle so
    far and glues a torus, less its first triangle (0, 1, 3), along the
    boundaries, sorted vertex to sorted vertex; the torus's other
    vertices become the next fresh ones.  The largest triangle so far
    is always one of the copy glued last, whose triangle (2, 4, 5) has
    fresh vertices alone."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    # 4g + 3 vertices, 12g + 2 triangles of 7 faces each
    _check_faces(88 * g + 17)
    if g == 1:
        return torus2()
    target, *others = last = _torus_triangles()
    tris, fresh = [], 7
    for _ in range(g - 1):
        removed = max(last)
        last.remove(removed)
        tris += last
        relabel = dict(zip(target, removed))
        for v in range(7):
            if v not in relabel:
                relabel[v], fresh = fresh, fresh + 1
        last = [tuple(sorted(relabel[v] for v in tri)) for tri in others]
    x = SimplicialComplex(fresh, tris + last)
    _verify_surface(x, euler=2 - 2 * g)
    return x


def _verify_surface(x, euler):
    """Certify that ``x`` is a closed oriented surface of Euler
    characteristic ``euler``, with H_0 = Z, H_1 = Z^(2 - euler), H_2 = Z.

    The coherent orientation, kept as ``x.orientation``, the signs of
    the presentation's forest, made with it and checked on every edge,
    proves every vertex in one connected family of triangles (so
    H_0 = Z) and every edge in exactly two of them.  Its edge relation
    forces every 2-cycle over Z, or over F_p for any prime p, to be a
    multiple of the orientation, so H_2 = Z and H_2(x; F_p) = F_p; by universal
    coefficients H_1 has no p-torsion, and its rank is then 2 - euler.
    A pinched surface passes too, with the same homology.
    """
    if x.euler_characteristic() != euler:
        raise AssertionError("triangulation has wrong Euler characteristic")
    x.orientation


_BUILTIN_PLAIN = {
    "torus2": torus2,
    "sphere2": sphere2,
}

_BUILTIN_PARAM = {
    "simplex": simplex,
    "circle": circle,
    "genus": genus_surface,
}


def builtin(name) -> SimplicialComplex:
    """Built-in triangulations by name.

    Plain names: ``torus2``, ``sphere2``.  Parametrized: ``simplex(p)``,
    ``circle(n)``, ``genus(g)``, in call syntax, e.g.
    ``builtin("circle(5)")``: exactly ``name(d)``, d in ASCII digits
    without a leading zero, so each has one spelling.
    """
    call = re.fullmatch(r"([a-z0-9]+)\((0|[1-9][0-9]*)\)", name)
    name, param = (call[1], int(call[2])) if call else (name, None)
    if name in _BUILTIN_PLAIN:
        if param is not None:
            raise ValueError("%s takes no parameter" % name)
        return _BUILTIN_PLAIN[name]()
    if name in _BUILTIN_PARAM:
        if param is None:
            raise ValueError("%s requires a parameter" % name)
        return _BUILTIN_PARAM[name](param)
    raise ValueError("unknown builtin complex %r (write name or name(d))"
                     % (name,))


@cache
def shared_builtin(name) -> SimplicialComplex:
    """``builtin(name)``, built on first use and kept for the process.

    Every command that names a base, and ``ncp_bundles.resolve_base``,
    takes it from here, so a base is verified, oriented and given its
    tree gauge once per process.  Each distinct name stays cached;
    ``builtin`` itself builds afresh.
    """
    return builtin(name)
