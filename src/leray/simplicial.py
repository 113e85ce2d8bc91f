"""Finite oriented simplicial complexes.

Stored simplices are strictly increasing vertex tuples (the canonical
orientation).  The l-th face of a stored simplex ``sigma`` is
``sigma[:l] + sigma[l + 1:]``, again increasing, so it is its own
canonical representative and enters the boundary with sign (-1)^l.

Built-in triangulations are constructed programmatically and verified
at build time rather than transcribed from tables: surfaces by their
Euler characteristic and a coherent orientation, which together fix
their integral homology (see ``_verify_surface``).
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from itertools import combinations

from ._kernel import _axpy
from .exactlinalg import IntMatrix, smith_normal_form, solve


# Most faces a complex may enumerate: its vertices plus the nonempty
# faces of each listed simplex, sum(2^|s| - 1), duplicates counted.  It
# is checked before any face is listed, so an oversized document fails
# at once instead of exhausting memory.  genus(8), the benchmarks'
# largest base, counts 721.  genus(g) is built in one pass and gauged
# from its cotree, both in about linear time: on one core of a 2-core
# x86 host (CPython 3.11.7), genus(113) builds in 12-17 ms, and a cold
# ncp job on it (import, build, gauge, boundary word and pages) takes
# 38-49 ms, peaking at 20 MiB, and the whole fresh process 91-109 ms
# (tools/cold_surfaces.py).  The largest builtins it admits are
# genus(113), circle(2500), simplex(12).
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

    def boundary_matrix(self, p) -> IntMatrix:
        """Integral boundary C_p -> C_{p-1} with coefficient (-1)^l."""
        rows = self.n_simplices(p - 1) if p >= 1 else 0
        cols = self.n_simplices(p)
        entries = [{} for _ in range(rows)]
        if p >= 1:
            for j, sigma in enumerate(self.simplices(p)):
                for l in range(p + 1):
                    i = self.index(sigma[:l] + sigma[l + 1:])
                    entries[i][j] = (-1) ** l
        return IntMatrix._trusted(entries, rows, cols)

    def euler_characteristic(self):
        return sum((-1) ** p * self.n_simplices(p)
                   for p in range(self.dimension + 1))

    @cached_property
    def tree_gauge(self) -> "TreeGauge":
        """The complex's ``TreeGauge``, built on first use and kept, so
        every monodromy prescription on the complex shares it."""
        return TreeGauge(self)

    @cached_property
    def boundary_word(self):
        """The relator of the one-relator cell model of a closed oriented
        surface, made on first use and kept: a tuple of letters (i, s),
        x_i^s, over the generators of ``tree_gauge.loops``.

        Cutting the surface along the breadth-first tree and the cotree
        (the off-tree edges that are not ``tree_gauge.loop_edges``)
        leaves one disk (Eppstein, SODA 2003).  Its boundary is walked
        on half-edges, each triangle's edges directed by its
        ``orientation``: after u -> v comes v -> w of the same triangle,
        and while v -> w is a cotree edge, interior to the disk, the walk
        turns about v into the triangle across it.  A half-edge of loop
        edge (a, b), a < b, reads x_i from a to b and x_i^-1 back; tree
        edges read nothing.  The walk must cover every non-cotree
        half-edge exactly once, which makes the cut surface one disk,
        and the word is certified by ``check_surface_word``.  A failure
        raises ValueError.
        """
        gauge = self.tree_gauge
        loop_edges = gauge.loop_edges or ()
        letters = {}
        for i, (a, b) in enumerate(loop_edges):
            letters[a, b], letters[b, a] = (i, 1), (i, -1)
        cotree = set(gauge.offtree) - set(loop_edges)
        after = {}  # half-edge -> the next one around its triangle
        for eps, (a, b, c) in zip(self.orientation, self.simplices(2)):
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
        if len(walk) != 2 * (self.n_simplices(1) - len(cotree)):
            raise ValueError("the surface cut along its tree and cotree "
                             "is not one disk")
        word = tuple(letters[h] for h in walk if h in letters)
        check_surface_word(word, len(gauge.loops))
        return word

    @cached_property
    def orientation(self):
        """Signs eps per 2-simplex making their signed sum a cycle,
        computed on first use and kept, so a surface is oriented once;
        a non-surface raises on every use.

        This is also the certificate that the complex is a closed,
        triangle-connected, orientable surface: dimension 2, every edge
        in exactly two triangles, every vertex in some triangle.  Signs
        spread breadth-first from the first triangle (+1): an edge that
        enters the boundaries of triangles j and k with coefficients s_j
        and s_k cancels exactly when eps_k = -eps_j s_j s_k.  The result
        spans ker d_2.
        """
        tris = self.simplices(2)
        sides = {}  # edge -> [(triangle index, (-1)^l)]
        for j, tri in enumerate(tris):
            for l in range(3):
                sides.setdefault(tri[:l] + tri[l + 1:], []).append(
                    (j, (-1) ** l))
        if (self.dimension != 2 or len(sides) != self.n_simplices(1)
                or any(len(s) != 2 for s in sides.values())
                or len({v for tri in tris for v in tri}) != self.vertex_count):
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


def check_surface_word(word, generators):
    """Certify ``word``, letters (i, s) with s = +-1, as the relator of
    a closed oriented surface on ``generators`` = 2g generators: its
    length is 4g, and each generator occurs twice, once with each sign.
    A failure raises ValueError."""
    if len(word) != 2 * generators or sorted(word) != sorted(
            (i, s) for i in range(generators) for s in (-1, 1)):
        raise ValueError("boundary word %r is not a surface relator on "
                         "%d generators" % (word, generators))


class TreeGauge:
    """Spanning tree of a connected complex with torsion-free H_1, and
    the H_1 data that pins a commuting monodromy representation in it.

    ``paths`` holds each vertex's path from vertex 0 in the
    breadth-first tree; ``classes`` holds the class in H_1 of each
    ``offtree`` edge's fundamental loop, in canonical coordinates, and
    ``loops`` one loop at vertex 0 per generator, in the canonical order.

    A 1-cycle is fixed by its coefficients on the off-tree edges, and
    the fundamental loop of off-tree edge j has coefficients e_j, so H_1
    is Z^k modulo the columns of A, the k x n_2 off-tree rows of d_2.
    The canonical basis is fixed by the Hermite form H of the class map
    Z^k -> H_1, read from the last off-tree edge
    (``_hermite_from_the_right``): it depends on the row lattice of the
    integer row vectors y with y A = 0 alone, so the basis, and with it
    what a monodromy prescription means, depends on the complex alone.
    ``loop_edges`` lists the off-tree edges at the pivots of H, in the
    order of the generators, where every pivot is 1: generator i is then
    the class of the fundamental loop of the edge at pivot i, which is
    its loop.

    On a closed orientable surface (certified by ``orientation``) no
    matrix is made (``_cotree``).  The off-tree edges join the triangles
    they bound, and a union-find forest over them, taken in their order,
    is a spanning tree of that dual graph, the cotree; the 2 - chi edges
    it leaves over are ``loop_edges``.  These are the pivots of H, every
    pivot 1: the columns of H and the rows of A have dual matroids, the
    pivots read from the right are the greedy basis from the last
    column, and its complement is the greedy forest from the first
    (Eppstein, SODA 2003, for the tree-cotree split).  ``classes`` are
    made on first read, by peeling the cotree from its leaves, one
    triangle relation at a time, and every relation is then checked.

    On any other complex, U A V = D of rank r (one SNF): H_1 has torsion
    exactly when D holds an entry >= 2, rows r.. of U map each off-tree
    edge to its class, and H is their Hermite form.  Where some pivot is
    not 1, the loop of generator j runs the fundamental loops by the
    integer solution x of H x = e_j (``solve``), so only its class is
    kernel-free, and ``loop_edges`` is None.
    """

    def __init__(self, x: SimplicialComplex):
        if not x.vertex_count:
            raise ValueError("base complex has no vertex")
        adj = {i: [] for i in range(x.vertex_count)}
        for (u, v) in x.simplices(1):  # edges come sorted, so do the lists
            adj[u].append(v)
            adj[v].append(u)
        # the breadth-first tree: each vertex's parent, vertex 0 its own
        self.parent = parent = [-1] * x.vertex_count
        parent[0] = 0
        queue = [0]
        for u in queue:
            for v in adj[u]:
                if parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if len(queue) != x.vertex_count:
            raise ValueError("base complex is not connected")
        tree = {(min(u, v), max(u, v)) for v, u in enumerate(parent) if v}
        self.offtree = [e for e in x.simplices(1) if e not in tree]
        try:
            x.orientation
        except ValueError:
            self._smith(x)
        else:
            self._cotree(x)

    def _cotree(self, x):
        index = {e: j for j, e in enumerate(self.offtree)}
        # per triangle, its off-tree edges with their signs in d_2; per
        # off-tree edge, the two triangles it bounds
        self._relations, self._sides = [], [[] for _ in self.offtree]
        for t, tri in enumerate(x.simplices(2)):
            relation = []
            for l, edge in enumerate(((tri[1], tri[2]), (tri[0], tri[2]),
                                      (tri[0], tri[1]))):
                j = index.get(edge)
                if j is not None:
                    relation.append((j, -1 if l == 1 else 1))
                    self._sides[j].append(t)
            self._relations.append(relation)
        root = list(range(len(self._relations)))

        def find(t):
            while root[t] != t:
                root[t] = t = root[root[t]]
            return t
        self._loop_indices = []
        for j, (a, b) in enumerate(self._sides):
            a, b = find(a), find(b)
            if a == b:
                self._loop_indices.append(j)
            else:
                root[a] = b
        if len(self.offtree) - len(self._loop_indices) != len(root) - 1:
            raise AssertionError("the off-tree edges do not join the "
                                 "triangles")
        self.loop_edges = [self.offtree[j] for j in self._loop_indices]
        self.loops = [self._fundamental_loop(e, 1) for e in self.loop_edges]

    @cached_property
    def classes(self):
        """On a surface: the loop edges are the unit vectors, and each
        other triangle, taken from the cotree's leaves to triangle 0,
        solves its relation for its cotree edge towards triangle 0."""
        relations, n = self._relations, len(self._loop_indices)
        classes = [None] * len(self.offtree)  # each {coordinate: value}
        for i, j in enumerate(self._loop_indices):
            classes[j] = {i: 1}
        towards = {0: None}  # triangle -> its cotree edge towards 0
        order = [0]
        for t in order:
            for j, _ in relations[t]:
                if classes[j] is None and j != towards[t]:
                    a, b = self._sides[j]
                    order.append(b if a == t else a)
                    towards[order[-1]] = j
        for t in reversed(order[1:]):
            c = towards[t]
            sign = next(s for j, s in relations[t] if j == c)
            classes[c] = _combine((-sign * s, classes[j])
                                  for j, s in relations[t] if j != c)
        if any(_combine((s, classes[j]) for j, s in relation)
               for relation in relations):
            raise AssertionError("a triangle relation fails on the peeled "
                                 "classes")
        dense = [[0] * n for _ in classes]
        for row, cls in zip(dense, classes):
            for i, v in cls.items():
                row[i] = v
        return tuple(map(tuple, dense))

    def _smith(self, x):
        k = len(self.offtree)
        d2_rows = x.boundary_matrix(2).nonzero_rows()
        h1 = smith_normal_form(IntMatrix._trusted(
            [d2_rows[x.index(e)] for e in self.offtree], k,
            x.n_simplices(2)))
        if any(d >= 2 for d in h1.diagonal):
            raise ValueError("base has torsion in H_1; unsupported")
        form = _hermite_from_the_right(h1.U.nonzero_rows()[h1.rank:], k)
        self.classes = tuple(tuple(row[j] for row in form) for j in range(k))
        pivots = [max(j for j, c in enumerate(row) if c) for row in form]
        if all(row[p] == 1 for row, p in zip(form, pivots)):
            # column p_i of the form is e_i: generator i is the class of
            # the fundamental loop of off-tree edge p_i
            self.loop_edges = [self.offtree[p] for p in pivots]
            self.loops = [self._fundamental_loop(e, 1)
                          for e in self.loop_edges]
            return
        # no builtin reaches this, but an inline complex can: the
        # mapping cylinder of the degree-2 map of circles has one pivot 2
        self.loop_edges = None
        lift = solve(IntMatrix(form, shape=(len(form), k)),
                     IntMatrix.identity(len(form)))
        self.loops = []
        for j in range(len(form)):
            path = [0]
            for edge, n in zip(self.offtree, lift.column(j)):
                path += self._fundamental_loop(edge, n)[1:]
            self.loops.append(path)

    def _fundamental_loop(self, edge, n):
        """The fundamental loop of off-tree ``edge`` (u, v), u < v, run
        n times, backwards when n < 0: a vertex path at vertex 0, down
        the tree to u, across the edge, and up the tree from v."""
        a, b = edge if n > 0 else edge[::-1]
        return [0] + (self._to_root(a)[-2::-1] + self._to_root(b)) * abs(n)

    def _to_root(self, v):
        """The tree path from vertex v up to vertex 0."""
        parent, path = self.parent, [v]
        while v:
            v = parent[v]
            path.append(v)
        return path


def _combine(terms):
    """The sum of s * v over the pairs (s, v) of ``terms``, each vector
    v a dict {coordinate: nonzero value}, as such a dict."""
    total = {}
    for s, vector in terms:
        _axpy(total, vector, s)
    return total


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

    The coherent orientation, kept as ``x.orientation``, proves every
    vertex in one connected family of triangles (so H_0 = Z) and every
    edge in exactly two of them.  Its edge relation forces every 2-cycle
    over Z, or over F_p for any prime p, to be a multiple of the
    orientation, so H_2 = Z and H_2(x; F_p) = F_p; by universal
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
