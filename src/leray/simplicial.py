"""Finite oriented simplicial complexes.

Stored simplices are strictly increasing vertex tuples (the canonical
orientation).  The l-th face of a stored simplex ``sigma`` is
``sigma[:l] + sigma[l + 1:]``, again increasing, so it is its own
canonical representative and enters the boundary with sign (-1)^l.

Built-in triangulations are constructed programmatically and verified
(Euler characteristic and integral homology) at build time rather than
transcribed from tables.
"""

from __future__ import annotations

from itertools import combinations

from .exactlinalg import (
    FgAbGroup,
    IntMatrix,
    kernel,
    subquotient,
)


# Most faces a complex may enumerate: its vertices plus the nonempty
# faces of each listed simplex, sum(2^|s| - 1), duplicates counted.  It
# is checked before any face is listed, so an oversized document fails
# at once instead of exhausting memory.  The largest base of the tests
# and benchmarks, genus(8), counts 721; genus(50) counts 4,417 and
# builds in about 10 s and 105 MB on one core of a 2-core x86 host
# (CPython 3.11), mostly its homology verification, whose time grows
# about cubically and memory quadratically in g.
# The largest builtins it admits are genus(113), circle(2500), simplex(12).
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
        entries = [[0] * cols for _ in range(rows)]
        if p >= 1:
            for j, sigma in enumerate(self.simplices(p)):
                for l in range(p + 1):
                    i = self.index(sigma[:l] + sigma[l + 1:])
                    entries[i][j] += (-1) ** l
        return IntMatrix._trusted(entries, rows, cols)

    def euler_characteristic(self):
        return sum((-1) ** p * self.n_simplices(p)
                   for p in range(self.dimension + 1))

    def is_closed_surface(self):
        """Dimension 2, connected, and every edge in exactly two triangles."""
        if self.dimension != 2 or self.vertex_count == 0:
            return False
        count = {e: 0 for e in self.simplices(1)}
        for tri in self.simplices(2):
            for l in range(3):
                count[tri[:l] + tri[l + 1:]] += 1
        if any(c != 2 for c in count.values()):
            return False
        return self._is_connected()

    def _is_connected(self):
        if self.vertex_count == 0:
            return True
        seen = {0}
        stack = [0]
        adj = {i: [] for i in range(self.vertex_count)}
        for (u, v) in self.simplices(1):
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.vertex_count

    def coherent_orientation(self):
        """Signs eps per 2-simplex making their signed sum a cycle.

        Only defined for connected orientable closed surfaces; the first
        triangle is normalized to +1.
        """
        if not self.is_closed_surface():
            raise ValueError("not a closed connected surface")
        ker = kernel(self.boundary_matrix(2))
        if ker.ncols != 1:
            raise ValueError("surface is not orientable")
        eps = list(ker.column(0))
        if any(abs(e) != 1 for e in eps):
            raise ValueError("surface is not orientable")
        if eps[0] < 0:
            eps = [-e for e in eps]
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


def integral_homology(x: SimplicialComplex):
    """H_p(X; Z) for p = 0..dim, via kernels/images of boundary matrices."""
    out = []
    for p in range(x.dimension + 1):
        dp = x.boundary_matrix(p)
        dnext = x.boundary_matrix(p + 1) if p + 1 <= x.dimension else \
            IntMatrix.zeros(x.n_simplices(p), 0)
        out.append(subquotient(kernel(dp), dnext).quotient)
    return out


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
    tris = []
    for i in range(7):
        tris.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    x = SimplicialComplex(7, tris)
    _verify_surface(x, euler=0, h1_rank=2)
    return x


def genus_surface(g: int) -> SimplicialComplex:
    """Closed oriented surface of genus g >= 1, as an iterated connected
    sum of 7-vertex tori; verified by Euler characteristic and homology."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    # 4g + 3 vertices, 12g + 2 triangles of 7 faces each
    _check_faces(88 * g + 17)
    x = torus2()
    for _ in range(g - 1):
        x = _connected_sum_with_torus(x)
    _verify_surface(x, euler=2 - 2 * g, h1_rank=2 * g)
    return x


def _connected_sum_with_torus(x: SimplicialComplex) -> SimplicialComplex:
    base_tris = list(x.simplices(2))
    removed = base_tris.pop()  # deterministic: last triangle in sorted order
    other = torus2()
    other_tris = list(other.simplices(2))
    target = other_tris.pop(0)
    # glue the boundary of `target` onto the boundary of `removed`
    relabel = {}
    for a, b in zip(sorted(target), sorted(removed)):
        relabel[a] = b
    fresh = x.vertex_count
    for v in range(other.vertex_count):
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1
    glued = [tuple(sorted(relabel[v] for v in tri)) for tri in other_tris]
    return SimplicialComplex(fresh, base_tris + glued)


def _verify_surface(x, euler, h1_rank):
    if x.euler_characteristic() != euler:
        raise AssertionError("triangulation has wrong Euler characteristic")
    h = integral_homology(x)
    expected = [FgAbGroup(1, ()), FgAbGroup(h1_rank, ()), FgAbGroup(1, ())]
    if h != expected:
        raise AssertionError("triangulation has wrong homology: %s" %
                             ([g.render() for g in h],))
    x.coherent_orientation()


_BUILTIN_PLAIN = {
    "torus2": torus2,
    "sphere2": sphere2,
}

_BUILTIN_PARAM = {
    "simplex": simplex,
    "circle": circle,
    "genus": genus_surface,
}


def builtin(name, param=None) -> SimplicialComplex:
    """Built-in triangulations by name.

    Plain names: ``torus2``, ``sphere2``.  Parametrized: ``simplex(p)``,
    ``circle(n)``, ``genus(g)``, accepted either as separate arguments or
    in call syntax, e.g. ``builtin("circle(5)")``.
    """
    if param is None and "(" in name:
        base, _, rest = name.partition("(")
        base = base.strip()
        rest = rest.strip()
        if not rest.endswith(")"):
            raise ValueError("malformed builtin name %r" % (name,))
        try:
            param = int(rest[:-1])
        except ValueError:
            raise ValueError("malformed builtin parameter in %r" % (name,))
        name = base
    if name in _BUILTIN_PLAIN:
        if param is not None:
            raise ValueError("%s takes no parameter" % name)
        return _BUILTIN_PLAIN[name]()
    if name in _BUILTIN_PARAM:
        if param is None:
            raise ValueError("%s requires a parameter" % name)
        return _BUILTIN_PARAM[name](param)
    raise ValueError("unknown builtin complex %r" % (name,))
