"""Local coefficient systems with fiber Z^m.

A system assigns to every edge (u, v) of the base an invertible integer
transport matrix T_{u->v} carrying the fiber at u to the fiber at v,
with T_{v->u} the exact integer inverse.  Flatness -- the composite
around every 2-simplex closes up -- makes transport depend only on the
homotopy class of a path, which is what turns the system into a module
over the fundamental group of the base.

``from_monodromy`` realizes prescribed holonomy matrices in a spanning
tree gauge: transports are the identity on tree edges, and each off-tree
edge carries the image of its fundamental cycle class.  This requires
the prescribed matrices to commute pairwise (the representation factors
through first homology), which covers every monodromy arising in the
torus-bundle computations here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlinalg import (
    FgAbGroup,
    IntMatrix,
    Subquotient,
    hstack_all,
    kernel,
    subquotient,
    vstack_all,
)
from .simplicial import SimplicialComplex


class FlatnessError(ValueError):
    """A local system failed the flatness (path-independence) condition."""


class LocalSystem:
    """Flat-candidate coefficient system; flatness itself is checked by
    :func:`flatness_check` so deliberately broken systems can be built
    for diagnostics."""

    def __init__(self, base: SimplicialComplex, fiber_rank: int, transports):
        if fiber_rank < 0:
            raise ValueError("fiber rank must be >= 0")
        self.base = base
        self.fiber_rank = fiber_rank
        table = {}
        for (u, v), mat in transports.items():
            if u == v or not base.adjacent(u, v):
                raise ValueError("transport on non-edge (%r, %r)" % (u, v))
            if (min(u, v), max(u, v)) != (u, v):
                raise ValueError("transports must be keyed by increasing pairs")
            if mat.shape != (fiber_rank, fiber_rank):
                raise ValueError("transport shape mismatch on edge %r" % ((u, v),))
            try:
                inv = mat.inverse_unimodular()
            except ValueError:
                raise ValueError("transport on edge %r is not unimodular"
                                 % ((u, v),)) from None
            table[(u, v)] = mat
            table[(v, u)] = inv
        for (u, v) in base.simplices(1):
            if (u, v) not in table:
                raise ValueError("missing transport for edge %r" % ((u, v),))
        self._table = table

    @classmethod
    def constant(cls, base: SimplicialComplex, fiber_rank: int):
        ident = IntMatrix.identity(fiber_rank)
        return cls(base, fiber_rank,
                   {e: ident for e in base.simplices(1)})

    def transport(self, u, v) -> IntMatrix:
        """The matrix carrying the fiber at u to the fiber at v."""
        if u == v:
            return IntMatrix.identity(self.fiber_rank)
        try:
            return self._table[(u, v)]
        except KeyError:
            raise KeyError("no edge between %r and %r" % (u, v)) from None

    def is_constant(self):
        return all(m.is_identity() for m in self._table.values())

    def __repr__(self):
        return "LocalSystem(base=%r, fiber_rank=%d)" % (self.base, self.fiber_rank)


@dataclass(frozen=True)
class GradedKBundle:
    """Z/2-graded coefficient bundle (the K0 and K1 local systems)."""

    even: LocalSystem
    odd: LocalSystem

    def __post_init__(self):
        if self.even.base != self.odd.base:
            raise ValueError("graded parts must share the base complex")

    @property
    def base(self):
        return self.even.base

    def part(self, parity):
        return self.even if parity % 2 == 0 else self.odd


def transport_along(system: LocalSystem, path) -> IntMatrix:
    """Ordered product of edge transports along a vertex path.

    The result carries the fiber at ``path[0]`` to the fiber at
    ``path[-1]``.
    """
    verts = list(path)
    if not verts:
        raise ValueError("empty path")
    result = IntMatrix.identity(system.fiber_rank)
    for u, v in zip(verts, verts[1:]):
        if not system.base.adjacent(u, v):
            raise ValueError("path step (%r, %r) is not an edge" % (u, v))
        result = system.transport(u, v) * result
    return result


def flatness_check(system: LocalSystem):
    """List of 2-simplices where the composite transport fails to close.

    An empty list means the system is flat.
    """
    violations = []
    for (u, v, w) in system.base.simplices(2):
        lhs = system.transport(v, w) * system.transport(u, v)
        if lhs != system.transport(u, w):
            violations.append((u, v, w))
    return violations


def require_flat(system: LocalSystem):
    bad = flatness_check(system)
    if bad:
        raise FlatnessError("flatness violated on 2-simplices %s" % (bad,))


def _spanning_tree(base: SimplicialComplex):
    """BFS tree from vertex 0: (parent map, tree edge set, paths to root)."""
    adj = {i: [] for i in range(base.vertex_count)}
    for (u, v) in base.simplices(1):
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj.values():
        nbrs.sort()
    parent = {0: None}
    order = [0]
    for u in order:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    if len(parent) != base.vertex_count:
        raise ValueError("base complex is not connected")
    tree_edges = {(min(u, v), max(u, v))
                  for v, u in parent.items() if u is not None}
    paths = {0: [0]}
    for v in order[1:]:
        paths[v] = paths[parent[v]] + [v]
    return parent, tree_edges, paths


def _cycle_vector(base, paths, u, v):
    """Chain of the loop root -> u -> v -> root in edge coordinates.

    Each canonical edge (a, b) with a < b is oriented a -> b and
    contributes +1 when traversed forwards, -1 backwards.
    """
    coeff = [0] * base.n_simplices(1)
    loop = paths[u] + list(reversed(paths[v]))
    for a, b in zip(loop, loop[1:]):
        e = (min(a, b), max(a, b))
        coeff[base.index(e)] += 1 if (a, b) == e else -1
    return tuple(coeff)


class _TreeGauge:
    """Spanning tree, fundamental cycles, and the H_1 presentation of a
    connected base; shared by from_monodromy and generator_loops."""

    def __init__(self, base: SimplicialComplex):
        self.base = base
        _, self.tree_edges, self.paths = _spanning_tree(base)
        self.offtree = [e for e in base.simplices(1)
                        if e not in self.tree_edges]
        # columns: the fundamental cycle of each off-tree edge
        self.cycles = IntMatrix.from_columns(
            [_cycle_vector(base, self.paths, u, v) for (u, v) in self.offtree],
            nrows=base.n_simplices(1))
        self.h1 = subquotient(self.cycles, base.boundary_matrix(2))

    def offtree_coords(self, chain):
        return tuple(chain[self.base.index(e)] for e in self.offtree)

    def loop_for_class(self, coords):
        """An explicit vertex loop at the root realizing an H_1 class."""
        chain = self.h1.lift(coords)
        path = [0]
        for e, n in zip(self.offtree, self.offtree_coords(chain)):
            u, v = e
            for _ in range(abs(n)):
                a, b = (u, v) if n > 0 else (v, u)
                path.extend(self.paths[a][1:])
                path.append(b)
                path.extend(reversed(self.paths[b][:-1]))
        return path


def generator_loops(base: SimplicialComplex):
    """Canonical generator loops of the base, as vertex paths at vertex 0.

    There is one loop per free generator of H_1; their classes form the
    canonical basis, so prescribing one holonomy matrix per loop pins a
    commuting representation completely.
    """
    gauge = _TreeGauge(base)
    if gauge.h1.quotient.torsion:
        raise ValueError("base has torsion in H_1; unsupported")
    return [gauge.loop_for_class(
        tuple(1 if i == j else 0 for i in range(gauge.h1.quotient.ngens)))
        for j in range(gauge.h1.quotient.free_rank)]


def from_monodromy(base: SimplicialComplex, mats, fiber_rank=None) -> LocalSystem:
    """Flat system with prescribed holonomy along the canonical loops.

    ``mats`` lists one unimodular matrix per canonical generator loop of
    the base (see :func:`generator_loops`); the matrices must commute
    pairwise.  Tree edges carry the identity, so the holonomy equals the
    given matrices exactly, with no basepoint conjugation.
    """
    mats = list(mats)
    if fiber_rank is None:
        if not mats:
            raise ValueError("fiber_rank is required when no matrices are given")
        fiber_rank = mats[0].nrows
    for m in mats:
        if m.shape != (fiber_rank, fiber_rank):
            raise ValueError("monodromy matrix shape mismatch")
        try:
            m.inverse_unimodular()
        except ValueError:
            raise ValueError("monodromy matrix is not unimodular") from None
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                raise ValueError(
                    "relation violated: monodromy matrices must commute "
                    "(matrices %d and %d do not)" % (i, j))

    gauge = _TreeGauge(base)
    h1 = gauge.h1.quotient
    if h1.torsion:
        raise ValueError("base has torsion in H_1; unsupported")
    if len(mats) != h1.free_rank:
        raise ValueError("expected %d monodromy matrices for this base, got %d"
                         % (h1.free_rank, len(mats)))

    ident = IntMatrix.identity(fiber_rank)

    def rep(coords):
        out = ident
        for m, c in zip(mats, coords):
            if c:
                out = out * m.power(c)
        return out

    transports = dict.fromkeys(base.simplices(1), ident)
    classes = gauge.h1.project_matrix(gauge.cycles).transpose().rows()
    for e, cls in zip(gauge.offtree, classes):
        transports[e] = rep(cls)
    system = LocalSystem(base, fiber_rank, transports)
    require_flat(system)
    for j, m in enumerate(mats):
        loop = gauge.loop_for_class(
            tuple(1 if i == j else 0 for i in range(h1.ngens)))
        if transport_along(system, loop) != m:
            raise AssertionError("holonomy does not match the prescription")
    return system


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
    for m in mats:
        if m.shape != (fiber_rank, fiber_rank):
            raise ValueError("matrix shape mismatch")
    stacked = vstack_all([m - ident for m in mats], ncols=fiber_rank)
    basis = kernel(stacked)
    return Invariants(FgAbGroup(basis.ncols, ()), basis)


def coinvariants(mats, fiber_rank) -> Subquotient:
    """Largest quotient with trivial action: cokernel of [A_1-I | ... ].

    Returned as a Subquotient of the fiber so classes of fiber vectors
    can be computed with ``project``.
    """
    ident = IntMatrix.identity(fiber_rank)
    for m in mats:
        if m.shape != (fiber_rank, fiber_rank):
            raise ValueError("matrix shape mismatch")
    block = hstack_all([m - ident for m in mats], nrows=fiber_rank)
    return subquotient(IntMatrix.identity(fiber_rank), block)
