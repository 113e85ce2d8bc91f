"""Local coefficient systems with fiber Z^m.

A system assigns to every edge (u, v) of the base an invertible integer
transport matrix T_{u->v} carrying the fiber at u to the fiber at v,
with T_{v->u} the exact integer inverse.  Flatness -- the composite
around every 2-simplex closes up -- makes transport depend only on the
homotopy class of a path, which is what turns the system into a module
over the fundamental group of the base.

Each input is validated once, where it enters: ``LocalSystem(base, m,
transports)`` checks every edge of a table from outside, while
``constant`` and ``from_monodromy`` derive both directions of every
edge from checked data and build the system by ``LocalSystem._trusted``.
Flatness is checked once per system, when its ``violations`` are first
read, and certified by ``cohomology.build``, or, for a system given by
its transports, before its holonomy is read.

``from_monodromy`` realizes prescribed holonomy matrices in the base's
spanning-tree gauge (``SimplicialComplex.tree_gauge``, built once per
base), whose basis of H_1 the exponent sums of the relators of
``base.presentation`` fix: transports are the identity on tree edges,
each generator edge carries the image of its class in H_1, and every
other edge is solved by flatness along the presentation's forest.
This requires the prescribed matrices to commute pairwise (the
representation factors through first homology).  The ``cohomology``,
``check`` and ``spectral`` commands use it.

Every system has a ``holonomy``, one pair (T_i, T_i^-1) per generator
of ``base.presentation``, T_i the transport around the fundamental loop
of its edge.  A ``constant`` system's are identities, read off no
gauge.  A system from ``from_monodromy`` makes its holonomy from the
checked matrices it was made from, one product of their powers per
generator's class, which wherever the exponent sums vanish, as on
every closed orientable surface, is one of the matrices itself, and
makes its transport table only when a transport is read.  A system
given by its transports reads its holonomy with ``transport_along``,
once it is certified flat.  On every
connected base of dimension 1 or 2, the ``cohomology`` and ``spectral``
commands read the holonomy alone, for the cell model of the base's
presentation (``cohomology.cochains``), while ``check`` and every other
base read the transports.  An ``ncp`` job builds no local system:
``ncp_bundles.k_theory_bundle`` hands its holonomy, one matrix
(1 w_i; 0 1) per loop, to the same ``cohomology.fox_complex`` of the
surface's one relator.
"""

from __future__ import annotations

import functools

from .exactlinalg import IntMatrix, action_inverses
from .simplicial import SimplicialComplex


class FlatnessError(ValueError):
    """A local system failed the flatness (path-independence) condition."""


class LocalSystem:
    """Coefficient system from one transport per edge, each checked: on
    an edge keyed by its increasing pair, m x m, unimodular.  Flatness
    is not required, so deliberately broken systems can be built for
    diagnostics: ``violations`` lists where it fails.

    A system the package derives itself (``constant``,
    ``from_monodromy``) keeps its ``holonomy`` instead, and makes its
    table of edge transports when a transport is first read; a system
    given by its transports derives its holonomy from the table
    (``_make_holonomy``)."""

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
    def _trusted(cls, base, fiber_rank, holonomy, make_table):
        """System from data the package derived itself: ``holonomy``,
        a function giving one pair (T_i, T_i^-1) per generator of
        ``base.presentation``, T_i the transport around it, and
        ``make_table``, a function giving both directions of every edge,
        each the exact inverse of the other.  Each is called once, on
        first read.  Nothing is checked (see ``IntMatrix._trusted``)."""
        system = object.__new__(cls)
        system.base = base
        system.fiber_rank = fiber_rank
        system._make_holonomy = holonomy
        system._make_table = make_table
        return system

    @functools.cached_property
    def holonomy(self):
        """One pair (T_i, T_i^-1) per generator of ``base.presentation``,
        T_i the transport around the fundamental loop of its edge, made
        on first read."""
        return self._make_holonomy()

    def _make_holonomy(self):
        """The holonomy of a system given by its transports: after
        ``require_flat``, the transport along each generator's
        fundamental loop and along the loop reversed, its exact inverse.
        A derived system shadows this with the function ``_trusted`` was
        given."""
        require_flat(self)
        p = self.base.presentation
        return tuple((transport_along(self, loop),
                      transport_along(self, loop[::-1]))
                     for loop in map(p.fundamental_loop, p.generators))

    @functools.cached_property
    def _table(self):
        return self._make_table()

    @classmethod
    def constant(cls, base: SimplicialComplex, fiber_rank: int):
        if fiber_rank < 0:
            raise ValueError("fiber rank must be >= 0")
        ident = IntMatrix.identity(fiber_rank)

        def holonomy():
            return ((ident, ident),) * len(base.presentation.generators)

        def make_table():
            return {h: ident for (u, v) in base.simplices(1)
                    for h in ((u, v), (v, u))}
        return cls._trusted(base, fiber_rank, holonomy, make_table)

    def transport(self, u, v) -> IntMatrix:
        """The matrix carrying the fiber at u to the fiber at v."""
        if u == v:
            return IntMatrix.identity(self.fiber_rank)
        try:
            return self._table[(u, v)]
        except KeyError:
            raise KeyError("no edge between %r and %r" % (u, v)) from None

    @functools.cached_property
    def violations(self):
        """The 2-simplices where transport fails to close, found by one
        :func:`flatness_check` per system, on first read."""
        return flatness_check(self)

    def is_constant(self):
        return all(m.is_identity() for m in self._table.values())

    def __repr__(self):
        return "LocalSystem(base=%r, fiber_rank=%d)" % (self.base, self.fiber_rank)


class GradedKBundle:
    """Z/2-graded coefficient bundle (the K0 and K1 local systems)."""

    __slots__ = ("even", "odd")

    def __init__(self, even: LocalSystem, odd: LocalSystem):
        if even.base != odd.base:
            raise ValueError("graded parts must share the base complex")
        self.even = even
        self.odd = odd

    @property
    def base(self):
        return self.even.base

    def part(self, parity):
        return self.even if parity % 2 == 0 else self.odd


def _compose(steps, identity):
    """The composite of ``steps``, matrices in the order they act,
    ``identity`` where there is none.  It multiplies by no identity,
    such as the transport along a tree edge of the gauge: a step is
    read for the identity only where it would enter a product, and a
    step that is ``identity`` itself is skipped unread."""
    result = identity
    for step in steps:
        if step is identity:
            continue
        if result is identity or result.is_identity():
            result = step
        elif not step.is_identity():
            result = step * result
    return result


def transport_along(system: LocalSystem, path) -> IntMatrix:
    """Ordered product of edge transports along a vertex path.

    The result carries the fiber at ``path[0]`` to the fiber at
    ``path[-1]``, by ``_compose``.
    """
    verts = list(path)
    if not verts:
        raise ValueError("empty path")
    steps = list(zip(verts, verts[1:]))
    for u, v in steps:
        if not system.base.adjacent(u, v):
            raise ValueError("path step (%r, %r) is not an edge" % (u, v))
    return _compose((system.transport(u, v) for u, v in steps),
                    IntMatrix.identity(system.fiber_rank))


def flatness_check(system: LocalSystem):
    """List of 2-simplices where the composite transport fails to close.

    An empty list means the system is flat.  Each composite is made by
    ``_compose``, so a tree edge of the gauge multiplies nothing.
    """
    ident = IntMatrix.identity(system.fiber_rank)
    transport = system.transport
    return [(u, v, w) for (u, v, w) in system.base.simplices(2)
            if _compose((transport(u, v), transport(v, w)), ident)
            != transport(u, w)]


def require_flat(system: LocalSystem):
    if system.violations:
        raise FlatnessError("flatness violated on 2-simplices %s"
                            % (system.violations,))


def from_monodromy(base: SimplicialComplex, mats, fiber_rank=None) -> LocalSystem:
    """Flat system with prescribed holonomy along the canonical loops.

    ``mats`` lists one unimodular matrix per canonical generator loop of
    the base, ``base.tree_gauge.loops``: vertex paths at vertex 0, one
    per free generator of H_1, whose classes form the basis the complex
    alone fixes (see ``TreeGauge``), so the matrices pin a commuting
    representation completely.  They must commute pairwise.  Their
    count is checked first, then the matrices, by ``action_inverses``.

    The ``holonomy`` around generator i of ``base.presentation`` is
    prod_j A_j^(c_ij) over its class c_i in ``generator_classes``, and
    the inverse prod_j A_j^(-c_ij), each product started from its first
    power; where the relators' exponent sums vanish, as on every closed
    orientable surface, c_i = e_i, so it is the checked matrix and its
    inverse, and a job on the cell model makes no table.  The table is
    made by flatness when a transport is first read: tree edges carry
    the identity, and each generator edge its holonomy pair, so the
    holonomy equals the given matrices exactly, with no basepoint
    conjugation.  Each disk of the presentation's
    forest is then peeled from its leaves: triangle t's erased edge
    (u, v) towards the disk's first triangle, with w its third vertex,
    gets T_uv = T_wv T_uw and T_vu = T_wu T_vw, by ``_compose``.  The
    holonomy along each loop is certified then, and flatness by
    ``cohomology.build``.
    """
    mats = list(mats)
    if fiber_rank is None:
        if not mats:
            raise ValueError("fiber_rank is required when no matrices are given")
        fiber_rank = mats[0].nrows
    gauge = base.tree_gauge
    if len(mats) != len(gauge.loops):
        raise ValueError("expected %d monodromy matrices for this base, got %d"
                         % (len(gauge.loops), len(mats)))
    inverses = action_inverses(mats, fiber_rank)
    ident = IntMatrix.identity(fiber_rank)

    def power(j, c):
        return mats[j].power(c) if c > 0 else inverses[j].power(-c)

    def holonomy():
        return tuple((_compose([power(j, c) for j, c in cls], ident),
                      _compose([power(j, -c) for j, c in cls], ident))
                     for cls in gauge.generator_classes)

    def make_table():
        p, tris = base.presentation, base.simplices(2)
        table = {}
        for v, u in enumerate(p.parent[1:], 1):
            table[u, v] = table[v, u] = ident
        for (u, v), (forward, backward) in zip(p.generators, holonomy()):
            table[u, v], table[v, u] = forward, backward
        for disk in p.disks:
            for t in reversed(disk[1:]):
                u, v = p.offtree[p.up[t]]
                w = sum(tris[t]) - u - v
                table[u, v] = _compose((table[u, w], table[w, v]), ident)
                table[v, u] = _compose((table[v, w], table[w, u]), ident)
        made = LocalSystem._trusted(base, fiber_rank, None, lambda: table)
        for loop, m in zip(gauge.loops, mats):
            if transport_along(made, loop) != m:
                raise AssertionError(
                    "holonomy does not match the prescription")
        return table

    return LocalSystem._trusted(base, fiber_rank, holonomy, make_table)
