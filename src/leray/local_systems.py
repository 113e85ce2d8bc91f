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
base): transports are the identity on tree edges, and each off-tree
edge carries the image of its fundamental cycle class.  This requires
the prescribed matrices to commute pairwise (the representation factors
through first homology).  The ``cohomology``, ``check`` and ``spectral``
commands use it.

Every system has a ``holonomy``, one pair (T_i, T_i^-1) per generator
of ``base.presentation``, T_i the transport around the fundamental loop
of its edge.  A ``constant`` system's are identities, read off no
gauge.  A system from ``from_monodromy`` keeps the checked matrices it
was made from, which are its holonomy where the generators are the
gauge's loop edges, as on every closed orientable surface, and makes
its transport table only when a transport is read; elsewhere its
holonomy is read off a table of edge transports.  A system given by its transports reads its
holonomy with ``transport_along``, once it is certified flat.  On every
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


def transport_along(system: LocalSystem, path) -> IntMatrix:
    """Ordered product of edge transports along a vertex path.

    The result carries the fiber at ``path[0]`` to the fiber at
    ``path[-1]``.  The product starts from the first step that is not
    the identity and multiplies by no identity, such as the transport
    along a tree edge of the gauge.
    """
    verts = list(path)
    if not verts:
        raise ValueError("empty path")
    result = None
    for u, v in zip(verts, verts[1:]):
        if not system.base.adjacent(u, v):
            raise ValueError("path step (%r, %r) is not an edge" % (u, v))
        step = system.transport(u, v)
        if not step.is_identity():
            result = step if result is None else step * result
    return IntMatrix.identity(system.fiber_rank) if result is None else result


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
    Tree edges carry the identity, so the holonomy equals the given
    matrices exactly, with no basepoint conjugation; an off-tree edge of
    class c carries prod m_i^(c_i) forwards and prod m_i^(-c_i)
    backwards, each power made once per table, and each product started
    from its first power, not from the identity.  The table is made when
    a transport is first read, and the holonomy along each loop is
    certified then, and flatness by ``cohomology.build``.

    The ``holonomy`` around each generator of ``base.presentation`` is
    the pair its edge carries.  Where those edges are the gauge's
    ``loop_edges``, as on every closed orientable surface, that is the
    checked matrices with their inverses, and a job on the cell model
    makes no table; elsewhere the holonomy makes a table of its own, so
    the system holds no reference to itself.
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

    def holonomy():
        generators = base.presentation.generators
        if generators == gauge.loop_edges:
            return tuple(zip(mats, inverses))
        table = make_table()
        return tuple((table[u, v], table[v, u]) for u, v in generators)

    def make_table():
        exponents = {(i, e) for cls in gauge.classes
                     for i, c in enumerate(cls) if c for e in (c, -c)}
        powers = {(i, e): (mats[i] if e > 0 else inverses[i]).power(abs(e))
                  for i, e in exponents}
        table = {h: ident for (u, v) in base.simplices(1)
                 for h in ((u, v), (v, u))}
        for (u, v), cls in zip(gauge.offtree, gauge.classes):
            terms = [(powers[i, c], powers[i, -c])
                     for i, c in enumerate(cls) if c]
            forward, backward = terms[0] if terms else (ident, ident)
            for f, b in terms[1:]:
                forward, backward = forward * f, backward * b
            table[(u, v)], table[(v, u)] = forward, backward
        made = LocalSystem._trusted(base, fiber_rank, None, lambda: table)
        for loop, m in zip(gauge.loops, mats):
            if transport_along(made, loop) != m:
                raise AssertionError(
                    "holonomy does not match the prescription")
        return table

    return LocalSystem._trusted(base, fiber_rank, holonomy, make_table)
