"""Cochain complexes of free modules, and their cohomology.

A cochain complex is given by its coboundaries alone, so ``cohomology``
serves every complex the package makes: the simplicial cochains of a
local system (``build``), and the Koszul complex of a Z^n-action
(``group_cohomology``).

In ``build``, a p-cochain assigns to each p-simplex a constant section
of the coefficient system over it; a constant section is pinned down by
its value at one point, and we store it at the minimal vertex of the
simplex.  Extending a section from a face to the whole simplex is then
a single edge transport between minimal vertices (any in-simplex path
gives the same answer by flatness).

Two sign conventions are supported for the differential block carried
by the l-th face of a (p+1)-simplex:

* ``classical``: (-1)^l, the textbook local-coefficient coboundary;
* ``e1``: (-1)^(p+1-l), the normalization produced by the canonical
  oriented isomorphisms on the first page of the spectral sequence.

The two differ by an alternating per-degree rescaling, so they have
isomorphic cohomology; ``convention_compare`` verifies this instead of
assuming it.  The spectral sequence consumes ``e1``, which is the
default.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlinalg import (IntMatrix, SmithDecomposition, Subquotient,
                          relations, smith_normal_form)
from .local_systems import LocalSystem, require_flat

CONVENTIONS = ("classical", "e1")


class CochainComplex:
    """A cochain complex of free modules C^0..C^dim, given by its
    coboundaries D_p : C^p -> C^{p+1}, p = 0..dim; D_dim has no rows.

    The ranks of the modules are read off the shapes, and D_{p+1} D_p = 0
    is checked here, once, whoever makes the complex.
    """

    def __init__(self, differentials):
        self.differentials = tuple(differentials)  # index p: C^p -> C^{p+1}
        if not self.differentials or self.differentials[-1].nrows:
            raise ValueError("the top coboundary must have no rows")
        for d, after in zip(self.differentials, self.differentials[1:]):
            if not (after * d).is_zero():
                raise AssertionError("differential does not square to zero")
        self._smith_forms = {}

    @property
    def dimension(self):
        return len(self.differentials) - 1

    def degree_rank(self, p):
        """Rank n_p of the free module C^p (0 outside 0..dim)."""
        return self.differentials[p].ncols if 0 <= p <= self.dimension else 0

    def differential(self, p) -> IntMatrix:
        """D_p : C^p -> C^{p+1} (zero matrix outside 0..dim)."""
        if 0 <= p <= self.dimension:
            return self.differentials[p]
        return IntMatrix.zeros(self.degree_rank(p + 1), self.degree_rank(p))

    def smith_form(self, p) -> SmithDecomposition:
        """D_p's Smith decomposition, made on first use and kept: every
        reader of D_p's rank, kernel or cokernel shares that one SNF."""
        if p not in self._smith_forms:
            self._smith_forms[p] = smith_normal_form(self.differential(p))
        return self._smith_forms[p]


def build(x, system: LocalSystem, convention: str = "e1") -> CochainComplex:
    """Assemble the cochain complex of a flat system over x."""
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % (convention,))
    if system.base != x:
        raise ValueError("system is not defined over this complex")
    require_flat(system)
    m = system.fiber_rank
    diffs = []
    for p in range(x.dimension + 1):
        rows = x.n_simplices(p + 1) * m if p + 1 <= x.dimension else 0
        cols = x.n_simplices(p) * m
        entries = [[0] * cols for _ in range(rows)]
        if rows:
            for j, sigma in enumerate(x.simplices(p + 1)):
                for l in range(p + 2):
                    tau = sigma[:l] + sigma[l + 1:]
                    if convention == "classical":
                        sign = (-1) ** l
                    else:
                        sign = (-1) ** (p + 1 - l)
                    t = system.transport(tau[0], sigma[0])
                    ti = x.index(tau)
                    for a in range(m):
                        for b in range(m):
                            v = t[a, b]
                            if v:
                                entries[j * m + a][ti * m + b] += sign * v
        diffs.append(IntMatrix._trusted(entries, rows, cols))
    return CochainComplex(diffs)


def cohomology(c: CochainComplex):
    """H^p = ker D_p / im D_{p-1} as Subquotients, p = 0..dim.

    Z^p is presented by D_p's kernel decomposition, with no SNF of its
    basis; H^0's relations come from the empty D_{-1}, which costs no
    SNF either.  D_dim = 0, so H^dim = coker D_{dim-1} takes D_{dim-1}'s
    own decomposition as its relations."""
    dim = c.dimension
    out = []
    for p in range(dim):
        z = c.smith_form(p).kernel_decomposition()
        out.append(Subquotient(z, relations(z, c.differential(p - 1))))
    out.append(Subquotient(SmithDecomposition.identity(c.degree_rank(dim)),
                           c.smith_form(dim - 1)))
    return out


def cohomology_groups(x, system: LocalSystem, convention: str = "e1"):
    """Just the isomorphism types, H^0..H^dim."""
    return [h.quotient for h in cohomology(build(x, system, convention))]


@dataclass(frozen=True)
class ConventionComparison:
    classical: tuple
    e1: tuple

    @property
    def isomorphic(self):
        return self.classical == self.e1


def convention_compare(x, system: LocalSystem) -> ConventionComparison:
    """Cohomology under both sign conventions, degree by degree.

    D_p(e1) = (-1)^(p+1) D_p(classical), so the odd-degree coboundaries
    coincide.  Where a coboundary of the e1 complex compares equal to
    the classical one, it takes the classical decomposition instead of
    making its own."""
    classical = build(x, system, "classical")
    classical_groups = tuple(h.quotient for h in cohomology(classical))
    e1 = build(x, system, "e1")
    for p, form in classical._smith_forms.items():
        if e1.differential(p) == classical.differential(p):
            e1._smith_forms[p] = form
    return ConventionComparison(
        classical=classical_groups,
        e1=tuple(h.quotient for h in cohomology(e1)),
    )
