"""Simplicial cochain complexes with local coefficients.

A p-cochain assigns to each p-simplex a constant section of the
coefficient system over it; a constant section is pinned down by its
value at one point, and we store it at the minimal vertex of the
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

from .exactlinalg import IntMatrix, kernel, subquotient
from .local_systems import LocalSystem, require_flat

CONVENTIONS = ("classical", "e1")


class CochainComplex:
    """Cochain groups C^p = (+)_{sigma in C_p} Z^m and their differentials."""

    def __init__(self, x, system: LocalSystem, convention: str,
                 differentials):
        self.x = x
        self.system = system
        self.convention = convention
        self.differentials = differentials  # index p: C^p -> C^{p+1}

    @property
    def fiber_rank(self):
        return self.system.fiber_rank

    def degree_rank(self, p):
        """Rank n_p of the free module C^p."""
        return self.x.n_simplices(p) * self.fiber_rank

    def differential(self, p) -> IntMatrix:
        """D_p : C^p -> C^{p+1} (zero matrix above the dimension)."""
        if 0 <= p < len(self.differentials):
            return self.differentials[p]
        return IntMatrix.zeros(self.degree_rank(p + 1), self.degree_rank(p))


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
    complex_ = CochainComplex(x, system, convention, diffs)
    for p in range(x.dimension):
        if not (diffs[p + 1] * diffs[p]).is_zero():
            raise AssertionError("differential does not square to zero")
    return complex_


def cohomology(c: CochainComplex):
    """H^p = ker D_p / im D_{p-1} as Subquotients, p = 0..dim."""
    out = []
    for p in range(c.x.dimension + 1):
        cycles = kernel(c.differential(p))
        boundaries = c.differential(p - 1) if p >= 1 else \
            IntMatrix.zeros(c.degree_rank(p), 0)
        out.append(subquotient(cycles, boundaries))
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
    """Cohomology under both sign conventions, degree by degree."""
    return ConventionComparison(
        classical=tuple(cohomology_groups(x, system, "classical")),
        e1=tuple(cohomology_groups(x, system, "e1")),
    )
