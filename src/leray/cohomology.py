"""Cochain complexes of free modules, and their cohomology.

A cochain complex is given by its coboundaries alone, so two routines
serve every complex the package makes: the simplicial cochains of a
local system (``build``), the complex of the one-relator cell model of
a closed surface (``fox_complex``, ``surface_complex``) and the Koszul
complex of a Z^n-action (``group_cohomology``):

* ``groups`` gives the isomorphism types alone, from the invariant
  factors of the coboundaries, with no transforms; the ``cohomology``,
  ``check`` and ``group-cohomology`` commands read nothing else.
* ``cohomology`` presents one group as a ``Subquotient`` of its
  cochains, with representatives, from the Smith decompositions of the
  coboundaries; the spectral sequence presents a page's entry only
  when a differential reads its representatives.

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

So D_p(classical) = (-1)^(p+1) D_p(e1): ``build`` assembles the e1
complex, once, and the classical one is that complex with each
even-degree coboundary negated.  The two have isomorphic cohomology;
``convention_compare`` verifies this instead of assuming it, from one
assembly.  The spectral sequence consumes ``e1``, which is the default.

Cohomology does not depend on the cell structure.  On a named closed
surface (``torus2``, ``sphere2``, ``genus(g)``), the ``cohomology`` and
``spectral`` commands compute a system given by ``monodromy`` or
``constant`` on the surface's one vertex, 2g loops and one 2-cell
(``surface_complex``), whose modules have rank m, 2g m and m, and
build no simplicial cochains; the conventions give the same groups
there.  Inline complexes, ``circle(n)``, ``simplex(p)``, systems given
by ``transports`` and the ``check`` command stay on ``build``.
"""

from __future__ import annotations

from ._kernel import _axpy
from .exactlinalg import (FgAbGroup, IntMatrix, SmithDecomposition,
                          Subquotient, invariant_factors, relations,
                          smith_normal_form)
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
        self._invariant_factors = {}

    @classmethod
    def _trusted(cls, differentials):
        """Complex from coboundaries whose products the package has
        already certified to vanish: nothing is multiplied again."""
        c = object.__new__(cls)
        c.differentials = tuple(differentials)
        c._smith_forms = {}
        c._invariant_factors = {}
        return c

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
        reader of D_p's kernel or image shares that one SNF, and
        ``invariant_factors`` reads its diagonal."""
        if p not in self._smith_forms:
            self._smith_forms[p] = smith_normal_form(self.differential(p))
        return self._smith_forms[p]

    def invariant_factors(self, p):
        """D_p's nonzero invariant factors, found on first use and kept:
        the diagonal of D_p's Smith form when that is already made, else
        by elimination on D_p alone."""
        if p not in self._invariant_factors:
            made = self._smith_forms.get(p)
            self._invariant_factors[p] = (
                made.diagonal if made is not None
                else invariant_factors(self.differential(p)))
        return self._invariant_factors[p]


def build(x, system: LocalSystem, convention: str = "e1") -> CochainComplex:
    """Assemble the cochain complex of a flat system over x: the e1
    complex, or under ``classical`` the same coboundaries with the
    signs of ``_classical``.  Each coboundary is written as nonzero rows,
    the one form of ``IntMatrix``, straight from the sparse transports,
    with no dense row made on the way."""
    if convention not in CONVENTIONS:
        raise ValueError("unknown convention %r" % (convention,))
    if system.base != x:
        raise ValueError("system is not defined over this complex")
    require_flat(system)
    m = system.fiber_rank
    diffs = []
    for p in range(x.dimension + 1):
        signs = [(-1) ** (p + 1 - l) for l in range(p + 2)]
        rows = []
        for sigma in (x.simplices(p + 1) if p < x.dimension else ()):
            first, *rest = [x.index(sigma[:l] + sigma[l + 1:]) * m
                            for l in range(p + 2)]
            # Face 0 drops sigma's first vertex: its block is the
            # transport from its own first vertex.  Every other face
            # keeps sigma's first vertex, so its block is +-I.
            t = system.transport(sigma[1], sigma[0]).nonzero_rows()
            for a, t_row in enumerate(t):
                row = {first + b: signs[0] * v for b, v in t_row.items()}
                for offset, sign in zip(rest, signs[1:]):
                    row[offset + a] = sign
                rows.append(row)
        diffs.append(IntMatrix._trusted(
            rows, len(rows), x.n_simplices(p) * m))
    return CochainComplex(diffs if convention == "e1" else _classical(diffs))


def fox_complex(word, action, fiber_rank) -> CochainComplex:
    """The cochain complex M -> M^n -> M of the one-relator cell model
    (one vertex, n loops x_i, one 2-cell on ``word``) with coefficients
    in M = Z^``fiber_rank``, where ``action`` lists one pair
    (rho(x_i), rho(x_i)^-1) per generator, rho a homomorphism on words
    read left to right.

    By Fox's free differential calculus (Fox, Ann. Math. 57, 1953),
    delta_0 = stack(rho(x_i) - I), and block i of delta_1 is
    rho(dw/dx_i): over the letters of w, +rho(prefix) for each x_i and
    -rho(prefix through the letter) for each x_i^-1.  ``CochainComplex``
    certifies delta_1 delta_0 = rho(w) - I = 0.

    The word is read on the nonzero rows of the action, adding nothing
    through ``IntMatrix``: row r of rho(prefix) times a matrix sums a
    times its row k over the nonzero entries a = rho(prefix)_rk.
    """
    m, n = fiber_rank, len(action)
    blocks = [[{} for _ in range(m)] for _ in range(n)]
    ident = IntMatrix.identity(m)
    prefix = ident.nonzero_rows()
    for i, s in word:
        g = action[i][s < 0].nonzero_rows()
        through = []
        for row in prefix:
            acc = {}
            for k, a in row.items():
                _axpy(acc, g[k], a)
            through.append(acc)
        for b_row, t_row in zip(blocks[i], prefix if s > 0 else through):
            _axpy(b_row, t_row, s)
        prefix = through
    d0 = [row for a, _ in action for row in (a - ident).nonzero_rows()]
    d1 = [{i * m + j: v for i, block in enumerate(blocks)
           for j, v in block[r].items()} for r in range(m)]
    return CochainComplex([IntMatrix._trusted(d0, n * m, m),
                           IntMatrix._trusted(d1, m, n * m),
                           IntMatrix.zeros(0, m)])


def surface_complex(system: LocalSystem) -> CochainComplex:
    """The cochain complex of a system that keeps its holonomy, over a
    closed oriented surface, on the surface's one-relator cell model:
    ``fox_complex`` of the base's ``boundary_word``.  No transport is
    read.

    The simplicial complex of the system is chain equivalent to it under
    rho(x_i) = T_i^-1, T_i the transport around loop i: with the tree
    transports the identity, the simplicial D_0 on loop edge (a, b) is
    f(a) - T_i^-1 f(b).  Its groups are those of ``build`` under either
    convention, which differ by the signs of whole coboundaries.
    """
    action = [(inverse, t) for t, inverse in system.holonomy]
    return fox_complex(system.base.boundary_word, action, system.fiber_rank)


def _classical(e1_differentials):
    """The classical coboundaries of one system from its e1 ones:
    D_p(classical) = (-1)^(p+1) D_p(e1), so each even-degree coboundary
    is negated and each odd-degree one is the same object."""
    return [d if p % 2 else -d for p, d in enumerate(e1_differentials)]


def cohomology(c: CochainComplex, p):
    """H^p = ker D_p / im D_{p-1} as a Subquotient of C^p.

    Z^p is presented by D_p's kernel decomposition, with no SNF of its
    basis; H^0's relations come from the empty D_{-1}, which costs no
    SNF either.  D_dim = 0, so H^dim = coker D_{dim-1} takes D_{dim-1}'s
    own decomposition as its relations."""
    if p == c.dimension:
        return Subquotient(SmithDecomposition.identity(c.degree_rank(p)),
                           c.smith_form(p - 1))
    z = c.smith_form(p).kernel_decomposition()
    return Subquotient(z, relations(z, c.differential(p - 1)))


def groups(c: CochainComplex):
    """The isomorphism types of H^0..H^dim, the quotients of
    ``cohomology(c, p)``, from the invariant factors of the coboundaries.

    ker D_p is a direct summand of C^p that holds im D_{p-1}, so with
    r_p the rank of D_p, H^p = Z^(n_p - r_p - r_{p-1}) (+) Z/d over the
    invariant factors d >= 2 of D_{p-1}."""
    out, before = [], ()
    for p in range(c.dimension + 1):
        factors = c.invariant_factors(p)
        free = c.degree_rank(p) - len(factors) - len(before)
        if free < 0:
            raise AssertionError("H^%d has negative free rank %d"
                                 % (p, free))
        out.append(FgAbGroup(free, tuple(d for d in before if d >= 2)))
        before = factors
    return out


def cohomology_groups(x, system: LocalSystem, convention: str = "e1"):
    """Just the isomorphism types, H^0..H^dim."""
    return groups(build(x, system, convention))


class ConventionComparison:
    """The groups H^0..H^dim under each sign convention."""

    __slots__ = ("classical", "e1")

    def __init__(self, classical, e1):
        self.classical = classical
        self.e1 = e1

    @property
    def isomorphic(self):
        return self.classical == self.e1


def convention_compare(x, system: LocalSystem) -> ConventionComparison:
    """Cohomology groups under both sign conventions, degree by degree.

    The system's cochains are assembled once, under ``e1``; the
    classical complex is derived from them by sign (``_classical``), so
    its odd-degree coboundaries are the e1 ones, the same objects, and
    the e1 complex takes their invariant factors instead of eliminating
    them again.  Each even-degree coboundary is eliminated under both
    signs."""
    e1 = build(x, system, "e1")
    # (+-D_(p+1)) (+-D_p) = +-D_(p+1) D_p, which e1 certified
    classical = CochainComplex._trusted(_classical(e1.differentials))
    classical_groups = tuple(groups(classical))
    for p, factors in classical._invariant_factors.items():
        if e1.differential(p) is classical.differential(p):
            e1._invariant_factors[p] = factors
    return ConventionComparison(classical_groups, tuple(groups(e1)))
