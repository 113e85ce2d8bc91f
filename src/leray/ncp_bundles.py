"""Noncommutative principal 2-torus bundles from classifying data.

A bundle over a closed oriented surface is specified by winding numbers
(the pairings of the classifying map with the generator loops of the
base) and two integer Chern classes (one per circle factor of the
fiber, each entering only through its pairing with the fundamental
class).  From this data the module produces:

* the graded K-theory coefficient bundle: the even part has holonomy
  (1 w; 0 1) for each winding w in the basis ([1], beta) of the fiber
  K0, the odd part is constant of rank two.  It is given by its cochain
  complexes on the one-relator cell model of the base (one vertex, 2g
  loops, one 2-cell on its boundary word), not on the triangulation:
  cohomology does not depend on the cell structure, and these complexes
  have modules of rank 2, 4g and 2.  The triangulation still gives the
  canonical loops, the boundary word and the Chern pairings;
* the second-page differential: with k the gcd of all windings, the top
  cohomology of the even system is Z/k (+) Z with the image of [1]
  generating the torsion part, and d2 sends the i-th odd generator to
  (Chern pairing i) times that image -- the k = 0 case lands in a free
  summand, which is the commutative-bundle statement;
* the triviality decision: trivial exactly when all windings and both
  Chern pairings vanish, with a certificate naming the violated
  condition otherwise.
"""

from __future__ import annotations

import math

from .cohomology import CochainComplex, fox_complex
from .exactlinalg import (
    IntMatrix,
    element_order,
    group_from_divisors,
    solve,
)
from .simplicial import SimplicialComplex, shared_builtin
from .spectral import (
    SpectralPage,
    assemble,
    attach_d2,
    e2_page,
    first_page,
    relation_lattice,
)

FIBER_RANK = 2  # rank of K0 and K1 of a noncommutative 2-torus fiber


def resolve_base(name: str) -> SimplicialComplex:
    """The base ``simplicial.shared_builtin(name)``, once its name is
    checked to be ``torus2`` or ``genus(g)``."""
    x = shared_builtin(name)
    if not name.startswith(("torus2", "genus")):
        raise ValueError("base must be torus2 or genus(g), got %r" % (name,))
    return x


class NcpTorusBundleSpec:
    """Classifying data: base surface, windings, and Chern data, read
    once, when the spec is made.

    ``winding`` lists one integer per canonical generator loop of the
    base (two for torus2, 2g for genus(g)).  Each ``chern`` entry is
    either a bare integer pairing or a full integer 2-cochain over the
    sorted 2-simplices.  Construction checks the data and stores what
    every reader takes from it: the resolved ``base``, the two Chern
    ``pairings`` with the fundamental class, and ``k``, the gcd of the
    windings.  An integer entry is its own pairing: it stands for that
    multiple of the indicator cochain of the first 2-simplex, which the
    coherent orientation signs +1.
    """

    __slots__ = ("base_name", "winding", "base", "pairings", "k")

    def __init__(self, base_name, winding, chern):
        winding = tuple(winding)
        chern = tuple(c if isinstance(c, int) else tuple(c) for c in chern)
        base = resolve_base(base_name)
        expected = 2 - base.euler_characteristic()  # rank of H_1
        if len(winding) != expected:
            raise ValueError("expected %d windings for %s, got %d"
                             % (expected, base_name, len(winding)))
        if len(chern) != FIBER_RANK:
            raise ValueError("expected %d Chern entries" % FIBER_RANK)
        for c in chern:
            if not isinstance(c, int) and len(c) != base.n_simplices(2):
                raise ValueError("Chern cochain has wrong length")
        self.base_name = base_name
        self.winding = winding
        self.base = base
        self.pairings = tuple(
            c if isinstance(c, int) else fundamental_pairing(c, base)
            for c in chern)
        self.k = math.gcd(*winding)


def k_theory_bundle(spec: NcpTorusBundleSpec):
    """The cochain complexes ``{0: even, 1: odd}`` of the graded
    coefficient bundle on the one-relator cell model of the base.

    That model has one 0-cell, one 1-cell per generator loop and one
    2-cell on the base's ``boundary_word``.  Even part: loop i acts on
    the fiber K0 = Z[1] (+) Z.beta by A_i = (1 w_i; 0 1), and the
    complex Z^2 -> Z^(4g) -> Z^2 is ``fox_complex`` of the word with
    rho(x_i) = A_i.  Odd part: the classes [U_1], [U_2] are invariant,
    so the system is constant: the same modules with zero maps.
    ``CochainComplex`` certifies the even complex.
    """
    action = [(_shear(w), _shear(-w)) for w in spec.winding]
    even = fox_complex(spec.base.boundary_word, action, FIBER_RANK)
    n = len(action)
    # zero maps: their products vanish with nothing to multiply
    odd = CochainComplex._trusted([IntMatrix.zeros(2 * n, FIBER_RANK),
                                   IntMatrix.zeros(FIBER_RANK, 2 * n),
                                   IntMatrix.zeros(0, FIBER_RANK)])
    return {0: even, 1: odd}


def _shear(w):
    """(1 w; 0 1), as its nonzero rows."""
    return IntMatrix._trusted(({0: 1, 1: w} if w else {0: 1}, {1: 1}), 2, 2)


def fundamental_pairing(cochain, base: SimplicialComplex) -> int:
    """Evaluate an integer 2-cochain on the fundamental class.

    ``cochain`` is indexed by the sorted 2-simplices; the sum is taken
    with the coherent orientation signs (first triangle normalized +1).
    """
    eps = base.orientation
    values = tuple(cochain)
    if len(values) != base.n_simplices(2):
        raise ValueError("cochain length does not match the 2-skeleton")
    return sum(e * v for e, v in zip(eps, values))


class D2Spec:
    """The injected second-page differential of a torus-bundle spectral
    sequence: the gcd of the windings, the images of the odd generators
    in the canonical coordinates of the top even cohomology, the classes
    of [1] and of the Bott class there, and the page-level matrices
    keyed by source position."""

    __slots__ = ("k_gcd", "images", "unit_class", "bott_class",
                 "page_differentials")

    def __init__(self, k_gcd, images, unit_class, bott_class,
                 page_differentials):
        self.k_gcd = k_gcd
        self.images = images
        self.unit_class = unit_class
        self.bott_class = bott_class
        self.page_differentials = page_differentials

    def is_zero(self):
        return self.images.is_zero()


def d2_spec(spec: NcpTorusBundleSpec, e2: SpectralPage) -> D2Spec:
    """d2[U_i] = (Chern pairing i) mod k, expressed on the computed
    presentation of the page.

    The page may sit on any cell structure of the base: the numbers of
    0-cells and 2-cells are read off the ranks of its complexes, so the
    one-vertex page of ``analyze`` and a simplicial page are served
    alike.  Validates along the way that the page looks like one made
    from the spec's coefficient bundle: the odd degree-zero entry must
    have the two invariant unit classes as a basis, and the top even
    entry must be the coinvariant group Z/k (+) Z with the image of [1]
    generating the torsion summand and the image of the Bott class a
    free generator.
    """
    if e2.r != 2 or e2.dimension != 2:
        raise ValueError("page does not belong to this bundle spec")
    h0_odd = e2.entry(0, 1)
    n0, rest = divmod(e2.complexes[1].degree_rank(0), FIBER_RANK)
    if rest or h0_odd.quotient != group_from_divisors([0, 0]):
        raise ValueError("basis of H^0(X, K1) does not match ([U_1], [U_2])")
    # column i: the cochain with [U_i] on every 0-cell
    ident = IntMatrix.identity(FIBER_RANK)
    units = IntMatrix._trusted(ident.nonzero_rows() * n0, n0 * FIBER_RANK,
                               FIBER_RANK)
    c = h0_odd.project_matrix(units)
    try:
        c_inv = c.inverse_unimodular()
    except ValueError:
        raise ValueError(
            "basis of H^0(X, K1) does not match ([U_1], [U_2])") from None

    h2_even = e2.entry(2, 0)
    k = spec.k
    # column j: fiber vector e_j on the first 2-cell (eps = +1 on a
    # simplicial base)
    n2 = e2.complexes[0].degree_rank(2) // FIBER_RANK
    theta = ident.vstack(IntMatrix.zeros((n2 - 1) * FIBER_RANK, FIBER_RANK))
    classes = h2_even.project_matrix(theta)
    unit_class, bott_class = classes.column(0), classes.column(1)
    _validate_coinvariant_presentation(spec, h2_even, unit_class, bott_class, k)

    images = IntMatrix._trusted(
        [{j: p * u for j, p in enumerate(spec.pairings) if p * u}
         for u in unit_class], h2_even.quotient.ngens, FIBER_RANK)
    on_gens = images * c_inv
    diffs = {(0, 1): on_gens} if not on_gens.is_zero() else {}
    return D2Spec(k, images, unit_class, bott_class, diffs)


def _validate_coinvariant_presentation(spec, h2, unit_class, bott_class, k):
    group = h2.quotient
    if group != group_from_divisors([0, k]):
        raise ValueError("top cohomology is not Z/k (+) Z for k = %d" % k)
    if element_order(group, unit_class) != (k if k else 0):
        raise ValueError("image of [1] does not generate the Z/k summand")
    if element_order(group, bott_class) != 0:
        raise ValueError("image of the Bott class is not free")
    # together the two classes must generate the whole group
    gens = IntMatrix._trusted(
        [{j: x for j, x in enumerate(pair) if x}
         for pair in zip(unit_class, bott_class)], group.ngens, 2)
    full = gens.hstack(relation_lattice(group))
    if solve(full, IntMatrix.identity(group.ngens)) is None:
        raise ValueError("unit and Bott classes do not generate H^2")


class TrivialityVerdict:
    """Whether the bundle is RKK-trivial, and why; two verdicts are
    equal when both parts are."""

    __slots__ = ("trivial", "certificate")

    def __init__(self, trivial, certificate):
        self.trivial = trivial
        self.certificate = certificate

    def __eq__(self, other):
        if not isinstance(other, TrivialityVerdict):
            return NotImplemented
        return (self.trivial, self.certificate) == \
            (other.trivial, other.certificate)


def is_rkk_trivial(spec: NcpTorusBundleSpec) -> TrivialityVerdict:
    """Decide triviality of the bundle from its classifying data.

    Trivial exactly when the coefficient bundle is trivial (all windings
    zero) and the second-page differential vanishes (both Chern pairings
    zero); the certificate names the first violated condition.
    """
    if any(spec.winding):
        return TrivialityVerdict(
            False, "K-theory bundle nontrivial: windings %s"
            % (spec.winding,))
    if any(spec.pairings):
        return TrivialityVerdict(
            False, "d2 differential nonzero: Chern pairings %s"
            % (spec.pairings,))
    return TrivialityVerdict(True, "windings and Chern pairings all vanish")


class NcpAnalysis:
    """Everything the pipeline computes for one bundle spec."""

    __slots__ = ("spec", "e1", "e2", "d2", "e3", "k_even", "k_odd",
                 "verdict")

    def __init__(self, spec, e1, e2, d2, e3, k_even, k_odd, verdict):
        self.spec = spec
        self.e1 = e1
        self.e2 = e2
        self.d2 = d2
        self.e3 = e3
        self.k_even = k_even
        self.k_odd = k_odd
        self.verdict = verdict


def analyze(spec: NcpTorusBundleSpec) -> NcpAnalysis:
    """Full pipeline on the one-vertex cell structure of the base:
    pages, injected d2, limit, and triviality verdict."""
    page1 = first_page(k_theory_bundle(spec))
    page2 = e2_page(page1)
    d2 = d2_spec(spec, page2)
    page2d = page2.with_differentials(d2.page_differentials)
    page3 = attach_d2(page2d)
    k0, k1 = assemble(page3)
    return NcpAnalysis(spec=spec, e1=page1, e2=page2d, d2=d2, e3=page3,
                       k_even=k0, k_odd=k1, verdict=is_rkk_trivial(spec))
