"""Noncommutative principal 2-torus bundles from classifying data.

A bundle over a closed oriented surface is specified by winding numbers
(the pairings of the classifying map with the generator loops of the
base) and two integer Chern classes (one per circle factor of the
fiber, each entering only through its pairing with the fundamental
class).  From this data the module produces:

* the graded K-theory coefficient bundle: the even part has holonomy
  (1 w; 0 1) for each winding w in the basis ([1], beta) of the fiber
  K0, the odd part is constant of rank two.  It is given by its cochain
  complexes on the one-vertex cell structure of the base (one vertex,
  2g loops, one 2-cell), not on the triangulation: cohomology does not
  depend on the cell structure, and these complexes have modules of
  rank 2, 4g and 2.  The triangulation still gives the canonical loops,
  their intersection form and the Chern pairings;
* the second-page differential: with k the gcd of all windings, the top
  cohomology of the even system is Z/k (+) Z with the image of [1]
  generating the torsion part, and d2 sends the i-th odd generator to
  (Chern pairing i) times that image -- the k = 0 case lands in a free
  summand, which is the commutative-bundle statement;
* the triviality decision: trivial exactly when all windings and both
  Chern pairings vanish, with a certificate naming the violated
  condition otherwise.

``torus_transition_data`` builds honest degree-d circle-bundle
transition logs on the flat model of the 7-vertex torus (unit-grid
triangulation of the plane modulo the index-7 sublattice), feeding the
integer-cocycle extraction of ``chern_cocycle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cohomology import CochainComplex
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


@dataclass(frozen=True)
class NcpTorusBundleSpec:
    """Classifying data: base surface, windings, and Chern data, read
    once, when the spec is made.

    ``winding`` lists one integer per canonical generator loop of the
    base (two for torus2, 2g for genus(g)).  Each ``chern`` entry is
    either a bare integer pairing or a full integer 2-cochain over the
    sorted 2-simplices.  Construction checks the data and stores what
    every reader takes from it: the resolved ``base`` (left out of
    equality), the two Chern ``pairings`` with the fundamental class,
    and ``k``, the gcd of the windings.  An integer entry is its own
    pairing: it stands for that multiple of the indicator cochain of
    the first 2-simplex, which the coherent orientation signs +1.
    """

    base_name: str
    winding: tuple
    chern: tuple
    base: SimplicialComplex = field(init=False, compare=False)
    pairings: tuple = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "winding", tuple(self.winding))
        chern = tuple(c if isinstance(c, int) else tuple(c)
                      for c in self.chern)
        object.__setattr__(self, "chern", chern)
        base = resolve_base(self.base_name)
        expected = 2 - base.euler_characteristic()  # rank of H_1
        if len(self.winding) != expected:
            raise ValueError("expected %d windings for %s, got %d"
                             % (expected, self.base_name, len(self.winding)))
        if len(chern) != FIBER_RANK:
            raise ValueError("expected %d Chern entries" % FIBER_RANK)
        for c in chern:
            if not isinstance(c, int) and len(c) != base.n_simplices(2):
                raise ValueError("Chern cochain has wrong length")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pairings", tuple(
            c if isinstance(c, int) else fundamental_pairing(c, base)
            for c in chern))
        object.__setattr__(self, "k", math.gcd(*self.winding))


def k_theory_bundle(spec: NcpTorusBundleSpec):
    """The cochain complexes ``{0: even, 1: odd}`` of the graded
    coefficient bundle on the one-vertex cell structure of the base.

    That structure has one 0-cell, one 1-cell per generator loop and one
    2-cell.  Even part: loop i acts on the fiber K0 = Z[1] (+) Z.beta by
    A_i = (1 w_i; 0 1), so N_i = A_i - I = w_i E_12, and Fox's free
    differential calculus (Fox, Ann. Math. 57, 1953) gives the complex
    Z^2 -> Z^(4g) -> Z^2 with delta_0 = stack(N_i) and block i of
    delta_1 = sum_j J_ji N_j, J the base's ``intersection_form``;
    it squares to zero because N_i N_j = 0.  Odd part: the classes
    [U_1], [U_2] are invariant, so the system is constant: the same
    modules with zero maps.  ``CochainComplex`` certifies both.
    """
    w = spec.winding
    n = len(w)
    form = spec.base.intersection_form
    # N_i has the one entry w_i at (0, 1), and block i of delta_1 the
    # one entry s_i = sum_j J_ji w_j there
    s = [sum(form[j, i] * w[j] for j in range(n)) for i in range(n)]
    even = CochainComplex([
        IntMatrix._trusted([row for x in w for row in ([0, x], [0, 0])],
                           2 * n, FIBER_RANK),
        IntMatrix._trusted([[v for x in s for v in (0, x)], [0] * 2 * n],
                           FIBER_RANK, 2 * n),
        IntMatrix.zeros(0, FIBER_RANK)])
    odd = CochainComplex([IntMatrix.zeros(2 * n, FIBER_RANK),
                          IntMatrix.zeros(FIBER_RANK, 2 * n),
                          IntMatrix.zeros(0, FIBER_RANK)])
    return {0: even, 1: odd}


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


def winding_number(phases, tol=1e-6) -> int:
    """Winding of a circle-valued loop from sampled phase angles.

    The samples must traverse the loop densely enough that consecutive
    angles differ by less than pi (principal-branch condition), and the
    first and last samples must represent the same point.
    """
    total = 0.0
    for a, b in zip(phases, phases[1:]):
        inc = math.remainder(float(b) - float(a), 2.0 * math.pi)
        if abs(inc) >= math.pi - 1e-9:
            raise ValueError("undersampled loop: phase step of %.3f rad" % inc)
        total += inc
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > tol:
        raise ValueError("closure mismatch: %.6f turns is not an integer"
                         % turns)
    return int(nearest)


def chern_cocycle(transitions, base: SimplicialComplex, tol=1e-6):
    """Integer 2-cochain from transition-log data.

    ``transitions`` maps each 2-simplex (u, v, w), u < v < w, to the
    triple (h_uv, h_vw, h_wu) of transition logs evaluated near that
    simplex; their sum must be within ``tol`` of an integer, which
    becomes the cocycle value.  A list in sorted 2-simplex order is also
    accepted.
    """
    tris = base.simplices(2)
    if not isinstance(transitions, dict):
        transitions = dict(zip(tris, transitions))
    values = []
    for tri in tris:
        try:
            triple = transitions[tri]
        except KeyError:
            raise ValueError("missing transition data for %r" % (tri,)) from None
        s = float(sum(triple))
        nearest = round(s)
        if abs(s - nearest) > tol:
            raise ValueError(
                "non-integral transition sum %.8f on %r: inconsistent data"
                % (s, tri))
        values.append(int(nearest))
    return tuple(values)


# --- degree-d transition data on the flat 7-vertex torus ---------------
#
# The 7-vertex torus is the unit-grid triangulation of the plane modulo
# L = ker(Z^2 -> Z/7, (x, y) -> x + 2y).  A degree-d line bundle is
# realized by the factor of automorphy  f(z + m) = e^{2 pi i d m_t s(z)} f(z)
# in L-adapted coordinates (s, t); vertex charts use the canonical lifts
# (c, 0), and the transition log between charts i and j near a triangle is
# d * (mu_i - mu_j)_t * (p - mu_i)_s  with mu the lift offsets and p the
# evaluation point.  The resulting cocycle pairs to _DEGREE_SIGN * d; the
# constant is the orientation of this chart atlas against the builtin
# coherent orientation and is fixed once here.

_L_BASIS = ((-2, 1), (1, 3))  # basis of L; det = -7
_DEGREE_SIGN = -1  # orientation of the chart atlas against the builtin
                   # coherent orientation; pins pairing(data(d)) == d


def _l_coords(point):
    """Exact (s, t) coordinates of an integer or rational point in the
    L-basis."""
    (a, c), (b, d) = _L_BASIS  # columns (a, c) and (b, d)
    det = a * d - b * c
    x, y = Fraction(point[0]), Fraction(point[1])
    s = (d * x - b * y) / det
    t = (-c * x + a * y) / det
    return s, t


def _torus_grid_lifts():
    """Lifted vertex triples for each triangle of the 7-vertex torus,
    keyed by the sorted vertex tuple; lifts are grid points in Z^2."""
    lifts = {}
    for i in range(7):
        for corners in (((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1))):
            tri = {}
            for (dx, dy) in corners:
                pt = (i + dx, dy)
                cls = (pt[0] + 2 * pt[1]) % 7
                tri[cls] = pt
            key = tuple(sorted(tri))
            lifts[key] = tri
    return lifts


def torus_transition_data(d: int):
    """Transition-log triples of a degree-d circle bundle on torus2.

    Returns {2-simplex: (h_uv, h_vw, h_wu)} suitable for
    :func:`chern_cocycle`; the extracted cocycle pairs to exactly d.
    """
    d = _DEGREE_SIGN * d
    data = {}
    for tri, lift in _torus_grid_lifts().items():
        mu = {}
        for cls, pt in lift.items():
            offset = (pt[0] - cls, pt[1])  # lift minus canonical lift (cls, 0)
            s, t = _l_coords(offset)
            if s.denominator != 1 or t.denominator != 1:
                raise AssertionError("lift offset is not in the sublattice")
            mu[cls] = (int(s), int(t))
        bary = (Fraction(sum(pt[0] for pt in lift.values()), 3),
                Fraction(sum(pt[1] for pt in lift.values()), 3))
        ps, pt_ = _l_coords(bary)

        def h(i, j):
            dt = mu[i][1] - mu[j][1]
            return float(d * dt * (ps - mu[i][0]))

        u, v, w = tri
        data[tri] = (h(u, v), h(v, w), h(w, u))
    return data


@dataclass(frozen=True)
class D2Spec:
    """The injected second-page differential of a torus-bundle spectral
    sequence: the gcd of the windings, the images of the odd generators
    in the canonical coordinates of the top even cohomology, and the
    page-level matrices keyed by source position."""

    k_gcd: int
    images: IntMatrix
    unit_class: tuple
    bott_class: tuple
    page_differentials: dict

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
    units = IntMatrix._trusted(ident.rows() * n0, n0 * FIBER_RANK, FIBER_RANK)
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
    unit_class, bott_class = h2_even.project_matrix(theta).transpose().rows()
    _validate_coinvariant_presentation(spec, h2_even, unit_class, bott_class, k)

    images = IntMatrix._trusted(
        [[p * u for p in spec.pairings] for u in unit_class],
        h2_even.quotient.ngens, FIBER_RANK)
    on_gens = images * c_inv
    diffs = {(0, 1): on_gens} if not on_gens.is_zero() else {}
    return D2Spec(k_gcd=k, images=images, unit_class=unit_class,
                  bott_class=bott_class, page_differentials=diffs)


def _validate_coinvariant_presentation(spec, h2, unit_class, bott_class, k):
    group = h2.quotient
    if group != group_from_divisors([0, k]):
        raise ValueError("top cohomology is not Z/k (+) Z for k = %d" % k)
    if element_order(group, unit_class) != (k if k else 0):
        raise ValueError("image of [1] does not generate the Z/k summand")
    if element_order(group, bott_class) != 0:
        raise ValueError("image of the Bott class is not free")
    # together the two classes must generate the whole group
    gens = IntMatrix._trusted(list(zip(unit_class, bott_class)),
                              group.ngens, 2)
    full = gens.hstack(relation_lattice(group))
    if solve(full, IntMatrix.identity(group.ngens)) is None:
        raise ValueError("unit and Bott classes do not generate H^2")


@dataclass(frozen=True)
class TrivialityVerdict:
    trivial: bool
    certificate: str


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


@dataclass(frozen=True)
class NcpAnalysis:
    """Everything the pipeline computes for one bundle spec."""

    spec: NcpTorusBundleSpec
    e1: SpectralPage
    e2: SpectralPage
    d2: D2Spec
    e3: SpectralPage
    k_even: object
    k_odd: object
    verdict: TrivialityVerdict


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
