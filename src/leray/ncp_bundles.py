"""Noncommutative principal 2-torus bundles from classifying data.

A bundle over a closed oriented surface is specified by winding numbers
(the pairings of the classifying map with the generator loops of the
base) and two integer Chern classes (one per circle factor of the
fiber, each entering only through its pairing with the fundamental
class).  From this data the module produces:

* the graded K-theory coefficient bundle: the even part has holonomy
  (1 w; 0 1) for each winding w in the basis ([1], beta) of the fiber
  K0, the odd part is constant of rank two;
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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactlinalg import (
    IntMatrix,
    element_order,
    group_from_divisors,
    lattice_basis,
    solve,
)
from .local_systems import GradedKBundle, LocalSystem, from_monodromy, generator_loops
from .simplicial import SimplicialComplex, builtin
from .spectral import (
    SpectralPage,
    assemble,
    attach_d2,
    e1_page,
    e2_page,
)

FIBER_RANK = 2  # rank of K0 and K1 of a noncommutative 2-torus fiber


@lru_cache(maxsize=None)
def resolve_base(name: str) -> SimplicialComplex:
    x = builtin(name)
    if not name.startswith(("torus2", "genus")):
        raise ValueError("base must be torus2 or genus(g), got %r" % (name,))
    return x


@dataclass(frozen=True)
class NcpTorusBundleSpec:
    """Classifying data: base surface, windings, and Chern data.

    ``winding`` lists one integer per canonical generator loop of the
    base (two for torus2, 2g for genus(g)).  Each ``chern`` entry is
    either a bare integer pairing (realized as that multiple of the
    indicator cochain of the first 2-simplex) or a full integer
    2-cochain over the sorted 2-simplices.
    """

    base_name: str
    winding: tuple
    chern: tuple
    n: int = 2

    def __post_init__(self):
        object.__setattr__(self, "winding", tuple(self.winding))
        chern = tuple(c if isinstance(c, int) else tuple(c)
                      for c in self.chern)
        object.__setattr__(self, "chern", chern)
        if self.n != 2:
            raise ValueError("only rank-2 torus fibers are supported")
        base = resolve_base(self.base_name)
        expected = len(generator_loops(base))
        if len(self.winding) != expected:
            raise ValueError("expected %d windings for %s, got %d"
                             % (expected, self.base_name, len(self.winding)))
        if len(chern) != self.n:
            raise ValueError("expected %d Chern entries" % self.n)
        for c in chern:
            if not isinstance(c, int) and len(c) != base.n_simplices(2):
                raise ValueError("Chern cochain has wrong length")

    @property
    def base(self) -> SimplicialComplex:
        return resolve_base(self.base_name)

    def chern_cochains(self):
        """Both Chern entries as full integer cochains over C_2."""
        base = self.base
        out = []
        for c in self.chern:
            if isinstance(c, int):
                coch = [0] * base.n_simplices(2)
                if coch:
                    coch[0] = c
                out.append(tuple(coch))
            else:
                out.append(tuple(c))
        return tuple(out)

    def chern_pairings(self):
        return tuple(fundamental_pairing(c, self.base)
                     for c in self.chern_cochains())

    def k_gcd(self):
        return math.gcd(*self.winding) if self.winding else 0


def k_theory_bundle(spec: NcpTorusBundleSpec) -> GradedKBundle:
    """The graded coefficient bundle of the classifying data.

    Even part: each generator loop acts on the fiber K0 = Z[1] (+) Z.beta
    by (1 w; 0 1) with w the corresponding winding.  Odd part: the
    classes [U_1], [U_2] are invariant, so the system is constant.
    """
    base = spec.base
    mats = [IntMatrix([[1, w], [0, 1]]) for w in spec.winding]
    even = from_monodromy(base, mats, fiber_rank=FIBER_RANK)
    odd = LocalSystem.constant(base, FIBER_RANK)
    return GradedKBundle(even=even, odd=odd)


def fundamental_pairing(cochain, base: SimplicialComplex) -> int:
    """Evaluate an integer 2-cochain on the fundamental class.

    ``cochain`` is indexed by the sorted 2-simplices; the sum is taken
    with the coherent orientation signs (first triangle normalized +1).
    """
    eps = base.coherent_orientation()
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

    Validates along the way that the page looks like the one produced
    from ``k_theory_bundle(spec)``: the odd degree-zero entry must have
    the two invariant unit classes as a basis, and the top even entry
    must be the coinvariant group Z/k (+) Z with the image of [1]
    generating the torsion summand and the image of the Bott class a
    free generator.
    """
    base = spec.base
    dim = base.dimension
    if e2.r != 2 or e2.x != base:
        raise ValueError("page does not belong to this bundle spec")
    h0_odd = e2.entry(0, 1)
    if e2.bundle.part(1).fiber_rank != FIBER_RANK or \
            h0_odd.quotient != group_from_divisors([0, 0]):
        raise ValueError("basis of H^0(X, K1) does not match ([U_1], [U_2])")
    n0 = base.n_simplices(0)
    u_coords = []
    for i in range(FIBER_RANK):
        cochain = [0] * (n0 * FIBER_RANK)
        for vtx in range(n0):
            cochain[vtx * FIBER_RANK + i] = 1
        u_coords.append(h0_odd.project(cochain))
    c = IntMatrix.from_columns(u_coords, nrows=2)
    try:
        c_inv = c.inverse_unimodular()
    except ValueError:
        raise ValueError(
            "basis of H^0(X, K1) does not match ([U_1], [U_2])") from None

    h2_even = e2.entry(dim, 0 if dim % 2 == 0 else 1)
    k = spec.k_gcd()
    theta_cols = []
    n2 = base.n_simplices(dim)
    for j in range(FIBER_RANK):
        cochain = [0] * (n2 * FIBER_RANK)
        cochain[0 * FIBER_RANK + j] = 1  # first 2-simplex carries eps = +1
        theta_cols.append(h2_even.project(cochain))
    unit_class, bott_class = theta_cols
    _validate_coinvariant_presentation(spec, h2_even, unit_class, bott_class, k)

    pairings = spec.chern_pairings()
    images = IntMatrix.from_columns(
        [tuple(p * u for u in unit_class) for p in pairings],
        nrows=h2_even.quotient.ngens)
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
    gens = IntMatrix.from_columns([unit_class, bott_class],
                                  nrows=group.ngens)
    relations = []
    for j, t in enumerate(group.torsion):
        col = [0] * group.ngens
        col[group.free_rank + j] = t
        relations.append(tuple(col))
    full = gens.hstack(IntMatrix.from_columns(relations, nrows=group.ngens)) \
        if relations else gens
    if lattice_basis(full).ncols != group.ngens or \
            solve(full, IntMatrix.identity(group.ngens)) is None:
        raise ValueError("unit and Bott classes do not generate H^2")


@dataclass(frozen=True)
class TrivialityVerdict:
    trivial: bool
    certificate: str
    windings: tuple
    chern_pairings: tuple


def is_rkk_trivial(spec: NcpTorusBundleSpec) -> TrivialityVerdict:
    """Decide triviality of the bundle from its classifying data.

    Trivial exactly when the coefficient bundle is trivial (all windings
    zero) and the second-page differential vanishes (both Chern pairings
    zero); the certificate names the first violated condition.
    """
    pairings = spec.chern_pairings()
    if any(spec.winding):
        return TrivialityVerdict(
            False,
            "K-theory bundle nontrivial: windings %s" % (spec.winding,),
            spec.winding, pairings)
    if any(pairings):
        return TrivialityVerdict(
            False,
            "d2 differential nonzero: Chern pairings %s" % (pairings,),
            spec.winding, pairings)
    return TrivialityVerdict(
        True, "windings and Chern pairings all vanish",
        spec.winding, pairings)


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
    """Full pipeline: pages, injected d2, limit, and triviality verdict."""
    bundle = k_theory_bundle(spec)
    page1 = e1_page(spec.base, bundle)
    page2 = e2_page(page1)
    d2 = d2_spec(spec, page2)
    page2d = page2.with_differentials(d2.page_differentials)
    page3 = attach_d2(page2d)
    k0, k1 = assemble(page3)
    return NcpAnalysis(spec=spec, e1=page1, e2=page2d, d2=d2, e3=page3,
                       k_even=k0, k_odd=k1, verdict=is_rkk_trivial(spec))
