"""Acceptance suite.

Each test is one acceptance criterion.  Everything is exact integer
arithmetic; the only numeric tolerance anywhere is the 1e-6 rounding
window for transition-log sums.  The conftest hook prints one PASS/FAIL
line per criterion.
"""

import math
import random
import time

from leray.exactlinalg import (
    FgAbGroup,
    IntMatrix,
    element_order,
    kernel,
    smith_normal_form,
)
from leray.cohomology import build, cohomology_groups, groups
from leray.local_systems import (
    GradedKBundle,
    LocalSystem,
    flatness_check,
    from_monodromy,
)
from leray.ncp_bundles import (
    NcpTorusBundleSpec,
    d2_spec,
    fundamental_pairing,
    is_rkk_trivial,
    k_theory_bundle,
)
from leray.simplicial import circle, genus_surface, sphere2, torus2
from leray.spectral import (
    assemble,
    attach_d2,
    e1_page,
    e2_page,
    first_page,
    stabilize,
)

from oracles import (
    chern_cocycle,
    coinvariants,
    determinant_divisor_diagonal,
    matches_surface_cohomology,
    random_commuting_pair,
    random_matrix,
    random_unimodular,
    simplicial_e1_page,
    surface_cohomology,
    torus_transition_data,
)


def winding_matrices(windings):
    return [IntMatrix([[1, w], [0, 1]]) for w in windings]


def randomized_systems(seed, per_base=5):
    """Flat systems over the four acceptance bases (>= 20 in total)."""
    rng = random.Random(seed)
    cases = []
    for base, n_gens in [(torus2(), 2), (genus_surface(2), 4),
                         (circle(4), 1), (sphere2(), 0)]:
        for _ in range(per_base):
            m = rng.randint(1, 2)
            if n_gens == 0:
                system = LocalSystem.constant(base, m)
            elif n_gens == 1:
                system = from_monodromy(base, [random_unimodular(rng, m)])
            else:
                a, b = random_commuting_pair(rng, m)
                mats = ([a, b] * ((n_gens + 1) // 2))[:n_gens]
                system = from_monodromy(base, mats)
            cases.append((base, system))
    return cases


def test_criterion_01_torus_coinvariants():
    """Coinvariants of the winding monodromy are Z/gcd(k,l) (+) Z."""
    start = time.monotonic()
    for k, l in [(2, 4), (3, 5), (0, 6), (0, 0)]:
        co = coinvariants(winding_matrices((k, l)), 2)
        g = math.gcd(k, l)
        torsion = (g,) if g >= 2 else ()
        free = 2 if g == 0 else 1
        assert co.quotient == FgAbGroup(free, torsion), \
            "windings (%d, %d)" % (k, l)
    assert time.monotonic() - start < 1.0


def test_criterion_02_leray_serre_cross_check():
    """E2 on the simplicial cochains equals local-coefficient
    cohomology, exactly, for >= 20 randomized flat systems over four
    bases, in both parities: as computed by ``cohomology_groups``, on
    the cell model of a closed surface, under the classical convention
    on the simplicial cochains, whose even-degree coboundaries differ
    in sign and so go through other SNFs, and as computed from the
    holonomy by oracles that build no cochain complex
    (``surface_cohomology``)."""
    start = time.monotonic()
    cases = randomized_systems(seed=2024, per_base=5)
    assert len(cases) >= 20
    for base, system in cases:
        parity = 0
        bundle = GradedKBundle(system, LocalSystem.constant(base, 1))
        # E2 is built as H^p and Euler-certified; test_spectral compares
        # it with the E1 -> E2 page turn
        page2 = e2_page(simplicial_e1_page(base, bundle))
        found = cohomology_groups(base, system)
        for p in range(base.dimension + 1):
            assert page2.group(p, (parity - p) % 2) == found[p]
        for s in (0, 1):
            column = [page2.group(p, (s - p) % 2)
                      for p in range(base.dimension + 1)]
            assert column == groups(build(base, bundle.part(s),
                                          "classical"))
            assert matches_surface_cohomology(
                column, surface_cohomology(base, bundle.part(s)))
    assert time.monotonic() - start < 10.0


def test_criterion_03_hirzebruch_checkerboard():
    """Trivial bundle over the torus: checkerboard E2, zero d2, and the
    assembled pattern K0 = (Z, -, Z), K1 = (Z^2) with total ranks (2, 2),
    on the cell model and on the simplicial cochains."""
    x = torus2()
    bundle = GradedKBundle(LocalSystem.constant(x, 1),
                           LocalSystem.constant(x, 0))
    h = cohomology_groups(x, LocalSystem.constant(x, 1))
    for page1 in (e1_page(x, bundle), simplicial_e1_page(x, bundle)):
        page2 = e2_page(page1)
        for p in range(3):
            for q in (0, 1):
                if (p - q) % 2 == 0:
                    assert page2.group(p, q) == h[p]
                else:
                    assert page2.group(p, q).is_trivial()
        page3 = attach_d2(page2)  # the d2 of a trivial bundle vanishes
        for (p, q) in page2.keys():
            assert page3.group(p, q) == page2.group(p, q)
        k0, k1 = assemble(page3)
        assert [g.render() for g in k0.graded_pieces] == ["Z", "0", "Z"]
        assert [g.render() for g in k1.graded_pieces] == ["0", "Z^2", "0"]
        assert (k0.total_rank, k1.total_rank) == (2, 2)


def test_criterion_04_kunneth_sanity():
    """Trivial torus-fiber bundle assembles to ranks (2,4,2)/(2,4,2),
    total 8 per parity, matching the Kunneth count for K^*(T^4), on the
    cell model and on the simplicial cochains."""
    x = torus2()
    bundle = GradedKBundle(LocalSystem.constant(x, 2),
                           LocalSystem.constant(x, 2))
    kunneth_rank = 2 ** 4 // 2  # even-degree cells of the 4-torus
    for page1 in (e1_page(x, bundle), simplicial_e1_page(x, bundle)):
        k0, k1 = assemble(stabilize(e2_page(page1)))
        assert tuple(g.free_rank for g in k0.graded_pieces) == (2, 4, 2)
        assert tuple(g.free_rank for g in k1.graded_pieces) == (2, 4, 2)
        assert k0.total_rank == kunneth_rank
        assert k1.total_rank == kunneth_rank


def test_criterion_05_commutative_d2_iff_chern():
    """Windings (0,0): d2 vanishes exactly when both Chern pairings do."""
    base_spec = NcpTorusBundleSpec("torus2", (0, 0), (0, 0))
    page2 = e2_page(first_page(k_theory_bundle(base_spec)))
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            spec = NcpTorusBundleSpec("torus2", (0, 0), (c1, c2))
            d2 = d2_spec(spec, page2)
            assert d2.k_gcd == 0
            assert d2.is_zero() == ((c1, c2) == (0, 0)), (c1, c2)


def test_criterion_06_d2_formula():
    """Windings (2,4), Chern (1,0): d2[U_1] nonzero, d2[U_2] zero, and
    E3 at the top corner loses exactly the Z/2 summand; windings (1,0)
    force d2 = 0 for every Chern choice."""
    spec = NcpTorusBundleSpec("torus2", (2, 4), (1, 0))
    page2 = e2_page(first_page(k_theory_bundle(spec)))
    d2 = d2_spec(spec, page2)
    assert d2.k_gcd == 2
    h2 = page2.entry(2, 0)
    assert h2.quotient == FgAbGroup(1, (2,))
    assert element_order(h2.quotient, d2.images.column(0)) == 2  # nonzero
    assert all(c == 0 for c in d2.images.column(1))
    page3 = attach_d2(page2.with_differentials(d2.page_differentials))
    assert page3.group(2, 0) == FgAbGroup(1, ())  # exactly Z/2 removed
    assert page3.group(2, 1) == page2.group(2, 1)

    spec10 = NcpTorusBundleSpec("torus2", (1, 0), (0, 0))
    page2 = e2_page(first_page(k_theory_bundle(spec10)))
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            d2 = d2_spec(NcpTorusBundleSpec("torus2", (1, 0), (c1, c2)),
                         page2)
            assert d2.k_gcd == 1 and d2.is_zero()
            page3 = attach_d2(page2.with_differentials(d2.page_differentials))
            for key in page2.keys():
                assert page3.group(*key) == page2.group(*key)


def test_criterion_07_rkk_triviality_decision():
    """is_rkk_trivial is true exactly at (0,0,0,0) on a grid of small
    classifying data, with the correct violation certificates."""
    values = (-1, 0, 1)
    for w1 in values:
        for w2 in values:
            for c1 in values:
                for c2 in values:
                    spec = NcpTorusBundleSpec("torus2", (w1, w2), (c1, c2))
                    verdict = is_rkk_trivial(spec)
                    assert verdict.trivial == \
                        ((w1, w2, c1, c2) == (0, 0, 0, 0))
                    if (w1, w2) != (0, 0):
                        assert "K-theory bundle nontrivial" in \
                            verdict.certificate
                    elif (c1, c2) != (0, 0):
                        assert "d2" in verdict.certificate


def test_criterion_08_convention_invariance():
    """Classical and e1 conventions give isomorphic cohomology for the
    randomized inputs of criterion 2, on the simplicial cochains, where
    their coboundaries differ in sign."""
    for base, system in randomized_systems(seed=2024, per_base=5):
        classical = groups(build(base, system, "classical"))
        e1 = groups(build(base, system, "e1"))
        assert classical == e1


def test_criterion_09_chern_cocycle_from_transition_data():
    """Degree-d transition data on the torus yields a cocycle with
    fundamental pairing d, for d in {-2..2} (1e-6 rounding window)."""
    x = torus2()
    for d in range(-2, 3):
        data = torus_transition_data(d)
        for triple in data.values():
            assert abs(sum(triple) - round(sum(triple))) < 1e-6
        cocycle = chern_cocycle(data, x, tol=1e-6)
        assert fundamental_pairing(cocycle, x) == d


def test_criterion_10_infrastructure_properties():
    """Randomized infrastructure suite, >= 100 cases in < 30 s: SNF
    identities, kernel saturation, boundary-squared-zero, flatness
    perturbation detection, Euler characteristic identity."""
    start = time.monotonic()
    rng = random.Random(777)
    cases = 0

    for _ in range(40):  # SNF identities against the minor-gcd oracle
        a = random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
        dec = smith_normal_form(a)
        assert dec.U * a * dec.V == dec.D
        assert dec.diagonal == determinant_divisor_diagonal(a)
        for i in range(len(dec.diagonal) - 1):
            assert dec.diagonal[i + 1] % dec.diagonal[i] == 0
        cases += 1

    for _ in range(20):  # kernel saturation
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        k = kernel(a)
        assert (a * k).is_zero()
        if k.ncols:
            assert smith_normal_form(k).diagonal == (1,) * k.ncols
        cases += 1

    bases = [torus2(), sphere2(), circle(5)]
    for _ in range(15):  # boundary squared zero on random flat systems
        base = bases[rng.randrange(len(bases))]
        n_gens = {7: 2, 4: 0, 5: 1}[base.vertex_count]
        if n_gens == 2:
            a, b = random_commuting_pair(rng, 2)
            system = from_monodromy(base, [a, b])
        elif n_gens == 1:
            system = from_monodromy(base, [random_unimodular(rng, 2)])
        else:
            system = LocalSystem.constant(base, 2)
        c = build(base, system)
        for p in range(base.dimension):
            assert (c.differential(p + 1) * c.differential(p)).is_zero()
        cases += 1

    x = torus2()
    flat = from_monodromy(x, winding_matrices((2, 4)))
    edges = {e: flat.transport(*e) for e in x.simplices(1)}
    for _ in range(10):  # flatness detection of a perturbed edge
        bad_edge = x.simplices(1)[rng.randrange(x.n_simplices(1))]
        perturbed = dict(edges)
        perturbed[bad_edge] = perturbed[bad_edge] * IntMatrix([[1, 1], [0, 1]])
        violations = flatness_check(LocalSystem(x, 2, perturbed))
        assert violations
        assert all(bad_edge[0] in tri and bad_edge[1] in tri
                   for tri in violations)
        cases += 1

    for base, system in randomized_systems(seed=31337, per_base=4):
        groups = cohomology_groups(base, system)  # Euler identity
        total = sum((-1) ** p * g.free_rank for p, g in enumerate(groups))
        assert total == base.euler_characteristic() * system.fiber_rank
        cases += 1

    assert cases >= 100
    assert time.monotonic() - start < 30.0
