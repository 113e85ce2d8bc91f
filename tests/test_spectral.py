import random

import pytest

from leray.exactlinalg import FgAbGroup, IntMatrix
from leray.cohomology import cohomology_groups
from leray.local_systems import GradedKBundle, LocalSystem, from_monodromy
from leray.simplicial import circle, genus_surface, simplex, sphere2, torus2
from leray.spectral import (
    PageError,
    _turn,
    assemble,
    attach_d2,
    e1_page,
    e2_page,
    stabilize,
)

from oracles import random_commuting_pair, random_unimodular


def constant_bundle(x, even_rank, odd_rank):
    return GradedKBundle(LocalSystem.constant(x, even_rank),
                         LocalSystem.constant(x, odd_rank))


def test_e1_ranks_torus_constant():
    x = torus2()
    page = e1_page(x, constant_bundle(x, 2, 2))
    assert page.r == 1
    ranks = {(p, q): page.group(p, q).free_rank for (p, q) in page.keys()}
    assert ranks[(0, 0)] == 14 and ranks[(0, 1)] == 14
    assert ranks[(1, 0)] == 42 and ranks[(1, 1)] == 42
    assert ranks[(2, 0)] == 28 and ranks[(2, 1)] == 28


def test_e1_differential_squares_to_zero():
    rng = random.Random(3)
    x = torus2()
    a, b = random_commuting_pair(rng, 2)
    bundle = GradedKBundle(from_monodromy(x, [a, b]),
                           LocalSystem.constant(x, 1))
    page = e1_page(x, bundle)
    for (p, q) in page.keys():
        m1 = page.differentials.get((p, q))
        if m1 is None:
            continue
        m2 = page.differentials.get((p + 1, (q - 1) % 2))
        if m2 is not None:
            assert (m2 * m1).is_zero()


def test_contractible_base_collapses_to_fiber():
    x = simplex(2)
    page2 = e2_page(e1_page(x, constant_bundle(x, 2, 1)))
    for (p, q) in page2.keys():
        g = page2.group(p, q)
        if p == 0:
            expected = 2 if (p + q) % 2 == 0 else 1
            assert g == FgAbGroup(expected, ())
        else:
            assert g.is_trivial()
    # assembly: the single graded piece is the fiber K-theory
    k0, k1 = assemble(stabilize(page2))
    assert [g.render() for g in k0.graded_pieces] == ["Z^2", "0", "0"]
    assert [g.render() for g in k1.graded_pieces] == ["Z", "0", "0"]


def test_circle_point_fiber():
    x = circle(3)
    page2 = e2_page(e1_page(x, constant_bundle(x, 1, 0)))
    # entries carrying the even coefficient system are the circle cohomology
    assert page2.group(0, 0) == FgAbGroup(1, ())
    assert page2.group(1, 1) == FgAbGroup(1, ())
    # odd-coefficient entries vanish
    assert page2.group(0, 1).is_trivial()
    assert page2.group(1, 0).is_trivial()
    k0, k1 = assemble(stabilize(page2))
    assert [g.render() for g in k0.graded_pieces] == ["Z", "0"]
    assert [g.render() for g in k1.graded_pieces] == ["0", "Z"]


def test_hirzebruch_checkerboard_trivial_bundle():
    x = torus2()
    page2 = e2_page(e1_page(x, constant_bundle(x, 1, 0)))
    h = cohomology_groups(x, LocalSystem.constant(x, 1))
    for (p, q) in page2.keys():
        if (p - q) % 2 == 0:
            assert page2.group(p, q) == h[p]
        else:
            assert page2.group(p, q).is_trivial()
    einf = stabilize(page2)
    k0, k1 = assemble(einf)
    assert [g.render() for g in k0.graded_pieces] == ["Z", "0", "Z"]
    assert [g.render() for g in k1.graded_pieces] == ["0", "Z^2", "0"]
    assert k0.total_rank == 2 and k1.total_rank == 2
    assert k0.extension_ambiguous and k1.extension_ambiguous


def test_kunneth_trivial_torus_fiber_bundle():
    x = torus2()
    page2 = e2_page(e1_page(x, constant_bundle(x, 2, 2)))
    k0, k1 = assemble(stabilize(page2))
    assert tuple(g.free_rank for g in k0.graded_pieces) == (2, 4, 2)
    assert tuple(g.free_rank for g in k1.graded_pieces) == (2, 4, 2)
    assert k0.total_rank == 8  # rank K^0(T^4) via the Kunneth count
    assert k1.total_rank == 8


def test_e2_cross_check_randomized():
    rng = random.Random(61)
    bases = [torus2(), genus_surface(2), circle(4), sphere2()]
    gens = [2, 4, 1, 0]
    for x, n in zip(bases, gens):
        for _ in range(2):
            m_even = rng.randint(1, 2)
            if n == 0:
                even = LocalSystem.constant(x, m_even)
            elif n == 1:
                even = from_monodromy(x, [random_unimodular(rng, m_even)])
            else:
                a, b = random_commuting_pair(rng, m_even)
                even = from_monodromy(x, ([a, b] * (n // 2))[:n])
            odd = LocalSystem.constant(x, rng.randint(0, 2))
            page2 = e2_page(e1_page(x, GradedKBundle(even, odd)))
            for parity in (0, 1):
                h = cohomology_groups(x, page2.bundle.part(parity))
                for p in range(x.dimension + 1):
                    assert page2.group(p, (parity - p) % 2) == h[p]


def test_genus2_constant_fiber_column_ranks():
    x = genus_surface(2)
    page2 = e2_page(e1_page(x, constant_bundle(x, 1, 1)))
    for q in (0, 1):
        ranks = tuple(page2.group(p, q).free_rank for p in range(3))
        assert ranks == (1, 4, 1)


def test_attach_zero_d2_is_identity_on_groups():
    x = torus2()
    page2 = e2_page(e1_page(x, constant_bundle(x, 1, 1)))
    page3 = attach_d2(page2, {})
    assert page3.r == 3
    for (p, q) in page2.keys():
        assert page3.group(p, q) == page2.group(p, q)


def test_attach_d2_rejects_wrong_page():
    x = torus2()
    page1 = e1_page(x, constant_bundle(x, 1, 1))
    with pytest.raises(PageError):
        attach_d2(page1, {})


def test_attach_d2_rejects_ill_defined_map():
    # Z/2 source generator must map to a class killed by 2.
    x = torus2()
    a = IntMatrix([[1, 2], [0, 1]])
    b = IntMatrix([[1, 4], [0, 1]])
    bundle = GradedKBundle(from_monodromy(x, [a, b]),
                           from_monodromy(x, [a, b]))
    page2 = e2_page(e1_page(x, bundle))
    # source (0,1): H^0 of the odd (2,4)-system = Z (one generator);
    # target (2,0): Z (+) Z/2.  Mapping the free source generator anywhere
    # is fine; to provoke ill-definedness use a torsion source instead:
    # (2,1) has group Z^2 (+) Z/2 -> target (4,0) outside window, so use
    # a synthetic page: map from (0,1) is legal; assert the shape check.
    bad = {(0, 1): IntMatrix.zeros(1, 5)}
    with pytest.raises(PageError):
        attach_d2(page2, bad)


def test_validator_rejects_torsion_ill_defined_map():
    from leray.exactlinalg import IntMatrix as M, subquotient
    from leray.spectral import SpectralPage
    x = torus2()
    bundle = constant_bundle(x, 1, 1)
    # source (0,1): Z (+) Z/2 inside Z^2; target (2,0): Z (+) Z/4
    source = subquotient(M.identity(2), M([[0], [2]]))
    target = subquotient(M.identity(2), M([[0], [4]]))
    trivial = subquotient(M.identity(1), M.identity(1))
    entries = {(p, q): trivial for p in range(3) for q in (0, 1)}
    entries[(0, 1)] = source
    entries[(2, 0)] = target
    # order-2 generator sent to an order-4 class: not well-defined
    bad = {(0, 1): M([[0, 0], [0, 1]])}
    page = SpectralPage(2, x, bundle, entries, {})
    with pytest.raises(PageError, match="not well-defined"):
        page.with_differentials(bad)
    # order-2 generator sent to an order-2 class: accepted, and turning
    # the page kills exactly that class
    good = {(0, 1): M([[0, 0], [0, 2]])}
    page3 = attach_d2(page.with_differentials({}), good)
    assert page3.group(0, 1) == FgAbGroup(1, ())
    assert page3.group(2, 0) == FgAbGroup(1, (2,))


def test_page_stabilization():
    x = torus2()
    page2 = e2_page(e1_page(x, constant_bundle(x, 2, 1)))
    p3 = _turn(page2)
    p4 = _turn(p3)
    assert p3.r == 3 and p4.r == 4
    for (p, q) in page2.keys():
        assert p3.group(p, q) == p4.group(p, q)


def test_assemble_requires_stable_page():
    x = torus2()
    page2 = e2_page(e1_page(x, constant_bundle(x, 1, 1)))
    with pytest.raises(PageError):
        assemble(page2)


def test_page_dump_shapes():
    x = circle(3)
    page = e2_page(e1_page(x, constant_bundle(x, 1, 1)))
    rows = page.table_rows()
    assert len(rows) == 4
    d = page.to_dict()
    assert d["r"] == 2
    assert len(d["entries"]) == 4
    assert all(set(e) >= {"p", "q", "group", "differential_rank"}
               for e in d["entries"])
