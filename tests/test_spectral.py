import random

import pytest

from leray.exactlinalg import (
    FgAbGroup,
    IntMatrix,
    SmithDecomposition,
    Subquotient,
    smith_normal_form,
    solve,
)
from leray.cohomology import cohomology, cohomology_groups
from leray.local_systems import GradedKBundle, LocalSystem, from_monodromy
from leray.ncp_bundles import NcpTorusBundleSpec, analyze
from leray.simplicial import circle, genus_surface, simplex, sphere2, torus2
from leray.spectral import (
    PageError,
    SpectralPage,
    _turn,
    assemble,
    attach_d2,
    e1_page,
    e2_page,
    stabilize,
)

from oracles import (
    matches_surface_cohomology,
    random_commuting_pair,
    random_unimodular,
    simplicial_e1_page,
    subquotient,
    surface_cohomology,
)


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


def test_e1_presents_nothing():
    """E1's groups are free cochain modules Z^(n_p), and E1 has no entry
    to read: on the simplicial cochains n_p is read off the complexes,
    and e1_page, on the cell model of the torus, counts the simplices."""
    x = torus2()
    bundle = constant_bundle(x, 2, 1)
    simplicial, cells = simplicial_e1_page(x, bundle), e1_page(x, bundle)
    for (p, q) in simplicial.keys():
        s = (p + q) % 2
        n = simplicial.complexes[s].degree_rank(p)
        assert n == x.n_simplices(p) * bundle.part(s).fiber_rank
        for page in (simplicial, cells):
            assert page.group(p, q) == FgAbGroup(n, ())
            with pytest.raises(PageError, match="E1 presents no entries"):
                page.entry(p, q)
        assert cells.complexes[s].degree_rank(p) == \
            (2 if p == 1 else 1) * bundle.part(s).fiber_rank


def test_e1_differential_squares_to_zero():
    rng = random.Random(3)
    x = torus2()
    a, b = random_commuting_pair(rng, 2)
    bundle = GradedKBundle(from_monodromy(x, [a, b]),
                           LocalSystem.constant(x, 1))
    page = simplicial_e1_page(x, bundle)
    assert len(page.differentials) == 4
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
            bundle = GradedKBundle(even, odd)
            page2 = e2_page(e1_page(x, bundle))
            for parity in (0, 1):
                h = cohomology_groups(x, bundle.part(parity))
                for p in range(x.dimension + 1):
                    assert page2.group(p, (parity - p) % 2) == h[p]
                # an oracle that builds no cochain complex
                column = [page2.group(p, (parity - p) % 2)
                          for p in range(x.dimension + 1)]
                # the classical coboundaries go through other SNFs
                assert column == cohomology_groups(
                    x, bundle.part(parity), "classical")
                assert matches_surface_cohomology(
                    column, surface_cohomology(x, bundle.part(parity)))


def test_genus2_constant_fiber_column_ranks():
    x = genus_surface(2)
    page2 = e2_page(e1_page(x, constant_bundle(x, 1, 1)))
    for q in (0, 1):
        ranks = tuple(page2.group(p, q).free_rank for p in range(3))
        assert ranks == (1, 4, 1)


def test_attach_zero_d2_is_identity_on_groups():
    x = torus2()
    page2 = e2_page(e1_page(x, constant_bundle(x, 1, 1)))
    page3 = attach_d2(page2)
    assert page3.r == 3
    for (p, q) in page2.keys():
        assert page3.group(p, q) == page2.group(p, q)


def test_attach_d2_rejects_wrong_page():
    x = torus2()
    page1 = e1_page(x, constant_bundle(x, 1, 1))
    with pytest.raises(PageError):
        attach_d2(page1)


def test_d2_turn_kills_an_order_two_class():
    """A d2 from Z (+) Z/2 to Z (+) Z/4 sending the order-2 generator to
    the order-2 class 2 * t: the turn kills exactly that class, in the
    source and in the target."""
    x = torus2()
    complexes = e1_page(x, constant_bundle(x, 1, 1)).complexes
    # source (0,1): Z (+) Z/2 inside Z^2; target (2,0): Z (+) Z/4
    ident = IntMatrix.identity(2)
    source = subquotient(ident, IntMatrix([[0], [2]]))
    target = subquotient(ident, IntMatrix([[0], [4]]))
    trivial = subquotient(IntMatrix.identity(1), IntMatrix.identity(1))
    entries = {(p, q): trivial for p in range(3) for q in (0, 1)}
    entries[(0, 1)] = source
    entries[(2, 0)] = target
    page = SpectralPage(2, complexes, entries, {})
    d2 = {(0, 1): IntMatrix([[0, 0], [0, 2]])}
    page3 = attach_d2(page.with_differentials(d2))
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
    d = page.to_dict()
    assert d["r"] == 2
    assert len(d["entries"]) == 4
    assert all(set(e) >= {"p", "q", "group", "differential_rank"}
               for e in d["entries"])
    # outside the window an entry is trivial as a group and absent as a
    # presentation, on E2 as on every page
    for p in (-1, 2):
        assert page.group(p, 0) == FgAbGroup(0, ())
        with pytest.raises(KeyError):
            page.entry(p, 0)


def _twisted_torus_bundle():
    x = torus2()
    a, b = random_commuting_pair(random.Random(5), 2)
    return x, GradedKBundle(from_monodromy(x, [a, b]),
                            LocalSystem.constant(x, 1))


def test_e1_page_makes_no_smith_decomposition(kernel_calls):
    x, bundle = _twisted_torus_bundle()
    kernel_calls.refuse()
    page = e1_page(x, bundle)
    assert page.group(1, 0) == FgAbGroup(21, ())
    assert page.group(1, 1) == FgAbGroup(42, ())


def test_zero_differential_turns_carry_entries_over(kernel_calls):
    """A turn with no nonzero differential makes nothing, not even E2's
    groups: the next page reads every group and entry from E2, the same
    objects."""
    x = torus2()
    page2 = e2_page(e1_page(x, constant_bundle(x, 2, 1)))
    kernel_calls.refuse()
    pages3 = (stabilize(page2), attach_d2(page2))
    kernel_calls.refusing = False
    for page3 in pages3:
        assert page3.r == 3
        for key in page2.keys():
            assert page3.group(*key) is page2.group(*key)
            assert page3.entry(*key) is page2.entry(*key)


def test_d2_turn_keeps_the_e2_cycle_decomposition():
    """In an ncp job d2 only enters (2, 0), so the turn leaves its
    cycles alone and passes E2's decomposition of them on, the same
    object, instead of decomposing them again."""
    result = analyze(NcpTorusBundleSpec("torus2", (2, 4), (1, 0)))
    e2, e3 = result.e2.entry(2, 0), result.e3.entry(2, 0)
    assert e3 is not e2
    assert e3.cycles is e2.cycles


def _random_system(rng, x, loops, rank):
    if loops == 0 or rank == 0:
        return LocalSystem.constant(x, rank)
    if loops == 1:
        return from_monodromy(x, [random_unimodular(rng, rank)])
    a, b = random_commuting_pair(rng, rank)
    return from_monodromy(x, ([a, b] * (loops // 2))[:loops])


def _same_lattice(a, b):
    """The columns of a and of b span the same lattice."""
    return solve(a, b) is not None and solve(b, a) is not None


def _identity_on(group, m):
    """m is the identity on ``group``'s canonical coordinates: its free
    rows exactly, its torsion rows modulo their orders."""
    diff = (m - IntMatrix.identity(group.ngens)).rows()
    free = group.free_rank
    return not any(map(any, diff[:free])) and all(
        x % t == 0 for t, row in zip(group.torsion, diff[free:]) for x in row)


def _free(n):
    """Z^n / 0 presented in Z^n: I_n's decomposition, with the relations
    of an n x 0 matrix, which reach no kernel."""
    return Subquotient(SmithDecomposition.identity(n),
                       smith_normal_form(IntMatrix.zeros(n, 0)))


def test_e2_equals_the_e1_page_turn():
    """The E1 -> E2 page turn is the oracle: every E2 entry is the same
    subquotient of the same cochain module as the turned entry.  The
    groups, the cycle lattices and the boundary lattices are equal, and
    the two presentations translate into each other: lifting in one and
    projecting in the other, both ways round, is the identity on
    classes."""
    rng = random.Random(97)
    bases = [(torus2(), 2), (genus_surface(2), 4), (circle(4), 1),
             (sphere2(), 0), (simplex(2), 0)]
    for x, loops in bases:
        for even_rank, odd_rank in ((rng.randint(1, 2), 0),
                                    (0, rng.randint(1, 2)),
                                    (rng.randint(1, 2), rng.randint(1, 2))):
            bundle = GradedKBundle(_random_system(rng, x, loops, even_rank),
                                   _random_system(rng, x, loops, odd_rank))
            page1 = simplicial_e1_page(x, bundle)
            page2 = e2_page(page1)
            turned = _turn(SpectralPage(
                1, page1.complexes,
                {key: _free(page1.group(*key).free_rank)
                 for key in page1.keys()}, page1.differentials))
            assert page2.r == turned.r == 2
            for key in page2.keys():
                got, want = page2.entry(*key), turned.entry(*key)
                assert got.quotient == want.quotient, (x, key)
                assert _same_lattice(got.cycle_gens, want.cycle_gens)
                assert _same_lattice(got.boundary_gens, want.boundary_gens)
                there = want.project_matrix(got.lift_matrix)
                back = got.project_matrix(want.lift_matrix)
                assert _identity_on(got.quotient, back * there), (x, key)
                assert _identity_on(got.quotient, there * back), (x, key)


def test_e2_page_builds_one_subquotient_per_entry(presentations):
    """e2_page presents nothing, and neither does reading its groups;
    the first read of an entry presents that entry alone, one
    Subquotient in its cochain module, and no later read builds it
    again."""
    x, bundle = _twisted_torus_bundle()
    page1 = e1_page(x, bundle)
    page2 = e2_page(page1)
    page2.to_dict()
    assert presentations == []
    first = page2.entry(1, 0)  # H^1 of parity 1
    assert presentations == [page1.complexes[1].degree_rank(1)]
    assert page2.entry(1, 0) is first
    assert len(presentations) == 1
    for _ in range(2):
        for key in page2.keys():
            page2.entry(*key)
    assert sorted(presentations) == sorted(
        page1.complexes[(p + q) % 2].degree_rank(p) for p, q in page2.keys())


def test_e2_page_rejects_a_wrong_rank_entry(monkeypatch):
    """A presentation whose group is not the one the invariant factors
    give raises PageError when that entry is read, not before, and the
    other entries of its parity are still presented."""
    import leray.spectral as spectral
    x = torus2()
    page1 = simplicial_e1_page(x, constant_bundle(x, 1, 1))

    def wrong_h1(c, p):
        if p == 1:  # all of C^1 in place of H^1 = Z^2
            return _free(c.degree_rank(1))
        return cohomology(c, p)
    monkeypatch.setattr(spectral, "cohomology", wrong_h1)
    page2 = e2_page(page1)
    assert page2.group(1, 0) == FgAbGroup(2, ())
    assert page2.entry(0, 1).quotient == FgAbGroup(1, ())
    with pytest.raises(PageError, match="H\\^1 of parity 1 presents Z\\^21"):
        page2.entry(1, 0)
    with pytest.raises(PageError, match="H\\^1 of parity 0 presents Z\\^21"):
        page2.entry(1, 1)
