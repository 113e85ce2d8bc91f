import random
from itertools import combinations

import pytest

from leray.exactlinalg import FgAbGroup, IntMatrix, kernel
from leray.cohomology import (
    CochainComplex,
    build,
    cochains,
    cohomology,
    cohomology_groups,
    convention_compare,
    fox_complex,
    groups,
)
from leray.group_cohomology import _RELATORS, ZnModule
from leray.local_systems import (FlatnessError, LocalSystem, from_monodromy,
                                 transport_along)
from leray.simplicial import (builtin, circle, genus_surface, simplex, sphere2,
                              torus2)

from oracles import (
    block_unipotent_family,
    cokernel,
    dense_coboundary,
    flat_system_from_loops,
    coinvariants,
    freely_trivial,
    gauge_twist,
    invariants,
    random_commuting_pair,
    random_unimodular,
)


K2 = IntMatrix([[1, 2], [0, 1]])
K4 = IntMatrix([[1, 4], [0, 1]])


def test_circle_constant():
    groups = cohomology_groups(circle(3), LocalSystem.constant(circle(3), 1))
    assert groups == [FgAbGroup(1, ()), FgAbGroup(1, ())]


@pytest.mark.parametrize("mat", [
    IntMatrix([[0, 1], [1, 0]]),
    IntMatrix([[1, 1], [0, 1]]),
    IntMatrix([[1, 0], [0, 1]]),
    IntMatrix([[0, -1], [1, 0]]),
])
def test_circle_is_mapping_torus(mat):
    x = circle(3)
    sys = from_monodromy(x, [mat])
    h0, h1 = cohomology_groups(x, sys)
    ident = IntMatrix.identity(2)
    assert h0 == FgAbGroup(kernel(mat - ident).ncols, ())
    assert h1 == cokernel(mat - ident).quotient


def test_simplex_contractible():
    x = simplex(2)
    for m in (1, 2):
        groups = cohomology_groups(x, LocalSystem.constant(x, m))
        assert groups == [FgAbGroup(m, ()), FgAbGroup(0, ()), FgAbGroup(0, ())]


def test_torus_constant():
    groups = cohomology_groups(torus2(), LocalSystem.constant(torus2(), 1))
    assert groups == [FgAbGroup(1, ()), FgAbGroup(2, ()), FgAbGroup(1, ())]


def test_torus_paper_system():
    x = torus2()
    sys = from_monodromy(x, [K2, K4])
    h0, h1, h2 = cohomology_groups(x, sys)
    assert h0 == FgAbGroup(1, ())          # invariants: the class of the unit
    assert h2 == FgAbGroup(1, (2,))        # coinvariants: Z/2 (+) Z
    assert h1 == FgAbGroup(2, (2,))        # cross-checked by the Koszul oracle


def test_genus2_constant():
    x = genus_surface(2)
    groups = cohomology_groups(x, LocalSystem.constant(x, 1))
    assert groups == [FgAbGroup(1, ()), FgAbGroup(4, ()), FgAbGroup(1, ())]


def test_sphere_constant():
    groups = cohomology_groups(sphere2(), LocalSystem.constant(sphere2(), 2))
    assert groups == [FgAbGroup(2, ()), FgAbGroup(0, ()), FgAbGroup(2, ())]


def test_h0_equals_invariants_h_top_equals_coinvariants():
    rng = random.Random(23)
    for base_fn, n_gens in [(torus2, 2), (lambda: genus_surface(2), 4)]:
        x = base_fn()
        for _ in range(3):
            a, b = random_commuting_pair(rng, 2)
            mats = [a, b] if n_gens == 2 else \
                [a, b, a.power(rng.randint(-1, 1)), b.power(rng.randint(-1, 1))]
            sys = from_monodromy(x, mats)
            groups = cohomology_groups(x, sys)
            assert groups[0] == invariants(mats, 2).group
            assert groups[-1] == coinvariants(mats, 2).quotient


def test_constant_system_is_m_fold_integral_cohomology():
    x = torus2()
    groups = cohomology_groups(x, LocalSystem.constant(x, 3))
    assert groups == [FgAbGroup(3, ()), FgAbGroup(6, ()), FgAbGroup(3, ())]


def test_euler_characteristic_identity():
    rng = random.Random(31)
    cases = [
        (torus2(), 2), (sphere2(), 0), (genus_surface(2), 4), (circle(4), 1),
    ]
    for x, n_gens in cases:
        m = rng.randint(1, 3)
        if n_gens == 0:
            sys = LocalSystem.constant(x, m)
        elif n_gens == 1:
            sys = from_monodromy(x, [random_unimodular(rng, m)])
        else:
            a, b = random_commuting_pair(rng, m)
            mats = [a, b][:n_gens] + [a.power(-1), b][:max(0, n_gens - 2)]
            sys = from_monodromy(x, mats)
        groups = cohomology_groups(x, sys)
        total = sum((-1) ** p * g.free_rank for p, g in enumerate(groups))
        assert total == x.euler_characteristic() * m


def test_gauge_twist_invariance():
    rng = random.Random(17)
    x = torus2()
    sys = from_monodromy(x, [K2, K4])
    twisted = gauge_twist(sys, rng)
    assert cohomology_groups(x, twisted) == cohomology_groups(x, sys)


def test_convention_compare():
    rng = random.Random(41)
    x = torus2()
    cmp1 = convention_compare(x, LocalSystem.constant(x, 1))
    assert cmp1.isomorphic

    g2 = genus_surface(2)
    a, b = random_commuting_pair(rng, 2)
    sys = from_monodromy(g2, [a, b, a * b, b.power(-1)])
    assert convention_compare(g2, sys).isomorphic

    c4 = circle(4)
    sys = from_monodromy(c4, [IntMatrix([[1, 1], [0, 1]])])
    assert convention_compare(c4, sys).isomorphic


def test_convention_compare_decomposes_the_shared_coboundary_once(
        kernel_calls):
    """The odd-degree coboundary is the same matrix under both
    conventions, and the comparison eliminates it once, on D alone."""
    x = torus2()
    system = from_monodromy(x, [K2, K4])
    d1 = build(x, system, "classical").differential(1)
    assert d1 == build(x, system, "e1").differential(1)
    assert d1.shape == (28, 42)
    kernel_calls.clear()
    assert convention_compare(x, system).isomorphic
    assert kernel_calls.count((28, 42, d1.rows())) == 1
    assert kernel_calls.transformed == []


def _seeded_systems():
    """(label, base, system) on every builtin base: a constant system, a
    seeded monodromy system, and a system given by transports, the
    monodromy one in a seeded gauge, so that no edge carries the
    identity."""
    rng = random.Random(2001)
    x = torus2()
    yield "torus2-paper", x, from_monodromy(x, [K2, K4])
    for name, ranks in (("sphere2", (2,)), ("circle(3)", (1, 3)),
                        ("circle(5)", (1, 3)), ("torus2", (2, 3)),
                        ("genus(2)", (2,)), ("simplex(1)", (2,)),
                        ("simplex(3)", (2,))):
        x = builtin(name)
        loops = len(x.tree_gauge.loops)
        for m in ranks:
            a, b = random_commuting_pair(rng, m)
            monodromy = from_monodromy(x, [a, b, a * b, b.power(-1)][:loops],
                                       m)
            label = "%s-rank%d" % (name, m)
            yield label + "-constant", x, LocalSystem.constant(x, m)
            yield label + "-monodromy", x, monodromy
            yield label + "-transports", x, gauge_twist(monodromy, rng)


def test_both_conventions_are_the_textbook_coboundaries():
    """build assembles the e1 complex and derives the classical one by
    sign; each coboundary is the one its convention defines, with
    (-1)^l on the l-th face (classical) or (-1)^(p+1-l) (e1)."""
    for label, x, system in _seeded_systems():
        classical = build(x, system, "classical")
        e1 = build(x, system, "e1")
        for p in range(x.dimension):
            assert classical.differential(p).rows() == dense_coboundary(
                x, system, p, lambda l: (-1) ** l).rows(), (label, p)
            assert e1.differential(p).rows() == dense_coboundary(
                x, system, p, lambda l: (-1) ** (p + 1 - l)).rows(), \
                (label, p)


@pytest.mark.parametrize("x, system", [
    pytest.param(x, system, id=label) for label, x, system in _seeded_systems()])
def test_build_equals_the_dense_reference_assembly(monkeypatch, x, system):
    """build reads one transport per (p+1)-simplex, for its face 0, and
    writes the blocks of the other faces as +-I: its nonzero rows are
    those of the assembly that reads a transport for every face."""
    expected = [dense_coboundary(x, system, p)
                for p in range(x.dimension + 1)]
    assert not system.violations  # flatness, read once before counting
    reads = []
    transport = LocalSystem.transport

    def reading(self, u, v):
        reads.append((u, v))
        return transport(self, u, v)
    monkeypatch.setattr(LocalSystem, "transport", reading)
    got = build(x, system).differentials
    assert len(reads) == sum(x.n_simplices(p)
                             for p in range(1, x.dimension + 1))
    assert [d.nonzero_rows() for d in got] == \
        [d.nonzero_rows() for d in expected]
    assert list(got) == expected


@pytest.mark.parametrize("convention", ["classical", "e1"])
def test_groups_equal_the_quotients_of_cohomology(convention):
    """The groups read off invariant factors alone are the quotients of
    the Subquotients built from the full Smith decompositions."""
    seen_torsion = False
    for label, x, system in _seeded_systems():
        c = build(x, system, convention)
        reference = [cohomology(c, p).quotient
                     for p in range(c.dimension + 1)]
        assert groups(c) == reference, label
        seen_torsion |= any(g.torsion for g in reference)
    assert seen_torsion


def _zn_complex(module):
    """The Fox complex ``zn_cohomology`` reads: that of the presentation
    <x> of Z or <x, y | x y x^-1 y^-1> of Z^2, the Koszul complex."""
    return fox_complex(_RELATORS[module.n],
                       list(zip(module.action, module.inverses)), module.rank)


def test_groups_equal_the_quotients_of_cohomology_on_koszul_complexes():
    rng = random.Random(2002)
    modules = [ZnModule(2, (K2, K4)), ZnModule(2, (K2,)),
               ZnModule(1, (IntMatrix.identity(1),) * 2)]
    for m in (1, 2, 3, 4):
        modules.append(ZnModule(m, random_commuting_pair(rng, m)))
        modules.append(ZnModule(m, (random_unimodular(rng, m),)))
    for module in modules:
        c = _zn_complex(module)
        reference = [cohomology(c, p).quotient
                     for p in range(c.dimension + 1)]
        assert groups(_zn_complex(module)) == reference, module


def test_groups_refuse_a_negative_free_rank():
    """groups trusts D o D = 0, which CochainComplex checks; a complex
    that skipped the check and breaks it is caught by its ranks."""
    ident = IntMatrix.identity(2)
    c = object.__new__(CochainComplex)
    c.differentials = (ident, ident, IntMatrix.zeros(0, 2))
    c._smith_forms, c._invariant_factors = {}, {}
    with pytest.raises(AssertionError, match="negative free rank"):
        groups(c)


def test_differentials_square_to_zero_randomized():
    rng = random.Random(12)
    for x in [torus2(), sphere2(), genus_surface(2)]:
        n = 2 if x.n_simplices(0) == 7 else \
            (0 if x.n_simplices(0) == 4 else 4)
        if n:
            a, b = random_commuting_pair(rng, 2)
            mats = [a, b] * (n // 2)
            sys = from_monodromy(x, mats[:n])
        else:
            sys = LocalSystem.constant(x, 2)
        sys = gauge_twist(sys, rng)
        c = build(x, sys)
        for p in range(x.dimension):
            assert (c.differential(p + 1) * c.differential(p)).is_zero()


def test_complex_checks_d_squared_when_made():
    """D_{p+1} D_p = 0 is checked by the constructor, whoever makes the
    complex, and the top coboundary must have no rows."""
    d0 = IntMatrix([[1], [1]])
    with pytest.raises(AssertionError, match="does not square to zero"):
        CochainComplex([d0, IntMatrix([[1, 0]]), IntMatrix.zeros(0, 1)])
    with pytest.raises(ValueError, match="no rows"):
        CochainComplex([d0])
    c = CochainComplex([d0, IntMatrix([[1, -1]]), IntMatrix.zeros(0, 1)])
    assert (c.dimension, c.degree_rank(1)) == (2, 2)
    assert [cohomology(c, p).quotient for p in range(3)] == \
        [FgAbGroup(0, ()), FgAbGroup(0, ()), FgAbGroup(0, ())]


def test_cohomology_sends_the_kernel_no_empty_matrix(kernel_calls):
    """H^0 has no incoming coboundary, and its relations cost no SNF."""
    x = torus2()
    c = build(x, from_monodromy(x, [K2, K4]))
    kernel_calls.clear()
    for p in range(c.dimension + 1):
        cohomology(c, p)
    assert kernel_calls
    assert all(nrows * ncols for nrows, ncols, _ in kernel_calls)


def test_build_rejects_nonflat():
    x = torus2()
    sys = from_monodromy(x, [K2, K4])
    edges = {(u, v): sys.transport(u, v) for (u, v) in x.simplices(1)}
    edges[(0, 1)] = edges[(0, 1)] * IntMatrix([[1, 1], [0, 1]])
    broken = LocalSystem(x, 2, edges)
    with pytest.raises(FlatnessError):
        build(x, broken)


def test_cohomology_lift_project_roundtrip():
    x = torus2()
    c = build(x, from_monodromy(x, [K2, K4]))
    for p in range(c.dimension + 1):
        h = cohomology(c, p)
        n = h.quotient.ngens
        for j in range(n):
            coords = tuple(1 if i == j else 0 for i in range(n))
            assert h.project(h.lift(coords)) == coords


def test_cell_model_groups_equal_the_simplicial_ones():
    """On every named closed surface, the Fox complex of the one-relator
    cell model has the groups of the triangulation's cochains under
    both conventions: 48 seeded commuting rank-6 block-unipotent
    systems, many with torsion, and the constant system."""
    rng = random.Random("cell-model:26")
    torsion = 0
    for name in ("sphere2", "torus2", "genus(2)", "genus(3)"):
        x = builtin(name)
        loops = len(x.tree_gauge.loops)
        systems = [LocalSystem.constant(x, 6)] + [
            from_monodromy(x, block_unipotent_family(rng, loops),
                           fiber_rank=6) for _ in range(12)]
        for system in systems:
            cell = tuple(groups(cochains(x, system)))
            assert "_table" not in vars(system)
            both = convention_compare(x, system)
            assert both.classical == both.e1 == cell, name
            torsion += any(g.torsion for g in cell)
    assert torsion >= 10


def test_fox_complex_of_the_torus_word():
    """On w = x1 x0 x1^-1 x0^-1 the Fox derivatives are dw/dx0 = x1 -
    x1 x0 x1^-1 x0^-1 and dw/dx1 = 1 - x1 x0 x1^-1, so for commuting
    matrices the blocks of delta_1 are rho(x1) - I and I - rho(x0); the
    groups are those of the paper's torus system (README)."""
    a, b = IntMatrix([[1, 2], [0, 1]]), IntMatrix([[1, 4], [0, 1]])
    word = ((1, 1), (0, 1), (1, -1), (0, -1))
    action = [(a, a.inverse_unimodular()), (b, b.inverse_unimodular())]
    c = fox_complex([word], action, 2)
    ident = IntMatrix.identity(2)
    assert c.differential(0) == (a - ident).vstack(b - ident)
    assert c.differential(1) == (b - ident).hstack(ident - a)
    assert [g.render() for g in groups(c)] == \
        ["Z", "Z^2 (+) Z/2", "Z (+) Z/2"]


def test_fox_complex_rejects_an_action_the_word_does_not_kill():
    """delta_1 delta_0 = rho(w) - I, which CochainComplex certifies: a
    non-commuting pair on the torus word fails it."""
    a, b = IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])
    word = ((1, 1), (0, 1), (1, -1), (0, -1))
    action = [(a, a.inverse_unimodular()), (b, b.inverse_unimodular())]
    with pytest.raises(AssertionError, match="square to zero"):
        fox_complex([word], action, 2)


def test_fox_blocks_read_the_prefix_left_to_right():
    """On w = x0 x1^-1 x2 the Fox derivatives are 1, -x0 x1^-1 and
    x0 x1^-1, so with a non-commuting pair A, B and rho(x2) = B A^-1
    the blocks of delta_1 are I, -A B^-1 and A B^-1, not B^-1 A."""
    a, b = IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])
    ab = a * b.inverse_unimodular()
    action = [(g, g.inverse_unimodular())
              for g in (a, b, ab.inverse_unimodular())]
    c = fox_complex([((0, 1), (1, -1), (2, 1))], action, 2)
    assert c.differential(1) == \
        IntMatrix.identity(2).hstack(-ab).hstack(ab)


def test_cell_delta0_is_the_simplicial_coboundary_on_the_loop_edges():
    """The cell model takes rho(x_i) = T_i^-1, T_i the transport around
    loop i: a 0-cochain with one value v at every vertex, constant in
    the tree gauge, has the e1 coboundary v - T_i^-1 v on loop edge i,
    which is -(rho(x_i) - I) v, block i of delta_0 up to sign."""
    x = genus_surface(2)
    system = from_monodromy(x, block_unipotent_family(
        random.Random("delta0"), 4), fiber_rank=6)
    d = build(x, system).differential(0).rows()
    cell = cochains(x, system).differential(0)
    for i, edge in enumerate(x.tree_gauge.loop_edges):
        rows = d[6 * x.index(edge):6 * x.index(edge) + 6]
        on_constant = IntMatrix([[sum(row[6 * v + b]
                                      for v in range(x.vertex_count))
                                  for b in range(6)] for row in rows])
        assert on_constant == -IntMatrix(cell.rows()[6 * i:6 * i + 6])


def test_cell_model_groups_of_noncommuting_systems():
    """Flat systems with non-commuting holonomy, which only a table of
    transports can give: where the surface's relator, cut down to two
    generators, reduces to the empty word, any two matrices on those
    loops and the identity on the others are a flat system.  The Fox
    complex of the holonomy around the loops has the groups of the
    triangulation's cochains."""
    rng = random.Random("noncommuting")
    cases = 0
    for name in ("genus(2)", "genus(3)"):
        x = builtin(name)
        (word,), loops = x.presentation.relators, x.tree_gauge.loops
        for i, j in combinations(range(len(loops)), 2):
            if not freely_trivial([l for l in word if l[0] in (i, j)]):
                continue
            mats = [IntMatrix.identity(3)] * len(loops)
            while mats[i] * mats[j] == mats[j] * mats[i]:
                mats[i], mats[j] = (random_unimodular(rng, 3, steps=4),
                                    random_unimodular(rng, 3, steps=4))
            system = flat_system_from_loops(x, mats)
            assert [transport_along(system, loop) for loop in loops] == mats
            action = [(t.inverse_unimodular(), t) for t in mats]
            assert tuple(groups(fox_complex([word], action, 3))) == \
                tuple(groups(build(x, system))), (name, i, j)
            cases += 1
    assert cases >= 4
