import random

import pytest

from leray.exactlinalg import FgAbGroup, IntMatrix
from leray.local_systems import (
    GradedKBundle,
    LocalSystem,
    flatness_check,
    from_monodromy,
    transport_along,
)
from leray.simplicial import circle, genus_surface, simplex, sphere2, torus2

from oracles import (
    block_unipotent_family,
    coinvariants,
    invariants,
    random_commuting_pair,
    random_unimodular,
)


K2 = IntMatrix([[1, 2], [0, 1]])
K4 = IntMatrix([[1, 4], [0, 1]])
SWAP = IntMatrix([[0, 1], [1, 0]])


def test_constant_system():
    sys = LocalSystem.constant(torus2(), 3)
    assert sys.is_constant()
    assert flatness_check(sys) == []


def test_generator_loops_counts():
    assert len(torus2().tree_gauge.loops) == 2
    assert len(genus_surface(2).tree_gauge.loops) == 4
    assert len(circle(5).tree_gauge.loops) == 1
    assert len(sphere2().tree_gauge.loops) == 0
    assert len(simplex(2).tree_gauge.loops) == 0


def test_from_monodromy_trivial_is_constant():
    ident = IntMatrix.identity(1)
    sys = from_monodromy(torus2(), [ident, ident])
    assert sys.is_constant()


def test_from_monodromy_torus_paper_matrices():
    sys = from_monodromy(torus2(), [K2, K4])
    assert flatness_check(sys) == []
    loops = torus2().tree_gauge.loops
    assert transport_along(sys, loops[0]) == K2
    assert transport_along(sys, loops[1]) == K4


def test_from_monodromy_circle():
    sys = from_monodromy(circle(3), [SWAP])
    loop = circle(3).tree_gauge.loops[0]
    assert transport_along(sys, loop) == SWAP
    # composing the three edge transports around the triangle gives A
    # (up to loop direction), independently of the gauge construction
    prod = sys.transport(2, 0) * sys.transport(1, 2) * sys.transport(0, 1)
    assert prod in (SWAP, SWAP.inverse_unimodular())


def test_from_monodromy_rejects_noncommuting():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="commute"):
        from_monodromy(torus2(), [a, b])


def test_from_monodromy_rejects_nonunimodular():
    with pytest.raises(ValueError, match="unimodular"):
        from_monodromy(circle(3), [IntMatrix([[2]])])


def test_from_monodromy_wrong_count():
    with pytest.raises(ValueError, match="expected 2"):
        from_monodromy(torus2(), [K2])


def test_from_monodromy_simply_connected():
    sys = from_monodromy(sphere2(), [], fiber_rank=2)
    assert sys.is_constant()
    # every stored loop has trivial holonomy
    assert transport_along(sys, [0, 1, 2, 0]).is_identity()


def test_transport_along_basics():
    sys = from_monodromy(torus2(), [K2, K4])
    assert transport_along(sys, [3]).is_identity()
    assert transport_along(sys, [3, 4, 3]).is_identity()
    with pytest.raises(ValueError):
        transport_along(sys, [])


def test_transport_along_nonadjacent():
    sys = LocalSystem.constant(circle(4), 1)
    with pytest.raises(ValueError, match="not an edge"):
        transport_along(sys, [0, 2])


def test_flatness_detects_perturbation():
    sys = from_monodromy(torus2(), [K2, K4])
    edges = dict()
    for (u, v) in sys.base.simplices(1):
        edges[(u, v)] = sys.transport(u, v)
    # perturb one edge transport
    bad_edge = (0, 1)
    edges[bad_edge] = edges[bad_edge] * IntMatrix([[1, 1], [0, 1]])
    broken = LocalSystem(sys.base, 2, edges)
    bad = flatness_check(broken)
    assert bad
    assert all(bad_edge[0] in tri and bad_edge[1] in tri for tri in bad)


def test_flatness_homotopy_invariance_across_triangles():
    rng = random.Random(11)
    a, b = random_commuting_pair(rng, 2)
    sys = from_monodromy(torus2(), [a, b])
    for (u, v, w) in sys.base.simplices(2):
        lhs = transport_along(sys, [u, v, w])
        rhs = transport_along(sys, [u, w])
        assert lhs == rhs


def test_invariants_examples():
    inv = invariants([K2, K4], 2)
    assert inv.group == FgAbGroup(1, ())
    col = inv.basis.column(0)
    assert col in ((1, 0), (-1, 0))  # the class of the unit

    assert invariants([IntMatrix.identity(3)], 3).group == FgAbGroup(3, ())

    inv = invariants([SWAP], 2)
    assert inv.group == FgAbGroup(1, ())
    col = inv.basis.column(0)
    assert col in ((1, 1), (-1, -1))


def test_invariants_fixed_points_property():
    rng = random.Random(5)
    for _ in range(10):
        a, b = random_commuting_pair(rng, 3)
        inv = invariants([a, b], 3)
        for j in range(inv.basis.ncols):
            g = inv.basis.column(j)
            assert a.apply(g) == g
            assert b.apply(g) == g


def test_coinvariants_examples():
    co = coinvariants([K2, K4], 2)
    assert co.quotient == FgAbGroup(1, (2,))
    assert coinvariants([IntMatrix.identity(2)], 2).quotient == FgAbGroup(2, ())
    co = coinvariants([IntMatrix([[1, 3], [0, 1]])], 2)
    assert co.quotient == FgAbGroup(1, (3,))


def test_coinvariants_conjugation_invariance():
    rng = random.Random(9)
    for _ in range(10):
        a, b = random_commuting_pair(rng, 2)
        p = random_unimodular(rng, 2)
        pinv = p.inverse_unimodular()
        g1 = coinvariants([a, b], 2).quotient
        g2 = coinvariants([p * a * pinv, p * b * pinv], 2).quotient
        assert g1 == g2


def test_graded_bundle_base_check():
    even = LocalSystem.constant(torus2(), 2)
    odd = LocalSystem.constant(torus2(), 2)
    kb = GradedKBundle(even, odd)
    assert kb.part(0) is even
    assert kb.part(1) is odd
    assert kb.part(2) is even
    with pytest.raises(ValueError):
        GradedKBundle(even, LocalSystem.constant(sphere2(), 2))


def test_rank_zero_fiber():
    sys = LocalSystem.constant(torus2(), 0)
    assert flatness_check(sys) == []
    assert transport_along(sys, [0, 1]).shape == (0, 0)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_trusted_transports_equal_the_checked_ones(rank):
    """``constant`` and ``from_monodromy`` store every backward transport
    without inverting anything; the checking constructor, given the
    same forward transports, inverts each by an SNF and must agree."""
    rng = random.Random(rank)
    for x, loops in ((torus2(), 2), (genus_surface(2), 4), (circle(4), 1)):
        a, b = random_commuting_pair(rng, rank)
        mats = ([a, b] * 2)[:loops]
        for system in (LocalSystem.constant(x, rank), from_monodromy(x, mats)):
            checked = LocalSystem(x, rank, {(u, v): system.transport(u, v)
                                            for (u, v) in x.simplices(1)})
            for (u, v) in x.simplices(1):
                assert system.transport(u, v) == checked.transport(u, v)
                assert system.transport(v, u) == checked.transport(v, u)


def test_negative_classes_are_inverted_exactly():
    # some off-tree edges of torus2 have classes with negative
    # coordinates, so their transports use the prescribed inverses
    x = torus2()
    assert any(c < 0 for cls in x.tree_gauge.classes for c in cls)
    sys = from_monodromy(x, [K2, K4])
    for (u, v) in x.simplices(1):
        assert (sys.transport(v, u) * sys.transport(u, v)).is_identity()


def test_monodromy_systems_share_the_gauge_of_their_base(kernel_calls):
    x = torus2()
    from_monodromy(x, [K2, K4])
    gauge = x.tree_gauge
    kernel_calls.clear()
    from_monodromy(x, [K4, K2])
    assert x.tree_gauge is gauge
    # no transport and no gauge matrix; the two prescribed matrices are
    # inverted as they are checked, by elimination outside the kernel
    assert kernel_calls == []


def test_derived_systems_keep_their_holonomy_and_make_tables_lazily():
    """constant and from_monodromy keep the checked holonomy, a pair
    (T_i, T_i^-1) per loop, and make no transport table until a
    transport is read; a system given by transports keeps none."""
    x = genus_surface(2)
    ident = IntMatrix.identity(2)
    mats = [K2, K4, K2, K4]
    monodromy = from_monodromy(x, mats)
    constant = LocalSystem.constant(x, 2)
    for system in (monodromy, constant):
        assert "_table" not in vars(system)
    assert [t for t, _ in monodromy.holonomy] == mats
    assert all((t * inverse).is_identity()
               for t, inverse in monodromy.holonomy)
    assert constant.holonomy == ((ident, ident),) * 4
    assert "_table" not in vars(monodromy)
    assert [transport_along(monodromy, loop)
            for loop in x.tree_gauge.loops] == mats
    given = LocalSystem(x, 2, {e: monodromy.transport(*e)
                               for e in x.simplices(1)})
    assert given.holonomy is None


def test_from_monodromy_makes_each_power_once(monkeypatch):
    """Each m_i^(+-c) an off-tree class needs is made once per table,
    when a transport is first read, and shared by every edge of that
    class coordinate."""
    x = genus_surface(2)
    classes = x.tree_gauge.classes
    needed = {(i, e) for cls in classes for i, c in enumerate(cls) if c
              for e in (c, -c)}
    assert len(needed) < 2 * sum(1 for cls in classes for c in cls if c)
    made = []
    power = IntMatrix.power

    def counting(m, n):
        made.append(n)
        return power(m, n)
    monkeypatch.setattr(IntMatrix, "power", counting)
    system = from_monodromy(x, [K2, K4, K2, K4])
    assert made == []
    system.transport(0, 1)
    system.transport(1, 0)
    assert len(made) == len(needed)


def test_monodromy_table_multiplies_by_no_identity(monkeypatch):
    """A torus2 rank-6 table makes 12 products: each off-tree product
    starts from its first power, and a power of exponent +-1 is the
    matrix itself, so only the three edges whose class has two nonzero
    coordinates multiply, once each way (6), and the certificate of the
    holonomy along each of the two 3-edge loops multiplies thrice (6)."""
    x = torus2()
    gauge = x.tree_gauge
    system = from_monodromy(x, block_unipotent_family(random.Random(6), 2))
    calls = []
    mul = IntMatrix.__mul__

    def counting(a, b):
        calls.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(IntMatrix, "__mul__", counting)
    system.transport(0, 1)
    offtree = sum(2 * (sum(1 for c in cls if c) - 1)
                  for cls in gauge.classes if any(cls))
    loops = sum(len(loop) - 1 for loop in gauge.loops)
    assert {abs(c) for cls in gauge.classes for c in cls} == {0, 1}
    assert (offtree, loops) == (6, 6)
    assert len(calls) == 12
