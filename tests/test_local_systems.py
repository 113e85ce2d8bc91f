import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from leray import cli
from leray.exactlinalg import FgAbGroup, IntMatrix
from leray.local_systems import (
    GradedKBundle,
    LocalSystem,
    flatness_check,
    from_monodromy,
    transport_along,
)
from leray.simplicial import (
    SimplicialComplex,
    builtin,
    circle,
    genus_surface,
    simplex,
    sphere2,
    torus2,
)

from oracles import (
    block_unipotent_family,
    class_power_table,
    coinvariants,
    invariants,
    offtree_classes,
    pinched_torus,
    random_commuting_pair,
    random_unimodular,
)
from test_cell_model import connected_complexes
from test_simplicial import _CYLINDER_Z2, _FIN_TORUS, _relabelled


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
    assert any(c < 0 for cls in offtree_classes(x).values() for c in cls)
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
    transport is read; a system given by transports reads the same
    pairs off its table, by transport along each loop and back."""
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
    assert given.holonomy == monodromy.holonomy


def _counting(monkeypatch, *names):
    """Record each call of the named ``IntMatrix`` methods, with its
    arguments, in the returned list."""
    calls = []
    for name in names:
        method = getattr(IntMatrix, name)

        def counting(*args, _name=name, _method=method):
            calls.append((_name,) + args)
            return _method(*args)
        monkeypatch.setattr(IntMatrix, name, counting)
    return calls


@pytest.mark.parametrize("g", [1, 2, 8])
def test_surface_holonomy_is_the_given_matrices(g, monkeypatch):
    """On a closed surface each generator's class is a unit vector, so
    the holonomy is the checked matrices and their inverses, the same
    objects, made with no product and no inverse.  The table then
    makes at most two products per triangle the forest peels, none by
    the identity."""
    x = genus_surface(g)
    mats = block_unipotent_family(random.Random(g), 2 * g)
    system = from_monodromy(x, mats)
    calls = _counting(monkeypatch, "__mul__", "inverse_unimodular")
    holonomy = system.holonomy
    assert calls == []
    assert [t for t, _ in holonomy] == mats
    assert all(t is m for (t, _), m in zip(holonomy, mats))
    system.transport(0, 1)
    peeled = sum(len(disk) - 1 for disk in x.presentation.disks)
    assert all(name == "__mul__" for name, *_ in calls)
    assert 0 < len(calls) <= 2 * peeled
    assert not any(a.is_identity() or b.is_identity() for _, a, b in calls)
    assert all(system.transport(u, v) is t and system.transport(v, u) is inverse
               for (u, v), (t, inverse) in zip(x.presentation.generators,
                                               holonomy))
    assert all((t * inverse).is_identity() for t, inverse in holonomy)


def test_monodromy_table_multiplies_by_no_identity(monkeypatch):
    """A torus2 rank-6 table makes 6 products: peeling the cotree, each
    triangle's erased edge is the composite of its two other edges,
    which skips an identity, the transport of an edge of class 0, such
    as a tree edge.  Only three triangles have two other edges of
    nonzero class, and they multiply once each way (6).  The
    certificate of the holonomy along each of the two 3-edge loops
    multiplies nothing: its two tree edges carry the identity, which it
    skips."""
    x = torus2()
    gauge, p = x.tree_gauge, x.presentation
    system = from_monodromy(x, block_unipotent_family(random.Random(6), 2))
    classes = offtree_classes(x)
    calls = _counting(monkeypatch, "__mul__")
    system.transport(0, 1)
    tris = x.simplices(2)
    multiplying = sum(
        1 for disk in p.disks for t in disk[1:]
        if all(any(classes.get(e, ())) for e in combinations(tris[t], 2)
               if e != p.offtree[p.up[t]]))
    assert [len(loop) - 1 for loop in gauge.loops] == [3, 3]
    assert multiplying == 3
    assert len(calls) == 6
    assert not any(a.is_identity() or b.is_identity() for _, a, b in calls)


_TABLE_BASES = dict(
    [("genus(%d)" % g, lambda g=g: builtin("genus(%d)" % g))
     for g in list(range(1, 13)) + [24, 49]]
    + [("genus(2)-relabelled", lambda: _relabelled(genus_surface(2), 5)),
       ("genus(3)-relabelled", lambda: _relabelled(genus_surface(3), 8)),
       ("pinched-torus", pinched_torus),
       ("cylinder-z2", lambda: SimplicialComplex(15, _CYLINDER_Z2)),
       ("circle(7)", lambda: circle(7)),
       ("simplex(3)", lambda: simplex(3)),
       ("fin-torus", lambda: SimplicialComplex(8, _FIN_TORUS))])


def _check_table(x, rng):
    """``from_monodromy``'s table equals ``class_power_table`` in both
    directions of every edge, for signed shears, which commute and are
    not involutions."""
    mats = [IntMatrix([[s, s * k], [0, s]])
            for s, k in ((rng.choice((-1, 1)),
                          rng.choice((-3, -2, -1, 1, 2, 3)))
                         for _ in x.tree_gauge.loops)]
    system = from_monodromy(x, mats, 2)
    reference = class_power_table(x, mats, 2)
    for (u, v) in x.simplices(1):
        assert system.transport(u, v) == reference[u, v]
        assert system.transport(v, u) == reference[v, u]


@pytest.mark.parametrize("name", sorted(_TABLE_BASES))
def test_flat_table_equals_the_class_power_table(name):
    _check_table(_TABLE_BASES[name](), random.Random(name))


@settings(max_examples=60, deadline=None)
@given(complex_doc=connected_complexes(), seed=st.integers(0, 2 ** 32 - 1))
def test_flat_table_equals_the_class_power_table_on_inline_complexes(
        complex_doc, seed):
    x = cli.parse_complex(complex_doc)
    try:
        x.tree_gauge
    except ValueError:  # torsion in H_1: no monodromy prescription
        return
    _check_table(x, random.Random(seed))


def test_transport_along_multiplies_by_no_identity(monkeypatch):
    """Along a path, the product starts from the first transport that
    is not the identity and skips the identity of every tree edge: a
    genus(2) rank-6 table's loops, one off-tree edge each, multiply
    nothing, and a path through k off-tree edges multiplies k - 1
    times."""
    x = genus_surface(2)
    gauge = x.tree_gauge
    mats = block_unipotent_family(random.Random(2), 4)
    system = from_monodromy(x, mats)
    system.transport(0, 1)  # the table, certified along every loop
    calls = []
    mul = IntMatrix.__mul__

    def counting(a, b):
        calls.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(IntMatrix, "__mul__", counting)
    assert [transport_along(system, loop) for loop in gauge.loops] == mats
    assert calls == []
    path = gauge.loops[0] + gauge.loops[1][1:]
    assert transport_along(system, path) == mats[1] * mats[0]
    assert len(calls) == 2  # one in the walk, one on the right-hand side
    assert not any(a.is_identity() or b.is_identity() for a, b in calls)
    assert transport_along(LocalSystem.constant(x, 6), path).is_identity()
