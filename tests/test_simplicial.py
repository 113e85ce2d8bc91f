import random
from itertools import combinations

import pytest

from leray import exactlinalg
from leray.cohomology import build, cohomology
from leray.exactlinalg import FgAbGroup, IntMatrix, smith_normal_form
from leray.local_systems import LocalSystem, from_monodromy, transport_along
from leray.ncp_bundles import NcpTorusBundleSpec
from leray.simplicial import (
    SimplicialComplex,
    TreeGauge,
    builtin,
    circle,
    genus_surface,
    shared_builtin,
    simplex,
    sphere2,
    torus2,
)

from oracles import (basis_change, bfs_orientation, boundary_matrix,
                     check_surface_word, cup_intersection_form,
                     integral_homology, iterated_connected_sum,
                     pinched_torus, smith_gauge, surface_word,
                     word_intersection_form)


def test_closure_and_counts():
    x = simplex(2)
    assert x.n_simplices(0) == 3
    assert x.n_simplices(1) == 3
    assert x.n_simplices(2) == 1
    assert x.has_simplex((0, 2))
    assert x.euler_characteristic() == 1


def test_boundary_squares_to_zero():
    for x in [simplex(3), sphere2(), torus2(), genus_surface(2), circle(5)]:
        for p in range(1, x.dimension + 1):
            assert (boundary_matrix(x, p)
                    * boundary_matrix(x, p + 1)).is_zero() \
                if p + 1 <= x.dimension else True
            composite = boundary_matrix(x, p - 1) * boundary_matrix(x, p) \
                if p - 1 >= 1 else None
            if composite is not None:
                assert composite.is_zero()


def test_builtin_torus():
    x = torus2()
    assert (x.n_simplices(0), x.n_simplices(1), x.n_simplices(2)) == (7, 21, 14)
    assert x.euler_characteristic() == 0
    assert integral_homology(x) == [
        FgAbGroup(1, ()), FgAbGroup(2, ()), FgAbGroup(1, ())]


def test_builtin_sphere():
    x = sphere2()
    assert (x.n_simplices(0), x.n_simplices(1), x.n_simplices(2)) == (4, 6, 4)
    assert x.euler_characteristic() == 2
    assert integral_homology(x) == [
        FgAbGroup(1, ()), FgAbGroup(0, ()), FgAbGroup(1, ())]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_builtin_genus(g):
    x = genus_surface(g)
    assert x.euler_characteristic() == 2 - 2 * g
    assert integral_homology(x) == [
        FgAbGroup(1, ()), FgAbGroup(2 * g, ()), FgAbGroup(1, ())]


def test_builtin_circle():
    x = circle(4)
    assert integral_homology(x) == [FgAbGroup(1, ()), FgAbGroup(1, ())]
    with pytest.raises(ValueError):
        circle(2)


def test_coherent_orientation():
    for x in [torus2(), sphere2(), genus_surface(2)]:
        eps = x.orientation
        assert eps[0] == 1
        assert all(abs(e) == 1 for e in eps)
        d2 = boundary_matrix(x, 2)
        assert all(v == 0 for v in d2.apply(eps))
    with pytest.raises(ValueError):
        simplex(2).orientation


def test_builtin_by_name():
    assert builtin("torus2").n_simplices(2) == 14
    assert builtin("circle(5)").n_simplices(1) == 5
    assert builtin("genus(2)").euler_characteristic() == -2
    assert builtin("simplex(3)").dimension == 3
    with pytest.raises(ValueError):
        builtin("klein")
    with pytest.raises(ValueError, match="torus2 takes no parameter"):
        builtin("torus2(3)")
    with pytest.raises(ValueError, match="circle requires a parameter"):
        builtin("circle")


def test_homology_of_contractible():
    assert integral_homology(simplex(3)) == [
        FgAbGroup(1, ()), FgAbGroup(0, ()),
        FgAbGroup(0, ()), FgAbGroup(0, ())]


_SPHERE = list(combinations(range(4), 3))
# the 6-vertex real projective plane: a closed surface, not orientable
_RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


@pytest.mark.parametrize("x", [torus2(), sphere2()]
                         + [genus_surface(g) for g in range(1, 9)],
                         ids=["torus2", "sphere2"]
                         + ["genus%d" % g for g in range(1, 9)])
def test_orientation_certifies_homology(x):
    """The combinatorial certificate agrees with the SNF homology oracle:
    the signs are a 2-cycle, and H_* = [Z, Z^(2 - chi), Z]."""
    eps = x.orientation
    assert eps[0] == 1
    assert all(v == 0 for v in boundary_matrix(x, 2).apply(eps))
    assert integral_homology(x) == [
        FgAbGroup(1, ()), FgAbGroup(2 - x.euler_characteristic(), ()),
        FgAbGroup(1, ())]


@pytest.mark.parametrize("x, message", [
    (SimplicialComplex(6, _RP2), "not orientable"),
    (SimplicialComplex(8, _SPHERE + [tuple(v + 4 for v in t)
                                     for t in _SPHERE]), "not a closed"),
    (SimplicialComplex(5, _SPHERE), "not a closed"),
    (SimplicialComplex(7, _SPHERE + [tuple(v + 3 for v in t)
                                     for t in _SPHERE]), "not a closed"),
    (SimplicialComplex(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), "not a closed"),
    (simplex(2), "not a closed"),
    (simplex(3), "not a closed"),
], ids=["rp2", "two-spheres", "sphere-isolated-vertex",
        "two-spheres-at-a-vertex", "three-on-an-edge",
        "simplex2", "simplex3"])
def test_orientation_rejects_non_surfaces(x, message):
    """The forest's check raises what the breadth-first pass raised."""
    for orient in (lambda: x.orientation, lambda: bfs_orientation(x)):
        with pytest.raises(ValueError, match=message):
            orient()


def test_orientation_is_the_breadth_first_one():
    """The forest's signs, checked, are the signs the breadth-first pass
    spreads from the first triangle: on the builtin surfaces and on 30
    randomly relabelled genus(3)."""
    rng, g3 = random.Random("orientation"), genus_surface(3)
    xs = [builtin(name) for name in _SURFACES]
    for _ in range(30):
        relabel = rng.sample(range(g3.vertex_count), g3.vertex_count)
        xs.append(SimplicialComplex(g3.vertex_count, [
            tuple(relabel[v] for v in t) for t in g3.simplices(2)]))
    for x in xs:
        assert x.orientation == bfs_orientation(x)


def test_orientation_is_kept():
    """A built surface keeps the orientation it was certified by; a
    non-surface raises on every use."""
    x = torus2()
    assert "orientation" in vars(x)
    assert x.orientation == SimplicialComplex.orientation.func(x)
    y = simplex(2)
    for _ in range(2):
        with pytest.raises(ValueError, match="not a closed"):
            y.orientation


def test_tree_gauge_decomposes_the_relators_exponent_sums(kernel_calls):
    """H_1 is Z^k modulo the exponent sums of the relators: where some
    sum is nonzero, a fresh gauge sends the SNF kernel that one r x k
    matrix.  genus(2) with a fin, a triangle on its edge (0, 1) and a
    new vertex, is not a surface: the fin is a disk of its own, whose
    relator reads the fin's generator once, and H_1 is Z^4 with every
    Hermite pivot 1."""
    x = SimplicialComplex(12, list(genus_surface(2).simplices(2))
                          + [(0, 1, 11)])
    p = x.presentation
    k = len(p.generators)
    sums = tuple(tuple(sum(s for i, s in word if i == j) for j in range(k))
                 for word in p.relators)
    assert [sum(map(abs, row)) for row in sums] == [0, 1]
    kernel_calls.clear()
    gauge = x.tree_gauge
    assert kernel_calls == [(len(p.relators), k, sums)]
    assert len(gauge.loop_edges) == 4


def test_fresh_surface_gauge_and_word_call_no_kernel(kernel_calls):
    """On a closed surface the gauge and the relator come from the
    presentation's cotree: no SNF and no Hermite form.  The gauge keeps
    the unit class of each generator and no class of any other edge."""
    kernel_calls.refuse()
    x = genus_surface(8)
    assert "tree_gauge" not in vars(x)
    gauge = x.tree_gauge
    assert not hasattr(gauge, "classes")
    assert gauge.generator_classes == [((i, 1),) for i in range(16)]
    assert [len(w) for w in x.presentation.relators] == [32]


def test_surfaces_build_without_smith_forms(kernel_calls):
    kernel_calls.refuse()
    shared_builtin.cache_clear()
    torus2()
    sphere2()
    genus_surface(3)
    NcpTorusBundleSpec("genus(2)", (1, 0, 0, 0), (1, 0))
    with pytest.raises(ValueError, match="expected 4 windings"):
        NcpTorusBundleSpec("genus(2)", (1, 0, 0), (1, 0))


def test_builtin_builds_no_tree_gauge(kernel_calls):
    kernel_calls.refuse()
    x = builtin("genus(8)")
    assert "tree_gauge" not in vars(x)


def _reversing(kernel):
    """A kernel that decomposes A with its rows and columns reversed and
    maps the transforms back: valid, and different from the kernel's."""
    def snf(a, nrows, ncols):
        b = [list(row)[::-1] for row in a][::-1]
        u, d, v, uinv, vinv = kernel(b, nrows, ncols)
        return ([row[::-1] for row in u], d, v[::-1], uinv[::-1],
                [row[::-1] for row in vinv])
    return snf


@pytest.mark.parametrize("g", [1, 2, 3])
def test_tree_gauge_classes_do_not_depend_on_the_kernels_transforms(
        g, monkeypatch):
    """The SNF path's Hermite rule reads the row lattice alone: another
    valid kernel gives the same gauge, whose loops and generator classes
    are the cotree's."""
    x = genus_surface(g)
    gauge = smith_gauge(x)
    kernel = exactlinalg.smith_with_transforms
    seen = []

    def other(a, nrows, ncols):
        out = _reversing(kernel)(a, nrows, ncols)
        seen.append(out != kernel(a, nrows, ncols))
        return out
    monkeypatch.setattr(exactlinalg, "smith_with_transforms", other)
    again = smith_gauge(x)
    assert any(seen)
    assert again.classes == gauge.classes
    for other_gauge in (again, x.tree_gauge):
        assert other_gauge.offtree == gauge.offtree
        assert other_gauge.generator_classes == gauge.generator_classes
        assert other_gauge.loops == gauge.loops


_GENERA = list(range(1, 13)) + [24, 49, 113]


@pytest.mark.parametrize("g", _GENERA)
def test_one_pass_build_equals_the_iterated_connected_sum(g):
    x, y = genus_surface(g), iterated_connected_sum(g)
    assert x.vertex_count == y.vertex_count
    for p in range(3):
        assert x.simplices(p) == y.simplices(p)
    assert x.orientation == y.orientation
    assert x.presentation.relators == y.presentation.relators


def _relabelled(x, shift):
    """``x`` with vertex v renamed (v + shift) mod n: the same surface,
    another breadth-first tree and other off-tree edges."""
    n = x.vertex_count
    return SimplicialComplex(n, [tuple((v + shift) % n for v in t)
                                 for t in x.simplices(2)])


@pytest.mark.parametrize("x", [genus_surface(g) for g in _GENERA]
                         + [sphere2(), _relabelled(genus_surface(2), 5),
                            _relabelled(genus_surface(3), 8)],
                         ids=["genus%d" % g for g in _GENERA]
                         + ["sphere2", "genus2-relabelled",
                            "genus3-relabelled"])
def test_cotree_gauge_equals_the_smith_gauge(x):
    """On a closed surface the cotree's leftover edges are the Hermite
    pivots, in order, so each generator's class is a unit vector of the
    Hermite form's."""
    gauge, reference = x.tree_gauge, smith_gauge(x)
    assert gauge.offtree == reference.offtree
    assert gauge.loop_edges == reference.loop_edges
    assert gauge.loops == reference.loops
    assert gauge.generator_classes == reference.generator_classes


def test_tree_gauge_keeps_one_parent_per_vertex():
    """The breadth-first tree is stored as one parent per vertex, not a
    path per vertex: on genus(113), whose tree is about 113 levels deep,
    the gauge keeps vertex_count entries, each one neighbouring vertex."""
    x = genus_surface(113)
    gauge = x.tree_gauge
    assert len(gauge.parent) == x.vertex_count and gauge.parent[0] == 0
    assert all(type(u) is int and x.adjacent(u, v)
               for v, u in enumerate(gauge.parent) if v)
    assert not hasattr(gauge, "paths")


# The mapping cylinder of the degree-2 map of circles, with a collar,
# relabelled: H_1 = Z, and the class of an off-tree edge's loop is twice
# the generator, so the Hermite pivot is 2
_CYLINDER_Z2 = [
    (0, 4, 8), (0, 8, 9), (0, 9, 13), (1, 2, 6), (1, 2, 7), (1, 3, 7),
    (1, 3, 9), (1, 6, 8), (1, 8, 9), (2, 6, 11), (2, 7, 12), (2, 10, 11),
    (2, 10, 12), (3, 5, 6), (3, 5, 7), (3, 6, 11), (3, 9, 11), (4, 5, 8),
    (4, 5, 14), (5, 6, 8), (5, 7, 14), (7, 12, 14), (9, 11, 13),
    (10, 11, 13)]


def test_tree_gauge_lifts_the_loop_where_a_pivot_is_not_one():
    x = SimplicialComplex(15, _CYLINDER_Z2)
    assert integral_homology(x)[1] == FgAbGroup(1, ())
    gauge = x.tree_gauge
    assert gauge.loop_edges is None
    assert gauge.generator_classes[-1] == ((0, 2),)  # the pivot
    # from_monodromy certifies the holonomy along the lifted loop
    system = from_monodromy(x, [IntMatrix([[-1]])])
    assert transport_along(system, gauge.loops[0]) == IntMatrix([[-1]])


# torus2 with a fin: tree edge (0, 1) lies in three triangles, and the
# fin's off-tree edge, in one, is a generator of class 0
_FIN_TORUS = list(torus2().simplices(2)) + [(0, 1, 7)]
# a cone on the square 0-1-3-2 with apex 4, and the square's diagonal
# (0, 3) as an edge of its own: H_1 = Z, and the two rules for its basis
# pick opposite generators
_DIAGONAL_CONE = [(0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4), (0, 3)]

# the bases the closed-surface test of the gauge above leaves out: the
# other builtins and the fixed test bases
_GAUGE_BASES = (
    [(name, builtin(name)) for name in ["circle(3)", "circle(7)",
                                        "simplex(0)", "simplex(2)",
                                        "simplex(3)"]]
    + [("pinched-torus", pinched_torus()),
       ("fin-torus", SimplicialComplex(8, _FIN_TORUS)),
       ("cylinder-z2", SimplicialComplex(15, _CYLINDER_Z2))])


@pytest.mark.parametrize("x", [x for _, x in _GAUGE_BASES],
                         ids=[name for name, _ in _GAUGE_BASES])
def test_relator_gauge_equals_the_smith_gauge(x):
    """Off the closed surfaces too, on the builtins and the fixed test
    bases, the relators' exponent sums give the loop edges and generator
    classes that the off-tree rows of d_2 give."""
    gauge, reference = x.tree_gauge, smith_gauge(x)
    assert gauge.loop_edges == reference.loop_edges
    assert gauge.generator_classes == reference.generator_classes


def _random_2_complex(rng):
    """A seeded inline complex on 3 to 8 vertices: up to 12 random
    triangles and 5 random edges, one time in four on 6 or more
    vertices over a relabelled RP^2 too (torsion in H_1, unless the
    other triangles kill it), and its components joined to vertex 0
    nine times in ten."""
    n = rng.randint(3, 8)
    tris = list(combinations(range(n), 3))
    tris = rng.sample(tris, rng.randint(0, min(12, len(tris))))
    if n >= 6 and rng.random() < 0.25:
        relabel = rng.sample(range(n), 6)
        tris += [tuple(relabel[v] for v in t) for t in _RP2]
    edges = list(combinations(range(n), 2))
    edges = rng.sample(edges, rng.randint(0, min(5, len(edges))))
    if rng.random() < 0.9:
        root = list(range(n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v
        for s in tris + edges:
            for v in s[1:]:
                root[find(v)] = find(s[0])
        for v in range(1, n):
            if find(v) != find(0):
                edges.append((0, v))
                root[find(v)] = find(0)
    return SimplicialComplex(n, tris + edges)


def test_relator_gauge_is_the_smith_gauge_up_to_a_change_of_basis():
    """On 3,000 seeded random inline 2-complexes the two rules refuse
    the same complexes, with the same message.  On the others their
    bases of H_1 differ by a matrix in GL_k(Z), and ``from_monodromy``
    certifies the holonomy along the relator rule's loops when it makes
    its table.  On some the rules pick different bases: there a
    ``monodromy`` document means something new."""
    rng = random.Random("relator-gauge")
    refused, gauged, moved_classes, moved_edges = {}, 0, 0, 0
    for _ in range(3000):
        x = _random_2_complex(rng)
        try:
            reference = smith_gauge(x)
        except ValueError as exc:
            with pytest.raises(ValueError) as again:
                x.tree_gauge
            assert str(again.value) == str(exc)
            refused[str(exc)] = refused.get(str(exc), 0) + 1
            continue
        gauge = x.tree_gauge
        gauged += 1
        moved_classes += gauge.generator_classes != reference.generator_classes
        moved_edges += gauge.loop_edges != reference.loop_edges
        basis_change(x).inverse_unimodular()  # raises unless in GL_k(Z)
        mats = [IntMatrix([[s, s * k], [0, s]])
                for s, k in ((rng.choice((-1, 1)), rng.randint(1, 3))
                             for _ in gauge.loops)]
        from_monodromy(x, mats, 2).transport(*x.simplices(1)[0])
    assert gauged >= 2000
    assert set(refused) == {"base complex is not connected",
                            "base has torsion in H_1; unsupported"}
    assert 0 < moved_classes <= moved_edges < gauged // 5


def test_a_monodromy_document_changed_meaning_on_the_diagonal_cone():
    """The off-tree rows of d_2 gave loop edge (3, 4), and both
    generators class -1; the relators give loop edge (2, 3), and class
    +1.  So a matrix A prescribed there is now the holonomy around the
    old loop's opposite: there [A] now means what [A^-1] meant."""
    x = SimplicialComplex(5, _DIAGONAL_CONE)
    gauge, old = x.tree_gauge, smith_gauge(x)
    assert x.presentation.generators == [(1, 3), (2, 3)]
    assert gauge.loop_edges == [(2, 3)]
    assert gauge.generator_classes == [((0, 1),), ((0, 1),)]
    assert old.loop_edges == [(3, 4)]
    assert old.generator_classes == [((0, -1),), ((0, -1),)]
    a = IntMatrix([[1, 1], [0, 1]])
    system = from_monodromy(x, [a])
    assert transport_along(system, gauge.loops[0]) == a
    assert transport_along(system, old.loops[0]) == a.inverse_unimodular()


@pytest.mark.parametrize("x", [SimplicialComplex(8, _FIN_TORUS),
                               SimplicialComplex(15, _CYLINDER_Z2),
                               SimplicialComplex(5, _DIAGONAL_CONE)],
                         ids=["fin-torus", "cylinder-z2", "diagonal-cone"])
def test_relator_gauge_does_not_depend_on_the_kernels_transforms(
        x, monkeypatch):
    """The relator rule's Hermite form reads the lattice of the vectors
    y with M y = 0 alone: another valid kernel gives the same classes
    and loop edges.  (Where a pivot is not 1 the lifted loops are one
    solution of many, so only their classes are kernel-free.)"""
    gauge = TreeGauge(x)
    kernel = exactlinalg.smith_with_transforms
    seen = []

    def other(a, nrows, ncols):
        out = _reversing(kernel)(a, nrows, ncols)
        seen.append(out != kernel(a, nrows, ncols))
        return out
    monkeypatch.setattr(exactlinalg, "smith_with_transforms", other)
    again = TreeGauge(x)
    assert any(seen)
    assert again.generator_classes == gauge.generator_classes
    assert again.loop_edges == gauge.loop_edges


@pytest.mark.parametrize("g", [1, 2, 3, 8])
def test_tree_gauge_classes_are_in_hermite_form(g):
    # every pivot is 1, so each generator is the class of one off-tree
    # edge's fundamental loop
    x = genus_surface(g)
    gauge = smith_gauge(x)
    form = list(zip(*gauge.classes))
    pivots = [max(j for j, c in enumerate(row) if c) for row in form]
    assert len(form) == 2 * g
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert [row[p] for row in form] == [int(k == i) for k in range(2 * g)]
    if g == 2:
        assert [gauge.offtree[p] for p in pivots] == [
            (5, 10), (6, 10), (7, 9), (9, 10)]


@pytest.mark.parametrize("g", range(1, 9))
def test_intersection_form_is_skew_and_unimodular(g):
    form = cup_intersection_form(genus_surface(g))
    assert form.shape == (2 * g, 2 * g)
    assert form.transpose() == -form
    assert smith_normal_form(form).diagonal == (1,) * (2 * g)


def test_intersection_form_of_torus2_and_genus2():
    assert cup_intersection_form(torus2()) == IntMatrix([[0, -1], [1, 0]])
    assert cup_intersection_form(genus_surface(2)) == IntMatrix([
        [0, -1, 1, 1], [1, 0, 0, -1], [-1, 0, 0, 0], [-1, 1, 0, 0]])


def _on_path(x, cochain, path):
    """A 1-cochain on the sorted edges, summed along a vertex path."""
    return sum(cochain[x.index((min(u, v), max(u, v)))] * (1 if u < v else -1)
               for u, v in zip(path, path[1:]))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_intersection_form_is_the_cup_product_on_the_loops(g):
    """An oracle that reads neither ``classes`` nor ``offtree``: cup the
    H^1 generators of the constant rank-1 system, from cohomology()'s
    lift matrix, over the fundamental cycle, giving K.  With E_ai the
    value of cocycle a on generator loop i, the cocycles are
    sum_i E_ai alpha_i in cohomology, so K = E J E^T."""
    x = genus_surface(g)
    h1 = cohomology(build(x, LocalSystem.constant(x, 1)), 1)
    cocycles = [h1.lift_matrix.column(a) for a in range(2 * g)]
    cup = [[sum(eps * z[x.index((a, b))] * w[x.index((b, c))]
                for eps, (a, b, c) in zip(x.orientation, x.simplices(2)))
            for w in cocycles] for z in cocycles]
    e = IntMatrix([[_on_path(x, z, loop) for loop in x.tree_gauge.loops]
                   for z in cocycles])
    assert smith_normal_form(e).diagonal == (1,) * (2 * g)
    assert e * cup_intersection_form(x) * e.transpose() == IntMatrix(cup)


_SURFACES = ["sphere2", "torus2"] + ["genus(%d)" % g for g in range(1, 9)]


@pytest.mark.parametrize("name", _SURFACES)
def test_boundary_word_is_a_certified_surface_relator(name):
    """A closed surface's presentation has one relator, the walk of the
    disk left by cutting along the tree and the cotree: a word of length
    4g in which each generator occurs twice, with opposite signs; the
    walk covers every half-edge of the 2(V - 1 + 2g) tree and loop edges
    once, each a letter or a tree step."""
    x = builtin(name)
    gauge, p = x.tree_gauge, x.presentation
    (word,) = p.relators
    g = (2 - x.euler_characteristic()) // 2
    assert p.generators == gauge.loop_edges
    assert len(gauge.loops) == len(gauge.loop_edges) == 2 * g
    assert len(word) == 4 * g
    for i in range(2 * g):
        assert sorted(s for j, s in word if j == i) == [-1, 1]
    tree = x.vertex_count - 1
    cotree = len(gauge.offtree) - 2 * g
    assert cotree == x.n_simplices(2) - 1  # a spanning tree of the dual
    assert x.n_simplices(1) - cotree == tree + 2 * g
    check_surface_word(word, 2 * g)


_WALKED = ([builtin(name) for name in _SURFACES]
           + [genus_surface(49), genus_surface(113), pinched_torus(),
              _relabelled(torus2(), 3), _relabelled(genus_surface(2), 5),
              _relabelled(genus_surface(3), 8), _relabelled(sphere2(), 1)])


@pytest.mark.parametrize("x", _WALKED, ids=_SURFACES + [
    "genus(49)", "genus(113)", "pinched-torus", "torus2-relabelled",
    "genus2-relabelled", "genus3-relabelled", "sphere2-relabelled"])
def test_the_forest_walk_reads_the_surface_walk(x):
    """On a closed orientable surface the presentation's one relator,
    read with each triangle oriented relative to its forest parent, is
    the word the walk of the coherently oriented disk reads, letter for
    letter, and its generators are the gauge's loop edges."""
    p = x.presentation
    assert p.relators == [surface_word(x)]
    assert p.generators == x.tree_gauge.loop_edges


@pytest.mark.parametrize("name", _SURFACES[1:5])
def test_boundary_word_reads_the_intersection_form(name):
    """The relator is that of the triangulation's own cell structure:
    the form it gives, J_ab = sum_k s_k alpha_a(p_k) [x_k = b], is the
    intersection form the triangles' cup products give, with no sign or
    transpose."""
    x = builtin(name)
    loops = len(x.tree_gauge.loops)
    assert word_intersection_form(x.presentation.relators[0], loops) == \
        cup_intersection_form(x)


def test_boundary_words_of_torus2_and_genus2():
    assert torus2().presentation.relators == [
        ((1, 1), (0, 1), (1, -1), (0, -1))]
    assert [len(w) for w in genus_surface(2).presentation.relators] == [8]
    assert sphere2().presentation.relators == [()]


@pytest.mark.parametrize("name", _SURFACES[1:])
def test_mutated_boundary_words_are_rejected(name):
    """A word with one letter's sign flipped, or one letter dropped, is
    not a surface relator on its generators."""
    word = list(builtin(name).presentation.relators[0])
    n = len(word) // 2
    for k, (i, s) in enumerate(word):
        flipped = word[:k] + [(i, -s)] + word[k + 1:]
        with pytest.raises(ValueError, match="not a surface relator"):
            check_surface_word(flipped, n)
        with pytest.raises(ValueError, match="not a surface relator"):
            check_surface_word(word[:k] + word[k + 1:], n)


def test_boundary_word_is_made_on_first_read(kernel_calls):
    """The build makes the presentation, whose forest's signs orient the
    surface, and walks no relator; the gauge walks the relator for its
    exponent sums, all zero, with no SNF, and the relators are kept."""
    x = genus_surface(3)
    p = vars(x)["presentation"]
    assert "relators" not in vars(p)
    assert x.orientation == tuple(p.eps)
    kernel_calls.clear()
    gauge = x.tree_gauge
    assert kernel_calls == []
    assert gauge.parent is p.parent and gauge.loop_edges is p.generators
    assert x.presentation.relators is vars(p)["relators"]


def test_boundary_word_needs_a_closed_surface():
    """The surface walk needs a coherent orientation; the presentation
    does not: a circle has one generator and no relator, and a
    disconnected or empty complex has no presentation."""
    with pytest.raises(ValueError, match="not a closed connected surface"):
        surface_word(circle(5))
    p = circle(5).presentation
    assert (p.generators, p.relators) == ([(2, 3)], [])
    assert SimplicialComplex(4, [(0, 1), (2, 3)]).presentation is None
    assert SimplicialComplex(0, []).presentation is None
