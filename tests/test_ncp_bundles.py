import math
import random

import pytest

from leray.exactlinalg import FgAbGroup, IntMatrix, element_order
from leray.local_systems import transport_along
from leray.ncp_bundles import (
    NcpTorusBundleSpec,
    analyze,
    d2_spec,
    fundamental_pairing,
    is_rkk_trivial,
    k_theory_bundle,
    resolve_base,
)
from leray.simplicial import torus2
from leray.spectral import attach_d2, e2_page, first_page

from oracles import (
    chern_cocycle,
    cup_intersection_form,
    simplicial_analysis,
    simplicial_e1_page,
    simplicial_k_theory_bundle,
    torus_transition_data,
    winding_number,
)


def spec_t2(windings, chern):
    return NcpTorusBundleSpec("torus2", windings, chern)


def test_spec_validation():
    with pytest.raises(ValueError, match="windings"):
        NcpTorusBundleSpec("torus2", (1, 2, 3), (0, 0))
    with pytest.raises(ValueError, match="Chern"):
        NcpTorusBundleSpec("torus2", (1, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        NcpTorusBundleSpec("sphere2", (0, 0), (0, 0))


def test_k_theory_bundle_commutative_case():
    spec = spec_t2((0, 0), (0, 0))
    for c in k_theory_bundle(spec).values():
        assert [c.degree_rank(p) for p in range(3)] == [2, 4, 2]
        assert all(d.is_zero() for d in c.differentials)
    kb = simplicial_k_theory_bundle(spec)
    assert kb.even.is_constant()
    assert kb.odd.is_constant()


def test_k_theory_bundle_paper_holonomy():
    # the holonomy of the simplicial bundle along the generator loops is
    # what the cell complexes are made of: delta_0 = stack(A_i - I)
    spec = spec_t2((2, 4), (0, 0))
    kb = simplicial_k_theory_bundle(spec)
    loops = torus2().tree_gauge.loops
    mats = [transport_along(kb.even, loop) for loop in loops]
    assert mats == [IntMatrix([[1, 2], [0, 1]]), IntMatrix([[1, 4], [0, 1]])]
    assert kb.odd.is_constant()
    ident = IntMatrix.identity(2)
    even, odd = k_theory_bundle(spec).values()
    assert even.differential(0) == (mats[0] - ident).vstack(mats[1] - ident)
    assert all(d.is_zero() for d in odd.differentials)


def test_k_theory_bundle_genus2():
    spec = NcpTorusBundleSpec("genus(2)", (1, 0, 0, 0), (0, 0))
    kb = simplicial_k_theory_bundle(spec)
    loops = spec.base.tree_gauge.loops
    mats = [transport_along(kb.even, loop) for loop in loops]
    assert mats[0] == IntMatrix([[1, 1], [0, 1]])
    assert all(m.is_identity() for m in mats[1:])
    # block i of delta_1 is sum_j J_ji N_j, which is J_0i N_0 here
    form = cup_intersection_form(spec.base)
    n0 = mats[0] - IntMatrix.identity(2)
    d1 = k_theory_bundle(spec)[0].differential(1)
    for i in range(4):
        block = d1.submatrix_columns([2 * i, 2 * i + 1])
        assert block == IntMatrix([[form[0, i] * x for x in row]
                                   for row in n0.rows()])


@pytest.mark.parametrize("name", ["torus2"] + ["genus(%d)" % g
                                             for g in range(2, 6)])
def test_even_complex_is_the_cup_form_complex(name):
    """With rho(x_i) = A_i = (1 w_i; 0 1) and N_i = A_i - I, the Fox
    complex of the boundary word is delta_0 = stack(N_i) and block i of
    delta_1 = sum_j J_ji N_j, J the intersection form of the triangles'
    cup products, which reads no word: rho = A_i^-1 would negate both
    coboundaries."""
    x = resolve_base(name)
    n = 2 - x.euler_characteristic()
    form = cup_intersection_form(x)
    rng = random.Random(27)
    for _ in range(6):
        w = [rng.randint(-4, 4) for _ in range(n)]
        spec = NcpTorusBundleSpec(name, w, (0, 0))
        nil = [IntMatrix([[0, x], [0, 0]]) for x in w]
        d0 = IntMatrix([row for x in nil for row in x.rows()])
        blocks = [sum((nil[j] * form[j, i] for j in range(n)),
                      IntMatrix.zeros(2, 2)) for i in range(n)]
        d1 = IntMatrix([sum((b.rows()[r] for b in blocks), ())
                        for r in range(2)])
        even = k_theory_bundle(spec)[0]
        assert even.differential(0) == d0
        assert even.differential(1) == d1


def test_fundamental_pairing_basics():
    x = torus2()
    n = x.n_simplices(2)
    indicator = [0] * n
    indicator[0] = 1
    assert fundamental_pairing(indicator, x) == 1
    assert fundamental_pairing([0] * n, x) == 0
    # linearity: values summing with signs
    scaled = [3 * v for v in indicator]
    assert fundamental_pairing(scaled, x) == 3


def test_fundamental_pairing_kills_coboundaries():
    x = torus2()
    rng = random.Random(5)
    edges = {e: rng.randint(-3, 3) for e in x.simplices(1)}
    cob = []
    for (u, v, w) in x.simplices(2):
        cob.append(edges[(v, w)] - edges[(u, w)] + edges[(u, v)])
    assert fundamental_pairing(cob, x) == 0


def test_fundamental_pairing_requires_surface():
    from leray.simplicial import simplex
    with pytest.raises(ValueError):
        fundamental_pairing([0], simplex(2))


def test_winding_number_examples():
    samples = [4 * math.pi * t / 8 for t in range(9)]
    assert winding_number(samples) == 2
    assert winding_number([0.7] * 5) == 0
    samples = [-2 * math.pi * t / 8 for t in range(9)]
    assert winding_number(samples) == -1


def test_winding_number_errors():
    with pytest.raises(ValueError, match="undersampled"):
        winding_number([0.0, math.pi, 2 * math.pi])
    with pytest.raises(ValueError, match="closure"):
        winding_number([0.0, 1.0])


def test_chern_cocycle_zero_data():
    x = torus2()
    data = {t: (0.0, 0.0, 0.0) for t in x.simplices(2)}
    assert chern_cocycle(data, x) == (0,) * 14


def test_chern_cocycle_rejects_non_integral():
    x = torus2()
    data = {t: (0.0, 0.0, 0.0) for t in x.simplices(2)}
    first = x.simplices(2)[0]
    data[first] = (0.25, 0.0, 0.0)
    with pytest.raises(ValueError, match="non-integral"):
        chern_cocycle(data, x)


@pytest.mark.parametrize("d", [-2, -1, 0, 1, 2])
def test_transition_data_degree(d):
    x = torus2()
    coc = chern_cocycle(torus_transition_data(d), x)
    assert fundamental_pairing(coc, x) == d


def test_transition_data_integer_shift_keeps_pairing():
    x = torus2()
    rng = random.Random(8)
    data = torus_transition_data(2)
    edge_shift = {e: rng.randint(-2, 2) for e in x.simplices(1)}
    shifted = {}
    for (u, v, w), (h1, h2, h3) in data.items():
        shifted[(u, v, w)] = (h1 + edge_shift[(u, v)],
                              h2 + edge_shift[(v, w)],
                              h3 - edge_shift[(u, w)])
    coc = chern_cocycle(shifted, x)
    assert fundamental_pairing(coc, x) == 2


def test_transition_data_triangle_winding_identity():
    # the cocycle value on each triangle is the winding number of the
    # transition phase around its boundary
    x = torus2()
    data = torus_transition_data(2)
    coc = chern_cocycle(data, x)
    for tri, value in zip(x.simplices(2), coc):
        h1, h2, h3 = data[tri]
        samples = []
        steps = max(8, int(8 * (abs(h1) + abs(h2) + abs(h3))) + 8)
        for t in range(steps + 1):
            samples.append(2 * math.pi * h1 * t / steps)
        for t in range(steps + 1):
            samples.append(2 * math.pi * (h1 + h2 * t / steps))
        for t in range(steps + 1):
            samples.append(2 * math.pi * (h1 + h2 + h3 * t / steps))
        assert winding_number(samples) == value


def paper_pages(windings, chern):
    """The spec and its second page on the one-vertex cell structure."""
    spec = spec_t2(windings, chern)
    return spec, e2_page(first_page(k_theory_bundle(spec)))


def simplicial_pages(windings, chern):
    """The spec and its second page on the simplicial cochains."""
    spec = spec_t2(windings, chern)
    return spec, e2_page(simplicial_e1_page(spec.base,
                                            simplicial_k_theory_bundle(spec)))


def test_d2_spec_paper_example():
    spec, page2 = paper_pages((2, 4), (1, 0))
    d2 = d2_spec(spec, page2)
    assert d2.k_gcd == 2
    h2 = page2.entry(2, 0)
    assert h2.quotient == FgAbGroup(1, (2,))
    assert element_order(h2.quotient, d2.unit_class) == 2
    assert element_order(h2.quotient, d2.bott_class) == 0
    # d2[U_1] = 1 mod 2 is nonzero, d2[U_2] = 0
    u1 = d2.images.column(0)
    u2 = d2.images.column(1)
    assert element_order(h2.quotient, u1) == 2
    assert all(c == 0 for c in u2)


def test_d2_gcd_one_vanishes_for_any_chern():
    for chern in [(0, 0), (1, 0), (-2, 2), (1, 1)]:
        spec, page2 = paper_pages((1, 0), chern)
        d2 = d2_spec(spec, page2)
        assert d2.k_gcd == 1
        assert d2.is_zero()
        page3 = attach_d2(page2.with_differentials(d2.page_differentials))
        for (p, q) in page2.keys():
            assert page3.group(p, q) == page2.group(p, q)


def test_d2_commutative_case_detects_chern():
    # windings (0,0): d2[U_i] = pairing_i inside a free summand
    for chern, expect_zero in [((0, 0), True), ((1, 0), False),
                               ((0, -2), False), ((2, 1), False)]:
        spec, page2 = paper_pages((0, 0), chern)
        d2 = d2_spec(spec, page2)
        assert d2.k_gcd == 0
        assert d2.is_zero() == expect_zero


def test_e3_loses_exactly_the_torsion_summand():
    spec, page2 = paper_pages((2, 4), (1, 0))
    d2 = d2_spec(spec, page2)
    page3 = attach_d2(page2.with_differentials(d2.page_differentials))
    assert page2.group(2, 0) == FgAbGroup(1, (2,))
    assert page3.group(2, 0) == FgAbGroup(1, ())
    # kernel of (a, b) -> a mod 2 on Z^2 is an index-two sublattice,
    # still free of rank two
    assert page3.group(0, 1) == FgAbGroup(2, ())


def test_e3_rebuilds_only_the_entries_d2_touches():
    spec, page2 = paper_pages((2, 4), (1, 0))
    d2 = d2_spec(spec, page2)
    page3 = attach_d2(page2.with_differentials(d2.page_differentials))
    rebuilt = {key for key in page2.keys()
               if page3.entry(*key) is not page2.entry(*key)}
    assert rebuilt == {(0, 1), (2, 0)}


def test_top_cell_evaluation_presents_coinvariants():
    # the map (fiber value v) -> (class of v on one coherently oriented
    # top cell) must present H^2 as the coinvariants: surjective with
    # kernel exactly the lattice spanned by the (A_i - I) columns
    from leray.exactlinalg import IntMatrix as M, preimage_lattice, solve
    from oracles import lattice_basis
    for windings in [(2, 4), (0, 0), (3, 5), (0, 6)]:
        spec, page2 = simplicial_pages(windings, (0, 0))
        h2 = page2.entry(2, 0)
        n2 = spec.base.n_simplices(2)
        theta_cols = []
        for j in range(2):
            cochain = [0] * (n2 * 2)
            cochain[j] = 1
            theta_cols.append(h2.project(cochain))
        theta = M.from_columns(theta_cols, nrows=h2.quotient.ngens)
        relations = []
        for i, t in enumerate(h2.quotient.torsion):
            col = [0] * h2.quotient.ngens
            col[h2.quotient.free_rank + i] = t
            relations.append(tuple(col))
        rel = M.from_columns(relations, nrows=h2.quotient.ngens) if relations \
            else M.zeros(h2.quotient.ngens, 0)
        ker_theta = preimage_lattice(theta, rel)
        ident = M.identity(2)
        b1, b2 = [M([[1, w], [0, 1]]) - ident for w in windings]
        coinv_rel = b1.hstack(b2)
        coinv_lat = lattice_basis(coinv_rel)
        # mutual containment: the two lattices coincide
        assert solve(ker_theta, coinv_lat) is not None
        assert solve(coinv_lat, ker_theta) is not None


def test_d2_lands_in_torsion():
    for windings in [(2, 4), (3, 5), (2, 6), (4, 6)]:
        spec, page2 = paper_pages(windings, (1, 1))
        d2 = d2_spec(spec, page2)
        k = math.gcd(*windings)
        assert d2.k_gcd == k
        h2 = page2.entry(2, 0)
        for j in range(d2.images.ncols):
            col = d2.images.column(j)
            scaled = tuple(k * c for c in col)
            assert all(
                c % t == 0 for c, t in zip(
                    scaled[h2.quotient.free_rank:], h2.quotient.torsion))
            assert all(scaled[i] == 0
                       for i in range(h2.quotient.free_rank))


def test_commutative_case_e3_rank_drop():
    # windings (0,0), chern (1,0): d2[U_1] = 1 lands in a free summand,
    # so E3 at the top corner drops rank by one and the kernel side is Z
    spec, page2 = paper_pages((0, 0), (1, 0))
    d2 = d2_spec(spec, page2)
    assert d2.k_gcd == 0 and not d2.is_zero()
    page3 = attach_d2(page2.with_differentials(d2.page_differentials))
    assert page2.group(2, 0) == FgAbGroup(2, ())
    assert page3.group(2, 0) == FgAbGroup(1, ())
    assert page2.group(0, 1) == FgAbGroup(2, ())
    assert page3.group(0, 1) == FgAbGroup(1, ())


def test_homotopy_invariance_of_the_model():
    # same winding pairings and same chern pairings => identical pages,
    # d2 data, and limit, whether chern data comes as an integer or as a
    # cochain representative of the same class
    x = torus2()
    rng = random.Random(21)
    edges = {e: rng.randint(-2, 2) for e in x.simplices(1)}
    cob = []
    for (u, v, w) in x.simplices(2):
        cob.append(edges[(v, w)] - edges[(u, w)] + edges[(u, v)])
    indicator = [0] * x.n_simplices(2)
    indicator[0] = 1
    cochain = tuple(v + c for v, c in zip(indicator, cob))  # pairing 1

    res_int = analyze(spec_t2((2, 4), (1, 0)))
    res_cochain = analyze(spec_t2((2, 4), (cochain, 0)))
    assert res_int.spec.pairings == res_cochain.spec.pairings
    for (p, q) in res_int.e2.keys():
        assert res_int.e2.group(p, q) == res_cochain.e2.group(p, q)
        assert res_int.e3.group(p, q) == res_cochain.e3.group(p, q)
    assert res_int.d2.images == res_cochain.d2.images
    assert [g.render() for g in res_int.k_even.graded_pieces] == \
        [g.render() for g in res_cochain.k_even.graded_pieces]


def test_is_rkk_trivial_grid():
    values = (-1, 0, 1)
    for w1 in values:
        for w2 in values:
            for c1 in values:
                for c2 in values:
                    verdict = is_rkk_trivial(spec_t2((w1, w2), (c1, c2)))
                    expected = (w1, w2, c1, c2) == (0, 0, 0, 0)
                    assert verdict.trivial == expected
                    if (w1, w2) != (0, 0):
                        assert "K-theory bundle nontrivial" in \
                            verdict.certificate
                    elif (c1, c2) != (0, 0):
                        assert "d2" in verdict.certificate


def test_analyze_commutative_with_zero_chern_keeps_e2():
    res = analyze(spec_t2((2, 4), (0, 0)))
    assert res.d2.is_zero()
    for (p, q) in res.e2.keys():
        assert res.e3.group(p, q) == res.e2.group(p, q)
    assert tuple(g.render() for g in res.k_even.graded_pieces) == \
        ("Z", "Z^4", "Z (+) Z/2")


def test_analyze_genus2():
    spec = NcpTorusBundleSpec("genus(2)", (2, 4, 0, 0), (1, 0))
    res = analyze(spec)
    assert res.d2.k_gcd == 2
    assert res.e2.group(2, 0) == FgAbGroup(1, (2,))
    assert res.e3.group(2, 0) == FgAbGroup(1, ())
    assert not res.verdict.trivial


@pytest.mark.parametrize("spec, made", [
    (NcpTorusBundleSpec("genus(2)", (1, 0, 0, 0), (3, 0)), 2),
    (spec_t2((2, 4), (1, 0)), 4),
    (spec_t2((0, 0), (3, -1)), 4),
])
def test_analyze_presents_only_the_entries_d2_reads(spec, made,
                                                    presentations):
    """E2 presents the two entries d2_spec reads, H^0(X; K1) and
    H^2(X; K0), each in a module of rank 2 on the one cell; a nonzero d2
    turns just those two into E3's, and a zero one turns nothing."""
    res = analyze(spec)
    assert res.d2.is_zero() == (made == 2)
    assert presentations == [2] * made


def _seeded_specs(seed, per_base):
    """Specs on torus2 and genus(2..4): every third has k = 0, and each
    Chern entry is an integer or a full cochain, at random."""
    rng = random.Random(seed)
    specs = []
    for name, g in (("torus2", 1), ("genus(2)", 2), ("genus(3)", 3),
                    ("genus(4)", 4)):
        n2 = NcpTorusBundleSpec(name, [0] * 2 * g, (0, 0)).base.n_simplices(2)
        for i in range(per_base):
            windings = [0] * 2 * g if i % 3 == 0 else \
                [rng.randint(-6, 6) for _ in range(2 * g)]
            chern = [rng.randint(-9, 9) if rng.random() < 0.5 else
                     [rng.randint(-3, 3) for _ in range(n2)]
                     for _ in range(2)]
            specs.append(NcpTorusBundleSpec(name, windings, chern))
    return specs


@pytest.mark.parametrize("spec", _seeded_specs(2008, 6),
                         ids=lambda spec: "%s-%s" % (spec.base_name,
                                                     spec.k))
def test_cell_pages_equal_the_simplicial_oracle(spec):
    """analyze on the one-vertex cell structure against the simplicial
    cochains of the whole triangulation: equal E2 and E3 tables with
    their differential ranks, equal K pieces and verdict, and d2 images
    of equal element orders, column by column."""
    cell, oracle = analyze(spec), simplicial_analysis(spec)
    assert cell.e2.to_dict() == oracle.e2.to_dict()
    assert cell.e3.to_dict() == oracle.e3.to_dict()
    for mine, theirs in ((cell.k_even, oracle.k_even),
                         (cell.k_odd, oracle.k_odd)):
        assert mine.graded_pieces == theirs.graded_pieces
    assert cell.verdict == oracle.verdict
    assert cell.d2.k_gcd == oracle.d2.k_gcd
    top, top_oracle = cell.e2.group(2, 0), oracle.e2.group(2, 0)
    for j in range(2):
        assert element_order(top, cell.d2.images.column(j)) == \
            element_order(top_oracle, oracle.d2.images.column(j))


def test_the_oracle_runs_on_the_triangulation():
    spec = NcpTorusBundleSpec("genus(2)", (2, 4, 0, 0), (1, 0))
    base = spec.base
    cell, oracle = analyze(spec), simplicial_analysis(spec)
    assert [oracle.e1.group(p, 0).free_rank for p in range(3)] == \
        [2 * base.n_simplices(p) for p in range(3)]
    for s in (0, 1):
        assert [oracle.e1.complexes[s].degree_rank(p) for p in range(3)] \
            == [2 * base.n_simplices(p) for p in range(3)]
    assert [cell.e1.group(p, 0).free_rank for p in range(3)] == \
        [2, 8, 2]
