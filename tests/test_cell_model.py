"""The reduced cell model against the simplicial cochains.

Every connected base of dimension 1 or 2 computes on the cell model of
its reduced presentation, whatever its system: random inline complexes
(triangles with dangling edges), non-orientable surfaces, a complex
whose H_1 is free but not spanned by fundamental loops, a disk, a path
graph and circles.  The groups of ``cohomology`` under both conventions
and ``spectral``'s E1 and E2 must be those of ``build``, the simplicial
cochains; a system that is not flat exits 1 with the simplicial path's
message, and a ``monodromy`` system on a base with torsion in H_1 is
refused as before.
"""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from leray import cli, cohomology
from leray.exactlinalg import FgAbGroup, IntMatrix
from leray.local_systems import LocalSystem, flatness_check
from leray.simplicial import SimplicialComplex, circle, simplex

from oracles import (flat_signs, gauge_twist, klein_bottle,
                     klein_transports, random_commuting_pair)
from test_cli import _main, _matrix_json, _on_simplices
from test_simplicial import _CYLINDER_Z2, _RP2

KINDS = ["constant", "signs", "twisted", "monodromy", "nonflat"]
TORSION = ("input error: bad system: base has torsion in H_1; "
           "unsupported\n")


def _doc(x):
    return {"vertices": x.vertex_count,
            "simplices": [list(s) for p in range(1, x.dimension + 1)
                          for s in x.simplices(p)]}


_PATH = SimplicialComplex(4, [(0, 1), (1, 2), (2, 3)])
_FIXED = {
    "rp2": {"vertices": 6, "simplices": [list(t) for t in _RP2]},
    "klein": _doc(klein_bottle()),
    "cylinder-z2": {"vertices": 15, "simplices": [list(t)
                                                  for t in _CYLINDER_Z2]},
    "simplex2": "simplex(2)",
    # off-tree edge (1, 2) lies in three triangles, so it stays a
    # generator; two edges dangle
    "three-pages": {"vertices": 7, "simplices": [
        [0, 1, 2], [0, 1, 3], [0, 1, 4], [1, 2, 3], [1, 2, 4], [0, 5],
        [0, 6]]},
    "path": _doc(_PATH),
    "circle3": "circle(3)",
    "circle7": "circle(7)",
}


def _system(rng, x, rank, kind):
    """(document, expected failure or None) of a ``kind`` system on x."""
    if kind == "constant":
        return {"rank": rank, "constant": True}, None
    if kind == "monodromy":
        try:
            loops = len(x.tree_gauge.loops)
        except ValueError:
            return {"rank": rank, "monodromy": []}, (2, "", TORSION)
        a, b = random_commuting_pair(rng, rank)
        return {"rank": rank, "monodromy": [
            _matrix_json(a.power(rng.randint(-1, 1))
                         * b.power(rng.randint(-1, 1)))
            for _ in range(loops)]}, None
    signs = flat_signs(x, rng)
    system = LocalSystem(x, rank, {e: IntMatrix.identity(rank) * s
                                   for e, s in signs.items()})
    if kind == "twisted":
        system = gauge_twist(system, rng)
    table = {e: system.transport(*e) for e in x.simplices(1)}
    failure = None
    if kind == "nonflat" and x.dimension == 2:
        edge = rng.choice(x.simplices(2))[1:]
        table[edge] = -table[edge]
        broken = LocalSystem(x, rank, table)
        failure = (1, "", "computation error: flatness violated on "
                   "2-simplices %s\n" % (flatness_check(broken),))
    return {"rank": rank, "transports": {
        "%d-%d" % e: _matrix_json(m) for e, m in table.items()}}, failure


def _compare(complex_doc, kind, rank, seed):
    """Run cohomology under both conventions and spectral on the cell
    model, and compare them with ``build``'s groups."""
    rng = random.Random(seed)
    x = cli.parse_complex(complex_doc)
    system_doc, failure = _system(rng, x, rank, kind)
    spectral_doc = {"complex": complex_doc, "system": {
        "even": system_doc, "odd": {"rank": 1, "constant": True}}}
    runs = [("cohomology", {"complex": complex_doc, "system": system_doc},
             convention) for convention in ("e1", "classical")]
    if failure is not None:
        for command, doc, convention in runs:
            assert _main(command, doc, "--convention", convention) == failure
        assert _main("spectral", spectral_doc) == failure
        return
    system = cli.parse_system(system_doc, x)
    cells = cohomology.cochains(x, system)
    assert cells.degree_rank(0) == rank  # one vertex: the cell model
    for command, doc, convention in runs:
        code, out, _ = _main(command, doc, "--convention", convention)
        assert code == 0
        assert [g["group"] for g in json.loads(out)["groups"]] == [
            g.render() for g in cohomology.groups(
                cohomology.build(x, system, convention))]
    code, out, _ = _main("spectral", spectral_doc)
    assert code == 0
    e1, e2, _ = json.loads(out)["pages"]
    complexes = {0: cohomology.build(x, system),
                 1: cohomology.build(x, LocalSystem.constant(x, 1))}
    found = {s: cohomology.groups(c) for s, c in complexes.items()}
    for first, second in zip(e1["entries"], e2["entries"]):
        p, s = first["p"], first["coefficient_parity"]
        c = complexes[s]
        assert first["group"] == FgAbGroup(c.degree_rank(p), ()).render()
        assert first["differential_rank"] == len(c.invariant_factors(p))
        assert second["group"] == found[s][p].render()
    assert len(e1["entries"]) == 2 * (x.dimension + 1)


@st.composite
def connected_complexes(draw):
    """An inline connected complex of dimension 1 or 2 on 3 to 7
    vertices: random triangles, random dangling edges, and one edge
    from vertex 0 to each component that does not reach it."""
    n = draw(st.integers(3, 7))
    tris = draw(st.lists(st.sampled_from(list(combinations(range(n), 3))),
                         unique=True, max_size=12))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          unique=True, max_size=5))
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
    return {"vertices": n, "simplices": [list(s) for s in tris + edges]}


@settings(max_examples=80, deadline=None)
@given(complex_doc=connected_complexes(), kind=st.sampled_from(KINDS),
       rank=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_cells_give_the_simplicial_groups_on_inline_2_complexes(
        complex_doc, kind, rank, seed):
    _compare(complex_doc, kind, rank, seed)


def _relabelled(complex_doc, relabel):
    x = cli.parse_complex(complex_doc)
    return {"vertices": x.vertex_count,
            "simplices": [[relabel[v] for v in s]
                          for p in range(1, x.dimension + 1)
                          for s in x.simplices(p)]}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(_FIXED))
def test_cells_give_the_simplicial_groups_on_fixed_bases(name, kind):
    """Each base as given and with its vertices relabelled at random,
    which moves its tree, its forest and its generators."""
    for rank in (1, 2):
        for seed in range(3):
            label = "%s:%s:%d:%d" % (name, kind, rank, seed)
            relabel = list(range(cli.parse_complex(_FIXED[name]).vertex_count))
            if seed:
                random.Random(label).shuffle(relabel)
            _compare(_relabelled(_FIXED[name], relabel), kind, rank, label)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("flip", [(1, -1), (-1, 1)])
def test_cells_give_the_simplicial_groups_of_non_abelian_klein_systems(
        k, flip):
    """The Klein bottle's fundamental group acting through x -> (1 k;
    0 1) and y -> diag(flip), whose images do not commute, given by its
    transports in a random gauge on a random relabelling: the cell model
    reads rho(x_i) = T_i^-1 from non-commuting T_i, and its groups under
    both conventions are those of ``build``."""
    rng = random.Random("klein:%d:%s" % (k, flip))
    shear = IntMatrix([[1, k], [0, 1]])
    system = gauge_twist(LocalSystem(klein_bottle(), 2, klein_transports(
        shear, IntMatrix([[flip[0], 0], [0, flip[1]]]))), rng)
    relabel = list(range(16))
    rng.shuffle(relabel)
    transports = {}
    for (u, v) in system.base.simplices(1):
        a, b = relabel[u], relabel[v]
        t = system.transport(*((u, v) if a < b else (v, u)))
        transports["%d-%d" % (min(a, b), max(a, b))] = _matrix_json(t)
    complex_doc = _relabelled(_doc(klein_bottle()), relabel)
    x = cli.parse_complex(complex_doc)
    system_doc = {"rank": 2, "transports": transports}
    y = cli.parse_system(system_doc, x)
    holonomy = [t for t, _ in y.holonomy]
    assert any(s * t != t * s for s in holonomy for t in holonomy)
    for convention in ("e1", "classical"):
        code, out, _ = _main("cohomology", {"complex": complex_doc,
                                            "system": system_doc},
                             "--convention", convention)
        assert code == 0
        assert [g["group"] for g in json.loads(out)["groups"]] == [
            g.render() for g in cohomology.groups(
                cohomology.build(x, y, convention))]


def test_rp2_and_the_klein_bottle_give_the_textbook_groups(monkeypatch):
    """With Z, RP^2 gives (Z, 0, Z/2) and the Klein bottle (Z, Z, Z/2);
    with the orientation character Z^w, Poincare duality gives their
    homology (Z, Z/2, 0) and (Z, Z (+) Z/2, 0) reversed.  Of
    the flat sign systems, Z^w is the one whose simplicial H^2 is Z, by
    Poincare duality with the w-twist.  No job builds simplicial
    cochains."""
    expected = {"rp2": (["Z", "0", "Z/2"], ["0", "Z/2", "Z"]),
                "klein": (["Z", "Z", "Z/2"], ["0", "Z (+) Z/2", "Z"])}
    for name, (constant, twisted) in expected.items():
        x = cli.parse_complex(_FIXED[name])
        rng, top = random.Random(name), None
        while top != FgAbGroup(1, ()):
            signs = flat_signs(x, rng)
            top = cohomology.groups(cohomology.build(x, LocalSystem(
                x, 1, {e: IntMatrix([[s]]) for e, s in signs.items()})))[2]
        monkeypatch.setattr(cohomology, "build", _refuse)
        for system, groups in (({"rank": 1, "constant": True}, constant),
                               ({"rank": 1, "transports": {
                                   "%d-%d" % e: [[s]]
                                   for e, s in signs.items()}}, twisted)):
            for convention in ("e1", "classical"):
                code, out, _ = _main("cohomology", {
                    "complex": _FIXED[name], "system": system},
                    "--convention", convention)
                assert code == 0
                assert [g["group"] for g in json.loads(out)["groups"]] == \
                    groups
            code, out, _ = _main("spectral", {"complex": _FIXED[name],
                                              "system": {"even": system,
                                                         "odd": system}})
            assert code == 0
        monkeypatch.undo()


def _refuse(*args, **kwargs):
    raise AssertionError("simplicial cochains were built")


def test_rp2_monodromy_is_still_refused():
    assert _main("cohomology", {"complex": _FIXED["rp2"], "system": {
        "rank": 1, "monodromy": [[[-1]]]}}) == (2, "", TORSION)


def test_a_graph_with_no_generators_keeps_a_dimension_1_model(monkeypatch):
    """A tree has a presentation with no generator and no relator: its
    cell model is M -> 0, of dimension 1, so spectral's pages have the
    rows of the simplicial ones, and every report is byte-identical."""
    x = cli.parse_complex(_FIXED["path"])
    p = x.presentation
    assert (p.generators, p.relators) == ([], [])
    c = cohomology.cochains(x, LocalSystem.constant(x, 3))
    assert (c.dimension, c.degree_rank(0), c.degree_rank(1)) == (1, 3, 0)
    system = {"rank": 2, "constant": True}
    jobs = [("cohomology", {"complex": _FIXED["path"], "system": system}),
            ("spectral", {"complex": _FIXED["path"],
                          "system": {"even": system, "odd": system}})]
    cells = [_main(command, doc) for command, doc in jobs]
    built = _on_simplices(monkeypatch)
    assert [_main(command, doc) for command, doc in jobs] == cells
    assert len(built) == 3 and all(code == 0 for code, _, _ in cells)


@pytest.mark.parametrize("complex_doc", [
    {"vertices": 6, "simplices": [[0, 1, 2], [3, 4, 5]]},
    {"vertices": 5, "simplices": [[0, 1], [1, 2], [3, 4]]},
    "simplex(3)", "simplex(0)"],
    ids=["two-triangles", "two-paths", "simplex3", "point"])
def test_disconnected_and_3_dimensional_bases_stay_simplicial(
        monkeypatch, complex_doc):
    """A base with no presentation, or of dimension 3, or a point, which
    is its own cell model, computes on ``build``."""
    real, built = cohomology.build, []

    def recording(x, system, convention="e1"):
        built.append(convention)
        return real(x, system, convention)
    monkeypatch.setattr(cohomology, "build", recording)
    for convention in ("e1", "classical"):
        code, _, _ = _main("cohomology", {"complex": complex_doc, "system": {
            "rank": 1, "constant": True}}, "--convention", convention)
        assert code == 0
    assert built == ["e1", "classical"]


def test_circle_and_disk_models():
    """circle(n) has one generator and no relator, simplex(2) one
    generator and the one relator of its triangle."""
    p, q = circle(6).presentation, simplex(2).presentation
    assert (len(p.generators), p.relators) == (1, [])
    assert len(q.generators) == 1 and [len(w) for w in q.relators] == [1]
