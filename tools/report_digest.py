#!/usr/bin/env python3
"""Two digests of CLI reports: the benchmark catalogue, and documents
off it.

    python3 tools/report_digest.py

Runs each job document of every workload in ``perfbench/workloads.py``
through ``leray.cli.main`` of the ``src/`` beside this directory, once
with ``--emit human`` and once with ``--emit machine``, in this
process, and prints one SHA-256 over the exit code, stdout and stderr
of every run, in catalogue order.  Two checkouts that print the same
digest give byte-identical reports on the whole catalogue.

Every catalogue job names its base, so a second line digests the same
way the runs of ``off_catalogue()``, a fixed list of documents kept
here: closed surfaces given inline (relabelled builtins and a pinched
torus), flat and non-flat ``transports`` systems, ``circle``,
``simplex``, the real projective plane, with the constant system, its
orientation character as signs, and a ``monodromy`` system, which is
refused, a Klein bottle, the mapping cylinder of the degree-2 map of
circles with ``monodromy`` [[-1]] and with a rank-2 shear (its
generators' classes are -1 and 2), ``torus2`` with a fin triangle on
its edge (0, 1) (one generator of class 0), with two shears and with
(-I, shear), the same relabelled so that two generators' classes have
two nonzero coordinates, a path graph and a disconnected complex.  Each
runs through ``cohomology`` under both conventions, ``spectral`` (its
odd part constant) and ``check``, in both emit modes.
To compare two checkouts, copy this file into the other one and run it
there.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import combinations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from leray import cli  # noqa: E402
from leray.simplicial import builtin  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODES = ("human", "machine")

# the 6-vertex real projective plane
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
SWAP = ((0, 1), (1, 0))
# the edges where RP2's orientation character, as a flat sign system,
# carries -1
RP2_TWIST = [(0, 3), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4),
             (3, 5), (4, 5)]
# the mapping cylinder of the degree-2 map of circles, with a collar:
# H_1 = Z, and the class of an off-tree edge's loop is twice the generator
CYLINDER_Z2 = [
    (0, 4, 8), (0, 8, 9), (0, 9, 13), (1, 2, 6), (1, 2, 7), (1, 3, 7),
    (1, 3, 9), (1, 6, 8), (1, 8, 9), (2, 6, 11), (2, 7, 12), (2, 10, 11),
    (2, 10, 12), (3, 5, 6), (3, 5, 7), (3, 6, 11), (3, 9, 11), (4, 5, 8),
    (4, 5, 14), (5, 6, 8), (5, 7, 14), (7, 12, 14), (9, 11, 13),
    (10, 11, 13)]

# a relabelling of torus2 with its fin, v -> FIN_RELABEL[v], under which
# two generators' classes have two nonzero coordinates
FIN_RELABEL = (3, 6, 7, 5, 0, 1, 4, 2)


def run(job, emit):
    """(exit code, stdout, stderr) of one CLI run of ``job``."""
    argv = [job["command"], "--input", "-", "--emit", emit] + job["args"]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job["doc"]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def shear(k):
    return ((1, k), (0, 1))


def mul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(2))
                       for j in range(2)) for i in range(2))


def inverse(a):
    """The inverse of a 2 x 2 integer matrix of determinant +-1."""
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return ((det * a[1][1], -det * a[0][1]), (-det * a[1][0], det * a[0][0]))


def grid_torus(pinch=False):
    """The 5 x 5 grid torus, or, with ``pinch``, the same with grid
    vertices 0 = (0, 0) and 13 = (2, 3) identified: (vertex count,
    triangles, one transport per directed edge).  The transports are
    flat, with holonomy shear(2) around the first grid direction and
    shear(4) around the second, in a gauge that swaps the fiber's basis
    at every third vertex, so tree edges carry more than the identity."""
    def name(v):
        return (0 if v == 13 else v - (v > 13)) if pinch else v
    gauge = [SWAP if v % 3 == 0 else shear(0) for v in range(25)]
    tris, steps = [], {}
    for i in range(5):
        for j in range(5):
            u = 5 * i + j
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                v = 5 * ((i + di) % 5) + (j + dj) % 5
                k = 2 * (i == 4 and di) + 4 * (j == 4 and dj)
                t = mul(gauge[v], mul(shear(k), inverse(gauge[u])))
                steps[name(u), name(v)] = t
                steps[name(v), name(u)] = inverse(t)
            tris += [(name(u), name(5 * ((i + 1) % 5) + j),
                      name(5 * ((i + 1) % 5) + (j + 1) % 5)),
                     (name(u), name(5 * i + (j + 1) % 5),
                      name(5 * ((i + 1) % 5) + (j + 1) % 5))]
    return 24 if pinch else 25, tris, steps


def klein_bottle():
    """The 4 x 4 grid with (i, 4) glued to (i, 0) and (4, j) to (0, -j),
    as an inline complex."""
    def name(i, j):
        return 4 * (i % 4) + (-j if i == 4 else j) % 4
    tris = []
    for i in range(4):
        for j in range(4):
            tris += [[name(i, j), name(i + 1, j), name(i + 1, j + 1)],
                     [name(i, j), name(i, j + 1), name(i + 1, j + 1)]]
    return {"vertices": 16, "simplices": tris}


def transports(steps, broken=None):
    """The ``transports`` of a system: each edge (u, v), u < v, carries
    ``steps[u, v]``, negated on the edge ``broken``."""
    out = {}
    for (u, v), t in sorted(steps.items()):
        if u < v:
            sign = -1 if (u, v) == broken else 1
            out["%d-%d" % (u, v)] = [[sign * x for x in row] for row in t]
    return out


def inline(name, relabel=None):
    """The top simplices of a builtin, vertex v renamed relabel(v)."""
    x = builtin(name)
    relabel = relabel or (lambda v: v)
    return {"vertices": x.vertex_count,
            "simplices": [[relabel(v) for v in t]
                          for t in x.simplices(x.dimension)]}


def off_catalogue():
    """The documents of the second digest: (complex, system) pairs."""
    mono = [list(map(list, shear(2))), list(map(list, shear(4)))]
    grid = {}
    for pinch in (False, True):
        vertices, tris, steps = grid_torus(pinch)
        grid[pinch] = ({"vertices": vertices,
                        "simplices": [list(t) for t in tris]}, steps)
    (torus, torus_steps), (pinched, pinched_steps) = grid[False], grid[True]
    fin = inline("torus2")
    fin["vertices"] += 1
    fin["simplices"].append([0, 1, 7])
    fin_relabelled = {"vertices": 8, "simplices": [
        [FIN_RELABEL[v] for v in t] for t in fin["simplices"]]}
    return [
        (inline("torus2", lambda v: 6 - v), {"rank": 2, "monodromy": mono}),
        (inline("genus(2)", lambda v: (5 * v) % 11),
         {"rank": 2, "monodromy": mono + [mono[1], mono[0]]}),
        (inline("genus(2)"), {"rank": 3, "constant": True}),
        (inline("sphere2", lambda v: 3 - v), {"rank": 2, "constant": True}),
        (torus, {"rank": 2, "transports": transports(torus_steps)}),
        (torus, {"rank": 2, "transports": transports(torus_steps, (1, 6))}),
        (pinched, {"rank": 2, "transports": transports(pinched_steps)}),
        (pinched, {"rank": 2, "monodromy": mono + [mono[0]]}),
        ("torus2", {"rank": 1, "transports": {
            "%d-%d" % e: [[-1 if (e[0] + e[1]) % 2 else 1]]
            for e in builtin("torus2").simplices(1)}}),
        ("circle(5)", {"rank": 2, "monodromy": [list(map(list, SWAP))]}),
        ("circle(4)", {"rank": 2, "transports": {
            "0-1": SWAP, "1-2": shear(3), "2-3": SWAP, "0-3": shear(-1)}}),
        ("simplex(2)", {"rank": 2, "constant": True}),
        ("simplex(3)", {"rank": 1, "transports": {
            "%d-%d" % e: [[1]] for e in builtin("simplex(3)").simplices(1)}}),
        ({"vertices": 6, "simplices": RP2}, {"rank": 1, "constant": True}),
        ({"vertices": 6, "simplices": RP2}, {"rank": 1, "monodromy": []}),
        ({"vertices": 6, "simplices": RP2}, {"rank": 2, "transports": {
            "%d-%d" % e: [[-1, 0], [0, -1]] if e in RP2_TWIST else
            [[1, 0], [0, 1]] for t in RP2 for e in combinations(t, 2)}}),
        (klein_bottle(), {"rank": 2, "constant": True}),
        ({"vertices": 15, "simplices": CYLINDER_Z2},
         {"rank": 1, "monodromy": [[[-1]]]}),
        ({"vertices": 15, "simplices": CYLINDER_Z2},
         {"rank": 2, "monodromy": [list(map(list, shear(1)))]}),
        (fin, {"rank": 2, "monodromy": mono}),
        (fin, {"rank": 2, "monodromy": [[[-1, 0], [0, -1]], mono[0]]}),
        (fin_relabelled, {"rank": 2, "monodromy": mono}),
        (fin_relabelled, {"rank": 2, "monodromy": [[[-1, 0], [0, -1]],
                                                   mono[0]]}),
        ({"vertices": 5, "simplices": [[0, 1], [1, 2], [2, 3], [3, 4]]},
         {"rank": 2, "transports": {"0-1": SWAP, "1-2": shear(3),
                                    "2-3": SWAP, "3-4": shear(-1)}}),
        ({"vertices": 7, "simplices": [[0, 1, 2], [3, 4], [4, 5], [5, 6],
                                       [3, 6]]},
         {"rank": 2, "constant": True}),
    ]


def off_catalogue_jobs():
    for complex_doc, system in off_catalogue():
        for args in ([], ["--convention", "classical"]):
            yield {"command": "cohomology", "args": args,
                   "doc": {"complex": complex_doc, "system": system}}
        yield {"command": "spectral", "args": [],
               "doc": {"complex": complex_doc, "system": {
                   "even": system, "odd": {"rank": 1, "constant": True}}}}
        yield {"command": "check", "args": [],
               "doc": {"complex": complex_doc, "system": system}}


def digest(jobs):
    """(runs, SHA-256) over the runs of ``jobs`` in both emit modes."""
    sha, runs = hashlib.sha256(), 0
    for job in jobs:
        for emit in MODES:
            sha.update(json.dumps(run(job, emit)).encode("utf-8"))
            runs += 1
    return runs, sha.hexdigest()


def catalogue_jobs():
    for workload in WORKLOADS.values():
        triangles = list(builtin(workload.bases[0]).simplices(2))
        for jobs in workload.catalogue(triangles).values():
            yield from jobs


def main():
    print("%d runs %s" % digest(catalogue_jobs()))
    print("%d off-catalogue runs %s" % digest(off_catalogue_jobs()))


if __name__ == "__main__":
    main()
