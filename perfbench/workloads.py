"""Seeded job generators for the benchmark workloads.

A job is one CLI document plus the subcommand and flags it runs under.
Each workload owns a catalogue of jobs made by seeded generators from
the fixed ``CATALOGUE_SEED``; the invariants of every catalogue job are
frozen in ``expected/<workload>.json``.  The run seed only picks and
orders catalogue jobs, so any run seed is covered by the frozen values.

Jobs are grouped into categories.  A round is one job from each
category, and a run always ends on a round boundary, so every run sees
the same mix of job kinds whatever its seed and length.

Besides the document, a job carries ``expect``: closed-form facts the
generator knows by construction (Chern pairings, Euler characteristic
times fiber rank).  The program never sees them; the correctness gate
checks the reports against them.
"""

import hashlib
import json
import random

CATALOGUE_SEED = 20081001


def genus_euler(g):
    return 2 - 2 * g


def job_key(job):
    """Stable identity of a job: SHA-256 of its canonical JSON."""
    text = json.dumps(job, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _edges(triangles):
    return sorted({e for (a, b, c) in triangles
                   for e in ((a, b), (a, c), (b, c))})


def _chern_entry(rng, triangles, pairing):
    """An integer pairing, or a full 2-cochain pairing to the same value.

    The cochain is ``pairing`` on the first triangle plus the coboundary
    of a random integer 1-cochain; a coboundary pairs to zero with the
    fundamental class, so the pairing is known without the program.
    """
    if rng.random() < 0.5:
        return pairing
    f = {e: rng.randint(-3, 3) for e in _edges(triangles)}
    cochain = [f[(b, c)] - f[(a, c)] + f[(a, b)] for (a, b, c) in triangles]
    cochain[0] += pairing
    return cochain


def _ncp_job(base, windings, chern, pairings, euler):
    return {
        "command": "ncp",
        "args": [],
        "doc": {"bundle": {"base": base, "windings": windings,
                           "chern": chern}},
        "expect": {"chern_pairings": pairings, "euler": euler},
    }


def _sweep_job(rng, triangles, index):
    # Every sixth job is the commutative case k = 0; every twelfth also
    # has vanishing Chern pairings, so its verdict is trivial.
    if index % 6 == 0:
        windings = [0, 0]
    else:
        windings = [rng.randint(-12, 12), rng.randint(-12, 12)]
    pairings = [0, 0] if index % 12 == 0 else \
        [rng.randint(-9, 9), rng.randint(-9, 9)]
    chern = [_chern_entry(rng, triangles, p) for p in pairings]
    return _ncp_job("torus2", windings, chern, pairings, genus_euler(1) * 2)


def _genus8_job(rng, triangles, index):
    windings = [0] * 16
    while not any(windings):
        windings = [rng.randint(-6, 6) for _ in range(16)]
    pairings = [rng.randint(-9, 9), rng.randint(-9, 9)]
    chern = [_chern_entry(rng, triangles, p) for p in pairings]
    return _ncp_job("genus(8)", windings, chern, pairings,
                    genus_euler(8) * 2)


def _nilpotent6(rng):
    """Strictly upper triangular 6x6: two 3x3 diagonal blocks with a
    sparse coupling block, so the monodromies are block-unipotent."""
    n = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            if (i < 3) == (j < 3) or rng.random() < 0.3:
                n[i][j] = rng.randint(-2, 2)
    return n


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _unipotent_family(rng, nil, count):
    """``count`` commuting matrices I + a N + b N^2 with seeded a, b."""
    nil2 = _matmul(nil, nil)
    mats = []
    for _ in range(count):
        a, b = rng.randint(-2, 2), rng.randint(-1, 1)
        mats.append([[(1 if i == j else 0) + a * nil[i][j] + b * nil2[i][j]
                      for j in range(6)] for i in range(6)])
    return mats


def _rank6_system(rng, nil, loops):
    return {"rank": 6, "monodromy": _unipotent_family(rng, nil, loops)}


# generator loops and genus of each local-rank6 base
_LOCAL_BASES = {"torus2": (2, 1), "genus(2)": (4, 2)}


def _local_job(kind):
    command, base, args = kind
    loops, genus = _LOCAL_BASES[base]
    euler6 = genus_euler(genus) * 6

    def make(rng, _triangles, _index):
        nil = _nilpotent6(rng)
        system = _rank6_system(rng, nil, loops)
        if command == "spectral":
            doc = {"complex": base,
                   "system": {"even": system,
                              "odd": _rank6_system(rng, nil, loops)}}
        else:
            doc = {"complex": base, "system": system}
        return {"command": command, "args": list(args), "doc": doc,
                "expect": {"euler": euler6}}
    return make


class Workload:
    """A named job catalogue with its base complexes and round shape.

    ``categories`` lists (name, generator, catalogue size); a generator
    is called as ``gen(rng, triangles, index)`` where ``triangles`` are
    the sorted 2-simplices of ``bases[0]``.  ``round_s`` is the nominal
    time of one round on the reference machine (2 cores, pure kernel);
    it sizes the traced run, whose job list must depend only on the
    seed and --seconds.
    """

    def __init__(self, name, bases, ncp_bases, categories, round_s):
        self.name = name
        self.bases = bases
        self.ncp_bases = ncp_bases
        self.categories = categories
        self.round_s = round_s

    def catalogue(self, triangles):
        """{category name: [job, ...]} from the fixed catalogue seed."""
        out = {}
        for cat, gen, size in self.categories:
            jobs = []
            for i in range(size):
                rng = random.Random("%d:%s:%s:%d"
                                    % (CATALOGUE_SEED, self.name, cat, i))
                jobs.append(gen(rng, triangles, i))
            out[cat] = jobs
        return out

    def rounds(self, catalogue, seed):
        """Endless seeded sequence of rounds (lists of jobs).

        Each category is walked through seeded permutations of its
        catalogue, so jobs repeat only after the whole category was used;
        the order of categories inside a round is also seeded.
        """
        rng = random.Random("run:%s:%d" % (self.name, seed))
        cursors = {cat: [] for cat in catalogue}
        while True:
            order = sorted(catalogue)
            rng.shuffle(order)
            batch = []
            for cat in order:
                if not cursors[cat]:
                    cursors[cat] = list(catalogue[cat])
                    rng.shuffle(cursors[cat])
                batch.append(cursors[cat].pop())
            yield batch

    def trace_rounds(self, seconds):
        """Rounds in the traced run: about a third of --seconds of
        untraced work, at least one round."""
        return max(1, round(seconds / (3.0 * self.round_s)))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ncp-torus2-sweep",
            bases=["torus2"], ncp_bases=["torus2"],
            categories=[("ncp", _sweep_job, 128)],
            round_s=0.15),
        Workload(
            "ncp-genus8",
            bases=["genus(8)"], ncp_bases=["genus(8)"],
            categories=[("ncp", _genus8_job, 6)],
            round_s=20.0),
        Workload(
            "local-rank6",
            bases=["torus2", "genus(2)"], ncp_bases=[],
            categories=[
                ("cohomology-torus2-e1",
                 _local_job(("cohomology", "torus2", [])), 8),
                ("cohomology-torus2-classical",
                 _local_job(("cohomology", "torus2",
                             ["--convention", "classical"])), 8),
                ("cohomology-genus2",
                 _local_job(("cohomology", "genus(2)", [])), 8),
                ("check-torus2", _local_job(("check", "torus2", [])), 8),
                ("spectral-torus2", _local_job(("spectral", "torus2", [])), 8),
            ],
            round_s=4.4),
    )
}
