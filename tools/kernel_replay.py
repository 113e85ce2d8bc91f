#!/usr/bin/env python3
"""Replay and time the SNF inputs of every benchmark catalogue.

    python3 tools/kernel_replay.py

Runs each job document of every workload in ``perfbench/workloads.py``
once through ``leray.cli.main`` of the ``src/`` beside this directory,
in this process, and records every matrix that any module of the
package passes to ``exactlinalg.smith_normal_form`` or
``exactlinalg.invariant_factors``.  Each recorded input is then made
afresh by the public constructor and sent through the same entry
again, ``REPEAT`` times; the best time is its time.  The entries
include their zero test, the conversion to the kernel's input format
and the checks of the result, so two checkouts are timed on the same
work whatever format their matrices are built in.

Prints, for each workload, one line per input shape and entry (count,
median and total microseconds) and the workload's total, then one
SHA-256 over every output in catalogue order.  Two checkouts that
print the same digest return the same decompositions, transforms
included, on every input of the catalogues.
"""

import hashlib
import os
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from leray import exactlinalg  # noqa: E402
from leray.simplicial import builtin  # noqa: E402
from report_digest import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEAT = 5
ENTRIES = ("smith_normal_form", "invariant_factors")


def record(jobs):
    """[(entry, nrows, ncols, dense rows)] of every call of the two
    entries, from any module of the package, while ``jobs`` run."""
    calls = []
    originals = {name: getattr(exactlinalg, name) for name in ENTRIES}
    modules = [m for name, m in sys.modules.items()
               if name == "leray" or name.startswith("leray.")]
    patched = []
    for name, entry in originals.items():
        def recording(a, entry=entry, name=name):
            calls.append((name, a.nrows, a.ncols,
                          tuple(map(tuple, a.rows()))))
            return entry(a)
        for module in modules:
            if vars(module).get(name) is entry:
                setattr(module, name, recording)
                patched.append((module, name, entry))
    try:
        for job in jobs:
            code, _, err = run(job, "machine")
            if code:
                raise SystemExit("job failed: %s" % err)
    finally:
        for module, name, entry in patched:
            setattr(module, name, entry)
    return calls


def output(name, result):
    """The bytes of one entry's result: the diagonal, and for a Smith
    decomposition its four transforms."""
    if name == "invariant_factors":
        return repr(result).encode("ascii")
    return repr((result.diagonal, result.U.rows(), result.V.rows(),
                 result.U_inv.rows(), result.V_inv.rows())).encode("ascii")


def replay(calls, digest):
    """{(entry, shape): [best seconds per input]}, updating ``digest``
    with every output in call order."""
    times = defaultdict(list)
    for name, nrows, ncols, rows in calls:
        entry = getattr(exactlinalg, name)
        best = None
        for _ in range(REPEAT):
            a = exactlinalg.IntMatrix(rows, shape=(nrows, ncols))
            start = time.perf_counter()
            result = entry(a)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        digest.update(output(name, result))
        times[name, (nrows, ncols)].append(best)
    return times


def main():
    digest = hashlib.sha256()
    total_inputs = 0
    for workload in WORKLOADS.values():
        triangles = list(builtin(workload.bases[0]).simplices(2))
        jobs = [job for category in
                workload.catalogue(triangles).values() for job in category]
        calls = record(jobs)
        times = replay(calls, digest)
        total_inputs += len(calls)
        print("%s: %d jobs, %d inputs" % (workload.name, len(jobs),
                                          len(calls)))
        print("  %-18s %-10s %6s %10s %10s" % ("entry", "shape", "count",
                                               "median_us", "total_us"))
        for (name, (nrows, ncols)), ts in sorted(times.items()):
            print("  %-18s %-10s %6d %10.1f %10.1f"
                  % (name, "%dx%d" % (nrows, ncols), len(ts),
                     1e6 * statistics.median(ts), 1e6 * sum(ts)))
        print("  total_us %.1f" % (1e6 * sum(map(sum, times.values()))))
    print("%d inputs %s" % (total_inputs, digest.hexdigest()))


if __name__ == "__main__":
    main()
